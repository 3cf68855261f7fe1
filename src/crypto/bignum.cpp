#include "crypto/bignum.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "util/hex.h"

namespace lateral::crypto {

void Bignum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

Bignum Bignum::from_limbs(std::vector<std::uint32_t> limbs) {
  Bignum n;
  n.limbs_ = std::move(limbs);
  n.trim();
  return n;
}

Bignum::Bignum(std::uint64_t value) {
  if (value != 0) limbs_.push_back(static_cast<std::uint32_t>(value));
  if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

Bignum Bignum::from_bytes(BytesView big_endian) {
  Bignum n;
  n.limbs_.assign((big_endian.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < big_endian.size(); ++i) {
    const std::size_t byte_from_lsb = big_endian.size() - 1 - i;
    n.limbs_[byte_from_lsb / 4] |=
        std::uint32_t(big_endian[i]) << (8 * (byte_from_lsb % 4));
  }
  n.trim();
  return n;
}

Result<Bignum> Bignum::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  auto bytes = util::from_hex(padded);
  if (!bytes) return bytes.error();
  return from_bytes(*bytes);
}

Bytes Bignum::to_bytes() const {
  if (is_zero()) return {};
  Bytes out;
  out.reserve(limbs_.size() * 4);
  // Emit big-endian, skipping leading zeros of the top limb.
  bool started = false;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      const auto b = static_cast<std::uint8_t>(limbs_[i] >> shift);
      if (!started && b == 0) continue;
      started = true;
      out.push_back(b);
    }
  }
  return out;
}

Result<Bytes> Bignum::to_bytes_padded(std::size_t width) const {
  Bytes raw = to_bytes();
  if (raw.size() > width) return Errc::invalid_argument;
  Bytes out(width - raw.size(), 0);
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

std::string Bignum::to_hex() const {
  if (is_zero()) return "0";
  std::string s = util::to_hex(to_bytes());
  // Strip a single leading zero nibble for canonical form.
  if (s.size() > 1 && s[0] == '0') s.erase(s.begin());
  return s;
}

std::size_t Bignum::bit_length() const {
  if (is_zero()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool Bignum::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::strong_ordering Bignum::operator<=>(const Bignum& other) const {
  if (limbs_.size() != other.limbs_.size())
    return limbs_.size() <=> other.limbs_.size();
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

Bignum Bignum::operator+(const Bignum& rhs) const {
  std::vector<std::uint32_t> out(std::max(limbs_.size(), rhs.limbs_.size()) + 1,
                                 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    out[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  return from_limbs(std::move(out));
}

Bignum Bignum::operator-(const Bignum& rhs) const {
  if (*this < rhs) throw Error("Bignum subtraction underflow");
  std::vector<std::uint32_t> out(limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = std::int64_t(limbs_[i]) - borrow;
    if (i < rhs.limbs_.size()) diff -= rhs.limbs_[i];
    if (diff < 0) {
      diff += (std::int64_t(1) << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<std::uint32_t>(diff);
  }
  return from_limbs(std::move(out));
}

Bignum Bignum::operator*(const Bignum& rhs) const {
  if (is_zero() || rhs.is_zero()) return Bignum();
  std::vector<std::uint32_t> out(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const std::uint64_t cur = std::uint64_t(out[i + j]) + a * rhs.limbs_[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    out[i + rhs.limbs_.size()] += static_cast<std::uint32_t>(carry);
  }
  return from_limbs(std::move(out));
}

Bignum Bignum::operator<<(std::size_t bits) const {
  if (is_zero()) return Bignum();
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  std::vector<std::uint32_t> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift)
      out[i + limb_shift + 1] |=
          static_cast<std::uint32_t>(std::uint64_t(limbs_[i]) >> (32 - bit_shift));
  }
  return from_limbs(std::move(out));
}

Bignum Bignum::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return Bignum();
  const std::size_t bit_shift = bits % 32;
  std::vector<std::uint32_t> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size())
      out[i] |= static_cast<std::uint32_t>(std::uint64_t(limbs_[i + limb_shift + 1])
                                           << (32 - bit_shift));
  }
  return from_limbs(std::move(out));
}

Bignum::DivMod Bignum::divmod(const Bignum& divisor) const {
  if (divisor.is_zero()) throw Error("Bignum division by zero");
  if (*this < divisor) return {Bignum(), *this};
  if (divisor.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    const std::uint64_t d = divisor.limbs_[0];
    std::vector<std::uint32_t> q(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    return {from_limbs(std::move(q)), Bignum(rem)};
  }

  // Knuth Algorithm D. Normalize so the top limb of v has its high bit set.
  int shift = 0;
  {
    std::uint32_t top = divisor.limbs_.back();
    while (!(top & 0x80000000u)) {
      top <<= 1;
      ++shift;
    }
  }
  const Bignum u_norm = *this << shift;
  const Bignum v_norm = divisor << shift;
  const std::size_t n = v_norm.limbs_.size();
  const std::size_t m = u_norm.limbs_.size() - n;

  std::vector<std::uint32_t> u(u_norm.limbs_);
  u.push_back(0);  // u has m+n+1 limbs
  const std::vector<std::uint32_t>& v = v_norm.limbs_;
  std::vector<std::uint32_t> q(m + 1, 0);

  const std::uint64_t base = std::uint64_t(1) << 32;
  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*b + u[j+n-1]) / v[n-1].
    const std::uint64_t numerator = (std::uint64_t(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t q_hat = numerator / v[n - 1];
    std::uint64_t r_hat = numerator % v[n - 1];
    while (q_hat >= base ||
           q_hat * v[n - 2] > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v[n - 1];
      if (r_hat >= base) break;
    }

    // Multiply-subtract: u[j..j+n] -= q_hat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = q_hat * v[i] + carry;
      carry = product >> 32;
      const std::int64_t diff =
          std::int64_t(u[i + j]) - std::int64_t(product & 0xFFFFFFFFu) - borrow;
      u[i + j] = static_cast<std::uint32_t>(diff);
      borrow = (diff < 0) ? 1 : 0;
    }
    const std::int64_t diff = std::int64_t(u[j + n]) - std::int64_t(carry) - borrow;
    u[j + n] = static_cast<std::uint32_t>(diff);

    if (diff < 0) {
      // q_hat was one too large: add back.
      --q_hat;
      std::uint64_t carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum = std::uint64_t(u[i + j]) + v[i] + carry2;
        u[i + j] = static_cast<std::uint32_t>(sum);
        carry2 = sum >> 32;
      }
      u[j + n] = static_cast<std::uint32_t>(u[j + n] + carry2);
    }
    q[j] = static_cast<std::uint32_t>(q_hat);
  }

  u.resize(n);
  Bignum remainder = from_limbs(std::move(u)) >> shift;
  return {from_limbs(std::move(q)), std::move(remainder)};
}

Bignum Bignum::mulmod(const Bignum& rhs, const Bignum& m) const {
  return ((*this) * rhs) % m;
}

// Montgomery arithmetic modulo an odd m > 1, in 64-bit words with
// 128-bit intermediates: for an n-word m, R = 2^(64n), and a value x is held
// in Montgomery form as the n words of x*R mod m. Multiplication is CIOS
// (coarsely integrated operand scanning), which interleaves the product with
// the reduction. The context owns every scratch buffer, so exponentiation
// allocates only its result.
class Bignum::Montgomery {
 public:
  using Words = std::vector<std::uint64_t>;

  explicit Montgomery(const Bignum& m)
      : modulus_(m),
        m_(pack(m, (m.limbs_.size() + 1) / 2)),
        one_(pack((Bignum(1) << (64 * m_.size())) % m, m_.size())),
        r2_(pack((Bignum(1) << (128 * m_.size())) % m, m_.size())),
        t_(m_.size() + 2),
        table_(16, Words(m_.size())) {
    // Newton's iteration for m^-1 mod 2^64: m0 is its own inverse mod 2^3,
    // and each step doubles the correct low bits (3 -> 6 -> ... -> 96).
    const std::uint64_t m0 = m_[0];
    std::uint64_t inv = m0;
    for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
    m_inv_ = 0 - inv;
  }

  /// R mod m: the Montgomery form of 1.
  const Words& one() const { return one_; }

  /// x*R mod m, for any x.
  Words to_mont(const Bignum& x) {
    Words out = pack(x < modulus_ ? x : x % modulus_, m_.size());
    mul(out, out, r2_);
    return out;
  }

  /// a*R^-1 mod m, as an ordinary Bignum.
  Bignum from_mont(const Words& a) {
    Words plain_one(m_.size(), 0);
    plain_one[0] = 1;
    Words out(m_.size());
    mul(out, a, plain_one);
    std::vector<std::uint32_t> limbs(2 * out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      limbs[2 * i] = static_cast<std::uint32_t>(out[i]);
      limbs[2 * i + 1] = static_cast<std::uint32_t>(out[i] >> 32);
    }
    return from_limbs(std::move(limbs));
  }

  /// out = a*b*R^-1 mod m, for a, b < m. out may alias a or b.
  void mul(Words& out, const Words& a, const Words& b) {
    using Wide = unsigned __int128;
    const std::size_t n = m_.size();
    std::uint64_t* t = t_.data();
    std::fill(t_.begin(), t_.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      // t += a * b[i]
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const Wide cur = Wide(a[j]) * b[i] + t[j] + carry;
        t[j] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
      Wide cur = Wide(t[n]) + carry;
      t[n] = static_cast<std::uint64_t>(cur);
      t[n + 1] = static_cast<std::uint64_t>(cur >> 64);
      // t = (t + q*m) / 2^64, with q chosen so the low word cancels.
      const std::uint64_t q = t[0] * m_inv_;
      cur = Wide(q) * m_[0] + t[0];
      carry = static_cast<std::uint64_t>(cur >> 64);
      for (std::size_t j = 1; j < n; ++j) {
        cur = Wide(q) * m_[j] + t[j] + carry;
        t[j - 1] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
      cur = Wide(t[n]) + carry;
      t[n - 1] = static_cast<std::uint64_t>(cur);
      t[n] = t[n + 1] + static_cast<std::uint64_t>(cur >> 64);
    }
    // t < 2m: one conditional subtraction brings it below m.
    bool ge = t[n] != 0;
    if (!ge) {
      ge = true;
      for (std::size_t j = n; j-- > 0;) {
        if (t[j] != m_[j]) {
          ge = t[j] > m_[j];
          break;
        }
      }
    }
    if (ge) {
      std::uint64_t borrow = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const Wide diff = Wide(t[j]) - m_[j] - borrow;
        t[j] = static_cast<std::uint64_t>(diff);
        borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
      }
    }
    out.assign(t, t + n);
  }

  /// base^e in Montgomery form, for base in Montgomery form. A fixed 4-bit
  /// window multiplies by table[digit] on every window (table[0] = R), so
  /// the sequence of operations depends only on e's bit length.
  Words pow(const Words& base, const Bignum& e) {
    const std::size_t windows = (e.bit_length() + 3) / 4;
    if (windows == 0) return one_;
    table_[0] = one_;
    table_[1] = base;
    for (std::size_t k = 2; k < table_.size(); ++k)
      mul(table_[k], table_[k - 1], base);
    // 4-bit windows never straddle a 32-bit limb.
    const auto digit = [&](std::size_t w) {
      return (e.limbs_[w / 8] >> (4 * (w % 8))) & 0xF;
    };
    Words acc = table_[digit(windows - 1)];
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (int i = 0; i < 4; ++i) mul(acc, acc, acc);
      mul(acc, acc, table_[digit(w)]);
    }
    return acc;
  }

 private:
  // The low `words` 64-bit words of x (x < 2^(64*words)).
  static Words pack(const Bignum& x, std::size_t words) {
    Words out(words, 0);
    for (std::size_t i = 0; i < x.limbs_.size(); ++i)
      out[i / 2] |= std::uint64_t(x.limbs_[i]) << (32 * (i % 2));
    return out;
  }

  Bignum modulus_;
  Words m_;                 // the modulus, packed
  std::uint64_t m_inv_{};   // -m^-1 mod 2^64
  Words one_;               // R mod m
  Words r2_;                // R^2 mod m, for to_mont
  Words t_;                 // CIOS accumulator, n + 2 words
  std::vector<Words> table_;  // pow's window table, base^0..base^15
};

Bignum Bignum::powmod(const Bignum& exponent, const Bignum& m) const {
  if (m.is_zero()) throw Error("Bignum powmod with zero modulus");
  if (m == Bignum(1)) return Bignum();
  if (m.is_odd()) {
    Montgomery mont(m);
    return mont.from_mont(mont.pow(mont.to_mont(*this), exponent));
  }
  // Montgomery form needs an odd modulus; even ones take plain
  // square-and-multiply.
  Bignum result(1);
  Bignum base = *this % m;
  const std::size_t bits = exponent.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exponent.bit(i)) result = result.mulmod(base, m);
    base = base.mulmod(base, m);
  }
  return result;
}

Bignum Bignum::gcd(Bignum a, Bignum b) {
  while (!b.is_zero()) {
    Bignum r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Result<Bignum> Bignum::invmod(const Bignum& m) const {
  // Extended Euclid on (a, m) tracking coefficients as (sign, magnitude)
  // pairs, since Bignum is unsigned.
  if (m.is_zero()) return Errc::crypto_failure;
  Bignum r0 = m, r1 = *this % m;
  // x-coefficients of `a` in the identity r = a*x + m*y (y not tracked).
  Bignum x0, x1(1);
  bool x0_neg = false, x1_neg = false;

  while (!r1.is_zero()) {
    const auto [q, r2] = r0.divmod(r1);
    // x2 = x0 - q * x1, with sign tracking.
    const Bignum qx1 = q * x1;
    Bignum x2;
    bool x2_neg;
    if (x0_neg == x1_neg) {
      // Same sign: result sign depends on magnitudes.
      if (x0 >= qx1) {
        x2 = x0 - qx1;
        x2_neg = x0_neg;
      } else {
        x2 = qx1 - x0;
        x2_neg = !x0_neg;
      }
    } else {
      x2 = x0 + qx1;
      x2_neg = x0_neg;
    }
    r0 = std::move(r1);
    r1 = r2;
    x0 = std::move(x1);
    x0_neg = x1_neg;
    x1 = std::move(x2);
    x1_neg = x2_neg;
  }
  if (r0 != Bignum(1)) return Errc::crypto_failure;  // not coprime
  Bignum inv = x0 % m;
  if (x0_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

Bignum Bignum::random_bits(HmacDrbg& drbg, std::size_t bits) {
  if (bits == 0) return Bignum();
  const std::size_t bytes = (bits + 7) / 8;
  Bytes raw = drbg.generate(bytes);
  // Clear excess top bits, then force the top bit so the width is exact.
  const std::size_t excess = bytes * 8 - bits;
  raw[0] &= static_cast<std::uint8_t>(0xFF >> excess);
  raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);
  return from_bytes(raw);
}

Bignum Bignum::random_below(HmacDrbg& drbg, const Bignum& bound) {
  if (bound.is_zero()) throw Error("random_below: zero bound");
  const std::size_t bytes = (bound.bit_length() + 7) / 8;
  for (;;) {
    Bignum candidate = from_bytes(drbg.generate(bytes));
    if (candidate < bound) return candidate;
  }
}

bool Bignum::is_probable_prime(HmacDrbg& drbg, int rounds) const {
  static const std::uint32_t kSmallPrimes[] = {
      2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
      53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113};
  if (*this < Bignum(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (*this == Bignum(p)) return true;
    if ((*this % Bignum(p)).is_zero()) return false;
  }

  // Write n-1 = d * 2^s.
  const Bignum n_minus_1 = *this - Bignum(1);
  Bignum d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  // Every witness runs in Montgomery form modulo this (odd) n, where 1 and
  // n-1 have fixed representations.
  Montgomery mont(*this);
  const Montgomery::Words one = mont.one();
  const Montgomery::Words minus_one = mont.to_mont(n_minus_1);
  auto witness = [&](const Bignum& a) {
    Montgomery::Words x = mont.pow(mont.to_mont(a), d);
    if (x == one || x == minus_one) return false;  // not a witness
    for (std::size_t i = 1; i < s; ++i) {
      mont.mul(x, x, x);
      if (x == minus_one) return false;
    }
    return true;  // composite witnessed
  };

  if (witness(Bignum(2))) return false;
  for (int round = 0; round < rounds; ++round) {
    const Bignum a =
        random_below(drbg, *this - Bignum(3)) + Bignum(2);  // [2, n-2]
    if (witness(a)) return false;
  }
  return true;
}

Bignum Bignum::generate_prime(HmacDrbg& drbg, std::size_t bits) {
  if (bits < 8) throw Error("generate_prime: need at least 8 bits");
  for (;;) {
    Bignum candidate = random_bits(drbg, bits);
    if (!candidate.is_odd()) candidate = candidate + Bignum(1);
    if (candidate.is_probable_prime(drbg, 16)) return candidate;
  }
}

}  // namespace lateral::crypto
