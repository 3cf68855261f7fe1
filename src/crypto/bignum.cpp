#include "crypto/bignum.h"

#include <algorithm>
#include <array>

#include "crypto/hmac.h"
#include "crypto/kernels.h"
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

namespace kernels {
namespace {

using Wide = unsigned __int128;

// The three-word column accumulator of product scanning: a column sums up to
// 2n double-word products, which overflow two words, so `hi` counts the
// carries out of `lo`.
struct Column {
  Wide lo = 0;
  std::uint64_t hi = 0;

  void add(Wide product) {
    lo += product;
    hi += lo < product;
  }
  void add(const Column& other) {
    add(other.lo);
    hi += other.hi;
  }
  void twice() {
    hi = (hi << 1) | static_cast<std::uint64_t>(lo >> 127);
    lo <<= 1;
  }
  std::uint64_t low() const { return static_cast<std::uint64_t>(lo); }
  /// Returns the low word and moves the accumulator down by one word.
  std::uint64_t shift() {
    const std::uint64_t word = low();
    lo = (lo >> 64) | (Wide(hi) << 64);
    hi = 0;
    return word;
  }
};

// out = a*b*R^-1 mod m for a, b < m, by finely integrated product scanning
// (FIPS): column k of the 2n-word sum a*b + u*m gathers every a[j]*b[k-j]
// and u[j]*m[k-j] at once, where u[k] = column k * -m^-1 mod 2^64 cancels
// the low column k < n; columns n..2n-1 are the result. Square computes
// a*a, each cross product a[j]*a[k-j] (j < k-j) once and doubled. N fixes
// the width at compile time, and the unroll hints then turn every loop
// into straight-line code; N == 0 takes the width from `words`, with
// `scratch` (2n words per lane) holding u and the result. out may alias a
// or b.
//
// At 4 words one lane's chain of column additions is latency-bound, so L
// independent lanes share each column, every product of one lane next to
// the same product of the others, and their carry chains overlap (a
// squaring costs ~0.7x per lane). At other widths the lanes take the body
// in turn: from 8 words a column has enough independent products to keep
// the multiplier busy, and sharing it only spilled (a shared 8-word
// multiply cost 1.3x per lane).
template <std::size_t N, bool Square, std::size_t L>
void fips(const MontgomeryLanes<L>& lanes, std::size_t words,
          std::uint64_t* scratch) {
  if constexpr (L > 1 && N != 4) {
    for (std::size_t l = 0; l < L; ++l)
      fips<N, Square, 1>({{lanes.out[l]}, {lanes.a[l]}, {lanes.b[l]},
                          {lanes.m[l]}, {lanes.m_inv[l]}},
                         words, scratch);
    return;
  }
  const MontgomeryLanes<L> x = lanes;  // no reload after a scratch store
  const std::size_t n = N ? N : words;
  std::uint64_t fixed[N ? 2 * N * L : 1] = {};
  std::uint64_t* u[L];
  std::uint64_t* r[L];
  Column acc[L];
#pragma GCC unroll 2
  for (std::size_t l = 0; l < L; ++l) {
    u[l] = (N ? fixed : scratch) + 2 * n * l;
    r[l] = u[l] + n;
  }
#pragma GCC unroll 32
  for (std::size_t k = 0; k + 1 < 2 * n; ++k) {
    // Column k pairs indices j and k-j with both in [first, last].
    const std::size_t first = k < n ? 0 : k + 1 - n;
    const std::size_t last = k < n ? k : n - 1;
    if constexpr (Square) {
      Column cross[L];
#pragma GCC unroll 16
      for (std::size_t j = first; j < k - j; ++j)
#pragma GCC unroll 2
        for (std::size_t l = 0; l < L; ++l)
          cross[l].add(Wide(x.a[l][j]) * x.a[l][k - j]);
#pragma GCC unroll 2
      for (std::size_t l = 0; l < L; ++l) {
        cross[l].twice();
        if (k % 2 == 0) cross[l].add(Wide(x.a[l][k / 2]) * x.a[l][k / 2]);
        acc[l].add(cross[l]);
      }
    } else {
#pragma GCC unroll 16
      for (std::size_t j = first; j <= last; ++j)
#pragma GCC unroll 2
        for (std::size_t l = 0; l < L; ++l)
          acc[l].add(Wide(x.a[l][j]) * x.b[l][k - j]);
    }
    // While k < n, u[k] is not known yet: it is the word that cancels
    // this column once the other reduction products are in.
    const std::size_t known = k < n ? k : n;
#pragma GCC unroll 16
    for (std::size_t j = first; j < known; ++j)
#pragma GCC unroll 2
      for (std::size_t l = 0; l < L; ++l)
        acc[l].add(Wide(u[l][j]) * x.m[l][k - j]);
#pragma GCC unroll 2
    for (std::size_t l = 0; l < L; ++l) {
      if (k < n) {
        u[l][k] = acc[l].low() * x.m_inv[l];
        acc[l].add(Wide(u[l][k]) * x.m[l][0]);
        acc[l].shift();  // zero
      } else {
        r[l][k - n] = acc[l].shift();
      }
    }
  }
#pragma GCC unroll 2
  for (std::size_t l = 0; l < L; ++l) {
    r[l][n - 1] = acc[l].shift();
    const std::uint64_t top = acc[l].low();
    // top:r < 2m: subtract m once unless r < m (top clear and the
    // subtraction borrows).
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const Wide diff = Wide(r[l][j]) - x.m[l][j] - borrow;
      x.out[l][j] = static_cast<std::uint64_t>(diff);
      borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
    }
    if (borrow > top) std::copy(r[l], r[l] + n, x.out[l]);
  }
}

// The one-lane entry, in the signature of a single product.
template <std::size_t N, bool Square>
void fips1(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
           const std::uint64_t* m, std::uint64_t m_inv, std::size_t words,
           std::uint64_t* scratch) {
  fips<N, Square, 1>({{out}, {a}, {b}, {m}, {m_inv}}, words, scratch);
}

template <std::size_t N>
constexpr MontgomeryKernels kFips = {&fips1<N, false>, &fips1<N, true>,
                                     &fips<N, false, 2>, &fips<N, true, 2>};

}  // namespace

MontgomeryKernels montgomery_kernels(std::size_t n) {
  switch (n) {
    case 4: return kFips<4>;
    case 8: return kFips<8>;
    case 12: return kFips<12>;
    case 16: return kFips<16>;
    default: return kFips<0>;
  }
}

}  // namespace kernels

// Montgomery arithmetic modulo an odd m > 1, in 64-bit words with
// 128-bit intermediates: for an n-word m, R = 2^(64n), and a value x is held
// in Montgomery form as the n words of x*R mod m. Multiplication and
// squaring are the fips kernels above, picked once per context by m's word
// count. The context holds only constants; every operation takes its
// scratch from the caller or allocates its own, so one context may serve
// many threads.
class Bignum::Montgomery {
 public:
  using Words = std::vector<std::uint64_t>;

  /// Residues of m's word count, or of `words` if that is more (a shorter
  /// modulus can then share the two-lane kernel with a longer one).
  explicit Montgomery(const Bignum& m, std::size_t words = 0)
      : modulus_(m),
        m_(pack(m, std::max((m.limbs_.size() + 1) / 2, words))),
        one_(pack((Bignum(1) << (64 * m_.size())) % m, m_.size())),
        r2_(pack((Bignum(1) << (128 * m_.size())) % m, m_.size())),
        kernels_(kernels::montgomery_kernels(m_.size())) {
    // Newton's iteration for m^-1 mod 2^64: m0 is its own inverse mod 2^3,
    // and each step doubles the correct low bits (3 -> 6 -> ... -> 96).
    const std::uint64_t m0 = m_[0];
    std::uint64_t inv = m0;
    for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
    m_inv_ = 0 - inv;
  }

  const Bignum& modulus() const { return modulus_; }

  /// Words per residue.
  std::size_t size() const { return m_.size(); }

  /// Scratch words for mul and sqr.
  Words scratch() const { return Words(2 * m_.size()); }

  /// R mod m: the Montgomery form of 1.
  const Words& one() const { return one_; }

  /// x*R mod m, for any x.
  Words to_mont(const Bignum& x) const {
    Words out = pack(x < modulus_ ? x : x % modulus_, m_.size());
    Words t = scratch();
    mul(out.data(), out.data(), r2_.data(), t.data());
    return out;
  }

  /// a*R^-1 mod m, as an ordinary Bignum.
  Bignum from_mont(const Words& a) const {
    Words plain_one(m_.size(), 0);
    plain_one[0] = 1;
    Words out(m_.size());
    Words t = scratch();
    mul(out.data(), a.data(), plain_one.data(), t.data());
    std::vector<std::uint32_t> limbs(2 * out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      limbs[2 * i] = static_cast<std::uint32_t>(out[i]);
      limbs[2 * i + 1] = static_cast<std::uint32_t>(out[i] >> 32);
    }
    return from_limbs(std::move(limbs));
  }

  /// out = a*b*R^-1 mod m, for a, b < m, with t a scratch() buffer.
  /// out may alias a or b.
  void mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
           std::uint64_t* t) const {
    kernels_.mul(out, a, b, m_.data(), m_inv_, m_.size(), t);
  }

  /// out = a*a*R^-1 mod m; mul(out, a, a, t) with fewer products.
  void sqr(std::uint64_t* out, const std::uint64_t* a, std::uint64_t* t) const {
    kernels_.sqr(out, a, a, m_.data(), m_inv_, m_.size(), t);
  }

  /// base^e in Montgomery form, for base in Montgomery form.
  Words pow(const Words& base, const Bignum& e) const {
    const std::size_t bits = e.bit_length();
    if (bits == 0) return one_;
    if (bits <= 64) {
      // Left-to-right square-and-multiply, no table: 17 operations for
      // e = 65537 against ~34 for the window, but the sequence
      // follows e's bits. Every exponent this short is public here: e in
      // rsa_verify and in rsa_sign's fault check. The secret ones (DH x
      // at 256 bits, RSA d, dp and dq at about the size of n or p) are far
      // longer and take the window.
      Words acc = base;
      Words t = scratch();
      for (std::size_t i = bits - 1; i-- > 0;) {
        sqr(acc.data(), acc.data(), t.data());
        if (e.bit(i)) mul(acc.data(), acc.data(), base.data(), t.data());
      }
      return acc;
    }
    return window<1>({this}, {&base}, {&e})[0];
  }

  /// base[i]^e[i] in Montgomery form under ctx[i], for L contexts of one
  /// width, by a fixed 4-bit window in the L-lane kernels. Every window
  /// multiplies by table[digit] (table[0] = R), and a shorter exponent's
  /// missing high digits are zero, under which one stays one, so the
  /// sequence of operations depends only on the longest exponent's bit
  /// length. Throws Error if the widths differ.
  template <std::size_t L>
  static std::array<Words, L> window(
      const std::array<const Montgomery*, L>& ctx,
      const std::array<const Words*, L>& base,
      const std::array<const Bignum*, L>& e) {
    const std::size_t n = ctx[0]->size();
    std::size_t bits = 0;
    kernels::MontgomeryLanes<L> op{};
    for (std::size_t l = 0; l < L; ++l) {
      if (ctx[l]->size() != n)
        throw Error("Montgomery: paired moduli of different widths");
      bits = std::max(bits, e[l]->bit_length());
      op.m[l] = ctx[l]->m_.data();
      op.m_inv[l] = ctx[l]->m_inv_;
    }
    // Per lane, slots 0..15 hold base^0..base^15 and slot 16 the
    // accumulator.
    constexpr std::size_t kAcc = 16;
    Words slots(17 * n * L);
    Words t(2 * n * L);
    const auto slot = [&](std::size_t l, std::size_t k) {
      return slots.data() + (17 * l + k) * n;
    };
    // dst = a*b (or a*a) in every lane, b's slot picked per lane.
    const kernels::MontgomeryKernels& k = ctx[0]->kernels_;
    const auto apply = [&](bool square, std::size_t dst, std::size_t a,
                           const auto& b_of) {
      for (std::size_t l = 0; l < L; ++l) {
        op.out[l] = slot(l, dst);
        op.a[l] = slot(l, a);
        op.b[l] = slot(l, b_of(l));
      }
      if constexpr (L == 1)
        (square ? k.sqr : k.mul)(op.out[0], op.a[0], op.b[0], op.m[0],
                                 op.m_inv[0], n, t.data());
      else
        (square ? k.sqr2 : k.mul2)(op, n, t.data());
    };
    for (std::size_t l = 0; l < L; ++l) {
      std::copy(ctx[l]->one_.begin(), ctx[l]->one_.end(), slot(l, 0));
      std::copy(base[l]->begin(), base[l]->end(), slot(l, 1));
    }
    for (std::size_t d = 2; d < 16; ++d) {
      if (d % 2 == 0)
        apply(true, d, d / 2, [&](std::size_t) { return d / 2; });
      else
        apply(false, d, d - 1, [](std::size_t) { return 1; });
    }
    // 4-bit windows never straddle a 32-bit limb.
    const auto digit = [&](std::size_t l, std::size_t w) -> std::size_t {
      const std::vector<std::uint32_t>& limbs = e[l]->limbs_;
      return w / 8 < limbs.size() ? (limbs[w / 8] >> (4 * (w % 8))) & 0xF : 0;
    };
    const std::size_t windows = std::max<std::size_t>((bits + 3) / 4, 1);
    for (std::size_t l = 0; l < L; ++l)
      std::copy_n(slot(l, digit(l, windows - 1)), n, slot(l, kAcc));
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (int i = 0; i < 4; ++i)
        apply(true, kAcc, kAcc, [](std::size_t) { return kAcc; });
      apply(false, kAcc, kAcc, [&](std::size_t l) { return digit(l, w); });
    }
    std::array<Words, L> out;
    for (std::size_t l = 0; l < L; ++l)
      out[l].assign(slot(l, kAcc), slot(l, kAcc) + n);
    return out;
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
  kernels::MontgomeryKernels kernels_;
};

Bignum Bignum::powmod(const Bignum& exponent, const Bignum& m) const {
  if (m.is_zero()) throw Error("Bignum powmod with zero modulus");
  if (m == Bignum(1)) return Bignum();
  if (m.is_odd()) {
    const Montgomery mont(m);
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

MontgomeryModulus::MontgomeryModulus(const Bignum& m, std::size_t words) {
  if (!m.is_odd() || m == Bignum(1))
    throw Error("MontgomeryModulus: modulus must be odd and greater than 1");
  mont_ = std::make_unique<const Bignum::Montgomery>(m, words);
}

MontgomeryModulus::~MontgomeryModulus() = default;
MontgomeryModulus::MontgomeryModulus(MontgomeryModulus&&) noexcept = default;

const Bignum& MontgomeryModulus::value() const { return mont_->modulus(); }

Bignum MontgomeryModulus::powmod(const Bignum& base,
                                 const Bignum& exponent) const {
  return mont_->from_mont(mont_->pow(mont_->to_mont(base), exponent));
}

std::array<Bignum, 2> MontgomeryModulus::powmod_pair(
    const MontgomeryModulus& m0, const Bignum& base0, const Bignum& exponent0,
    const MontgomeryModulus& m1, const Bignum& base1,
    const Bignum& exponent1) {
  const Bignum::Montgomery& c0 = *m0.mont_;
  const Bignum::Montgomery& c1 = *m1.mont_;
  const Bignum::Montgomery::Words b0 = c0.to_mont(base0);
  const Bignum::Montgomery::Words b1 = c1.to_mont(base1);
  const auto x = Bignum::Montgomery::window<2>({&c0, &c1}, {&b0, &b1},
                                               {&exponent0, &exponent1});
  return {c0.from_mont(x[0]), c1.from_mont(x[1])};
}

FixedBaseTable::FixedBaseTable(MontgomeryModulus m, const Bignum& g,
                               std::size_t max_exponent_bits)
    : m_(std::move(m)), rows_((max_exponent_bits + 3) / 4) {
  const Bignum::Montgomery& mont = *m_.mont_;
  const std::size_t n = mont.size();
  table_.resize(rows_ * 15 * n);
  const auto entry = [&](std::size_t row, std::size_t d) {
    return table_.data() + (row * 15 + d - 1) * n;
  };
  Bignum::Montgomery::Words t = mont.scratch();
  const Bignum::Montgomery::Words g_mont = mont.to_mont(g);
  for (std::size_t row = 0; row < rows_; ++row) {
    // g^(16^row): g itself, then the square of g^(8*16^(row-1)).
    if (row == 0)
      std::copy(g_mont.begin(), g_mont.end(), entry(0, 1));
    else
      mont.sqr(entry(row, 1), entry(row - 1, 8), t.data());
    // Even digits square half their digit, odd ones multiply by g^(16^row).
    for (std::size_t d = 2; d <= 15; ++d) {
      if (d % 2 == 0)
        mont.sqr(entry(row, d), entry(row, d / 2), t.data());
      else
        mont.mul(entry(row, d), entry(row, d - 1), entry(row, 1), t.data());
    }
  }
}

Bignum FixedBaseTable::pow(const Bignum& x) const {
  if (x.bit_length() > 4 * rows_)
    throw Error("FixedBaseTable: exponent wider than the table");
  const Bignum::Montgomery& mont = *m_.mont_;
  const std::size_t n = mont.size();
  Bignum::Montgomery::Words t = mont.scratch();
  Bignum::Montgomery::Words acc = mont.one();
  for (std::size_t row = 0; row < rows_; ++row) {
    const std::size_t limb = row / 8;
    const std::uint32_t d =
        limb < x.limbs_.size() ? (x.limbs_[limb] >> (4 * (row % 8))) & 0xF : 0;
    const std::uint64_t* factor =
        d == 0 ? mont.one().data() : table_.data() + (row * 15 + d - 1) * n;
    mont.mul(acc.data(), acc.data(), factor, t.data());
  }
  return mont.from_mont(acc);
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

namespace {

// The odd primes below 114, for trial division, in runs whose products fit
// in 32 bits (3*5*...*29 = 3234846615, 31*...*47, 53*...*71, 73*...*97,
// 101*...*109, 113): one remainder over the limbs per run, then one 32-bit
// remainder per prime.
constexpr std::uint32_t kOddSmallPrimes[] = {
    3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37,  41,  43,  47,  53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113};
constexpr std::size_t kRunEnds[] = {9, 14, 19, 24, 28, 29};

}  // namespace

bool Bignum::has_small_prime_factor() const {
  if (!is_odd()) return true;
  std::size_t begin = 0;
  for (const std::size_t end : kRunEnds) {
    std::uint64_t product = 1;
    for (std::size_t i = begin; i < end; ++i) product *= kOddSmallPrimes[i];
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;)
      rem = ((rem << 32) | limbs_[i]) % product;
    for (std::size_t i = begin; i < end; ++i)
      if (rem % kOddSmallPrimes[i] == 0) return true;
    begin = end;
  }
  return false;
}

// One odd candidate n > 113 under Miller-Rabin: n-1 = d*2^s, and n's
// Montgomery context with the forms of 1 and n-1.
class Bignum::MillerRabin {
 public:
  explicit MillerRabin(const Bignum& n)
      : mont_(n), minus_one_(mont_.to_mont(n - Bignum(1))) {
    d_ = n - Bignum(1);
    while (!d_.is_odd()) {
      d_ = d_ >> 1;
      ++s_;
    }
  }

  /// Whether base[i] witnesses that candidate c[i] is composite, for L
  /// candidates of one width: the L ladders base^d run as one in the
  /// L-lane kernel, then each lane squares on alone.
  template <std::size_t L>
  static std::array<bool, L> witnesses(
      const std::array<const MillerRabin*, L>& c,
      const std::array<const Bignum*, L>& base) {
    std::array<const Montgomery*, L> ctx;
    std::array<Montgomery::Words, L> b;
    std::array<const Montgomery::Words*, L> b_of;
    std::array<const Bignum*, L> d;
    for (std::size_t l = 0; l < L; ++l) {
      ctx[l] = &c[l]->mont_;
      b[l] = ctx[l]->to_mont(*base[l]);
      b_of[l] = &b[l];
      d[l] = &c[l]->d_;
    }
    std::array<Montgomery::Words, L> x = Montgomery::window<L>(ctx, b_of, d);
    std::array<bool, L> verdict;
    for (std::size_t l = 0; l < L; ++l) verdict[l] = c[l]->composite(x[l]);
    return verdict;
  }

  /// `rounds` bases drawn uniformly from [2, n-2], two to a pair; true
  /// when none witnesses. It draws exactly what rounds run one at a time
  /// draw: when the first base of a pair witnesses, the DRBG goes back to
  /// where it was before the second base was drawn.
  bool random_rounds(HmacDrbg& drbg, int rounds) const {
    const Bignum bound = mont_.modulus() - Bignum(3);
    for (int round = 0; round < rounds; round += 2) {
      const Bignum a = random_below(drbg, bound) + Bignum(2);
      if (round + 1 == rounds) return !witnesses<1>({this}, {&a})[0];
      const HmacDrbg before_b = drbg;
      const Bignum b = random_below(drbg, bound) + Bignum(2);
      const auto [a_witnesses, b_witnesses] =
          witnesses<2>({this, this}, {&a, &b});
      if (a_witnesses) {
        drbg = before_b;
        return false;
      }
      if (b_witnesses) return false;
    }
    return true;
  }

 private:
  // Whether x = base^d (Montgomery form) witnesses compositeness.
  bool composite(Montgomery::Words& x) const {
    if (x == mont_.one() || x == minus_one_) return false;
    Montgomery::Words t = mont_.scratch();
    for (std::size_t i = 1; i < s_; ++i) {
      mont_.sqr(x.data(), x.data(), t.data());
      if (x == minus_one_) return false;
    }
    return true;
  }

  Montgomery mont_;
  Montgomery::Words minus_one_;
  Bignum d_;
  std::size_t s_ = 0;
};

bool Bignum::is_probable_prime(HmacDrbg& drbg, int rounds) const {
  if (is_zero()) return false;
  if (limbs_.size() == 1 && limbs_[0] <= 113) {
    const std::uint32_t v = limbs_[0];
    return v == 2 || std::find(std::begin(kOddSmallPrimes),
                               std::end(kOddSmallPrimes),
                               v) != std::end(kOddSmallPrimes);
  }
  if (has_small_prime_factor()) return false;
  const MillerRabin candidate(*this);
  const Bignum two(2);
  if (MillerRabin::witnesses<1>({&candidate}, {&two})[0]) return false;
  return candidate.random_rounds(drbg, rounds);
}

Bignum Bignum::generate_prime(HmacDrbg& drbg, std::size_t bits) {
  if (bits < 8) throw Error("generate_prime: need at least 8 bits");
  // The next odd candidate that trial division keeps (above 113, so never
  // one of the small primes).
  const auto survivor = [&] {
    for (;;) {
      Bignum candidate = random_bits(drbg, bits);
      if (!candidate.is_odd()) candidate = candidate + Bignum(1);
      if (!candidate.has_small_prime_factor()) return candidate;
    }
  };
  // Two survivors take their base-2 witnesses as one pair, the second
  // drawn ahead of time. A first that passes restores the DRBG to just
  // after it was drawn, so its random rounds, and every later draw, are
  // those of candidates tested one at a time.
  const Bignum two(2);
  for (;;) {
    const Bignum a = survivor();
    const HmacDrbg after_a = drbg;
    const Bignum b = survivor();
    const MillerRabin ma(a), mb(b);
    const auto [a_witnessed, b_witnessed] =
        MillerRabin::witnesses<2>({&ma, &mb}, {&two, &two});
    if (!a_witnessed) {
      drbg = after_a;
      if (ma.random_rounds(drbg, 16)) return a;
    } else if (!b_witnessed && mb.random_rounds(drbg, 16)) {
      return b;
    }
  }
}

}  // namespace lateral::crypto
