// Bignum arithmetic: identities, division properties, modular arithmetic,
// primality. Property sweeps use randomized operands checked against
// algebraic invariants rather than fixed expected values.
#include <gtest/gtest.h>

#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/rsa.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lateral::crypto {
namespace {

Bignum rand_bignum(util::Xoshiro& rng, std::size_t max_bytes) {
  return Bignum::from_bytes(rng.bytes(1 + rng.below(max_bytes)));
}

// Reference for powmod: right-to-left square-and-multiply over mulmod
// (schoolbook product, Knuth D remainder), independent of Montgomery form.
Bignum ref_powmod(const Bignum& base, const Bignum& e, const Bignum& m) {
  Bignum result = Bignum(1) % m;
  Bignum b = base % m;
  for (std::size_t i = 0; i < e.bit_length(); ++i) {
    if (e.bit(i)) result = result.mulmod(b, m);
    b = b.mulmod(b, m);
  }
  return result;
}

Bignum all_ones(std::size_t bits) { return (Bignum(1) << bits) - Bignum(1); }

TEST(Bignum, ZeroProperties) {
  const Bignum zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_bytes().size(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
}

TEST(Bignum, FromUint64) {
  EXPECT_EQ(Bignum(0x1234).to_hex(), "1234");
  EXPECT_EQ(Bignum(0xFFFFFFFFFFFFFFFFULL).to_hex(), "ffffffffffffffff");
  EXPECT_EQ(Bignum(1).bit_length(), 1u);
  EXPECT_EQ(Bignum(0x100).bit_length(), 9u);
}

TEST(Bignum, BytesRoundTrip) {
  util::Xoshiro rng(1);
  for (int i = 0; i < 50; ++i) {
    Bytes raw = rng.bytes(1 + rng.below(40));
    raw[0] |= 1;  // avoid leading zero ambiguity
    const Bignum n = Bignum::from_bytes(raw);
    EXPECT_EQ(n.to_bytes(), raw);
  }
}

TEST(Bignum, LeadingZerosCanonicalized) {
  const Bytes padded = {0x00, 0x00, 0x12, 0x34};
  EXPECT_EQ(Bignum::from_bytes(padded), Bignum(0x1234));
}

TEST(Bignum, HexRoundTrip) {
  auto n = Bignum::from_hex("deadbeefcafebabe0123456789abcdef");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->to_hex(), "deadbeefcafebabe0123456789abcdef");
}

TEST(Bignum, HexRejectsGarbage) {
  EXPECT_FALSE(Bignum::from_hex("xyz").ok());
}

TEST(Bignum, PaddedBytes) {
  auto padded = Bignum(0x1234).to_bytes_padded(4);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, (Bytes{0x00, 0x00, 0x12, 0x34}));
  EXPECT_FALSE(Bignum(0x123456).to_bytes_padded(2).ok());
}

TEST(Bignum, Comparisons) {
  EXPECT_LT(Bignum(3), Bignum(5));
  EXPECT_GT(Bignum(1) << 64, Bignum(0xFFFFFFFFFFFFFFFFULL));
  EXPECT_EQ(Bignum(7), Bignum(7));
}

TEST(Bignum, AdditionCarries) {
  const Bignum max32(0xFFFFFFFFULL);
  EXPECT_EQ(max32 + Bignum(1), Bignum(0x100000000ULL));
  const Bignum big = (Bignum(1) << 128) - Bignum(1);
  EXPECT_EQ((big + Bignum(1)).bit_length(), 129u);
}

TEST(Bignum, SubtractionBorrows) {
  EXPECT_EQ(Bignum(0x100000000ULL) - Bignum(1), Bignum(0xFFFFFFFFULL));
  EXPECT_EQ(Bignum(5) - Bignum(5), Bignum());
  EXPECT_THROW(Bignum(3) - Bignum(4), Error);
}

TEST(Bignum, MultiplicationKnown) {
  EXPECT_EQ(Bignum(0xFFFFFFFFULL) * Bignum(0xFFFFFFFFULL),
            Bignum(0xFFFFFFFE00000001ULL));
  EXPECT_EQ(Bignum(12345) * Bignum(), Bignum());
}

TEST(Bignum, ShiftsInverse) {
  util::Xoshiro rng(2);
  for (int i = 0; i < 30; ++i) {
    const Bignum n = rand_bignum(rng, 24);
    const std::size_t shift = rng.below(100);
    EXPECT_EQ((n << shift) >> shift, n);
  }
}

TEST(Bignum, ShiftEqualsMultiplyByPowerOfTwo) {
  const Bignum n(0x1234567890ABCDEFULL);
  EXPECT_EQ(n << 5, n * Bignum(32));
}

TEST(Bignum, DivisionByZeroThrows) {
  EXPECT_THROW(Bignum(5).divmod(Bignum()), Error);
}

TEST(Bignum, DivModIdentityProperty) {
  // a == q*b + r with r < b, across random operand sizes (hits both the
  // single-limb fast path and Knuth D, including the add-back case space).
  util::Xoshiro rng(3);
  for (int i = 0; i < 300; ++i) {
    const Bignum a = rand_bignum(rng, 32);
    Bignum b = rand_bignum(rng, 16);
    if (b.is_zero()) b = Bignum(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(Bignum, DivModSmallDivisorFastPath) {
  const Bignum a = (Bignum(1) << 100) + Bignum(12345);
  const auto [q, r] = a.divmod(Bignum(7));
  EXPECT_EQ(q * Bignum(7) + r, a);
  EXPECT_LT(r, Bignum(7));
}

TEST(Bignum, KnuthDAddBackCases) {
  // Crafted operands that drive Algorithm D's rare "add back" correction
  // (q_hat estimated one too large). Classic trigger family: u with a
  // high limb pattern just below the divisor's leading limbs.
  struct Case {
    const char* u;
    const char* v;
  };
  const Case cases[] = {
      // Knuth's own add-back example family (base 2^32).
      {"7fffffff800000010000000000000000", "800000008000000200000005"},
      {"8000000000000000fffffffe00000000", "80000000ffffffff"},
      {"00008000000000000000fffe00000000", "800000000000ffff"},
  };
  for (const Case& c : cases) {
    const auto u = *crypto::Bignum::from_hex(c.u);
    const auto v = *crypto::Bignum::from_hex(c.v);
    const auto [q, r] = u.divmod(v);
    EXPECT_LT(r, v) << c.u;
    EXPECT_EQ(q * v + r, u) << c.u;
  }
}

TEST(Bignum, DivisorWithManyEqualLimbs) {
  // Equal leading limbs stress the q_hat refinement loop.
  const auto u = *crypto::Bignum::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffff");
  const auto v = *crypto::Bignum::from_hex("ffffffffffffffffffffffff");
  const auto [q, r] = u.divmod(v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(Bignum, ModOperator) {
  EXPECT_EQ(Bignum(17) % Bignum(5), Bignum(2));
  EXPECT_EQ(Bignum(4) % Bignum(5), Bignum(4));
}

TEST(Bignum, MulModMatchesDirect) {
  util::Xoshiro rng(4);
  for (int i = 0; i < 50; ++i) {
    const Bignum a = rand_bignum(rng, 16);
    const Bignum b = rand_bignum(rng, 16);
    Bignum m = rand_bignum(rng, 8);
    if (m.is_zero()) m = Bignum(97);
    EXPECT_EQ(a.mulmod(b, m), (a * b) % m);
  }
}

TEST(Bignum, PowModKnownValues) {
  EXPECT_EQ(Bignum(2).powmod(Bignum(10), Bignum(1000)), Bignum(24));
  EXPECT_EQ(Bignum(5).powmod(Bignum(117), Bignum(19)), Bignum(1));
  EXPECT_EQ(Bignum(7).powmod(Bignum(), Bignum(13)), Bignum(1));  // x^0 = 1
  EXPECT_EQ(Bignum(7).powmod(Bignum(5), Bignum(1)), Bignum());   // mod 1
}

TEST(Bignum, PowModFermat) {
  // a^(p-1) = 1 mod p for prime p and gcd(a,p)=1.
  const Bignum p(1000003);
  util::Xoshiro rng(5);
  for (int i = 0; i < 20; ++i) {
    const Bignum a(2 + rng.below(1000000));
    EXPECT_EQ(a.powmod(p - Bignum(1), p), Bignum(1));
  }
}

// Odd moduli take the Montgomery path; these are its boundary shapes.
std::vector<Bignum> odd_edge_moduli() {
  util::Xoshiro rng(7);
  std::vector<Bignum> moduli = {Bignum(3), Bignum(0xFFFFFFFFULL),
                                Bignum(0xFFFFFFFFFFFFFFFFULL)};
  // 2^k - 1, across the 32- and 64-bit word boundaries.
  for (const std::size_t k : {2u, 5u, 31u, 33u, 63u, 65u, 96u, 127u, 128u,
                              129u, 521u})
    moduli.push_back(all_ones(k));
  // Top 64-bit word exactly 1: an odd limb count whose top limb is 1.
  for (const std::size_t words : {1u, 2u, 5u}) {
    const Bignum top = Bignum(1) << (64 * words);
    moduli.push_back(top + Bignum(1));
    Bignum low = Bignum::from_bytes(rng.bytes(8 * words));
    if (!low.is_odd()) low = low + Bignum(1);
    moduli.push_back(top + low);
  }
  // Random odd moduli of 1, 3, 8 and 17 32-bit limbs.
  for (const std::size_t limbs : {1u, 3u, 8u, 17u}) {
    Bytes raw = rng.bytes(4 * limbs);
    raw.front() |= 0x80;
    raw.back() |= 1;
    moduli.push_back(Bignum::from_bytes(raw));
  }
  return moduli;
}

TEST(Bignum, PowModEdgeBasesAndExponents) {
  util::Xoshiro rng(8);
  for (const Bignum& m : odd_edge_moduli()) {
    const std::size_t bits = m.bit_length();
    const Bignum bases[] = {Bignum(),
                            Bignum(1),
                            m - Bignum(1),
                            m,
                            m + Bignum(1),
                            m * m * Bignum(7) + Bignum(5),
                            Bignum(1) << (3 * bits)};
    const Bignum exponents[] = {
        Bignum(),
        Bignum(1),
        Bignum(2),
        Bignum(65537),
        all_ones(64),
        all_ones(bits),
        Bignum::from_bytes(rng.bytes(2 * ((bits + 7) / 8) + 3))};
    for (const Bignum& base : bases) {
      for (const Bignum& e : exponents) {
        EXPECT_EQ(base.powmod(e, m), ref_powmod(base, e, m))
            << "m=" << m.to_hex() << " base=" << base.to_hex()
            << " e=" << e.to_hex();
      }
    }
    EXPECT_EQ(Bignum().powmod(Bignum(), m), Bignum(1));
    EXPECT_EQ((m - Bignum(1)).powmod(Bignum(2), m), Bignum(1));
    EXPECT_EQ((m - Bignum(1)).powmod(Bignum(65537), m), m - Bignum(1));
  }
}

// Seeded random odd moduli of every size from 1 to 40 32-bit limbs; odd
// limb counts leave the top 64-bit word half empty.
TEST(Bignum, PowModMatchesMulmodChainAtEverySize) {
  util::Xoshiro rng(15);
  for (std::size_t limbs = 1; limbs <= 40; ++limbs) {
    Bytes raw = rng.bytes(4 * limbs);
    raw.front() |= 1;  // exactly `limbs` limbs
    raw.back() |= 1;   // odd
    const Bignum m = Bignum::from_bytes(raw);
    for (int trial = 0; trial < 2; ++trial) {
      const Bignum base = Bignum::from_bytes(rng.bytes(1 + rng.below(8 * limbs)));
      const Bignum e = Bignum::from_bytes(rng.bytes(1 + rng.below(4 * limbs + 8)));
      EXPECT_EQ(base.powmod(e, m), ref_powmod(base, e, m))
          << "limbs=" << limbs << " m=" << m.to_hex();
    }
  }
}

TEST(Bignum, PowModEvenModuli) {
  // Even moduli keep the plain square-and-multiply loop.
  util::Xoshiro rng(9);
  EXPECT_EQ(Bignum(3).powmod(Bignum(5), Bignum(2)), Bignum(1));
  EXPECT_EQ(Bignum(3).powmod(Bignum(4), Bignum(1) << 64), Bignum(81));
  EXPECT_EQ(Bignum(2).powmod(Bignum(64), Bignum(1) << 64), Bignum());
  for (int i = 0; i < 40; ++i) {
    Bignum m = rand_bignum(rng, 24) + Bignum(2);
    if (m.is_odd()) m = m + Bignum(1);
    const Bignum base = rand_bignum(rng, 48);
    const Bignum e = rand_bignum(rng, 24);
    EXPECT_EQ(base.powmod(e, m), ref_powmod(base, e, m)) << m.to_hex();
  }
}

// MontgomeryModulus keeps powmod's per-modulus constants across calls; it
// must agree with powmod on every odd edge modulus.
TEST(Bignum, MontgomeryModulusMatchesPowmod) {
  util::Xoshiro rng(16);
  for (const Bignum& m : odd_edge_moduli()) {
    const MontgomeryModulus mod(m);
    EXPECT_EQ(mod.value(), m);
    for (int trial = 0; trial < 3; ++trial) {
      const Bignum base = rand_bignum(rng, 2 * ((m.bit_length() + 7) / 8));
      const Bignum e = rand_bignum(rng, (m.bit_length() + 7) / 8 + 2);
      EXPECT_EQ(mod.powmod(base, e), ref_powmod(base, e, m)) << m.to_hex();
    }
    EXPECT_EQ(mod.powmod(m - Bignum(1), Bignum()), Bignum(1));
  }
  EXPECT_THROW(MontgomeryModulus(Bignum(1)), Error);
  EXPECT_THROW(MontgomeryModulus(Bignum(10)), Error);
}

// ---------------------------------------------------------------------------
// The Montgomery kernels against Knuth division, at the four fixed widths and
// the runtime widths around them.

using Words = std::vector<std::uint64_t>;

const std::size_t kKernelWidths[] = {1, 2,  3,  4,  5,  7,  8,
                                     9, 11, 12, 13, 15, 16, 17};

Bignum from_words(const Words& w) {
  Bytes raw(8 * w.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    for (std::size_t b = 0; b < 8; ++b)
      raw[raw.size() - 1 - 8 * i - b] = static_cast<std::uint8_t>(w[i] >> (8 * b));
  return Bignum::from_bytes(raw);
}

Words to_words(const Bignum& x, std::size_t n) {
  const Bytes raw = *x.to_bytes_padded(8 * n);
  Words w(n, 0);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::size_t from_lsb = raw.size() - 1 - i;
    w[from_lsb / 8] |= std::uint64_t(raw[i]) << (8 * (from_lsb % 8));
  }
  return w;
}

// Odd n-word moduli: seeded random with the top bit set, all ones, and all
// ones above a low word that is random or 1. In the last shapes every
// column of the product-scanning sum carries as far as it can.
std::vector<Words> kernel_moduli(util::Xoshiro& rng, std::size_t n) {
  std::vector<Words> moduli;
  Words random(n);
  for (auto& w : random) w = rng.next();
  random[0] |= 1;
  random[n - 1] |= std::uint64_t(1) << 63;
  moduli.push_back(random);
  Words ones(n, ~std::uint64_t(0));
  moduli.push_back(ones);
  ones[0] = rng.next() | 1;
  moduli.push_back(ones);
  if (n > 1) {
    ones[0] = 1;
    moduli.push_back(ones);
  }
  return moduli;
}

// -m0^-1 mod 2^64 from Euclid, not the library's Newton iteration.
std::uint64_t minus_inverse(std::uint64_t m0) {
  const Bignum two64 = Bignum(1) << 64;
  return to_words(two64 - *Bignum(m0).invmod(two64), 2)[0];
}

TEST(MontgomeryKernels, MatchKnuthDivision) {
  util::Xoshiro rng(19);
  for (const std::size_t n : kKernelWidths) {
    const kernels::MontgomeryKernels k = kernels::montgomery_kernels(n);
    for (const Words& m_words : kernel_moduli(rng, n)) {
      const Bignum m = from_words(m_words);
      const Bignum r = Bignum(1) << (64 * n);
      const std::uint64_t m_inv = minus_inverse(m_words[0]);
      std::vector<Bignum> operands = {Bignum(), Bignum(1), m - Bignum(1)};
      for (int i = 0; i < 4; ++i)
        operands.push_back(Bignum::from_bytes(rng.bytes(8 * n + 8)) % m);
      Words scratch(2 * n), out(n), sq(n);
      for (const Bignum& a : operands) {
        const Words a_words = to_words(a, n);
        for (const Bignum& b : operands) {
          const Words b_words = to_words(b, n);
          k.mul(out.data(), a_words.data(), b_words.data(), m_words.data(),
                m_inv, n, scratch.data());
          const Bignum product = from_words(out);
          EXPECT_LT(product, m) << "n=" << n << " m=" << m.to_hex();
          EXPECT_EQ((product * r) % m, a.mulmod(b, m))
              << "n=" << n << " m=" << m.to_hex() << " a=" << a.to_hex()
              << " b=" << b.to_hex();
          // out may alias an operand.
          Words aliased = a_words;
          k.mul(aliased.data(), aliased.data(), b_words.data(), m_words.data(),
                m_inv, n, scratch.data());
          EXPECT_EQ(aliased, out);
        }
        k.mul(out.data(), a_words.data(), a_words.data(), m_words.data(),
              m_inv, n, scratch.data());
        k.sqr(sq.data(), a_words.data(), a_words.data(), m_words.data(), m_inv,
              n, scratch.data());
        EXPECT_EQ(sq, out) << "n=" << n << " m=" << m.to_hex()
                           << " a=" << a.to_hex();
        Words aliased = a_words;
        k.sqr(aliased.data(), aliased.data(), aliased.data(), m_words.data(),
              m_inv, n, scratch.data());
        EXPECT_EQ(aliased, out);
      }
    }
  }
}

// The two-lane entry against the one-lane kernel, lane by lane: at every
// width (the instantiated ones and runtime widths around them), every
// modulus shape, a different modulus in each lane, edge and random
// operands, outputs aliased to the operands, and sqr2 against mul(a, a).
TEST(MontgomeryKernels, TwoLanesMatchOneLane) {
  util::Xoshiro rng(23);
  for (const std::size_t n : kKernelWidths) {
    const kernels::MontgomeryKernels k = kernels::montgomery_kernels(n);
    const std::vector<Words> moduli = kernel_moduli(rng, n);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      const Words* m[2] = {&moduli[i], &moduli[(i + 1) % moduli.size()]};
      const std::uint64_t m_inv[2] = {minus_inverse((*m[0])[0]),
                                      minus_inverse((*m[1])[0])};
      for (int trial = 0; trial < 6; ++trial) {
        Words a[2], b[2], mul[2], sqr[2], out[2];
        Words scratch(4 * n);
        for (int l = 0; l < 2; ++l) {
          const Bignum m_l = from_words(*m[l]);
          const Bignum edge[] = {Bignum(), Bignum(1), m_l - Bignum(1)};
          const auto operand = [&] {
            return trial < 3 ? edge[(trial + l) % 3]
                             : Bignum::from_bytes(rng.bytes(8 * n + 8)) % m_l;
          };
          a[l] = to_words(operand(), n);
          b[l] = to_words(Bignum::from_bytes(rng.bytes(8 * n + 8)) % m_l, n);
          mul[l] = sqr[l] = out[l] = Words(n);
          k.mul(mul[l].data(), a[l].data(), b[l].data(), m[l]->data(),
                m_inv[l], n, scratch.data());
          k.mul(sqr[l].data(), a[l].data(), a[l].data(), m[l]->data(),
                m_inv[l], n, scratch.data());
        }
        const auto lanes = [&](Words* dst, Words* x, Words* y) {
          return kernels::MontgomeryLanes<2>{{dst[0].data(), dst[1].data()},
                                             {x[0].data(), x[1].data()},
                                             {y[0].data(), y[1].data()},
                                             {m[0]->data(), m[1]->data()},
                                             {m_inv[0], m_inv[1]}};
        };
        k.mul2(lanes(out, a, b), n, scratch.data());
        EXPECT_EQ(out[0], mul[0]) << "n=" << n << " shape " << i;
        EXPECT_EQ(out[1], mul[1]) << "n=" << n << " shape " << i;
        k.sqr2(lanes(out, a, a), n, scratch.data());
        EXPECT_EQ(out[0], sqr[0]) << "n=" << n << " shape " << i;
        EXPECT_EQ(out[1], sqr[1]) << "n=" << n << " shape " << i;
        // Each lane's output may alias its operands.
        Words alias[2] = {a[0], a[1]};
        k.mul2(lanes(alias, alias, b), n, scratch.data());
        EXPECT_EQ(alias[0], mul[0]) << "n=" << n << " shape " << i;
        EXPECT_EQ(alias[1], mul[1]) << "n=" << n << " shape " << i;
        alias[0] = a[0];
        alias[1] = a[1];
        k.sqr2(lanes(alias, alias, alias), n, scratch.data());
        EXPECT_EQ(alias[0], sqr[0]) << "n=" << n << " shape " << i;
        EXPECT_EQ(alias[1], sqr[1]) << "n=" << n << " shape " << i;
      }
    }
  }
}

// powmod_pair against two powmods: lanes with different moduli and
// exponents of different lengths (the shorter one padded with zero
// digits), exponents of at most 64 bits (which powmod takes without the
// window), and a refusal of moduli of different widths.
TEST(MontgomeryKernels, PowmodPairMatchesTwoPowmods) {
  util::Xoshiro rng(24);
  for (const std::size_t n : kKernelWidths) {
    const std::vector<Words> moduli = kernel_moduli(rng, n);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      const Bignum m0 = from_words(moduli[i]);
      const Bignum m1 = from_words(moduli[(i + 1) % moduli.size()]);
      const MontgomeryModulus c0(m0), c1(m1);
      const Bignum b0 = Bignum::from_bytes(rng.bytes(8 * n + 3));
      const Bignum b1 = Bignum::from_bytes(rng.bytes(8 * n));
      for (const auto& [e0, e1] : std::vector<std::pair<Bignum, Bignum>>{
               {Bignum::from_bytes(rng.bytes(8 * n)), Bignum(65537)},
               {Bignum(), Bignum::from_bytes(rng.bytes(8 * n + 5))},
               {Bignum(3), Bignum(1) << 63}}) {
        const auto [x0, x1] =
            MontgomeryModulus::powmod_pair(c0, b0, e0, c1, b1, e1);
        EXPECT_EQ(x0, ref_powmod(b0, e0, m0)) << n << " " << e0.to_hex();
        EXPECT_EQ(x1, ref_powmod(b1, e1, m1)) << n << " " << e1.to_hex();
      }
    }
  }
  // A shorter modulus pairs with a longer one at the longer width.
  const Bignum p = all_ones(127), q = all_ones(521);
  const MontgomeryModulus narrow(p), wide(q), widened(p, 9);
  EXPECT_THROW(MontgomeryModulus::powmod_pair(narrow, Bignum(3), p, wide,
                                              Bignum(3), q),
               Error);
  const auto [x, y] = MontgomeryModulus::powmod_pair(
      widened, Bignum(3), all_ones(200), wide, Bignum(5), all_ones(600));
  EXPECT_EQ(x, ref_powmod(Bignum(3), all_ones(200), p));
  EXPECT_EQ(y, ref_powmod(Bignum(5), all_ones(600), q));
}

// powmod at every kernel width and modulus shape, with windowed (long) and
// square-and-multiply (at most 64-bit) exponents.
TEST(MontgomeryKernels, PowmodMatchesMulmodChainAtKernelWidths) {
  util::Xoshiro rng(20);
  for (const std::size_t n : kKernelWidths) {
    for (const Words& m_words : kernel_moduli(rng, n)) {
      const Bignum m = from_words(m_words);
      const MontgomeryModulus mod(m);
      const Bignum base = Bignum::from_bytes(rng.bytes(8 * n + 3));
      for (const Bignum& e :
           {Bignum(65537), Bignum::from_bytes(rng.bytes(8)),
            Bignum::from_bytes(rng.bytes(8 * n + 5))}) {
        EXPECT_EQ(mod.powmod(base, e), ref_powmod(base, e, m))
            << "n=" << n << " m=" << m.to_hex() << " e=" << e.to_hex();
      }
    }
  }
}

// For a prime p and a base coprime to it, b^e = b^(e + (p-1)) mod p. An e of
// at most 64 bits takes square-and-multiply, e + (p-1) the 4-bit window, so
// the two paths must agree.
TEST(MontgomeryKernels, ShortExponentPathMatchesWindow) {
  HmacDrbg drbg(to_bytes("short-exponent"));
  std::vector<Bignum> primes = {DhGroup::oakley1().p};
  for (const std::size_t bits : {130u, 256u, 512u})
    primes.push_back(Bignum::generate_prime(drbg, bits));
  util::Xoshiro rng(21);
  for (const Bignum& p : primes) {
    const MontgomeryModulus mod(p);
    const Bignum p_minus_1 = p - Bignum(1);
    std::vector<Bignum> exponents = {Bignum(1), Bignum(2), Bignum(3),
                                     Bignum(65537), Bignum(1) << 63,
                                     all_ones(64)};
    for (int i = 0; i < 6; ++i)
      exponents.push_back(Bignum(rng.next()) >> rng.below(64));
    for (const Bignum& base :
         {Bignum(2), p_minus_1, Bignum::random_below(drbg, p_minus_1) + Bignum(1)}) {
      for (const Bignum& e : exponents) {
        const Bignum short_path = mod.powmod(base, e);
        EXPECT_EQ(short_path, mod.powmod(base, e + p_minus_1))
            << "p=" << p.to_hex() << " e=" << e.to_hex();
        EXPECT_EQ(short_path, ref_powmod(base, e, p)) << e.to_hex();
      }
    }
  }
}

// The fixed-base table against powmod: seeded full-width exponents, the
// extremes of a 256-bit table, and exponents shorter than the table (their
// high rows multiply by one).
TEST(Bignum, FixedBaseTableMatchesPowmod) {
  const DhGroup& group = DhGroup::oakley1();
  const FixedBaseTable& table = group.generator_table();
  HmacDrbg drbg(to_bytes("fixed-base"));
  std::vector<Bignum> exponents = {Bignum(), Bignum(1), Bignum(2),
                                   Bignum(1) << 255, all_ones(256),
                                   Bignum(0xF0F0F0F0F0F0F0F0ULL)};
  for (int i = 0; i < 32; ++i) exponents.push_back(Bignum::random_bits(drbg, 256));
  for (int i = 0; i < 8; ++i)
    exponents.push_back(Bignum::random_bits(drbg, 1 + 31 * i));
  for (const Bignum& x : exponents)
    EXPECT_EQ(table.pow(x), group.g.powmod(x, group.p)) << x.to_hex();
  EXPECT_THROW(table.pow(Bignum(1) << 256), Error);
}

// A table over an arbitrary odd modulus and base, with a bit budget that is
// not a multiple of the 4-bit digit.
TEST(Bignum, FixedBaseTableAnyModulusAndBase) {
  util::Xoshiro rng(17);
  for (const std::size_t limbs : {1u, 3u, 8u, 17u}) {
    Bytes raw = rng.bytes(4 * limbs);
    raw.front() |= 0x80;
    raw.back() |= 1;
    const Bignum m = Bignum::from_bytes(raw);
    const Bignum g = rand_bignum(rng, 8 * limbs);  // may exceed m
    const FixedBaseTable table(MontgomeryModulus(m), g, 101);
    for (int trial = 0; trial < 8; ++trial) {
      const Bignum x = Bignum::from_bytes(rng.bytes(13)) >> 3;  // <= 101 bits
      EXPECT_EQ(table.pow(x), ref_powmod(g, x, m)) << m.to_hex();
    }
    EXPECT_EQ(table.pow(all_ones(101)), ref_powmod(g, all_ones(101), m));
    // 101 bits round up to 26 rows, so up to 104 bits fit; 105 do not.
    EXPECT_EQ(table.pow(all_ones(104)), ref_powmod(g, all_ones(104), m));
    EXPECT_THROW(table.pow(Bignum(1) << 104), Error);
  }
}

TEST(Bignum, MillerRabinMatchesTrialDivision) {
  HmacDrbg drbg(to_bytes("mr-sweep"));
  const auto is_prime = [](std::uint64_t n) {
    if (n < 2) return false;
    for (std::uint64_t f = 2; f * f <= n; ++f)
      if (n % f == 0) return false;
    return true;
  };
  for (std::uint64_t n = 1; n < 2500; n += 2)
    EXPECT_EQ(Bignum(n).is_probable_prime(drbg, 3), is_prime(n)) << n;
  // Strong pseudoprimes to base 2: the fixed base-2 round passes them, so
  // the random rounds must catch them.
  for (const std::uint64_t n : {2047ULL, 3277ULL, 4033ULL, 4681ULL, 8321ULL,
                                3215031751ULL})
    EXPECT_FALSE(Bignum(n).is_probable_prime(drbg)) << n;
  // Mersenne primes across word boundaries, and a composite neighbour.
  for (const std::size_t k : {31u, 61u, 89u, 127u, 521u}) {
    EXPECT_TRUE(all_ones(k).is_probable_prime(drbg)) << k;
    // 2^k + 1 is divisible by 3 for odd k.
    EXPECT_FALSE((all_ones(k) + Bignum(2)).is_probable_prime(drbg)) << k;
  }
}

// Miller-Rabin one candidate and one base at a time on the public API
// (powmod, mulmod): trial division by the primes below 114, base 2, then
// `rounds` bases random_below(n - 3) + 2. `witness_round` is the random
// round whose base witnessed, or -1.
struct RefVerdict {
  bool prime;
  int witness_round;
};

RefVerdict ref_miller_rabin(const Bignum& n, HmacDrbg& drbg, int rounds) {
  if (n < Bignum(2)) return {false, -1};
  for (const std::uint32_t p :
       {2,  3,  5,  7,  11, 13, 17, 19, 23,  29,  31,  37,  41,  43,  47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113}) {
    if (n == Bignum(p)) return {true, -1};
    if ((n % Bignum(p)).is_zero()) return {false, -1};
  }
  const Bignum n_minus_1 = n - Bignum(1);
  Bignum d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  const auto witness = [&](const Bignum& a) {
    Bignum x = a.powmod(d, n);
    if (x == Bignum(1) || x == n_minus_1) return false;
    for (std::size_t i = 1; i < s; ++i) {
      x = x.mulmod(x, n);
      if (x == n_minus_1) return false;
    }
    return true;
  };
  if (witness(Bignum(2))) return {false, -1};
  for (int round = 0; round < rounds; ++round)
    if (witness(Bignum::random_below(drbg, n - Bignum(3)) + Bignum(2)))
      return {false, round};
  return {true, -1};
}

Bignum ref_generate_prime(HmacDrbg& drbg, std::size_t bits) {
  for (;;) {
    Bignum candidate = Bignum::random_bits(drbg, bits);
    if (!candidate.is_odd()) candidate = candidate + Bignum(1);
    if (ref_miller_rabin(candidate, drbg, 16).prime) return candidate;
  }
}

// The library pairs base-2 witnesses of consecutive candidates and random
// rounds two at a time, drawing ahead and rewinding its DRBG; it must give
// the verdicts and leave the DRBG where one-at-a-time testing does.
TEST(Bignum, PairedMillerRabinMatchesOneAtATime) {
  const auto check = [](const Bignum& n, const std::string& seed,
                        int rounds) {
    HmacDrbg lib(to_bytes(seed)), ref(to_bytes(seed));
    const bool verdict = n.is_probable_prime(lib, rounds);
    const RefVerdict expected = ref_miller_rabin(n, ref, rounds);
    EXPECT_EQ(verdict, expected.prime) << n.to_hex() << " " << seed;
    EXPECT_EQ(lib.generate(16), ref.generate(16)) << n.to_hex() << " " << seed;
    return expected;
  };
  HmacDrbg drbg(to_bytes("paired-mr"));
  for (const std::size_t bits : {64u, 130u, 256u, 512u}) {
    const Bignum p = ref_generate_prime(drbg, bits);
    const Bignum q = ref_generate_prime(drbg, bits);
    for (const int rounds : {16, 5}) {  // an odd count ends on one base
      EXPECT_TRUE(check(p, "prime", rounds).prime) << bits;
      check(p * Bignum(113), "trial-division", rounds);
      check(p * q, "base-2", rounds);
    }
  }
  // A 251-bit (4-word) strong pseudoprime to base 2, the Carmichael number
  // (6k+1)(12k+1)(18k+1) for k = 0x112486d852aefbac04a6e (about 7.5% of
  // bases are strong liars): only a random round catches it. Among these
  // seeds the first witness is an even round (the first base of a pair,
  // where the DRBG goes back to before the second was drawn) and an odd
  // one.
  const Bignum sprp = *Bignum::from_hex(
      "639f98123640fdf36552b0859333b5fd16ade134dd90f158138de39465b4029");
  bool even = false, odd = false;
  for (int seed = 0; seed < 16; ++seed) {
    const RefVerdict v = check(sprp, "sprp-" + std::to_string(seed), 16);
    EXPECT_FALSE(v.prime);
    (v.witness_round % 2 == 0 ? even : odd) = true;
  }
  EXPECT_TRUE(even);
  EXPECT_TRUE(odd);
  // generate_prime at 8 bits (one word) up to 512, odd widths included.
  for (const std::size_t bits : {8u, 64u, 255u, 256u, 257u, 512u}) {
    for (int seed = 0; seed < 3; ++seed) {
      const std::string name = "gen-" + std::to_string(bits) + "-" +
                               std::to_string(seed);
      HmacDrbg lib(to_bytes(name)), ref(to_bytes(name));
      EXPECT_EQ(Bignum::generate_prime(lib, bits),
                ref_generate_prime(ref, bits))
          << name;
      EXPECT_EQ(lib.generate(16), ref.generate(16)) << name;
    }
  }
}

// Keys, one signature each and the DRBG's next draw, recorded before key
// generation and CRT signing were paired: 16 seeds at 512 bits, 2 at
// 1024, and 2 each at 513 and 641 bits, where p and q differ in word count
// and sign at the wider width. One SHA-256 per size.
TEST(Bignum, GoldenRsaKeysAcrossSeeds) {
  const auto digest = [](std::size_t bits, int seeds) {
    Sha256 h;
    for (int i = 0; i < seeds; ++i) {
      HmacDrbg drbg(to_bytes("golden-keys-" + std::to_string(bits) + "-" +
                             std::to_string(i)));
      const RsaKeyPair key = RsaKeyPair::generate(drbg, bits);
      h.update(key.pub.n.to_bytes());
      h.update(key.d.to_bytes());
      h.update(rsa_sign(key, to_bytes("golden keys")));
      h.update(drbg.generate(16));
    }
    return util::to_hex(digest_bytes(h.finish()));
  };
  EXPECT_EQ(digest(512, 16),
            "2e4b06356650be96b776871e557917eab9e680ca2246e426d4e3d54a9ac71ebf");
  EXPECT_EQ(digest(1024, 2),
            "06f1303ba90a658a33de55212a29c4d1cefc472a71b46fff272efa32aef5c6e1");
  EXPECT_EQ(digest(513, 2),
            "12478b252b4077ce602a26fdb9f7d68eecd5812d1a936e113b6a16426b96dc8d");
  EXPECT_EQ(digest(641, 2),
            "d0830dd181fdc722faf9254b9a418c35b5e9be53e3bba667c63ff16094373cea");
}

// Known answers from fixed DRBG seeds, recorded before powmod moved to
// Montgomery form: key generation (Miller-Rabin), RSA signing and Oakley-1
// DH must reproduce them bit for bit.
TEST(Bignum, GoldenRsa512Signature) {
  HmacDrbg drbg(to_bytes("golden-rsa-512"));
  const RsaKeyPair key = RsaKeyPair::generate(drbg, 512);
  EXPECT_EQ(key.pub.n.to_hex(),
            "dc5439387c0efc95272104fa7e095c0fb5c3bdcae77c973fb4a28b48d415d81b"
            "1ad3601c47602a0e1f9b48d5dcdc4885b1f12c91201ab995832ce9fd0c8b80cd");
  const Bytes sig = rsa_sign(key, to_bytes("lateral golden vector"));
  EXPECT_EQ(util::to_hex(sig),
            "27e71d488c903cafd9cc831c890929e67ad6a81d683faee36b181fbc56bc5025"
            "2845254919390ed28f623e8502fa1bda73da09f7238d4bfb1ab91f940209e430");
  EXPECT_TRUE(rsa_verify(key.pub, to_bytes("lateral golden vector"), sig).ok());
}

TEST(Bignum, GoldenOakley1SharedSecret) {
  HmacDrbg drbg(to_bytes("golden-oakley1"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  const auto ab = dh_shared_secret(group, a.private_key, b.public_key);
  const auto ba = dh_shared_secret(group, b.private_key, a.public_key);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(*ab, *ba);
  EXPECT_EQ(util::to_hex(*ab),
            "a1454c2637ad0254e5bc95a15516b6a86a7c48dbd48fc2b5019cdad036b1babd"
            "de5959c4bccefc93d16d260381c0f7009b28b66bc66cd7ca47d6010c9905e24e"
            "03f1f007236f37423c7baa5a779e9cb6c7997f1581bc4b7f149127bcf1da3958");
}

// Public values of the two key pairs above: DhKeyPair::generate takes them
// from the group's fixed-base table, and they must match the values the
// 4-bit-window powmod produced.
TEST(Bignum, GoldenOakley1PublicKeys) {
  HmacDrbg drbg(to_bytes("golden-oakley1"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  EXPECT_EQ(a.private_key.to_hex(),
            "85c9dac5966196f56fc908ab25d5f439198055b716e2e80d6d2766770454847a");
  EXPECT_EQ(a.public_key.to_hex(),
            "9915fccd3d46b6dfdf46f849325d253637845f5ac5aa7a5abf80e110cf5a07ce"
            "a4daad4a433467bdf100bbd521132d2ff540c803da628ef29b4f2be39fc56c23"
            "4587ad351d2567e62ffe62f047843df5ee0126077dd44e2eb57adc4e17e59e75");
  EXPECT_EQ(b.private_key.to_hex(),
            "81484a0c794b4f034e3363c9ae3ab8e2972e03df2f08ee02af7dbf98821e8158");
  EXPECT_EQ(b.public_key.to_hex(),
            "713c04d7fd530cc188a36f4d94d590747fcd1dcaee46f406283895a0b094c7a1"
            "ff12eeda7aa542c6db67f5c7be37e417a5548ffac787801298cdac1cd3818e64"
            "bde423596cdfc241719e3ca4ca80f892e1e2203f794b017d5ec1cd8195d06824");
}

TEST(Bignum, GcdKnown) {
  EXPECT_EQ(Bignum::gcd(Bignum(48), Bignum(36)), Bignum(12));
  EXPECT_EQ(Bignum::gcd(Bignum(17), Bignum(13)), Bignum(1));
  EXPECT_EQ(Bignum::gcd(Bignum(0), Bignum(5)), Bignum(5));
}

TEST(Bignum, InvModProperty) {
  util::Xoshiro rng(6);
  const Bignum m(1000003);  // prime modulus: everything nonzero invertible
  for (int i = 0; i < 50; ++i) {
    const Bignum a(1 + rng.below(1000002));
    auto inv = a.invmod(m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ(a.mulmod(*inv, m), Bignum(1));
  }
}

TEST(Bignum, InvModNonCoprimeFails) {
  EXPECT_FALSE(Bignum(6).invmod(Bignum(9)).ok());
  EXPECT_FALSE(Bignum(4).invmod(Bignum(8)).ok());
}

TEST(Bignum, MillerRabinKnownPrimes) {
  HmacDrbg drbg(to_bytes("mr"));
  for (const std::uint64_t p : {2ULL, 3ULL, 5ULL, 104729ULL, 2147483647ULL})
    EXPECT_TRUE(Bignum(p).is_probable_prime(drbg)) << p;
}

TEST(Bignum, MillerRabinKnownComposites) {
  HmacDrbg drbg(to_bytes("mr"));
  // Includes Carmichael numbers 561 and 1105 (Fermat-test killers).
  for (const std::uint64_t c : {1ULL, 4ULL, 561ULL, 1105ULL, 104730ULL,
                                2147483647ULL * 3})
    EXPECT_FALSE(Bignum(c).is_probable_prime(drbg)) << c;
}

TEST(Bignum, GeneratePrimeHasExactBitLength) {
  HmacDrbg drbg(to_bytes("prime-gen"));
  for (const std::size_t bits : {16u, 64u, 128u}) {
    const Bignum p = Bignum::generate_prime(drbg, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_probable_prime(drbg));
  }
}

TEST(Bignum, RandomBelowInRange) {
  HmacDrbg drbg(to_bytes("rb"));
  const Bignum bound(1000);
  for (int i = 0; i < 100; ++i)
    EXPECT_LT(Bignum::random_below(drbg, bound), bound);
}

TEST(Bignum, RandomBitsExactWidth) {
  HmacDrbg drbg(to_bytes("rbits"));
  for (const std::size_t bits : {1u, 8u, 9u, 31u, 32u, 33u, 257u})
    EXPECT_EQ(Bignum::random_bits(drbg, bits).bit_length(), bits);
}

TEST(Bignum, BitAccess) {
  const Bignum n(0b1010);
  EXPECT_FALSE(n.bit(0));
  EXPECT_TRUE(n.bit(1));
  EXPECT_FALSE(n.bit(2));
  EXPECT_TRUE(n.bit(3));
  EXPECT_FALSE(n.bit(100));
}

}  // namespace
}  // namespace lateral::crypto
