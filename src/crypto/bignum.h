// Arbitrary-precision unsigned integer arithmetic, from scratch.
//
// Backs the RSA signatures used for attestation quotes and vendor
// certificate chains, and the finite-field Diffie-Hellman key exchange of
// net::SecureChannel. Little-endian 32-bit limbs, 64-bit intermediates;
// division is Knuth Algorithm D. powmod with an odd modulus (every RSA and
// DH modulus) and the Miller-Rabin test run in Montgomery form: 64-bit
// words and one product-scanning (FIPS) multiply with a three-word column
// accumulator, also as a squaring that computes each cross product once.
// Its body is instantiated at 4, 8, 12 and 16 words (RSA-512/1024 and their
// CRT halves, Oakley-1 DH) and at runtime width for every other size, with
// a lane count: the two-lane entry computes two independent products of
// one width (different moduli allowed), sharing the column loop at 4
// words.
// Exponents of more than 64 bits take a fixed 4-bit window, whose sequence
// of operations depends only on their bit length; shorter ones, which here
// are only public RSA exponents, take square-and-multiply with no table.
// The window also runs as two ladders in the two-lane kernel
// (MontgomeryModulus::powmod_pair), the shorter exponent padded with zero
// digits: CRT signing pairs its two halves, and Miller-Rabin pairs the
// base-2 witnesses of two candidates and its random rounds two at a time.
// Pairing draws ahead of the HmacDrbg and, whenever the first lane's
// verdict means one-at-a-time testing would not have made the second
// draw, restores a snapshot taken before it; so every prime, key and later
// draw is that of one candidate and one base at a time. Trial division
// takes remainders over the limbs without allocating.
// MontgomeryModulus keeps the per-modulus constants of that form across
// calls, and FixedBaseTable raises one fixed base (the DH generator) with a
// precomputed table instead of squarings.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/types.h"

namespace lateral::crypto {

class HmacDrbg;

class Bignum {
 public:
  /// Zero.
  Bignum() = default;

  /// From a machine word.
  explicit Bignum(std::uint64_t value);

  /// From big-endian bytes (network/key format).
  static Bignum from_bytes(BytesView big_endian);

  /// From a hex string (no 0x prefix). Errc::invalid_argument on bad chars.
  static Result<Bignum> from_hex(std::string_view hex);

  /// Big-endian byte representation, no leading zero bytes (empty for 0).
  Bytes to_bytes() const;

  /// Big-endian bytes left-padded with zeros to exactly `width` bytes.
  /// Errc::invalid_argument if the value does not fit.
  Result<Bytes> to_bytes_padded(std::size_t width) const;

  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;

  /// Value of bit i (0 = least significant).
  bool bit(std::size_t i) const;

  std::strong_ordering operator<=>(const Bignum& other) const;
  bool operator==(const Bignum& other) const = default;

  Bignum operator+(const Bignum& rhs) const;
  /// Subtraction requires *this >= rhs (unsigned); throws Error otherwise.
  Bignum operator-(const Bignum& rhs) const;
  Bignum operator*(const Bignum& rhs) const;
  Bignum operator<<(std::size_t bits) const;
  Bignum operator>>(std::size_t bits) const;

  struct DivMod;
  /// Throws Error on division by zero.
  DivMod divmod(const Bignum& divisor) const;
  Bignum operator/(const Bignum& rhs) const;
  Bignum operator%(const Bignum& rhs) const;

  /// (this * rhs) mod m.
  Bignum mulmod(const Bignum& rhs, const Bignum& m) const;

  /// this^exponent mod m. m must be nonzero. An odd m uses Montgomery
  /// form with a fixed 4-bit window, or square-and-multiply for exponents
  /// of at most 64 bits; an even m, square-and-multiply.
  Bignum powmod(const Bignum& exponent, const Bignum& m) const;

  /// Greatest common divisor.
  static Bignum gcd(Bignum a, Bignum b);

  /// Modular inverse; Errc::crypto_failure when gcd(this, m) != 1.
  Result<Bignum> invmod(const Bignum& m) const;

  /// Miller-Rabin probabilistic primality test with `rounds` random bases
  /// drawn from `drbg` (plus a deterministic base-2 round).
  bool is_probable_prime(HmacDrbg& drbg, int rounds = 32) const;

  /// Uniform random value in [0, bound) using rejection sampling.
  static Bignum random_below(HmacDrbg& drbg, const Bignum& bound);

  /// Random value with exactly `bits` bits (top bit set).
  static Bignum random_bits(HmacDrbg& drbg, std::size_t bits);

  /// Generate a random probable prime with exactly `bits` bits.
  static Bignum generate_prime(HmacDrbg& drbg, std::size_t bits);

 private:
  class Montgomery;   // odd-modulus exponentiation context (bignum.cpp)
  class MillerRabin;  // one candidate's witnesses (bignum.cpp)
  friend class MontgomeryModulus;
  friend class FixedBaseTable;

  void trim();
  /// Whether a prime below 114 divides this (for this above 113).
  bool has_small_prime_factor() const;
  static Bignum from_limbs(std::vector<std::uint32_t> limbs);

  // Little-endian limbs; no trailing zero limbs (canonical form).
  std::vector<std::uint32_t> limbs_;
};

struct Bignum::DivMod {
  Bignum quotient;
  Bignum remainder;
};

/// An odd modulus m > 1 with the Montgomery constants that powmod derives
/// on every call (R mod m, R^2 mod m, -m^-1 mod 2^64; two long divisions)
/// computed once. Immutable after construction, so one instance may serve
/// any number of threads at once.
class MontgomeryModulus {
 public:
  /// Residues of m's width in 64-bit words, or of `words` if that is more,
  /// so that m can pair with a longer modulus in powmod_pair. Throws Error
  /// unless m is odd and greater than 1.
  explicit MontgomeryModulus(const Bignum& m, std::size_t words = 0);
  ~MontgomeryModulus();
  MontgomeryModulus(MontgomeryModulus&&) noexcept;

  const Bignum& value() const;

  /// base^exponent mod m; equals base.powmod(exponent, value()).
  Bignum powmod(const Bignum& base, const Bignum& exponent) const;

  /// {base0^exponent0 mod m0, base1^exponent1 mod m1}, equal to the two
  /// powmods: their 4-bit-window ladders run as one pair in the two-lane
  /// kernel, even for exponents of at most 64 bits, and the sequence of
  /// operations depends only on the longer exponent's bit length. Throws
  /// Error unless their residues have the same width.
  static std::array<Bignum, 2> powmod_pair(
      const MontgomeryModulus& m0, const Bignum& base0,
      const Bignum& exponent0, const MontgomeryModulus& m1,
      const Bignum& base1, const Bignum& exponent1);

 private:
  friend class FixedBaseTable;
  std::unique_ptr<const Bignum::Montgomery> mont_;
};

/// g^x mod m for one fixed base g and exponents of at most
/// `max_exponent_bits` bits. Row i of the table holds g^(d*16^i) mod m for
/// the digits d = 1..15, so g^x is one Montgomery multiply per 4-bit digit
/// of x and no squarings: 64 multiplies for a 256-bit x, against ~330 for
/// powmod. Every row multiplies, a zero digit by one, so the sequence of
/// operations does not depend on x. The table holds
/// ceil(max_exponent_bits / 4) * 15 residues (92 KB for a 256-bit exponent
/// and a 768-bit m). Immutable after construction, so one instance may
/// serve any number of threads at once.
class FixedBaseTable {
 public:
  FixedBaseTable(MontgomeryModulus m, const Bignum& g,
                 std::size_t max_exponent_bits);

  const MontgomeryModulus& modulus() const { return m_; }

  /// g^x mod m; equals g.powmod(x, modulus().value()). Throws Error if x
  /// has more than max_exponent_bits bits: the table has no row for them.
  Bignum pow(const Bignum& x) const;

 private:
  MontgomeryModulus m_;
  std::size_t rows_;
  std::vector<std::uint64_t> table_;  // rows_ x 15 residues, row-major
};

inline Bignum Bignum::operator/(const Bignum& rhs) const {
  return divmod(rhs).quotient;
}
inline Bignum Bignum::operator%(const Bignum& rhs) const {
  return divmod(rhs).remainder;
}

}  // namespace lateral::crypto
