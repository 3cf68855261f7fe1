// Finite-field Diffie-Hellman key agreement (classic MODP group).
//
// net::SecureChannel derives its session keys from a DH exchange whose
// public values are bound to attestation quotes, so a man-in-the-middle
// cannot splice itself between a verified component and its peer.
//
// A key pair's public value g^x comes from the group's fixed-base table
// (64 Montgomery multiplies for the 256-bit x, no squarings); the shared
// secret y^x is a 4-bit-window exponentiation that reuses the group's
// Montgomery constants. Both equal Bignum::powmod bit for bit.
#pragma once

#include <memory>
#include <mutex>

#include "crypto/bignum.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::crypto {

class HmacDrbg;

/// A DH group (prime modulus p, generator g).
class DhGroup {
 public:
  /// Bits of every private exponent DhKeyPair::generate draws.
  static constexpr std::size_t kPrivateKeyBits = 256;

  /// p must be an odd prime.
  DhGroup(Bignum p, Bignum g) : p(std::move(p)), g(std::move(g)) {}

  const Bignum p;
  const Bignum g;

  /// RFC 2409 Oakley Group 1 (768-bit MODP). Simulation-scale default.
  static const DhGroup& oakley1();

  /// p's Montgomery constants and the fixed-base table of g for
  /// kPrivateKeyBits-bit exponents. Built on first use, once, by whichever
  /// thread gets there first; immutable afterwards.
  const FixedBaseTable& generator_table() const;

 private:
  mutable std::once_flag table_once_;
  mutable std::unique_ptr<const FixedBaseTable> table_;
};

struct DhKeyPair {
  Bignum private_key;  // x
  Bignum public_key;   // g^x mod p

  static DhKeyPair generate(const DhGroup& group, HmacDrbg& drbg);
};

/// Compute the shared secret g^(xy) mod p from our private key and the
/// peer's public value. Errc::crypto_failure on degenerate peer values
/// (0, 1, p-1) which would collapse the key space.
Result<Bytes> dh_shared_secret(const DhGroup& group, const Bignum& private_key,
                               const Bignum& peer_public);

}  // namespace lateral::crypto
