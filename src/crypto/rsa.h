// RSA signatures (PKCS#1 v1.5-style padding over SHA-256), from scratch.
//
// Attestation quotes, vendor certificate chains and launch-policy code
// signing all use these signatures. Key sizes are configurable: tests use
// 512-bit keys for speed, root/vendor keys default to 1024 bits. These
// parameters are simulation-scale, not deployment advice.
//
// Signing runs on the CRT form of the private key: two exponentiations
// modulo the half-size primes with half-length exponents, run as one pair
// in the two-lane Montgomery kernel (MontgomeryModulus::powmod_pair),
// recombined by Garner's formula, then checked against the public key
// before the signature leaves (a faulty half would otherwise leak a factor
// of n).
// The signature is bit-identical to em^d mod n. A generated key keeps the
// Montgomery contexts of p, q and n, so a signature builds none.
#pragma once

#include <memory>

#include "crypto/bignum.h"
#include "crypto/sha256.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::crypto {

class HmacDrbg;

struct RsaPublicKey {
  Bignum n;  // modulus
  Bignum e;  // public exponent (65537)

  /// Stable fingerprint: SHA-256 of the serialized key.
  Digest fingerprint() const;

  /// Wire serialization (length-prefixed n and e).
  Bytes serialize() const;
  static Result<RsaPublicKey> deserialize(BytesView wire);

  bool operator==(const RsaPublicKey&) const = default;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  Bignum d;  // private exponent
  // CRT form of d, which rsa_sign uses.
  Bignum p, q;  // n = p * q
  Bignum dp;    // d mod (p - 1)
  Bignum dq;    // d mod (q - 1)
  Bignum qinv;  // q^-1 mod p

  /// The Montgomery contexts rsa_sign exponentiates with: p's and q's for
  /// the two halves, n's for the public-key check. generate() builds them
  /// once; they are immutable, so copies of the key share them and any
  /// number of threads may sign with one key. rsa_sign throws Error when
  /// one is missing or no longer matches its field (a hand-built key, or
  /// one whose p, q or n was edited). p's and q's share one residue width,
  /// the wider prime's.
  std::shared_ptr<const MontgomeryModulus> mont_p, mont_q, mont_n;

  /// Generate a fresh key pair with an n of `modulus_bits` (n may have one
  /// bit less). Throws Error below 394 bits, the smallest size whose n
  /// always has the 393 bits a signature's encoding needs.
  static RsaKeyPair generate(HmacDrbg& drbg, std::size_t modulus_bits);
};

/// Sign SHA-256(message) with PKCS#1 v1.5-style padding. Throws Error, and
/// returns no signature, if the CRT result fails the public-key check
/// s^e mod n == em (a corrupted key or a computation fault).
Bytes rsa_sign(const RsaKeyPair& key, BytesView message);

/// Verify a signature over `message`. Status with
/// Errc::verification_failed on mismatch.
Status rsa_verify(const RsaPublicKey& key, BytesView message,
                  BytesView signature);

}  // namespace lateral::crypto
