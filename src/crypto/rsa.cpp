#include "crypto/rsa.h"

#include "crypto/hmac.h"
#include "util/wire.h"

namespace lateral::crypto {
namespace {

constexpr std::uint64_t kPublicExponent = 65537;

// p and q have modulus_bits / 2 bits and the rest, top bits set, so n has
// modulus_bits or one bit less; encode_message needs em_len >= 50, an n of
// at least 393 bits.
constexpr std::size_t kMinModulusBits = 394;

/// EMSA-PKCS1-v1_5-style encoding: 0x00 0x01 FF..FF 0x00 || DER-ish prefix ||
/// SHA-256(m). We use a fixed ASCII marker instead of the ASN.1 DigestInfo —
/// the structure (fixed padding, full-width message representative) is what
/// the security argument needs.
Result<Bignum> encode_message(BytesView message, std::size_t em_len) {
  static const char kMarker[] = "sha256:";
  const Digest digest = Sha256::hash(message);
  const std::size_t t_len = sizeof(kMarker) - 1 + digest.size();
  if (em_len < t_len + 11) return Errc::crypto_failure;  // key too small
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t_len - 3, 0xFF);
  em.push_back(0x00);
  em.insert(em.end(), kMarker, kMarker + sizeof(kMarker) - 1);
  em.insert(em.end(), digest.begin(), digest.end());
  return Bignum::from_bytes(em);
}

/// `mont`, which must be m's context (as generate() builds it).
const MontgomeryModulus& context_of(
    const std::shared_ptr<const MontgomeryModulus>& mont, const Bignum& m) {
  if (!mont || mont->value() != m)
    throw Error("rsa_sign: key lacks the Montgomery context of its modulus");
  return *mont;
}

}  // namespace

Digest RsaPublicKey::fingerprint() const { return Sha256::hash(serialize()); }

Bytes RsaPublicKey::serialize() const {
  Bytes out;
  wire::ByteWriter w(out);
  w.blob32(n.to_bytes());
  w.blob32(e.to_bytes());
  return out;
}

Result<RsaPublicKey> RsaPublicKey::deserialize(BytesView in) {
  wire::ByteReader r(in);
  auto n_bytes = r.blob32();
  auto e_bytes = r.blob32();
  if (!n_bytes || !e_bytes || !r.finish().ok()) return Errc::invalid_argument;
  const Bignum n = Bignum::from_bytes(*n_bytes);
  const Bignum e = Bignum::from_bytes(*e_bytes);
  if (n.is_zero() || e.is_zero()) return Errc::invalid_argument;
  return RsaPublicKey{n, e};
}

RsaKeyPair RsaKeyPair::generate(HmacDrbg& drbg, std::size_t modulus_bits) {
  if (modulus_bits < kMinModulusBits)
    throw Error("RsaKeyPair: modulus must be at least 394 bits");
  const Bignum e(kPublicExponent);
  for (;;) {
    const Bignum p = Bignum::generate_prime(drbg, modulus_bits / 2);
    const Bignum q = Bignum::generate_prime(drbg, modulus_bits - modulus_bits / 2);
    if (p == q) continue;
    const Bignum n = p * q;
    const Bignum phi = (p - Bignum(1)) * (q - Bignum(1));
    if (Bignum::gcd(e, phi) != Bignum(1)) continue;
    auto d = e.invmod(phi);
    if (!d) continue;
    auto qinv = q.invmod(p);
    if (!qinv) continue;  // unreachable: distinct primes are coprime
    Bignum dp = *d % (p - Bignum(1));
    Bignum dq = *d % (q - Bignum(1));
    // p and q share a residue width (the wider one's when an odd
    // modulus_bits puts them in different word counts), so rsa_sign can
    // pair their exponentiations.
    const std::size_t words = (q.bit_length() + 63) / 64;
    return RsaKeyPair{RsaPublicKey{n, e}, std::move(*d), p, q,
                      std::move(dp), std::move(dq), std::move(*qinv),
                      std::make_shared<const MontgomeryModulus>(p, words),
                      std::make_shared<const MontgomeryModulus>(q, words),
                      std::make_shared<const MontgomeryModulus>(n)};
  }
}

Bytes rsa_sign(const RsaKeyPair& key, BytesView message) {
  const std::size_t em_len = (key.pub.n.bit_length() + 7) / 8;
  auto em = encode_message(message, em_len);
  if (!em) throw Error("rsa_sign: modulus too small for encoding");
  // Garner: s = m2 + q * (qinv * (m1 - m2) mod p), with m1 = em^dp mod p
  // and m2 = em^dq mod q, computed as one pair. m2 may exceed p when
  // q > p, hence the reduction.
  const auto [m1, m2] = MontgomeryModulus::powmod_pair(
      context_of(key.mont_p, key.p), *em, key.dp,
      context_of(key.mont_q, key.q), *em, key.dq);
  const Bignum m2_mod_p = m2 % key.p;
  const Bignum diff =
      m1 >= m2_mod_p ? m1 - m2_mod_p : m1 + key.p - m2_mod_p;
  const Bignum sig = m2 + diff.mulmod(key.qinv, key.p) * key.q;
  // Boneh-DeMillo-Lipton: a fault in either half yields an s with
  // gcd(s^e - em, n) = p or q. Release nothing that fails the public check.
  if (context_of(key.mont_n, key.pub.n).powmod(sig, key.pub.e) != *em)
    throw Error("rsa_sign: CRT result failed the public-key check");
  auto padded = sig.to_bytes_padded(em_len);
  if (!padded) throw Error("rsa_sign: signature width error");
  return *padded;
}

Status rsa_verify(const RsaPublicKey& key, BytesView message,
                  BytesView signature) {
  const std::size_t em_len = (key.n.bit_length() + 7) / 8;
  if (signature.size() != em_len) return Errc::verification_failed;
  const Bignum sig = Bignum::from_bytes(signature);
  if (sig >= key.n) return Errc::verification_failed;
  const Bignum recovered = sig.powmod(key.e, key.n);
  auto expected = encode_message(message, em_len);
  if (!expected) return Errc::crypto_failure;
  if (recovered != *expected) return Errc::verification_failed;
  return Status::success();
}

}  // namespace lateral::crypto
