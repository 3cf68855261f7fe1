#include "crypto/dh.h"

#include "crypto/hmac.h"
#include "util/result.h"

namespace lateral::crypto {

const DhGroup& DhGroup::oakley1() {
  static const DhGroup group = [] {
    // RFC 2409, Section 6.1: 768-bit MODP group.
    auto p = Bignum::from_hex(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF");
    if (!p) throw Error("DhGroup::oakley1: bad prime constant");
    return DhGroup(std::move(*p), Bignum(2));
  }();
  return group;
}

const FixedBaseTable& DhGroup::generator_table() const {
  std::call_once(table_once_, [this] {
    table_ = std::make_unique<const FixedBaseTable>(MontgomeryModulus(p), g,
                                                    kPrivateKeyBits);
  });
  return *table_;
}

DhKeyPair DhKeyPair::generate(const DhGroup& group, HmacDrbg& drbg) {
  // Private exponent in [2, p-2]; 256 bits of entropy is ample for the
  // simulation-scale group.
  Bignum x = Bignum::random_bits(drbg, DhGroup::kPrivateKeyBits);
  const Bignum p_minus_2 = group.p - Bignum(2);
  if (x >= p_minus_2) x = x % p_minus_2;
  if (x < Bignum(2)) x = x + Bignum(2);
  Bignum gx = group.generator_table().pow(x);
  return DhKeyPair{std::move(x), std::move(gx)};
}

Result<Bytes> dh_shared_secret(const DhGroup& group, const Bignum& private_key,
                               const Bignum& peer_public) {
  // Reject degenerate public values that force a trivial shared secret.
  if (peer_public < Bignum(2)) return Errc::crypto_failure;
  if (peer_public >= group.p - Bignum(1)) return Errc::crypto_failure;
  const Bignum secret =
      group.generator_table().modulus().powmod(peer_public, private_key);
  auto padded = secret.to_bytes_padded((group.p.bit_length() + 7) / 8);
  if (!padded) return Errc::crypto_failure;
  return *padded;
}

}  // namespace lateral::crypto
