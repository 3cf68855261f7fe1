#include "toolbox/authenticator.h"

#include "substrate/quote.h"
#include "util/wire.h"

namespace lateral::toolbox {
namespace {

constexpr char kLoginContext[] = "lateral.toolbox.login.v1";

}  // namespace

PasswordlessAuthenticator::PasswordlessAuthenticator(
    core::AttestationVerifier& verifier, std::string expected_component,
    BytesView token_key_seed)
    : verifier_(verifier),
      expected_component_(std::move(expected_component)),
      token_key_(crypto::hkdf(to_bytes("toolbox.auth.v1"), token_key_seed,
                              to_bytes("token-mac"), 32)) {}

Bytes PasswordlessAuthenticator::begin() { return verifier_.make_challenge(); }

crypto::Digest PasswordlessAuthenticator::token_mac(
    std::uint64_t serial, const crypto::Digest& device) const {
  std::uint8_t serial_be[8];
  wire::store_be64(serial_be, serial);
  return crypto::Hmac(token_key_)
      .mac({BytesView(serial_be, 8), crypto::digest_view(device)});
}

Result<SessionToken> PasswordlessAuthenticator::complete(BytesView quote_wire,
                                                         BytesView nonce) {
  if (const Status s = verifier_.verify(expected_component_, quote_wire,
                                        nonce, to_bytes(kLoginContext));
      !s.ok())
    return Errc::verification_failed;

  auto quote = substrate::Quote::deserialize(quote_wire);
  if (!quote) return Errc::invalid_argument;
  const crypto::Digest device = quote->ek_pub.fingerprint();

  const std::uint64_t serial = next_serial_++;
  active_.emplace(serial, device);

  // Token = serial || HMAC(key, serial || device-fingerprint).
  SessionToken token;
  token.serial = serial;
  wire::ByteWriter w(token.token);
  w.u64(serial);
  w.bytes(token_mac(serial, device));
  return token;
}

Status PasswordlessAuthenticator::validate(BytesView token) const {
  wire::ByteReader r(token);
  auto serial = r.u64();
  auto mac = r.bytes(32);
  if (!serial || !mac || !r.finish().ok()) return Errc::verification_failed;
  const auto it = active_.find(*serial);
  if (it == active_.end()) return Errc::verification_failed;  // revoked/unknown
  const crypto::Digest expected = token_mac(*serial, it->second);
  if (!ct_equal(*mac, crypto::digest_view(expected)))
    return Errc::verification_failed;
  return Status::success();
}

Status PasswordlessAuthenticator::revoke(std::uint64_t serial) {
  return active_.erase(serial) ? Status::success()
                               : Status(Errc::invalid_argument);
}

}  // namespace lateral::toolbox
