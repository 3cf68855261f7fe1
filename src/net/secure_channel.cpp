#include "net/secure_channel.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "util/wire.h"

namespace lateral::net {
namespace {

// Record AAD per direction, so a record cannot be reflected to its sender.
const Bytes kI2rAad = to_bytes("i2r");
const Bytes kR2iAad = to_bytes("r2i");

}  // namespace

Bytes handshake_context(BytesView dh_i_wire, BytesView dh_r_wire) {
  Bytes context = to_bytes("lateral.sc.v1:");
  context.insert(context.end(), dh_i_wire.begin(), dh_i_wire.end());
  context.insert(context.end(), dh_r_wire.begin(), dh_r_wire.end());
  return context;
}

SecureChannelEndpoint::SecureChannelEndpoint(
    Role role, BytesView drbg_seed, std::optional<ProverConfig> prover,
    std::optional<VerifierConfig> verifier)
    : role_(role),
      drbg_(drbg_seed),
      prover_(prover),
      verifier_(verifier) {
  if (verifier_ && !verifier_->verifier)
    throw Error("SecureChannelEndpoint: null verifier");
  if (prover_ && !prover_->substrate)
    throw Error("SecureChannelEndpoint: null prover substrate");
  dh_ = crypto::DhKeyPair::generate(crypto::DhGroup::oakley1(), drbg_);
}

SecureChannelEndpoint::SecureChannelEndpoint(ResumeTag, Role role,
                                             BytesView key_material)
    : role_(role), drbg_(key_material) {
  // Resumed sessions never run the handshake, so no DH pair is generated —
  // skipping that keygen (plus the quote exchange) is the entire point of
  // the one-RTT path.
  aead_.emplace(key_material);
  established_ = true;
}

std::unique_ptr<SecureChannelEndpoint> SecureChannelEndpoint::resume(
    Role role, BytesView key_material) {
  return std::unique_ptr<SecureChannelEndpoint>(
      new SecureChannelEndpoint(ResumeTag{}, role, key_material));
}

void SecureChannelEndpoint::reset() {
  dh_ = crypto::DhKeyPair::generate(crypto::DhGroup::oakley1(), drbg_);
  peer_dh_ = crypto::Bignum();
  nonce_local_.clear();
  nonce_peer_.clear();
  dh_i_wire_.clear();
  dh_r_wire_.clear();
  aead_.reset();
  send_seq_ = 0;
  recv_seq_ = 0;
  established_ = false;
}

Result<Bytes> SecureChannelEndpoint::start() {
  if (role_ != Role::initiator) return Errc::invalid_argument;
  nonce_local_ = verifier_ ? verifier_->verifier->make_challenge()
                           : drbg_.generate(32);
  dh_i_wire_ = dh_.public_key.to_bytes();
  Bytes msg1;
  wire::ByteWriter w(msg1);
  w.blob32(dh_i_wire_);
  w.blob32(nonce_local_);
  return msg1;
}

Result<Bytes> SecureChannelEndpoint::handle_msg1(BytesView msg1) {
  if (role_ != Role::responder) return Errc::invalid_argument;
  wire::ByteReader r(msg1);
  auto dh_i = r.blob32();
  auto nonce_i = r.blob32();
  if (!dh_i || !nonce_i || !r.finish().ok()) return Errc::invalid_argument;

  dh_i_wire_.assign(dh_i->begin(), dh_i->end());
  nonce_peer_.assign(nonce_i->begin(), nonce_i->end());
  peer_dh_ = crypto::Bignum::from_bytes(dh_i_wire_);
  dh_r_wire_ = dh_.public_key.to_bytes();
  nonce_local_ = verifier_ ? verifier_->verifier->make_challenge()
                           : drbg_.generate(32);

  Bytes msg2;
  wire::ByteWriter w(msg2);
  w.blob32(dh_r_wire_);
  w.blob32(nonce_local_);

  // Attest ourselves against the peer's challenge, bound to this exchange.
  Bytes quote_wire;
  if (prover_) {
    auto quote = core::respond_to_challenge(
        *prover_->substrate, prover_->domain, nonce_peer_,
        handshake_context(dh_i_wire_, dh_r_wire_));
    if (!quote) return quote.error();
    quote_wire = std::move(*quote);
  }
  w.blob32(quote_wire);

  if (const Status s = derive_keys(); !s.ok()) return s.error();
  return msg2;
}

Result<Bytes> SecureChannelEndpoint::handle_msg2(BytesView msg2) {
  if (role_ != Role::initiator) return Errc::invalid_argument;
  wire::ByteReader r(msg2);
  auto dh_r = r.blob32();
  auto nonce_r = r.blob32();
  auto quote_wire = r.blob32();
  if (!dh_r || !nonce_r || !quote_wire || !r.finish().ok())
    return Errc::invalid_argument;

  dh_r_wire_.assign(dh_r->begin(), dh_r->end());
  nonce_peer_.assign(nonce_r->begin(), nonce_r->end());
  peer_dh_ = crypto::Bignum::from_bytes(dh_r_wire_);

  if (verifier_) {
    // Refuse to talk to a manipulated instance (Fig. 3 flow).
    if (const Status s = verifier_->verifier->verify(
            verifier_->expected_peer, *quote_wire, nonce_local_,
            handshake_context(dh_i_wire_, dh_r_wire_));
        !s.ok())
      return Errc::verification_failed;
  }

  Bytes msg3;
  Bytes my_quote;
  if (prover_) {
    auto quote = core::respond_to_challenge(
        *prover_->substrate, prover_->domain, nonce_peer_,
        handshake_context(dh_i_wire_, dh_r_wire_));
    if (!quote) return quote.error();
    my_quote = std::move(*quote);
  }
  wire::ByteWriter(msg3).blob32(my_quote);

  if (const Status s = derive_keys(); !s.ok()) return s.error();
  establish();
  return msg3;
}

Status SecureChannelEndpoint::handle_msg3(BytesView msg3) {
  if (role_ != Role::responder) return Errc::invalid_argument;
  wire::ByteReader r(msg3);
  auto quote_wire = r.blob32();
  if (!quote_wire || !r.finish().ok()) return Errc::invalid_argument;

  if (verifier_) {
    if (quote_wire->empty()) return Errc::verification_failed;
    if (const Status s = verifier_->verifier->verify(
            verifier_->expected_peer, *quote_wire, nonce_local_,
            handshake_context(dh_i_wire_, dh_r_wire_));
        !s.ok())
      return Errc::verification_failed;
  }
  establish();
  return Status::success();
}

void SecureChannelEndpoint::establish() {
  // The record keys are derived; the DH pair and the transcript only ever
  // served the handshake. Forget them rather than hold them for the
  // session's lifetime (reset() makes a fresh pair for the next one).
  dh_ = crypto::DhKeyPair{};
  peer_dh_ = crypto::Bignum();
  nonce_local_ = Bytes();
  nonce_peer_ = Bytes();
  dh_i_wire_ = Bytes();
  dh_r_wire_ = Bytes();
  established_ = true;
}

Status SecureChannelEndpoint::derive_keys() {
  auto shared = crypto::dh_shared_secret(crypto::DhGroup::oakley1(),
                                         dh_.private_key, peer_dh_);
  if (!shared) return Errc::verification_failed;

  // Bind the transcript into the keys: any disagreement about the
  // handshake yields incompatible keys, not a silent downgrade. Both sides
  // hash in canonical order (initiator's nonce first).
  crypto::Sha256 canonical;
  canonical.update(dh_i_wire_);
  canonical.update(dh_r_wire_);
  if (role_ == Role::initiator) {
    canonical.update(nonce_local_);
    canonical.update(nonce_peer_);
  } else {
    canonical.update(nonce_peer_);
    canonical.update(nonce_local_);
  }
  const crypto::Digest t = canonical.finish();

  const Bytes key_material =
      crypto::hkdf(crypto::digest_bytes(t), *shared,
                   to_bytes("lateral.securechannel.keys.v1"), 32);
  aead_.emplace(key_material);
  return Status::success();
}

Result<Bytes> SecureChannelEndpoint::seal_record(BytesView plaintext,
                                                 BytesView prefix) {
  return seal_record_parts(prefix, {}, plaintext);
}

Result<Bytes> SecureChannelEndpoint::seal_record_parts(BytesView prefix,
                                                       BytesView head,
                                                       BytesView body) {
  if (!established_ || !aead_) return Errc::would_block;
  // Per-direction nonce spaces: initiator even, responder odd.
  const std::uint64_t nonce =
      (send_seq_ << 1) | (role_ == Role::responder ? 1 : 0);
  ++send_seq_;

  // One exactly-sized buffer, laid out as the wire record: the plaintext
  // parts are copied into place and encrypted there.
  Bytes out(prefix.size() + kRecordHeaderBytes + head.size() + body.size());
  std::uint8_t* record = std::copy(prefix.begin(), prefix.end(), out.data());
  std::uint8_t* plain = record + kRecordHeaderBytes;
  std::copy(body.begin(), body.end(),
            std::copy(head.begin(), head.end(), plain));
  wire::store_be64(record, nonce);
  const crypto::AeadTag tag = aead_->seal(
      nonce, role_ == Role::initiator ? kI2rAad : kR2iAad,
      BytesView(plain, head.size() + body.size()), plain);
  std::copy(tag.begin(), tag.end(), record + 8);
  return out;
}

Result<std::uint64_t> SecureChannelEndpoint::check_record(
    BytesView record) const {
  if (!established_ || !aead_) return Errc::would_block;
  if (record.size() < kRecordHeaderBytes) return Errc::invalid_argument;
  const std::uint64_t nonce = wire::load_be64(record.data());
  // Strict ordering: the next record from the peer must carry exactly the
  // expected sequence number in the peer's nonce space.
  const std::uint64_t expected_nonce =
      (recv_seq_ << 1) | (role_ == Role::initiator ? 1 : 0);
  if (nonce != expected_nonce) return Errc::verification_failed;
  return nonce;
}

Status SecureChannelEndpoint::open_checked(std::uint64_t nonce,
                                           BytesView record,
                                           std::uint8_t* plaintext) {
  if (!aead_
           ->open(nonce, role_ == Role::initiator ? kR2iAad : kI2rAad,
                  record.subspan(kRecordHeaderBytes), record.subspan(8, 16),
                  plaintext)
           .ok())
    return Errc::verification_failed;
  ++recv_seq_;
  return Status::success();
}

Result<Bytes> SecureChannelEndpoint::open_record(BytesView record) {
  auto nonce = check_record(record);
  if (!nonce) return nonce.error();
  Bytes plain(record.size() - kRecordHeaderBytes);
  if (const Status s = open_checked(*nonce, record, plain.data()); !s.ok())
    return s.error();
  return plain;
}

Result<std::span<std::uint8_t>> SecureChannelEndpoint::open_record_in_place(
    std::span<std::uint8_t> record) {
  auto nonce = check_record(record);
  if (!nonce) return nonce.error();
  const std::span<std::uint8_t> plain = record.subspan(kRecordHeaderBytes);
  if (const Status s = open_checked(*nonce, record, plain.data()); !s.ok())
    return s.error();
  return plain;
}

}  // namespace lateral::net
