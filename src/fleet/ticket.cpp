#include "fleet/ticket.h"

#include "util/wire.h"

namespace lateral::fleet {
namespace {

// Ticket plaintext: [32B measurement | 32B secret | 8B expiry | 8B id].
constexpr std::size_t kSecretBytes = 32;
constexpr std::size_t kPlainBytes = 32 + kSecretBytes + 8 + 8;

const Bytes kTicketAad = to_bytes("lateral.fleet.ticket.v1");

}  // namespace

TicketIssuer::TicketIssuer(BytesView key_seed, Cycles ttl)
    : key_seed_(key_seed.begin(), key_seed.end()),
      ttl_(ttl),
      drbg_(key_seed),
      aead_(make_aead()) {
  if (ttl == 0) throw Error("TicketIssuer: ttl must be nonzero");
}

crypto::Aead TicketIssuer::make_aead() const {
  // The sealing key is derived from the seed AND the epoch: rotate() bumps
  // the epoch, and nothing sealed under the old key opens again.
  Bytes info = to_bytes("lateral.fleet.ticketkey.v1:");
  wire::ByteWriter(info).u64(key_epoch_);
  return crypto::Aead(crypto::hkdf(/*salt=*/{}, key_seed_, info, 32));
}

MintedTicket TicketIssuer::mint(const crypto::Digest& client_measurement,
                                Cycles now) {
  std::lock_guard<std::mutex> lock(mu_);
  MintedTicket out;
  out.id = next_id_++;
  out.secret = drbg_.generate(kSecretBytes);

  Bytes plain;
  plain.reserve(kPlainBytes);
  wire::ByteWriter w(plain);
  w.bytes(client_measurement);
  w.bytes(out.secret);
  w.u64(now + ttl_);
  w.u64(out.id);

  // The id doubles as the AEAD nonce: unique per key epoch by construction
  // (rotate() replaces the key, so post-rotate reuse of an id is under a
  // different keystream).
  out.wire.reserve(crypto::kSealedBoxHeaderBytes + kPlainBytes);
  crypto::append_sealed_box(out.wire, aead_.seal(out.id, kTicketAad, plain));
  return out;
}

Result<TicketClaims> TicketIssuer::redeem(BytesView ticket, Cycles now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ticket.size() != crypto::kSealedBoxHeaderBytes + kPlainBytes)
    return Errc::verification_failed;
  auto box = crypto::parse_sealed_box(ticket);
  if (!box) return Errc::verification_failed;
  auto plain = aead_.open(*box, kTicketAad);
  if (!plain) return Errc::verification_failed;

  wire::ByteReader r(*plain);
  TicketClaims claims;
  auto measurement = r.bytes(claims.measurement.size());
  auto secret = r.bytes(kSecretBytes);
  auto expiry = r.u64();
  auto id = r.u64();
  if (!measurement || !secret || !expiry || !id || *id != box->nonce)
    return Errc::verification_failed;
  std::copy(measurement->begin(), measurement->end(),
            claims.measurement.begin());
  claims.secret.assign(secret->begin(), secret->end());
  claims.expiry = *expiry;
  claims.id = *id;

  // Prune on every redeem attempt, before any outcome: an expired id can
  // never redeem again, so remembering it is pure state. This bounds the
  // set by mint-rate x TTL regardless of the rejection mix.
  for (auto it = redeemed_.begin(); it != redeemed_.end();) {
    it = it->second < now ? redeemed_.erase(it) : std::next(it);
  }
  if (now > claims.expiry) return Errc::ticket_expired;

  const auto [it, inserted] = redeemed_.emplace(claims.id, claims.expiry);
  (void)it;
  if (!inserted) return Errc::ticket_replayed;
  return claims;
}

void TicketIssuer::rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  ++key_epoch_;
  aead_ = make_aead();
  redeemed_.clear();
}

std::size_t TicketIssuer::redeemed_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return redeemed_.size();
}

}  // namespace lateral::fleet
