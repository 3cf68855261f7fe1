#include "fleet/protocol.h"

#include "util/wire.h"

namespace lateral::fleet {
namespace {

constexpr std::size_t kNonceBytes = 32;
constexpr std::size_t kBinderBytes = 32;

}  // namespace

Bytes frame(FrameKind kind, BytesView payload) {
  Bytes out;
  out.reserve(1 + payload.size());
  out.push_back(static_cast<std::uint8_t>(kind));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<Bytes> seal_frame(net::SecureChannelEndpoint& channel, FrameKind kind,
                         BytesView plain) {
  const auto kind_byte = static_cast<std::uint8_t>(kind);
  return channel.seal_record(plain, BytesView(&kind_byte, 1));
}

Result<Bytes> seal_frame(net::SecureChannelEndpoint& channel, FrameKind kind,
                         BytesView head, BytesView body) {
  const auto kind_byte = static_cast<std::uint8_t>(kind);
  return channel.seal_record_parts(BytesView(&kind_byte, 1), head, body);
}

Result<Frame> parse_frame(BytesView datagram) {
  if (datagram.empty()) return Errc::invalid_argument;
  const auto kind = static_cast<FrameKind>(datagram[0]);
  switch (kind) {
    case FrameKind::full_msg1:
    case FrameKind::full_msg3:
    case FrameKind::resume:
    case FrameKind::record:
    case FrameKind::full_msg2:
    case FrameKind::grant:
    case FrameKind::resume_ok:
    case FrameKind::reject:
    case FrameKind::reply:
      break;
    default:
      return Errc::invalid_argument;
  }
  return Frame{.kind = kind, .payload = datagram.subspan(1)};
}

Bytes resumption_keys(BytesView secret, BytesView client_nonce,
                      BytesView server_nonce) {
  Bytes ikm;
  ikm.insert(ikm.end(), client_nonce.begin(), client_nonce.end());
  ikm.insert(ikm.end(), server_nonce.begin(), server_nonce.end());
  return crypto::hkdf(secret, ikm, to_bytes("lateral.fleet.resume.v1"), 32);
}

Bytes resume_binder(BytesView secret, BytesView ticket_wire,
                    BytesView client_nonce) {
  Bytes msg = to_bytes("lateral.fleet.binder.v1");
  msg.insert(msg.end(), ticket_wire.begin(), ticket_wire.end());
  msg.insert(msg.end(), client_nonce.begin(), client_nonce.end());
  return crypto::digest_bytes(crypto::hmac_sha256(secret, msg));
}

Bytes encode_resume(BytesView ticket_wire, BytesView client_nonce,
                    BytesView binder) {
  Bytes out;
  out.reserve(4 + ticket_wire.size() + client_nonce.size() + binder.size());
  wire::ByteWriter w(out);
  w.blob32(ticket_wire);
  w.bytes(client_nonce);
  w.bytes(binder);
  return out;
}

Result<ResumeRequest> decode_resume(BytesView payload) {
  wire::ByteReader r(payload);
  auto ticket = r.blob32();
  if (!ticket) return ticket.error();
  auto client_nonce = r.bytes(kNonceBytes);
  if (!client_nonce) return client_nonce.error();
  auto binder = r.bytes(kBinderBytes);
  if (!binder) return binder.error();
  if (const Status s = r.finish(); !s.ok()) return s.error();
  return ResumeRequest{.ticket_wire = Bytes(ticket->begin(), ticket->end()),
                       .client_nonce = Bytes(client_nonce->begin(),
                                             client_nonce->end()),
                       .binder = Bytes(binder->begin(), binder->end())};
}

Bytes encode_grant(BytesView ticket_wire, BytesView secret) {
  Bytes out;
  out.reserve(4 + ticket_wire.size() + secret.size());
  wire::ByteWriter w(out);
  w.blob32(ticket_wire);
  w.bytes(secret);
  return out;
}

Result<Grant> decode_grant(BytesView plain) {
  wire::ByteReader r(plain);
  auto ticket = r.blob32();
  if (!ticket) return ticket.error();
  const BytesView secret = r.rest();
  if (secret.empty()) return Errc::invalid_argument;
  return Grant{.ticket_wire = Bytes(ticket->begin(), ticket->end()),
               .secret = Bytes(secret.begin(), secret.end())};
}

}  // namespace lateral::fleet
