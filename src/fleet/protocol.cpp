#include "fleet/protocol.h"

namespace lateral::fleet {
namespace {

constexpr std::size_t kNonceBytes = 32;
constexpr std::size_t kBinderBytes = 32;

void append_u32(Bytes& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

Result<Bytes> read_blob32(BytesView wire, std::size_t& offset) {
  if (offset + 4 > wire.size()) return Errc::invalid_argument;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len = (len << 8) | wire[offset++];
  if (offset + len > wire.size()) return Errc::invalid_argument;
  Bytes out(wire.begin() + static_cast<long>(offset),
            wire.begin() + static_cast<long>(offset + len));
  offset += len;
  return out;
}

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
  append_u32(out, static_cast<std::uint32_t>(ticket_wire.size()));
  out.insert(out.end(), ticket_wire.begin(), ticket_wire.end());
  out.insert(out.end(), client_nonce.begin(), client_nonce.end());
  out.insert(out.end(), binder.begin(), binder.end());
  return out;
}

Result<ResumeRequest> decode_resume(BytesView payload) {
  std::size_t offset = 0;
  auto ticket = read_blob32(payload, offset);
  if (!ticket) return ticket.error();
  if (payload.size() != offset + kNonceBytes + kBinderBytes)
    return Errc::invalid_argument;
  ResumeRequest out;
  out.ticket_wire = std::move(*ticket);
  out.client_nonce.assign(payload.begin() + static_cast<long>(offset),
                          payload.begin() +
                              static_cast<long>(offset + kNonceBytes));
  out.binder.assign(payload.begin() +
                        static_cast<long>(offset + kNonceBytes),
                    payload.end());
  return out;
}

Bytes encode_grant(BytesView ticket_wire, BytesView secret) {
  Bytes out;
  out.reserve(4 + ticket_wire.size() + secret.size());
  append_u32(out, static_cast<std::uint32_t>(ticket_wire.size()));
  out.insert(out.end(), ticket_wire.begin(), ticket_wire.end());
  out.insert(out.end(), secret.begin(), secret.end());
  return out;
}

Result<Grant> decode_grant(BytesView plain) {
  std::size_t offset = 0;
  auto ticket = read_blob32(plain, offset);
  if (!ticket) return ticket.error();
  if (plain.size() <= offset) return Errc::invalid_argument;
  Grant out;
  out.ticket_wire = std::move(*ticket);
  out.secret.assign(plain.begin() + static_cast<long>(offset), plain.end());
  return out;
}

}  // namespace lateral::fleet
