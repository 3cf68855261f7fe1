// lateral::fleet wire protocol — framing for a multiplexed attested server.
//
// net::federation establishes ONE link between two fixed endpoints with both
// sides driven from the same call stack. A fleet server instead demuxes many
// clients off a single SimNetwork endpoint, so every datagram carries a
// one-byte frame kind in front of its payload: handshake legs, ticket
// resumption, and sealed RPC records all share the wire. The secure-channel
// payloads inside the frames are unchanged — framing adds routing, not
// trust; a forged frame kind at worst selects the wrong state machine,
// which then fails record authentication.
#pragma once

#include <cstdint>

#include "crypto/hmac.h"
#include "net/secure_channel.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::fleet {

enum class FrameKind : std::uint8_t {
  // client -> server
  full_msg1 = 0x01,  // handshake msg1 (dh_pub_i || nonce_i)
  full_msg3 = 0x02,  // handshake msg3 (quote_I)
  resume = 0x03,     // [u32 ticket_len | ticket | 32B nonce_c | 32B binder]
  record = 0x04,     // sealed RPC request record
  // server -> client
  full_msg2 = 0x11,  // handshake msg2 (dh_pub_r || nonce_r || quote_R)
  grant = 0x12,      // sealed record: [u32 ticket_len | ticket | 32B secret]
  resume_ok = 0x13,  // [32B nonce_s]
  reject = 0x14,     // [u8 errc] — why a handshake/resumption was refused
  reply = 0x15,      // sealed RPC reply record
};

/// A parsed frame: its payload is a view into the datagram it came from.
struct Frame {
  FrameKind kind = FrameKind::reject;
  BytesView payload;
};

/// Prepend the frame kind to a payload.
Bytes frame(FrameKind kind, BytesView payload);

/// frame(kind, channel.seal_record(plain)), built in one buffer.
Result<Bytes> seal_frame(net::SecureChannelEndpoint& channel, FrameKind kind,
                         BytesView plain);

/// seal_frame(channel, kind, head ‖ body), built in the same one buffer
/// without joining head and body first: a request's method head and its
/// payload, or a reply's error byte and its payload.
Result<Bytes> seal_frame(net::SecureChannelEndpoint& channel, FrameKind kind,
                         BytesView head, BytesView body);

/// Split a datagram into kind + payload view; invalid_argument on an empty
/// datagram or a kind outside the protocol.
Result<Frame> parse_frame(BytesView datagram);

// --- Resumption crypto ----------------------------------------------------

/// Session keys for a resumed channel: HKDF over both nonces, salted with
/// the ticket's resumption secret. Either side deriving different inputs
/// (stolen ticket without the secret, tampered nonce) yields keys that fail
/// every record — the resumed channel authenticates itself in use.
Bytes resumption_keys(BytesView secret, BytesView client_nonce,
                      BytesView server_nonce);

/// Proof of secret possession presented WITH the ticket: a keyed MAC over
/// the exact ticket wire and the client's nonce. A ticket lifted off the
/// wire is useless without the secret, which only ever travelled inside the
/// originally attested channel.
Bytes resume_binder(BytesView secret, BytesView ticket_wire,
                    BytesView client_nonce);

/// Encode/decode the resume frame payload.
Bytes encode_resume(BytesView ticket_wire, BytesView client_nonce,
                    BytesView binder);
struct ResumeRequest {
  Bytes ticket_wire;
  Bytes client_nonce;
  Bytes binder;
};
Result<ResumeRequest> decode_resume(BytesView payload);

/// Encode/decode the grant plaintext (travels sealed in the fresh channel).
Bytes encode_grant(BytesView ticket_wire, BytesView secret);
struct Grant {
  Bytes ticket_wire;
  Bytes secret;
};
Result<Grant> decode_grant(BytesView plain);

}  // namespace lateral::fleet
