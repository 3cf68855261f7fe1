// Remote component invocation over a SecureChannel.
//
// The paper (§I): "our envisioned architecture also extends across the
// network, allowing trusted component interaction in distributed systems";
// and (§III-D): reusable components "can even form distributed confidence
// domains across machine boundaries."
//
// RemoteDispatcher exposes a component's methods on the server side of an
// established SecureChannelEndpoint; RemoteProxy invokes them from the
// client side. Requests and replies ride the channel's AEAD records, so
// everything the channel guarantees (peer code identity, confidentiality,
// integrity, ordering, replay protection) extends to the RPC layer —
// including error returns: a refusal travels back as data, not as an
// unauthenticated network artifact.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "net/secure_channel.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::net {

// --- RPC wire codec -------------------------------------------------------
// Request: [u16 method_len | method | payload]
// Reply:   [u8 errc | payload (on success)]
// Every RPC server decodes requests in one place, MethodTable::dispatch:
// RemoteDispatcher, the async dispatcher (behind its [u32 id | 16 B ctx]
// prefix) and the fleet server's inline methods. The fleet multiplexer
// pipelines many sealed requests before reading any reply and so cannot
// use the synchronous proxy, but it speaks this same codec.

Bytes encode_rpc_request(std::string_view method, BytesView payload);

/// The bytes of a request in front of its payload, [u16 method_len |
/// method], appended to `out`: encode_rpc_request(method, payload) is this
/// head followed by the payload. A sealer that takes the two parts
/// (SecureChannelEndpoint::seal_record_parts) builds no joined buffer.
void append_rpc_request_head(Bytes& out, std::string_view method);

/// A reply's head byte: encode_rpc_reply(error, payload) is this byte
/// followed by the payload when `error` is Errc::ok, by nothing otherwise.
inline std::uint8_t rpc_reply_head(Errc error) {
  return static_cast<std::uint8_t>(error);
}
/// The head byte and the bytes after it of the reply to `result`.
inline std::uint8_t rpc_reply_head(const Result<Bytes>& result) {
  return rpc_reply_head(result ? Errc::ok : result.error());
}
inline BytesView rpc_reply_body(const Result<Bytes>& result) {
  return result ? BytesView(*result) : BytesView();
}

/// A decoded request: views into the plaintext it was decoded from.
struct RpcRequest {
  std::string_view method;
  BytesView payload;
};
Result<RpcRequest> decode_rpc_request(BytesView plain);

Bytes encode_rpc_reply(Errc error, BytesView payload);

/// Unwrap a reply that starts `head` bytes into `plain` (after a prefix
/// the caller has read) in place: the payload keeps the plaintext's
/// buffer, and the remote error code travels back as the Result error (no
/// reply byte, or an error byte past the last Errc, reads as
/// invalid_argument).
Result<Bytes> decode_rpc_reply(Bytes plain, std::size_t head = 0);

/// The one RPC method registry, and the one request -> result step behind
/// every RPC server (RemoteDispatcher, runtime::AsyncRemoteDispatcher and
/// fleet::FleetServer's inline methods).
class MethodTable {
 public:
  using Method = std::function<Result<Bytes>(BytesView request)>;

  /// invalid_argument for an empty name, a null handler or a name already
  /// registered (first registration wins).
  Status register_method(const std::string& name, Method handler);

  /// Decode a request plaintext and run its method: invalid_argument for a
  /// malformed request or an unknown method, else the handler's result
  /// (a refusal included).
  Result<Bytes> dispatch(BytesView plain) const;
  /// The same, for a request already decoded.
  Result<Bytes> dispatch(const RpcRequest& request) const;

 private:
  std::map<std::string, Method, std::less<>> methods_;
};

/// Server side: dispatches incoming records to registered methods.
class RemoteDispatcher {
 public:
  using Method = MethodTable::Method;

  /// `channel` must already be established; the dispatcher borrows it.
  explicit RemoteDispatcher(SecureChannelEndpoint& channel);

  Status register_method(const std::string& name, Method handler) {
    return methods_.register_method(name, std::move(handler));
  }

  /// Process one sealed request record and produce the sealed reply record.
  /// Errc::verification_failed when the request record fails channel
  /// authentication (the caller should drop the connection).
  Result<Bytes> handle(BytesView request_record);

 private:
  SecureChannelEndpoint& channel_;
  MethodTable methods_;
};

/// Client side: seals requests and opens replies.
class RemoteProxy {
 public:
  /// `transport` delivers a sealed request record to the peer and returns
  /// the sealed reply record (e.g. two SimNetwork hops).
  using Transport = std::function<Result<Bytes>(BytesView record)>;

  RemoteProxy(SecureChannelEndpoint& channel, Transport transport);

  /// Invoke a remote method. Remote refusals come back as their original
  /// error codes; transport/authentication problems surface as
  /// verification_failed / io_error.
  Result<Bytes> call(const std::string& method, BytesView payload);

 private:
  SecureChannelEndpoint& channel_;
  Transport transport_;
};

}  // namespace lateral::net
