#include "net/remote.h"

#include "util/wire.h"

namespace lateral::net {

Bytes encode_rpc_request(std::string_view method, BytesView payload) {
  Bytes out;
  out.reserve(2 + method.size() + payload.size());
  append_rpc_request_head(out, method);
  wire::ByteWriter(out).bytes(payload);
  return out;
}

void append_rpc_request_head(Bytes& out, std::string_view method) {
  wire::ByteWriter(out).blob16(wire::as_bytes(method));
}

Result<RpcRequest> decode_rpc_request(BytesView plain) {
  wire::ByteReader r(plain);
  auto method = r.blob16();
  if (!method) return method.error();
  return RpcRequest{.method = wire::as_text(*method), .payload = r.rest()};
}

Bytes encode_rpc_reply(Errc error, BytesView payload) {
  const bool ok = error == Errc::ok;
  Bytes out;
  out.reserve(1 + (ok ? payload.size() : 0));
  wire::ByteWriter w(out);
  w.u8(rpc_reply_head(error));
  if (ok) w.bytes(payload);
  return out;
}

Result<Bytes> decode_rpc_reply(Bytes plain) {
  if (plain.empty()) return Errc::invalid_argument;
  const Errc remote_error = wire::errc8(plain[0]);
  if (remote_error != Errc::ok) return remote_error;
  plain.erase(plain.begin());
  return plain;
}

RemoteDispatcher::RemoteDispatcher(SecureChannelEndpoint& channel)
    : channel_(channel) {
  if (!channel.established())
    throw Error("RemoteDispatcher needs an established channel");
}

Status RemoteDispatcher::register_method(const std::string& name,
                                         Method handler) {
  if (name.empty() || !handler) return Errc::invalid_argument;
  const auto [it, inserted] = methods_.emplace(name, std::move(handler));
  (void)it;
  return inserted ? Status::success() : Status(Errc::invalid_argument);
}

Result<Bytes> RemoteDispatcher::handle(BytesView request_record) {
  auto plain = channel_.open_record(request_record);
  if (!plain) return plain.error();  // unauthentic: do not even reply

  auto request = decode_rpc_request(*plain);
  Bytes reply_plain;
  if (!request) {
    reply_plain = encode_rpc_reply(Errc::invalid_argument, {});
  } else {
    const auto it = methods_.find(request->method);
    if (it == methods_.end()) {
      reply_plain = encode_rpc_reply(Errc::invalid_argument, {});
    } else {
      Result<Bytes> result = it->second(request->payload);
      reply_plain = result ? encode_rpc_reply(Errc::ok, *result)
                           : encode_rpc_reply(result.error(), {});
    }
  }
  return channel_.seal_record(reply_plain);
}

RemoteProxy::RemoteProxy(SecureChannelEndpoint& channel, Transport transport)
    : channel_(channel), transport_(std::move(transport)) {
  if (!transport_) throw Error("RemoteProxy needs a transport");
}

Result<Bytes> RemoteProxy::call(const std::string& method, BytesView payload) {
  auto record = channel_.seal_record(encode_rpc_request(method, payload));
  if (!record) return record.error();

  auto reply_record = transport_(*record);
  if (!reply_record) return reply_record.error();

  auto reply = channel_.open_record(*reply_record);
  if (!reply) return reply.error();
  return decode_rpc_reply(std::move(*reply));
}

}  // namespace lateral::net
