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

Result<Bytes> decode_rpc_reply(Bytes plain, std::size_t head) {
  if (plain.size() <= head) return Errc::invalid_argument;
  const Errc remote_error = wire::errc8(plain[head]);
  if (remote_error != Errc::ok) return remote_error;
  plain.erase(plain.begin(),
              plain.begin() + static_cast<std::ptrdiff_t>(head + 1));
  return plain;
}

Status MethodTable::register_method(const std::string& name,
                                    Method handler) {
  if (name.empty() || !handler) return Errc::invalid_argument;
  const bool inserted = methods_.emplace(name, std::move(handler)).second;
  return inserted ? Status::success() : Status(Errc::invalid_argument);
}

Result<Bytes> MethodTable::dispatch(BytesView plain) const {
  auto request = decode_rpc_request(plain);
  if (!request) return Errc::invalid_argument;
  return dispatch(*request);
}

Result<Bytes> MethodTable::dispatch(const RpcRequest& request) const {
  const auto it = methods_.find(request.method);
  if (it == methods_.end()) return Errc::invalid_argument;
  return it->second(request.payload);
}

RemoteDispatcher::RemoteDispatcher(SecureChannelEndpoint& channel)
    : channel_(channel) {
  if (!channel.established())
    throw Error("RemoteDispatcher needs an established channel");
}

Result<Bytes> RemoteDispatcher::handle(BytesView request_record) {
  auto plain = channel_.open_record(request_record);
  if (!plain) return plain.error();  // unauthentic: do not even reply
  const Result<Bytes> result = methods_.dispatch(*plain);
  const std::uint8_t head = rpc_reply_head(result);
  return channel_.seal_record_parts({}, BytesView(&head, 1),
                                    rpc_reply_body(result));
}

RemoteProxy::RemoteProxy(SecureChannelEndpoint& channel, Transport transport)
    : channel_(channel), transport_(std::move(transport)) {
  if (!transport_) throw Error("RemoteProxy needs a transport");
}

Result<Bytes> RemoteProxy::call(const std::string& method, BytesView payload) {
  Bytes head;
  append_rpc_request_head(head, method);
  auto record = channel_.seal_record_parts({}, head, payload);
  if (!record) return record.error();

  auto reply_record = transport_(*record);
  if (!reply_record) return reply_record.error();

  auto reply = channel_.open_record(*reply_record);
  if (!reply) return reply.error();
  return decode_rpc_reply(std::move(*reply));
}

}  // namespace lateral::net
