#include "fleet/fleet_client.h"

#include "util/wire.h"

namespace lateral::fleet {

FleetClient::FleetClient(FleetClientConfig config)
    : config_(std::move(config)),
      drbg_(to_bytes("fleet.client:" + config_.endpoint)) {
  if (!config_.network) throw Error("FleetClient: network is required");
  // Idempotent: first client with this name registers the endpoint.
  if (auto id = config_.network->register_endpoint(config_.endpoint))
    self_ = *id;
  else if (auto known = config_.network->resolve(config_.endpoint))
    self_ = *known;
}

Result<net::EndpointId> FleetClient::server_id() {
  if (server_ == net::kNoEndpoint) {
    auto id = config_.network->resolve(config_.server_endpoint);
    if (!id) return id.error();
    server_ = *id;
  }
  return server_;
}

Status FleetClient::send_frame(FrameKind kind, BytesView payload) {
  auto server = server_id();
  if (!server) return server.error();
  return config_.network->send(self_, *server, frame(kind, payload));
}

Result<Bytes> FleetClient::next_frame(FrameKind expected) {
  bool driven = false;
  for (;;) {
    auto datagram = config_.network->receive(self_);
    if (!datagram) {
      if (!config_.drive || driven) return Errc::io_error;
      config_.drive();
      driven = true;
      continue;
    }
    auto parsed = parse_frame(datagram->payload);
    if (!parsed) return Errc::io_error;
    // An ack sealed on the session connect() dropped: a reading of ours was
    // still in the server's backlog. No handshake frame is a reply, and
    // the old session is gone, so it is skipped.
    if (parsed->kind == FrameKind::reply) continue;
    if (parsed->kind == FrameKind::reject) {
      if (parsed->payload.size() != 1 || parsed->payload[0] == 0)
        return Errc::io_error;
      return wire::errc8(parsed->payload[0]);
    }
    if (parsed->kind != expected) return Errc::io_error;
    // The payload, in the datagram's own buffer.
    Bytes payload = std::move(datagram->payload);
    payload.erase(payload.begin());
    return payload;
  }
}

Status FleetClient::connect() {
  disconnect();
  if (ticket_) {
    const Status resumed = connect_resumed();
    if (resumed.ok()) return resumed;
    // Whatever the server disliked about the ticket (expired, replayed,
    // rotated away, identity policy), the remedy is the same: forget it
    // and prove ourselves from scratch.
    last_reject_ = resumed.error();
    ticket_.reset();
    channel_.reset();
  }
  return connect_full();
}

Status FleetClient::connect_full() {
  auto channel = std::make_unique<net::SecureChannelEndpoint>(
      net::Role::initiator, drbg_.generate(32), config_.prover,
      config_.verifier);

  auto msg1 = channel->start();
  if (!msg1) return msg1.error();
  if (const Status s = send_frame(FrameKind::full_msg1, *msg1); !s.ok())
    return s;

  auto msg2 = next_frame(FrameKind::full_msg2);
  if (!msg2) return msg2.error();

  auto msg3 = channel->handle_msg2(*msg2);
  if (!msg3) return msg3.error();
  if (const Status s = send_frame(FrameKind::full_msg3, *msg3); !s.ok())
    return s;

  // The grant doubles as the handshake-complete ack: it only opens if both
  // sides derived the same keys, and it carries next session's ticket.
  auto granted = next_frame(FrameKind::grant);
  if (!granted) return granted.error();
  auto plain = channel->open_record(*granted);
  if (!plain) return plain.error();
  auto grant = decode_grant(*plain);
  if (!grant) return grant.error();

  ticket_ = TicketState{.wire = std::move(grant->ticket_wire),
                        .secret = std::move(grant->secret)};
  channel_ = std::move(channel);
  resumed_ = false;
  return Status::success();
}

Status FleetClient::connect_resumed() {
  const Bytes client_nonce = drbg_.generate(32);
  const Bytes binder =
      resume_binder(ticket_->secret, ticket_->wire, client_nonce);
  if (const Status s =
          send_frame(FrameKind::resume,
                     encode_resume(ticket_->wire, client_nonce, binder));
      !s.ok())
    return s;

  auto server_nonce = next_frame(FrameKind::resume_ok);
  if (!server_nonce) return server_nonce.error();

  const Bytes keys =
      resumption_keys(ticket_->secret, client_nonce, *server_nonce);
  channel_ = net::SecureChannelEndpoint::resume(net::Role::initiator, keys);
  resumed_ = true;
  // Single-use: this ticket is now redeemed server-side. Holding onto it
  // would only buy the next connect a ticket_replayed rejection.
  ticket_.reset();
  return Status::success();
}

void FleetClient::disconnect() {
  channel_.reset();
  resumed_ = false;
}

Result<Bytes> FleetClient::call(const std::string& method,
                                BytesView payload) {
  if (const Status s = submit(method, payload); !s.ok()) return s.error();
  if (config_.drive) config_.drive();
  return collect();
}

Status FleetClient::submit(const std::string& method, BytesView payload) {
  if (!channel_) return Errc::would_block;
  auto server = server_id();
  if (!server) return server.error();
  request_head_.clear();
  net::append_rpc_request_head(request_head_, method);
  auto framed =
      seal_frame(*channel_, FrameKind::record, request_head_, payload);
  if (!framed) return framed.error();
  return config_.network->send(self_, *server, std::move(*framed));
}

Result<Bytes> FleetClient::collect() {
  if (!channel_) return Errc::would_block;
  auto datagram = config_.network->receive(self_);
  if (!datagram) return Errc::would_block;
  auto parsed = parse_frame(datagram->payload);
  if (!parsed) return Errc::io_error;
  if (parsed->kind == FrameKind::reject) {
    // The server dropped our session (e.g. restart); reconnect to go on.
    disconnect();
    if (parsed->payload.size() != 1 || parsed->payload[0] == 0)
      return Errc::io_error;
    return wire::errc8(parsed->payload[0]);
  }
  if (parsed->kind != FrameKind::reply) return Errc::io_error;
  // The record follows the frame kind; it is opened where it lies and the
  // reply keeps the datagram's buffer.
  Bytes& buffer = datagram->payload;
  auto plain =
      channel_->open_record_in_place(std::span<std::uint8_t>(buffer).subspan(1));
  if (!plain) return plain.error();
  const std::size_t head = buffer.size() - plain->size();
  return net::decode_rpc_reply(std::move(buffer), head);
}

}  // namespace lateral::fleet
