#include "net/federation.h"

namespace lateral::net {
namespace {

/// Receive the next datagram for `endpoint`, or io_error if the network
/// dropped it (a MITM may do that; the handshake then simply fails).
Result<Bytes> next_payload(SimNetwork& network, EndpointId endpoint) {
  auto datagram = network.receive(endpoint);
  if (!datagram) return Errc::io_error;
  return std::move(datagram->payload);
}

/// Carry `message` from `from` to `to` and return it as `to` receives it.
Result<Bytes> hop(SimNetwork& network, EndpointId from, EndpointId to,
                  Bytes message) {
  if (const Status s = network.send(from, to, std::move(message)); !s.ok())
    return s.error();
  return next_payload(network, to);
}

}  // namespace

Result<std::unique_ptr<FederatedLink>> establish_link(
    SimNetwork& network, const std::string& initiator_endpoint,
    const std::string& responder_endpoint, const HandshakeConfig& config) {
  const auto initiator = network.resolve(initiator_endpoint);
  if (!initiator) return initiator.error();
  const auto responder = network.resolve(responder_endpoint);
  if (!responder) return responder.error();

  auto link = std::unique_ptr<FederatedLink>(new FederatedLink());
  link->network_ = &network;
  link->initiator_id_ = *initiator;
  link->responder_id_ = *responder;

  link->initiator_channel_ = std::make_unique<SecureChannelEndpoint>(
      Role::initiator, to_bytes("fed.i:" + initiator_endpoint),
      config.initiator_prover, config.initiator_verifier);
  link->responder_.channel = std::make_unique<SecureChannelEndpoint>(
      Role::responder, to_bytes("fed.r:" + responder_endpoint),
      config.responder_prover, config.responder_verifier);

  // The three-message handshake, across the (possibly hostile) network.
  auto msg1 = link->initiator_channel_->start();
  if (!msg1) return msg1.error();
  auto msg1_rx = hop(network, *initiator, *responder, std::move(*msg1));
  if (!msg1_rx) return msg1_rx.error();

  auto msg2 = link->responder_.channel->handle_msg1(*msg1_rx);
  if (!msg2) return msg2.error();
  auto msg2_rx = hop(network, *responder, *initiator, std::move(*msg2));
  if (!msg2_rx) return msg2_rx.error();

  auto msg3 = link->initiator_channel_->handle_msg2(*msg2_rx);
  if (!msg3) return msg3.error();
  auto msg3_rx = hop(network, *initiator, *responder, std::move(*msg3));
  if (!msg3_rx) return msg3_rx.error();
  if (const Status s = link->responder_.channel->handle_msg3(*msg3_rx);
      !s.ok())
    return s.error();

  // RPC plumbing: the proxy's transport pushes a record through the
  // network, lets the responder dispatch it, and carries the reply back.
  link->responder_.dispatcher =
      std::make_unique<RemoteDispatcher>(*link->responder_.channel);
  auto* raw = link.get();
  link->proxy_ = std::make_unique<RemoteProxy>(
      *link->initiator_channel_,
      [raw](BytesView record) -> Result<Bytes> {
        SimNetwork& net = *raw->network_;
        auto request = hop(net, raw->initiator_id_, raw->responder_id_,
                           Bytes(record.begin(), record.end()));
        if (!request) return request.error();
        auto reply = raw->responder_.dispatcher->handle(*request);
        if (!reply) return reply.error();
        return hop(net, raw->responder_id_, raw->initiator_id_,
                   std::move(*reply));
      });
  return link;
}

}  // namespace lateral::net
