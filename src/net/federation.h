// Federation: establish an attested component-to-component link between
// two machines over a SimNetwork, and pump synchronous RPC across it.
//
// This packages the Fig. 3 wiring pattern (handshake message exchange +
// RemoteProxy/RemoteDispatcher) into one call, so distributed scenarios
// read like the paper's prose: "configure communication relationships
// between them" — across machine boundaries.
#pragma once

#include <memory>
#include <string>

#include "net/network.h"
#include "net/remote.h"
#include "net/secure_channel.h"
#include "util/result.h"

namespace lateral::net {

/// One side of an established federated link.
struct LinkSite {
  std::unique_ptr<SecureChannelEndpoint> channel;
  std::unique_ptr<RemoteDispatcher> dispatcher;
};

/// Attestation roles for both sides of establish_link. Each side may attest
/// itself (prover) and/or require the peer's code identity (verifier);
/// leaving a field empty opts that side out of the respective role. The
/// named-field form replaces four positional std::optional parameters whose
/// call sites were unreadable and silently order-fragile.
struct HandshakeConfig {
  std::optional<ProverConfig> initiator_prover;
  std::optional<VerifierConfig> initiator_verifier;
  std::optional<ProverConfig> responder_prover;
  std::optional<VerifierConfig> responder_verifier;
};

/// An established bidirectional link. The initiator calls remote methods
/// through `proxy`; the responder registers methods on its dispatcher.
/// (Symmetric RPC would use a second link in the opposite direction.)
class FederatedLink {
 public:
  RemoteProxy& proxy() { return *proxy_; }
  RemoteDispatcher& responder_dispatcher() { return *responder_.dispatcher; }

  SecureChannelEndpoint& initiator_channel() { return *initiator_channel_; }
  SecureChannelEndpoint& responder_channel() { return *responder_.channel; }

 private:
  friend Result<std::unique_ptr<FederatedLink>> establish_link(
      SimNetwork&, const std::string&, const std::string&,
      const HandshakeConfig&);

  FederatedLink() = default;

  SimNetwork* network_ = nullptr;
  /// Both endpoints, resolved once: every record moves by id.
  EndpointId initiator_id_ = kNoEndpoint;
  EndpointId responder_id_ = kNoEndpoint;
  std::unique_ptr<SecureChannelEndpoint> initiator_channel_;
  LinkSite responder_;
  std::unique_ptr<RemoteProxy> proxy_;
};

/// Run the three-message attested handshake between two registered
/// network endpoints and return the established link. The names are
/// resolved once, here; the handshake and every call move by id.
/// Errc::invalid_argument for an unregistered endpoint,
/// Errc::verification_failed when either side refuses the other.
Result<std::unique_ptr<FederatedLink>> establish_link(
    SimNetwork& network, const std::string& initiator_endpoint,
    const std::string& responder_endpoint, const HandshakeConfig& config);

}  // namespace lateral::net
