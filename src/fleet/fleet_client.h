// FleetClient — one meter in the FIG14 fleet.
//
// Wraps the connection policy a real device would carry: hold the
// resumption ticket from the last session, try the one-RTT resumed
// handshake first, and fall back to the full three-message quote exchange
// whenever the server refuses (expired / replayed / rotated-away ticket,
// changed identity expectations). The fallback is the protocol's safety
// net: every rejection path ends in a fresh full handshake, never a
// wedged client.
//
// Two calling styles:
//   - call(): synchronous RPC; `drive` (the callback that runs the server's
//     pump) is invoked between send and receive.
//   - submit()/collect(): pipelined — seal and send many requests without
//     waiting, then collect replies in order after the caller has pumped
//     the server. This is how a fleet bench loads one batch crossing with
//     hundreds of meters' readings.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "fleet/protocol.h"
#include "net/network.h"
#include "net/remote.h"
#include "net/secure_channel.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::fleet {

struct FleetClientConfig {
  std::string endpoint;         // this client's network name (registered
                                // by the constructor if needed)
  std::string server_endpoint;  // the FleetServer's network name
  net::SimNetwork* network = nullptr;
  /// Attest ourselves (the TrustZone metering component).
  std::optional<net::ProverConfig> prover;
  /// Require the server's code identity (the SGX anonymizer).
  std::optional<net::VerifierConfig> verifier;
  /// Runs the server between our send and receive (single-process
  /// simulation stand-in for "the server is always running").
  std::function<void()> drive;
};

class FleetClient {
 public:
  explicit FleetClient(FleetClientConfig config);

  /// Connect: resumed when a ticket is held and the server accepts it,
  /// full handshake otherwise. A refused ticket is discarded and the
  /// connection falls back to the full handshake transparently;
  /// last_reject() tells why.
  Status connect();

  bool connected() const { return channel_ != nullptr; }
  /// Did the *current* connection resume (vs full handshake)?
  bool resumed() const { return resumed_; }
  bool has_ticket() const { return ticket_.has_value(); }
  /// Why the last resumption attempt was refused (Errc::ok if it was not).
  Errc last_reject() const { return last_reject_; }

  /// Drop the connection but keep the ticket — the next connect() resumes.
  void disconnect();
  void clear_ticket() { ticket_.reset(); }

  /// Synchronous RPC (uses `drive`).
  Result<Bytes> call(const std::string& method, BytesView payload);

  /// Pipelined RPC: seal + send without waiting. Replies arrive in order
  /// via collect() once the server has pumped.
  Status submit(const std::string& method, BytesView payload);
  /// Next in-order reply; Errc::would_block when none has arrived.
  Result<Bytes> collect();

 private:
  struct TicketState {
    Bytes wire;
    Bytes secret;
  };

  Status connect_full();
  Status connect_resumed();
  /// Receive the next handshake frame for us, running `drive` (at most
  /// once) when the queue is empty, and return its payload. Stale `reply`
  /// frames from a dropped session are skipped. A reject frame surfaces as
  /// its carried error code, any other kind but `expected` as
  /// Errc::io_error.
  Result<Bytes> next_frame(FrameKind expected);
  Status send_frame(FrameKind kind, BytesView payload);
  /// The server's network id, resolved on first use and kept.
  Result<net::EndpointId> server_id();

  FleetClientConfig config_;
  /// This client's network id (kNoEndpoint if its name cannot be
  /// registered: every send and receive then fails).
  net::EndpointId self_ = net::kNoEndpoint;
  net::EndpointId server_ = net::kNoEndpoint;
  crypto::HmacDrbg drbg_;
  /// submit()'s request head, [u16 method_len | method]; reused.
  Bytes request_head_;
  std::unique_ptr<net::SecureChannelEndpoint> channel_;
  std::optional<TicketState> ticket_;
  bool resumed_ = false;
  Errc last_reject_ = Errc::ok;
};

}  // namespace lateral::fleet
