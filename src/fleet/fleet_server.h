// FleetServer — one utility server, a million meters (FIG14).
//
// net::establish_link attests exactly one client per call and drives both
// sides from one stack; production is many clients multiplexed onto one
// SGX anonymizer domain. FleetServer demuxes a single SimNetwork endpoint
// by claimed source address into per-connection session state, and runs
// everything from a single-threaded pump() — no per-connection threads.
// The state is one table indexed by the source's net::EndpointId, so a
// record costs no name lookup on its way in or its reply's way out:
//
//   - Full handshakes (three messages) verified through the configured
//     verifier — pass a fleet::CachedVerifier and a burst of
//     identical-measurement meters amortizes one RSA verification.
//   - One-RTT ticket resumption via TicketIssuer, with distinct
//     trace spans (handshake_full vs handshake_resumed) and rejection
//     paths (ticket_expired / ticket_replayed / identity mismatch) that
//     push clients back to the full handshake.
//   - RPC records are admission-controlled at the edge (token bucket;
//     refusals are counted and answered, not dropped), then pumped through
//     ONE CompletionQueue into the service domain so the enclave-crossing
//     cost is paid per doorbell, not per meter.
//   - pump(max_batched) caps the service work per tick; admitted surplus
//     stays in an internal arrival queue — lossless backpressure. The
//     arrival->completion latency histogram (MetricsHub, label `<label>`)
//     is where 10x overload either stays bounded (gate on) or collapses
//     (gate off); bench_fig14 plots exactly that.
//
// A supervised restart of the service domain plugs in via
// on_service_restart(): tickets rotate (all outstanding ones die), live
// sessions drop, and the batch channel re-attaches to the new epoch.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/attestation.h"
#include "core/manifest.h"
#include "health/audit.h"
#include "fleet/admission.h"
#include "fleet/protocol.h"
#include "fleet/ticket.h"
#include "fleet/verification_cache.h"
#include "net/network.h"
#include "net/remote.h"
#include "net/secure_channel.h"
#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "trace/trace.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::fleet {

struct FleetServerConfig {
  // --- Wiring -------------------------------------------------------------
  /// This server's network name, registered before the server is built.
  std::string endpoint;
  net::SimNetwork* network = nullptr;
  substrate::IsolationSubstrate* substrate = nullptr;
  /// The attested service (e.g. the SGX anonymizer): prover identity for
  /// handshakes AND callee of the batched channel.
  substrate::DomainId service_domain = substrate::kInvalidDomain;
  /// Untrusted frontend domain acting as the batch channel's caller side.
  substrate::DomainId frontend_domain = substrate::kInvalidDomain;
  substrate::ChannelId service_channel = 0;

  // --- Client authentication ---------------------------------------------
  /// Optional: require clients to attest as `expected_client`. Pass a
  /// CachedVerifier to amortize identical-measurement bursts.
  core::AttestationVerifier* verifier = nullptr;
  std::string expected_client;

  // --- Routing -------------------------------------------------------------
  /// Requests to this method go through the CompletionQueue into the
  /// service domain (payload = request payload, reply = handler reply).
  /// All other methods must be registered inline via register_method().
  std::string batched_method = "report";

  // --- Knobs (see docs/fleet.md; mirror the manifest `fleet` stanza) ------
  Cycles ticket_ttl = 5'000'000;
  AdmissionPolicy admission{};
  bool admission_enabled = true;
  std::size_t batch_depth = 64;

  // --- Observability -------------------------------------------------------
  runtime::MetricsHub* hub = nullptr;  // optional; label below
  std::string label = "fleet";
  trace::Tracer* tracer = nullptr;     // optional: handshake spans

  // --- Health plane (FIG16) ------------------------------------------------
  /// When set, the built-in `scrape` method answers with this text (wire the
  /// assembly's dump_observability / render_metrics_text here). Served only
  /// over an established sealed session — the same attestation gate every
  /// record passes — so metrics never leave the box to an unattested peer.
  std::function<std::string()> scrape_source;
  /// When set: (a) the built-in `audit_pull` method serves sealed, attested
  /// AuditSegments from this log (payload = optional 8-byte big-endian
  /// from_seq), and (b) security-relevant rejections on this server (ticket
  /// replay/expiry, record tamper, failed client attestation) are appended
  /// to it as evidence.
  health::AuditLog* audit = nullptr;
};

/// Size a server config from a manifest `fleet { ... }` stanza (ticket TTL
/// and admission bucket; the verification cache is sized separately via
/// cache_config() because it needs a clock and lives outside the server).
void apply_policy(FleetServerConfig& config, const core::FleetPolicy& policy);

/// The CachedVerifier sizing implied by a manifest `fleet` stanza.
CacheConfig cache_config(const core::FleetPolicy& policy,
                         const hw::Machine* clock);

class FleetServer {
 public:
  explicit FleetServer(FleetServerConfig config);
  /// The built-in methods point back at the server: it stays where it was
  /// built.
  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Register an inline (non-batched) method, dispatched synchronously on
  /// the pump thread. The batched method's name is refused, and so is a
  /// name already served: the built-ins `scrape` and `audit_pull` are
  /// registered first.
  Status register_method(const std::string& name,
                         net::MethodTable::Method handler);

  /// Drain the network endpoint and serve: progress handshakes and
  /// resumptions, admit/shed RPC records, push up to `max_batched` admitted
  /// requests through the service channel (0 = everything queued), and send
  /// sealed replies. Single-threaded by design.
  Status pump(std::size_t max_batched = 0);

  /// Supervised-restart hook: the service domain was relaunched as
  /// `new_service_domain`. Rotates the ticket key (outstanding tickets fail
  /// to unseal -> full-handshake fallback), drops every live session (their
  /// record keys belong to the dead incarnation), and re-attaches the batch
  /// channel at the channel's new epoch.
  void on_service_restart(substrate::DomainId new_service_domain);

  std::size_t sessions() const { return sessions_; }
  std::size_t backlog() const { return backlog_.size(); }
  runtime::FleetStats stats() const { return fleet_.snapshot(); }

  /// Mirror a CachedVerifier's hit/miss counters into the hub's FleetStats
  /// so one dump_observability() shows the whole fleet picture. (The cache
  /// is shared state the server only borrows; it cannot observe hits
  /// itself.)
  void sync_verifier_cache(const CachedVerifier& cache);

 private:
  /// One peer's state, at its EndpointId in `peers_`.
  struct PeerSlot {
    /// The responder of a full handshake between msg1 and msg3.
    std::unique_ptr<net::SecureChannelEndpoint> handshake;
    /// The established session records are opened and sealed on.
    std::unique_ptr<net::SecureChannelEndpoint> session;
    /// Bumped whenever `session` is installed or dropped. Work carries the
    /// generation it was admitted under, and its reply is sent only while
    /// that is still the slot's: a reply never crosses into a later
    /// session of the same peer.
    std::uint32_t generation = 0;
  };
  /// A datagram's claimed source: its network id (a name nobody registered
  /// has one too, but the network refuses replies to it) and its name, for
  /// audit records and spans.
  struct Peer {
    net::EndpointId id;
    const std::string& name;
  };
  struct InFlight {
    runtime::SubmissionId id = 0;  // 0: free slot
    net::EndpointId peer = net::kNoEndpoint;
    std::uint32_t generation = 0;
    Cycles arrived_at = 0;
  };
  struct Arrival {
    net::EndpointId peer = net::kNoEndpoint;
    std::uint32_t generation = 0;
    Bytes payload;
    Cycles arrived_at = 0;
  };

  void handle_datagram(net::SimNetwork::Datagram& datagram);
  /// The in-flight slot of submission `id`.
  InFlight& in_flight_slot(runtime::SubmissionId id) {
    return in_flight_[id & (in_flight_.size() - 1)];
  }
  /// `id`'s slot, made on first sight.
  PeerSlot& slot(net::EndpointId id);
  /// Install `channel` as the slot's established session.
  void install_session(PeerSlot& slot,
                       std::unique_ptr<net::SecureChannelEndpoint> channel);
  void drop_session(PeerSlot& slot);
  void handle_full_msg1(const Peer& peer, BytesView payload);
  void handle_full_msg3(const Peer& peer, BytesView payload);
  void handle_resume(const Peer& peer, BytesView payload);
  /// `datagram` is the whole frame, [kind | sealed record]: the record is
  /// opened inside it, and an admitted request's payload keeps its buffer.
  void handle_record(const Peer& peer, Bytes& datagram);
  /// The `audit_pull` built-in: seal the log through the current epoch,
  /// attest the seal with the service domain, answer with the serialized
  /// AuditSegment. `payload` is empty (from the chain genesis) or an 8-byte
  /// big-endian starting sequence number.
  Result<Bytes> serve_audit_pull(BytesView payload);
  Status serve_backlog(std::size_t max_batched);
  void drain_completions();
  void send_frame(net::EndpointId to, FrameKind kind, BytesView payload);
  void send_reject(net::EndpointId to, Errc errc);
  /// Seal the RPC reply encode_rpc_reply(error, payload) on the slot's
  /// session and send it; drops the session on a sealing failure (the
  /// channel is unusable).
  void send_reply(net::EndpointId to, PeerSlot& slot, Errc error,
                  BytesView payload);
  void send_reply(net::EndpointId to, PeerSlot& slot,
                  const Result<Bytes>& result) {
    send_reply(to, slot, result ? Errc::ok : result.error(),
               result ? BytesView(*result) : BytesView());
  }
  void stamp_handshake_span(trace::SpanPhase phase, const Peer& peer);
  /// Apply the counter updates this pump accumulated, under one lock.
  void flush_counters();
  Cycles now() const;
  std::unique_ptr<runtime::CompletionQueue> make_completion_queue() const;

  FleetServerConfig config_;
  TicketIssuer tickets_;
  AdmissionGate gate_;
  crypto::HmacDrbg drbg_;
  /// The one crossing into the service domain: admitted requests are
  /// submitted here and pump() rings a single doorbell per tick — flush
  /// and completion drain share that crossing (fixed depth; FIG14 sweeps
  /// batch_depth explicitly, so the adaptive controller stays off).
  std::unique_ptr<runtime::CompletionQueue> cq_;
  /// This server's own network id, resolved from config_.endpoint at
  /// construction.
  net::EndpointId self_ = net::kNoEndpoint;
  /// Per-peer state indexed by the peer's EndpointId; the network's ids
  /// are dense, so this is a vector, grown as new peers show up.
  std::vector<PeerSlot> peers_;
  std::size_t sessions_ = 0;  // slots with an established session
  /// The inline methods, built-ins included.
  net::MethodTable inline_methods_;
  std::deque<Arrival> backlog_;  // admitted, not yet submitted
  /// Submitted to cq_, reply not yet sent, indexed by id modulo its size,
  /// which is cq_->capacity(). Every doorbell is followed by a completion
  /// drain, so the ids in flight are at most the ring's queued ones:
  /// consecutive, and never more than capacity(), so never on one slot.
  std::vector<InFlight> in_flight_;
  runtime::MetricsHub::FleetSlot own_fleet_;
  runtime::MetricsHub::FleetRef fleet_;
  runtime::MetricsHub::CounterSlot own_counters_;
  runtime::MetricsHub::CounterRef counters_;  // arrival->completion e2e
  /// counters_ updates of the running pump, applied by flush_counters().
  runtime::InvocationCounters counter_delta_;
};

}  // namespace lateral::fleet
