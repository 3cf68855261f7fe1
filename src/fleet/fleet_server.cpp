#include "fleet/fleet_server.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "util/wire.h"

namespace lateral::fleet {

void apply_policy(FleetServerConfig& config,
                  const core::FleetPolicy& policy) {
  config.ticket_ttl = policy.ticket_ttl;
  config.admission.burst = policy.admit_burst;
  config.admission.refill_per_megacycle = policy.admit_rate;
}

CacheConfig cache_config(const core::FleetPolicy& policy,
                         const hw::Machine* clock) {
  CacheConfig cfg;
  cfg.capacity = policy.cache_capacity;
  cfg.ttl = policy.cache_ttl;
  cfg.clock = clock;
  return cfg;
}

FleetServer::FleetServer(FleetServerConfig config)
    : config_(std::move(config)),
      tickets_(to_bytes("fleet.ticketkey:" + config_.endpoint),
               config_.ticket_ttl),
      gate_(config_.admission),
      drbg_(to_bytes("fleet.server:" + config_.endpoint)),
      fleet_(config_.hub ? config_.hub->fleet(config_.label)
                         : runtime::MetricsHub::FleetRef(&own_fleet_)),
      counters_(config_.hub ? config_.hub->counters(config_.label)
                            : runtime::MetricsHub::CounterRef(&own_counters_)) {
  if (!config_.network || !config_.substrate)
    throw Error("FleetServer: network and substrate are required");
  if (config_.verifier && config_.expected_client.empty())
    throw Error("FleetServer: verifier requires expected_client");
  const auto self = config_.network->resolve(config_.endpoint);
  if (!self) throw Error("FleetServer: endpoint is not registered");
  self_ = *self;
  cq_ = make_completion_queue();
  in_flight_.resize(cq_->capacity());
  // Built-in health-plane methods (FIG16), registered first: an
  // application cannot shadow them. Both ride the established sealed
  // session, so their consumer is as attested as any meter.
  (void)inline_methods_.register_method(
      "scrape", [this](BytesView) -> Result<Bytes> {
        if (!config_.scrape_source) return Errc::not_supported;
        fleet_->scrapes++;
        // The scrape shows every counter update made so far.
        flush_counters();
        return to_bytes(config_.scrape_source());
      });
  (void)inline_methods_.register_method(
      "audit_pull",
      [this](BytesView payload) { return serve_audit_pull(payload); });
}

std::unique_ptr<runtime::CompletionQueue> FleetServer::make_completion_queue()
    const {
  runtime::CompletionQueueConfig cfg;
  cfg.depth = config_.batch_depth;
  // FIG14 sweeps batch_depth as the experiment variable; pin the controller
  // to it so the sweep measures the depth, not the controller.
  cfg.adaptive.min_batch = config_.batch_depth;
  cfg.adaptive.max_batch = config_.batch_depth;
  cfg.adaptive.initial = config_.batch_depth;
  cfg.adaptive.adaptive = false;
  cfg.hub = config_.hub;
  cfg.label = config_.label + ".mux";
  return std::make_unique<runtime::CompletionQueue>(
      *config_.substrate, config_.frontend_domain, config_.service_channel,
      cfg);
}

Cycles FleetServer::now() const {
  return config_.substrate->machine().now();
}

Status FleetServer::register_method(const std::string& name,
                                    net::MethodTable::Method handler) {
  if (name == config_.batched_method) return Errc::invalid_argument;
  return inline_methods_.register_method(name, std::move(handler));
}

Status FleetServer::pump(std::size_t max_batched) {
  while (true) {
    auto datagram = config_.network->receive(self_);
    if (!datagram) break;  // drained
    handle_datagram(*datagram);
  }
  const Status served = serve_backlog(max_batched);
  flush_counters();
  return served;
}

void FleetServer::flush_counters() {
  counters_->add(counter_delta_);
  counter_delta_ = runtime::InvocationCounters{};
}

FleetServer::PeerSlot& FleetServer::slot(net::EndpointId id) {
  if (id >= peers_.size()) peers_.resize(std::size_t{id} + 1);
  return peers_[id];
}

void FleetServer::install_session(
    PeerSlot& slot, std::unique_ptr<net::SecureChannelEndpoint> channel) {
  if (!slot.session) ++sessions_;
  slot.session = std::move(channel);
  ++slot.generation;
}

void FleetServer::drop_session(PeerSlot& slot) {
  if (!slot.session) return;
  slot.session.reset();
  --sessions_;
  ++slot.generation;
}

void FleetServer::handle_datagram(net::SimNetwork::Datagram& datagram) {
  auto parsed = parse_frame(datagram.payload);
  if (!parsed) return;  // not even a protocol frame: nothing to answer
  const Peer peer{.id = datagram.from_id, .name = datagram.from};
  switch (parsed->kind) {
    case FrameKind::full_msg1:
      handle_full_msg1(peer, parsed->payload);
      break;
    case FrameKind::full_msg3:
      handle_full_msg3(peer, parsed->payload);
      break;
    case FrameKind::resume:
      handle_resume(peer, parsed->payload);
      break;
    case FrameKind::record:
      handle_record(peer, datagram.payload);
      break;
    default:
      // Server-to-client kinds looping back: ignore.
      break;
  }
}

void FleetServer::handle_full_msg1(const Peer& peer, BytesView payload) {
  std::optional<net::VerifierConfig> verifier;
  if (config_.verifier)
    verifier = net::VerifierConfig{config_.verifier, config_.expected_client};
  auto channel = std::make_unique<net::SecureChannelEndpoint>(
      net::Role::responder, drbg_.generate(32),
      net::ProverConfig{config_.substrate, config_.service_domain}, verifier);

  auto msg2 = channel->handle_msg1(payload);
  if (!msg2) {
    send_reject(peer.id, msg2.error());
    return;
  }
  // A retry supersedes any stale state.
  slot(peer.id).handshake = std::move(channel);
  send_frame(peer.id, FrameKind::full_msg2, *msg2);
}

void FleetServer::handle_full_msg3(const Peer& peer, BytesView payload) {
  PeerSlot& s = slot(peer.id);
  if (!s.handshake) {
    send_reject(peer.id, Errc::invalid_argument);
    return;
  }
  std::unique_ptr<net::SecureChannelEndpoint> channel =
      std::move(s.handshake);
  if (const Status st = channel->handle_msg3(payload); !st.ok()) {
    if (config_.audit)
      config_.audit->append(health::AuditKind::attestation_failed, peer.name,
                            st.error(), "handshake_msg3");
    send_reject(peer.id, st.error());
    return;
  }

  // Ticket bound to the identity this handshake just verified. Without
  // client verification there is no identity to bind — the zero digest
  // stands for "anonymous", and resumption grants no more than the full
  // handshake did.
  crypto::Digest measurement{};
  if (config_.verifier) {
    if (const auto expected =
            config_.verifier->expectation(config_.expected_client))
      measurement = *expected;
  }
  const MintedTicket minted = tickets_.mint(measurement, now());
  auto sealed = seal_frame(*channel, FrameKind::grant,
                           encode_grant(minted.wire, minted.secret));
  if (!sealed) return;  // channel came up unusable; client will retry

  install_session(s, std::move(channel));
  (void)config_.network->send(self_, peer.id, std::move(*sealed));
  fleet_->handshakes_full++;
  fleet_->tickets_issued++;
  stamp_handshake_span(trace::SpanPhase::handshake_full, peer);
}

void FleetServer::handle_resume(const Peer& peer, BytesView payload) {
  auto request = decode_resume(payload);
  if (!request) {
    send_reject(peer.id, Errc::invalid_argument);
    return;
  }
  auto claims = tickets_.redeem(request->ticket_wire, now());
  if (!claims) {
    fleet_->tickets_rejected++;
    if (config_.audit)
      config_.audit->append(health::AuditKind::ticket_rejected, peer.name,
                            claims.error(), "redeem");
    send_reject(peer.id, claims.error());
    return;
  }
  // Possession of the secret, proven over the exact wire presented. A
  // failed binder still burned the ticket above — a lifted ticket can cost
  // its owner one resumption, never a session.
  if (!ct_equal(resume_binder(claims->secret, request->ticket_wire,
                              request->client_nonce),
                request->binder)) {
    fleet_->tickets_rejected++;
    if (config_.audit)
      config_.audit->append(health::AuditKind::ticket_rejected, peer.name,
                            Errc::verification_failed, "binder");
    send_reject(peer.id, Errc::verification_failed);
    return;
  }
  // The sealed identity must still be the one we expect TODAY: a policy
  // update (new known-good meter build) refuses tickets minted for the old
  // identity even though they are otherwise valid.
  if (config_.verifier) {
    const auto expected =
        config_.verifier->expectation(config_.expected_client);
    if (!expected ||
        !ct_equal(crypto::digest_view(claims->measurement),
                  crypto::digest_view(*expected))) {
      fleet_->tickets_rejected++;
      if (config_.audit)
        config_.audit->append(health::AuditKind::ticket_rejected, peer.name,
                              Errc::access_denied, "identity");
      send_reject(peer.id, Errc::access_denied);
      return;
    }
  }

  const Bytes server_nonce = drbg_.generate(32);
  const Bytes keys = resumption_keys(claims->secret, request->client_nonce,
                                     server_nonce);
  install_session(slot(peer.id), net::SecureChannelEndpoint::resume(
                                     net::Role::responder, keys));
  send_frame(peer.id, FrameKind::resume_ok, server_nonce);
  fleet_->handshakes_resumed++;
  stamp_handshake_span(trace::SpanPhase::handshake_resumed, peer);
}

void FleetServer::handle_record(const Peer& peer, Bytes& datagram) {
  PeerSlot& s = slot(peer.id);
  if (!s.session) {
    send_reject(peer.id, Errc::invalid_argument);
    return;
  }
  // The record follows the frame kind; it is opened where it lies.
  auto plain = s.session->open_record_in_place(
      std::span<std::uint8_t>(datagram).subspan(1));
  if (!plain) {
    // Channel authentication failed: tampering or a desynced peer. Fail
    // closed — drop the session; the client reconnects (ticket intact).
    if (config_.audit)
      config_.audit->append(health::AuditKind::session_tamper, peer.name,
                            Errc::verification_failed, "open_record");
    drop_session(s);
    send_reject(peer.id, Errc::verification_failed);
    return;
  }
  auto request = net::decode_rpc_request(*plain);
  if (!request) {
    send_reply(peer.id, s, Errc::invalid_argument, {});
    return;
  }

  if (request->method == config_.batched_method) {
    if (config_.admission_enabled && !gate_.admit(now()).ok()) {
      // Shed: answered immediately and counted, never queued, never lost.
      fleet_->admission_shed++;
      counter_delta_.rejected++;
      send_reply(peer.id, s, Errc::exhausted, {});
      return;
    }
    counter_delta_.submitted++;
    // The request payload is the datagram's tail: keep its buffer.
    const auto header =
        static_cast<std::ptrdiff_t>(datagram.size() - request->payload.size());
    datagram.erase(datagram.begin(), datagram.begin() + header);
    backlog_.push_back(Arrival{.peer = peer.id,
                               .generation = s.generation,
                               .payload = std::move(datagram),
                               .arrived_at = now()});
    return;
  }

  send_reply(peer.id, s, inline_methods_.dispatch(*request));
}

Result<Bytes> FleetServer::serve_audit_pull(BytesView payload) {
  if (!config_.audit) return Errc::not_supported;
  // [] pulls the whole log; [u64 from_seq] pulls from that record on.
  std::uint64_t from_seq = 0;
  if (!payload.empty()) {
    wire::ByteReader r(payload);
    auto seq = r.u64();
    if (!seq || !r.finish().ok()) return Errc::invalid_argument;
    from_seq = *seq;
  }
  auto segment = config_.audit->segment(from_seq, *config_.substrate,
                                        config_.service_domain);
  if (!segment) return segment.error();
  fleet_->audit_pulls++;
  return segment->serialize();
}

Status FleetServer::serve_backlog(std::size_t max_batched) {
  std::size_t served = 0;
  while (!backlog_.empty() && (max_batched == 0 || served < max_batched)) {
    Arrival& front = backlog_.front();
    // A refused submit leaves the payload in place for the retry below.
    auto id = cq_->submit(std::move(front.payload));
    if (!id) {
      if (id.error() != Errc::exhausted) return id.error();
      // Submission ring full: ring once (flush + completion drain share
      // the crossing) and keep going — the bound is backpressure, not
      // loss.
      if (const Status s = cq_->doorbell(); !s.ok()) return s;
      drain_completions();
      continue;
    }
    InFlight& flight = in_flight_slot(*id);
    if (flight.id != 0) throw Error("FleetServer: in-flight slot overrun");
    flight = InFlight{.id = *id,
                      .peer = front.peer,
                      .generation = front.generation,
                      .arrived_at = front.arrived_at};
    backlog_.pop_front();
    ++served;
  }
  const Status rung = cq_->doorbell();
  drain_completions();
  return rung;
}

void FleetServer::drain_completions() {
  cq_->for_each_completion([&](runtime::CqEvent& event) {
    InFlight& flight = in_flight_slot(event.id);
    if (flight.id != event.id) return;
    flight.id = 0;
    counter_delta_.completed++;
    counter_delta_.record_latency(now() - flight.arrived_at);
    // Answered only on the session it was admitted under: a peer whose
    // session ended or was replaced since gets nothing, as a vanished one.
    PeerSlot& peer = peers_[flight.peer];
    if (peer.generation != flight.generation) return;
    send_reply(flight.peer, peer, event.ok() ? Errc::ok : event.status,
               event.payload);
  });
}

void FleetServer::send_frame(net::EndpointId to, FrameKind kind,
                             BytesView payload) {
  // A vanished (or never registered) peer is not the server's problem;
  // delivery failure is the client's timeout to handle.
  (void)config_.network->send(self_, to, frame(kind, payload));
}

void FleetServer::send_reject(net::EndpointId to, Errc errc) {
  const Bytes payload{static_cast<std::uint8_t>(errc)};
  send_frame(to, FrameKind::reject, payload);
}

void FleetServer::send_reply(net::EndpointId to, PeerSlot& slot, Errc error,
                             BytesView payload) {
  if (!slot.session) return;
  const std::uint8_t head = net::rpc_reply_head(error);
  auto sealed =
      seal_frame(*slot.session, FrameKind::reply, BytesView(&head, 1),
                 error == Errc::ok ? payload : BytesView());
  if (!sealed) {
    drop_session(slot);
    return;
  }
  (void)config_.network->send(self_, to, std::move(*sealed));
}

void FleetServer::stamp_handshake_span(trace::SpanPhase phase,
                                       const Peer& peer) {
  if (!config_.tracer || !config_.tracer->enabled()) return;
  const trace::TraceContext ctx = config_.tracer->begin_trace();
  config_.substrate->stamp_span(config_.service_domain, ctx,
                                config_.tracer->next_span(), phase,
                                to_bytes(peer.name), 0);
}

void FleetServer::sync_verifier_cache(const CachedVerifier& cache) {
  const CacheStats stats = cache.cache_stats();
  fleet_->verify_cache_hits = stats.hits;
  fleet_->verify_cache_misses = stats.misses;
}

void FleetServer::on_service_restart(
    substrate::DomainId new_service_domain) {
  config_.service_domain = new_service_domain;
  // Every outstanding ticket was sealed by the dead incarnation's key.
  tickets_.rotate();
  // Live record keys likewise: drop the sessions, clients re-handshake.
  for (PeerSlot& peer : peers_) {
    peer.handshake.reset();
    drop_session(peer);
  }
  // Admitted-but-unserved work cannot be answered (its sessions are gone):
  // account it as cancelled — withdrawn, not lost — so the lossless
  // invariant still balances after the crash.
  counters_->cancelled +=
      backlog_.size() +
      static_cast<std::uint64_t>(std::count_if(
          in_flight_.begin(), in_flight_.end(),
          [](const InFlight& flight) { return flight.id != 0; }));
  backlog_.clear();
  // Fresh channel epoch: the old queue would see stale_epoch forever. Its
  // ids start over, so the in-flight slots do too.
  cq_ = make_completion_queue();
  in_flight_.assign(cq_->capacity(), InFlight{});
}

}  // namespace lateral::fleet
