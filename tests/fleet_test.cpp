// lateral::fleet — fleet-scale attested federation (FIG14).
//
// The contracts under test, each with its visible rejection path:
//   - tickets are single-use, expiring, key-rotation-invalidated, and
//     identity-bound (TicketIssuer unit tests + e2e through FleetServer);
//   - resumption is one round trip and distinguishable (resumed(), the
//     handshakes_resumed counter, the handshake_resumed trace span);
//   - the verification cache amortizes RSA work across a fleet of
//     identical-measurement meters without giving up nonce freshness;
//   - admission control sheds visibly (Errc::exhausted + admission_shed)
//     and everything admitted is served — lossless accounting;
//   - a bounded pump is backpressure, not loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/attestation.h"
#include "fleet/admission.h"
#include "fleet/fleet_client.h"
#include "fleet/fleet_server.h"
#include "fleet/protocol.h"
#include "fleet/ticket.h"
#include "fleet/verification_cache.h"
#include "health/audit.h"
#include "net/network.h"
#include "runtime/metrics.h"
#include "test_support.h"
#include "trace/exporter.h"
#include "trace/trace.h"

namespace lateral::fleet {
namespace {

// ---------------------------------------------------------------------------
// TicketIssuer: the resumption-ticket state machine in isolation.

crypto::Digest test_measurement(std::uint8_t fill = 0xAB) {
  crypto::Digest digest{};
  digest.fill(fill);
  return digest;
}

TEST(TicketIssuer, MintRedeemRoundTripIsSingleUse) {
  TicketIssuer issuer(to_bytes("ticket-key"), /*ttl=*/1000);
  const MintedTicket minted = issuer.mint(test_measurement(), /*now=*/100);
  EXPECT_FALSE(minted.wire.empty());
  EXPECT_EQ(minted.secret.size(), 32u);

  auto claims = issuer.redeem(minted.wire, /*now=*/200);
  ASSERT_TRUE(claims.ok());
  EXPECT_EQ(claims->measurement, test_measurement());
  EXPECT_EQ(claims->secret, minted.secret);
  EXPECT_EQ(claims->expiry, 1100u);
  EXPECT_EQ(claims->id, minted.id);

  // Single-use: the same wire a second time is a replay.
  EXPECT_EQ(issuer.redeem(minted.wire, 300).error(), Errc::ticket_replayed);
  EXPECT_EQ(issuer.redeemed_live(), 1u);
}

TEST(TicketIssuer, ExpiryRejectsAndPrunesReplayState) {
  TicketIssuer issuer(to_bytes("ticket-key"), /*ttl=*/1000);
  const MintedTicket early = issuer.mint(test_measurement(), 0);
  ASSERT_TRUE(issuer.redeem(early.wire, 10).ok());
  EXPECT_EQ(issuer.redeemed_live(), 1u);

  const MintedTicket late = issuer.mint(test_measurement(), 0);
  EXPECT_EQ(issuer.redeem(late.wire, 2000).error(), Errc::ticket_expired);
  // The replay set is bounded by tickets-per-TTL: pruning rode on the same
  // redeem call, so the long-expired first id is gone.
  EXPECT_EQ(issuer.redeemed_live(), 0u);
}

TEST(TicketIssuer, RotationInvalidatesOutstandingTickets) {
  TicketIssuer issuer(to_bytes("ticket-key"), 1000);
  const MintedTicket minted = issuer.mint(test_measurement(), 0);
  issuer.rotate();
  // Sealed under a key that no longer exists: indistinguishable from a
  // forgery, and that is the point.
  EXPECT_EQ(issuer.redeem(minted.wire, 1).error(), Errc::verification_failed);
  // Tickets minted after the rotation work.
  const MintedTicket fresh = issuer.mint(test_measurement(), 0);
  EXPECT_TRUE(issuer.redeem(fresh.wire, 1).ok());
}

TEST(TicketIssuer, TamperedWireRefused) {
  TicketIssuer issuer(to_bytes("ticket-key"), 1000);
  MintedTicket minted = issuer.mint(test_measurement(), 0);
  minted.wire[minted.wire.size() / 2] ^= 0x01;
  EXPECT_EQ(issuer.redeem(minted.wire, 1).error(), Errc::verification_failed);
  EXPECT_EQ(issuer.redeem(to_bytes("short"), 1).error(),
            Errc::verification_failed);
}

// ---------------------------------------------------------------------------
// Protocol framing + resumption crypto.

TEST(FleetProtocol, FrameRoundTripAndRejection) {
  const Bytes wire = frame(FrameKind::resume, to_bytes("payload"));
  auto parsed = parse_frame(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, FrameKind::resume);
  EXPECT_EQ(to_string(parsed->payload), "payload");
  EXPECT_FALSE(parse_frame(Bytes{}).ok());
  EXPECT_FALSE(parse_frame(Bytes{0x7F, 1, 2}).ok());  // unknown kind
}

TEST(FleetProtocol, ResumeEncodingRoundTrip) {
  const Bytes ticket = to_bytes("opaque-ticket-bytes");
  const Bytes nonce(32, 0x11);
  const Bytes binder = resume_binder(to_bytes("secret"), ticket, nonce);
  auto decoded = decode_resume(encode_resume(ticket, nonce, binder));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ticket_wire, ticket);
  EXPECT_EQ(decoded->client_nonce, nonce);
  EXPECT_EQ(decoded->binder, binder);
  EXPECT_FALSE(decode_resume(to_bytes("garbage")).ok());
}

TEST(FleetProtocol, KeysAndBindersDependOnEveryInput) {
  const Bytes nc(32, 1), ns(32, 2);
  const Bytes keys = resumption_keys(to_bytes("s"), nc, ns);
  EXPECT_EQ(keys.size(), 32u);
  EXPECT_NE(keys, resumption_keys(to_bytes("t"), nc, ns));
  EXPECT_NE(keys, resumption_keys(to_bytes("s"), ns, nc));
  const Bytes binder = resume_binder(to_bytes("s"), to_bytes("w"), nc);
  EXPECT_NE(binder, resume_binder(to_bytes("s"), to_bytes("x"), nc));
  EXPECT_NE(binder, resume_binder(to_bytes("r"), to_bytes("w"), nc));
}

// ---------------------------------------------------------------------------
// AdmissionGate: token bucket on simulated time.

TEST(AdmissionGate, ShedsWhenBurstExhaustedRefillsWithTime) {
  AdmissionGate gate({.burst = 2, .refill_per_megacycle = 1});
  EXPECT_TRUE(gate.admit(0).ok());
  EXPECT_TRUE(gate.admit(0).ok());
  EXPECT_EQ(gate.admit(0).error(), Errc::exhausted);
  EXPECT_EQ(gate.admitted(), 2u);
  EXPECT_EQ(gate.shed(), 1u);
  // One megacycle later one token has dripped in.
  EXPECT_TRUE(gate.admit(1'000'000).ok());
  EXPECT_EQ(gate.admit(1'000'000).error(), Errc::exhausted);
  // Refill is capped at the burst ceiling, not unbounded.
  EXPECT_TRUE(gate.admit(100'000'000).ok());
  EXPECT_TRUE(gate.admit(100'000'000).ok());
  EXPECT_EQ(gate.admit(100'000'000).error(), Errc::exhausted);
}

TEST(AdmissionGate, SubMegacycleProgressIsNotLost) {
  AdmissionGate gate({.burst = 1, .refill_per_megacycle = 2});
  ASSERT_TRUE(gate.admit(0).ok());
  // 2 tokens per megacycle = one per 500k cycles; two half-steps must add
  // up instead of rounding to nothing twice.
  EXPECT_EQ(gate.admit(250'000).error(), Errc::exhausted);
  EXPECT_TRUE(gate.admit(500'000).ok());
}

// ---------------------------------------------------------------------------
// CachedVerifier: amortized quote verification, with the cheap checks kept.

class CachedVerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("cache");
    sgx_ = *test::shared_registry().create("sgx", *machine_);
    meter_ = *sgx_->create_domain(test::tc_spec("metering"));
  }

  std::unique_ptr<CachedVerifier> make_verifier(CacheConfig config) {
    config.clock = machine_.get();
    auto verifier =
        std::make_unique<CachedVerifier>(to_bytes("cv-seed"), config);
    verifier->add_trusted_root(test::shared_vendor().root_public_key());
    verifier->expect_measurement(
        "metering", test::tc_spec("metering").image.measurement());
    return verifier;
  }

  /// One full challenge/response round against `domain`.
  Status attest_once(CachedVerifier& verifier, substrate::DomainId domain,
                     const std::string& name = "metering") {
    const Bytes nonce = verifier.make_challenge();
    auto quote = core::respond_to_challenge(*sgx_, domain, nonce,
                                            to_bytes("ctx"));
    if (!quote) return quote.error();
    return verifier.verify(name, *quote, nonce, to_bytes("ctx"));
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> sgx_;
  substrate::DomainId meter_ = 0;
};

TEST_F(CachedVerifierTest, SecondVerificationOfSameMeasurementIsAHit) {
  // Quote *generation* alone advances the clock ~12M cycles on sgx (the
  // RSA signature is modeled honestly), so a hit window meant to span two
  // attestations must be much wider than that.
  auto verifier = make_verifier({.capacity = 8, .ttl = 100'000'000});
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());
  EXPECT_EQ(verifier->cache_stats().misses, 1u);
  EXPECT_EQ(verifier->cache_stats().hits, 0u);
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());
  EXPECT_EQ(verifier->cache_stats().misses, 1u);
  EXPECT_EQ(verifier->cache_stats().hits, 1u);
  EXPECT_EQ(verifier->cache_size(), 1u);
}

TEST_F(CachedVerifierTest, HitPathStillEnforcesNonceFreshness) {
  auto verifier = make_verifier({.capacity = 8, .ttl = 100'000'000});
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());  // warm the cache
  // Replay: a quote over a consumed nonce must fail even though the
  // measurement is cached — the hit path skips RSA, not freshness.
  const Bytes nonce = verifier->make_challenge();
  auto quote = core::respond_to_challenge(*sgx_, meter_, nonce,
                                          to_bytes("ctx"));
  ASSERT_TRUE(quote.ok());
  ASSERT_TRUE(verifier->verify("metering", *quote, nonce, to_bytes("ctx"))
                  .ok());
  EXPECT_EQ(verifier->cache_stats().hits, 1u);  // that WAS the hit path
  EXPECT_EQ(verifier->verify("metering", *quote, nonce, to_bytes("ctx"))
                .error(),
            Errc::verification_failed);
  // A nonce the verifier never issued fails the same way.
  EXPECT_FALSE(verifier
                   ->verify("metering", *quote, Bytes(32, 0x42),
                            to_bytes("ctx"))
                   .ok());
}

TEST_F(CachedVerifierTest, TtlExpiryForcesReverification) {
  auto verifier = make_verifier({.capacity = 8, .ttl = 1000});
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());
  machine_->advance(2000);  // past the ttl
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());
  EXPECT_EQ(verifier->cache_stats().misses, 2u);
  EXPECT_EQ(verifier->cache_stats().hits, 0u);
  EXPECT_GE(verifier->cache_stats().evictions, 1u);
}

TEST_F(CachedVerifierTest, ZeroTtlDisablesCachingEntirely) {
  auto verifier = make_verifier({.capacity = 8, .ttl = 0});
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());
  EXPECT_EQ(verifier->cache_stats().hits, 0u);
  EXPECT_EQ(verifier->cache_stats().misses, 2u);
}

TEST_F(CachedVerifierTest, CapacityBoundEvictsLeastRecentlyUsed) {
  const auto other_spec = test::tc_spec("metering-v2");
  const auto other = *sgx_->create_domain(other_spec);
  auto verifier = make_verifier({.capacity = 1, .ttl = 100'000'000});
  verifier->expect_measurement("metering-v2",
                               other_spec.image.measurement());
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());
  ASSERT_TRUE(attest_once(*verifier, other, "metering-v2").ok());
  EXPECT_EQ(verifier->cache_size(), 1u);
  EXPECT_GE(verifier->cache_stats().evictions, 1u);
  // The first identity was evicted: verifying it again is a miss.
  ASSERT_TRUE(attest_once(*verifier, meter_).ok());
  EXPECT_EQ(verifier->cache_stats().misses, 3u);
}

// ---------------------------------------------------------------------------
// FleetServer + FleetClient end to end: one utility endpoint, many meters.

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_machine_ = test::make_machine("utility-machine");
    sgx_ = *test::shared_registry().create("sgx", *server_machine_);
    anonymizer_ = *sgx_->create_domain(test::tc_spec("anonymizer"));
    frontend_ = *sgx_->create_domain(test::tc_spec("frontend"));
    channel_ = *sgx_->create_channel(frontend_, anonymizer_);
    ASSERT_TRUE(sgx_
                    ->set_handler(anonymizer_,
                                  [this](const substrate::Invocation& inv)
                                      -> Result<Bytes> {
                                    ++service_runs_;
                                    return to_bytes("ack:" +
                                                    to_string(inv.data));
                                  })
                    .ok());

    meter_machine_ = test::make_machine("meter-machine");
    tz_ = *test::shared_registry().create("trustzone", *meter_machine_);
    metering_ = *tz_->create_domain(test::tc_spec("metering"));

    meter_verifier_ =
        std::make_unique<core::AttestationVerifier>(to_bytes("mv"));
    meter_verifier_->add_trusted_root(test::shared_vendor().root_public_key());
    meter_verifier_->expect_measurement(
        "anonymizer", test::tc_spec("anonymizer").image.measurement());

    utility_verifier_ = std::make_unique<CachedVerifier>(
        to_bytes("uv"), CacheConfig{.capacity = 16,
                                    .ttl = 100'000'000,
                                    .clock = server_machine_.get()});
    utility_verifier_->add_trusted_root(
        test::shared_vendor().root_public_key());
    utility_verifier_->expect_measurement(
        "metering", test::tc_spec("metering").image.measurement());

    ASSERT_TRUE(network_.register_endpoint("utility").ok());
  }

  FleetServerConfig server_config() {
    FleetServerConfig config;
    config.endpoint = "utility";
    config.network = &network_;
    config.substrate = sgx_.get();
    config.service_domain = anonymizer_;
    config.frontend_domain = frontend_;
    config.service_channel = channel_;
    config.verifier = utility_verifier_.get();
    config.expected_client = "metering";
    config.hub = &hub_;
    config.label = "fleet.utility";
    return config;
  }

  FleetClient make_client(const std::string& name, FleetServer& server) {
    FleetClientConfig config;
    config.endpoint = name;
    config.server_endpoint = "utility";
    config.network = &network_;
    config.prover = net::ProverConfig{tz_.get(), metering_};
    config.verifier = net::VerifierConfig{meter_verifier_.get(), "anonymizer"};
    config.drive = [&server] { (void)server.pump(); };
    return FleetClient(std::move(config));
  }

  std::unique_ptr<hw::Machine> server_machine_;
  std::unique_ptr<substrate::IsolationSubstrate> sgx_;
  substrate::DomainId anonymizer_ = 0, frontend_ = 0;
  substrate::ChannelId channel_ = 0;
  int service_runs_ = 0;

  std::unique_ptr<hw::Machine> meter_machine_;
  std::unique_ptr<substrate::IsolationSubstrate> tz_;
  substrate::DomainId metering_ = 0;

  std::unique_ptr<core::AttestationVerifier> meter_verifier_;
  std::unique_ptr<CachedVerifier> utility_verifier_;
  net::SimNetwork network_;
  runtime::MetricsHub hub_;
};

// The server resolves its own endpoint once, so it must be registered
// first; a name only claimed by an injection does not count.
TEST_F(FleetTest, ServerRequiresARegisteredEndpoint) {
  FleetServerConfig config = server_config();
  config.endpoint = "not-yet";
  EXPECT_THROW(FleetServer{config}, Error);
  ASSERT_TRUE(network_.inject("not-yet", "utility", to_bytes("x")).ok());
  EXPECT_THROW(FleetServer{config}, Error);
  ASSERT_TRUE(network_.register_endpoint("not-yet").ok());
  EXPECT_NO_THROW(FleetServer{config});
}

TEST_F(FleetTest, FullHandshakeGrantsTicketAndServesBatchedRpc) {
  FleetServer server(server_config());
  FleetClient meter = make_client("meter-1", server);

  ASSERT_TRUE(meter.connect().ok());
  EXPECT_FALSE(meter.resumed());
  EXPECT_TRUE(meter.has_ticket());
  EXPECT_EQ(server.sessions(), 1u);
  EXPECT_EQ(server.stats().handshakes_full, 1u);
  EXPECT_EQ(server.stats().tickets_issued, 1u);

  auto reply = meter.call("report", to_bytes("42kWh"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "ack:42kWh");
  EXPECT_EQ(service_runs_, 1);
  EXPECT_EQ(hub_.counters("fleet.utility")->completed, 1u);
}

TEST_F(FleetTest, ResumptionIsOneRoundTripAndCountedSeparately) {
  FleetServer server(server_config());
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());

  const std::uint64_t before = network_.stats().messages;
  ASSERT_TRUE(meter.connect().ok());
  const std::uint64_t after = network_.stats().messages;

  EXPECT_TRUE(meter.resumed());
  EXPECT_EQ(meter.last_reject(), Errc::ok);
  // One RTT: resume out, resume_ok back. The full handshake takes four
  // messages (msg1, msg2, msg3, grant).
  EXPECT_EQ(after - before, 2u);
  EXPECT_EQ(server.stats().handshakes_full, 1u);
  EXPECT_EQ(server.stats().handshakes_resumed, 1u);

  // The resumed channel carries records like any other.
  auto reply = meter.call("report", to_bytes("7kWh"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "ack:7kWh");
  // Single-use: the ticket was spent on this resumption.
  EXPECT_FALSE(meter.has_ticket());
}

TEST_F(FleetTest, HandshakeSpansLabelResumptionDistinctly) {
  trace::Tracer tracer;
  sgx_->set_tracer(&tracer);
  FleetServerConfig config = server_config();
  config.tracer = &tracer;
  FleetServer server(config);
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());  // full
  ASSERT_TRUE(meter.connect().ok());  // resumed

  const auto events = tracer.snapshot(sgx_.get(), anonymizer_);
  const auto count_phase = [&](trace::SpanPhase phase) {
    return std::count_if(events.begin(), events.end(),
                         [&](const trace::SpanEvent& e) {
                           return e.phase == phase;
                         });
  };
  EXPECT_EQ(count_phase(trace::SpanPhase::handshake_full), 1);
  EXPECT_EQ(count_phase(trace::SpanPhase::handshake_resumed), 1);

  // And the exporter names them apart (satellite: the flame view shows
  // resumed handshakes distinctly).
  trace::TraceExporter exporter(tracer, &hub_);
  const std::string text = exporter.text_snapshot();
  EXPECT_NE(text.find("handshake_full"), std::string::npos);
  EXPECT_NE(text.find("handshake_resumed"), std::string::npos);
  sgx_->set_tracer(nullptr);
}

TEST_F(FleetTest, ReplayedResumeFrameIsRejectedAndCounted) {
  FleetServer server(server_config());
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());

  // Wiretap: capture the resume frame as it crosses the (untrusted) network.
  Bytes captured;
  network_.set_tamperer([&](const std::string&, const std::string&,
                            BytesView payload) -> std::optional<Bytes> {
    Bytes copy(payload.begin(), payload.end());
    if (!copy.empty() &&
        copy[0] == static_cast<std::uint8_t>(FrameKind::resume))
      captured = copy;
    return copy;
  });
  ASSERT_TRUE(meter.connect().ok());
  ASSERT_TRUE(meter.resumed());
  ASSERT_FALSE(captured.empty());
  network_.set_tamperer(nullptr);

  // The attacker replays the captured frame with a forged source address.
  ASSERT_TRUE(network_.inject("meter-1", "utility", captured).ok());
  ASSERT_TRUE(server.pump().ok());
  EXPECT_EQ(server.stats().tickets_rejected, 1u);
  auto rejection = network_.receive("meter-1");
  ASSERT_TRUE(rejection.ok());
  auto parsed = parse_frame(rejection->payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, FrameKind::reject);
  ASSERT_EQ(parsed->payload.size(), 1u);
  EXPECT_EQ(static_cast<Errc>(parsed->payload[0]), Errc::ticket_replayed);
}

TEST_F(FleetTest, ExpiredTicketFallsBackToFullHandshake) {
  FleetServerConfig config = server_config();
  config.ticket_ttl = 1000;
  FleetServer server(config);
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());
  ASSERT_TRUE(meter.has_ticket());

  server_machine_->advance(10'000);  // well past the ttl
  ASSERT_TRUE(meter.connect().ok());
  EXPECT_FALSE(meter.resumed());  // fell back
  EXPECT_EQ(meter.last_reject(), Errc::ticket_expired);
  EXPECT_EQ(server.stats().tickets_rejected, 1u);
  EXPECT_EQ(server.stats().handshakes_full, 2u);
  // The fallback handshake granted a fresh ticket; it resumes fine.
  ASSERT_TRUE(meter.connect().ok());
  EXPECT_TRUE(meter.resumed());
}

TEST_F(FleetTest, ServiceRestartRotatesTicketsAndCancelsBackloggedWork) {
  FleetServer server(server_config());
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());

  // Admitted-but-unserved work at restart time is accounted, never lost:
  // three records in, a capped pump serves one and leaves two in backlog.
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(meter.submit("report", to_bytes("r")).ok());
  ASSERT_TRUE(server.pump(1).ok());
  EXPECT_EQ(server.backlog(), 2u);
  ASSERT_TRUE(meter.collect().ok());  // the one served reply

  server.on_service_restart(anonymizer_);
  EXPECT_EQ(server.sessions(), 0u);
  EXPECT_EQ(server.backlog(), 0u);
  const runtime::InvocationCounters counters =
      hub_.counters("fleet.utility").snapshot();
  EXPECT_EQ(counters.submitted, 3u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.cancelled, 2u);

  // The old ticket was sealed by the rotated-away key: full fallback.
  ASSERT_TRUE(meter.connect().ok());
  EXPECT_FALSE(meter.resumed());
  EXPECT_EQ(meter.last_reject(), Errc::verification_failed);
  EXPECT_EQ(server.stats().tickets_rejected, 1u);

  // And the re-established session serves through the new channel epoch.
  auto reply = meter.call("report", to_bytes("post-restart"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "ack:post-restart");
}

TEST_F(FleetTest, ChangedIdentityPolicyRefusesOldTickets) {
  FleetServer server(server_config());
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());

  // Policy update: only a newer meter build is acceptable from now on.
  utility_verifier_->expect_measurement(
      "metering", test::tc_spec("metering-v2").image.measurement());
  utility_verifier_->flush_cache();

  // The ticket is intact and unexpired, but bound to the outdated identity
  // — refused. The full-handshake fallback then fails honestly too, because
  // the meter genuinely no longer matches policy.
  EXPECT_FALSE(meter.connect().ok());
  EXPECT_EQ(meter.last_reject(), Errc::access_denied);
  EXPECT_EQ(server.stats().tickets_rejected, 1u);
  EXPECT_FALSE(meter.has_ticket());
}

TEST_F(FleetTest, VerificationCacheAmortizesAcrossIdenticalMeters) {
  FleetServer server(server_config());
  FleetClient first = make_client("meter-1", server);
  FleetClient second = make_client("meter-2", server);
  FleetClient third = make_client("meter-3", server);

  ASSERT_TRUE(first.connect().ok());
  ASSERT_TRUE(second.connect().ok());
  ASSERT_TRUE(third.connect().ok());
  EXPECT_EQ(server.sessions(), 3u);

  // One RSA chain verification for the whole burst; the rest were hits.
  EXPECT_EQ(utility_verifier_->cache_stats().misses, 1u);
  EXPECT_EQ(utility_verifier_->cache_stats().hits, 2u);

  server.sync_verifier_cache(*utility_verifier_);
  EXPECT_EQ(server.stats().verify_cache_hits, 2u);
  EXPECT_EQ(server.stats().verify_cache_misses, 1u);
  EXPECT_EQ(hub_.fleet("fleet.utility")->verify_cache_hits, 2u);
}

TEST_F(FleetTest, AdmissionShedsVisiblyAndAdmittedWorkIsNeverLost) {
  FleetServerConfig config = server_config();
  config.admission = {.burst = 4, .refill_per_megacycle = 1};
  FleetServer server(config);
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());

  constexpr int kRequests = 10;
  for (int i = 0; i < kRequests; ++i)
    ASSERT_TRUE(
        meter.submit("report", to_bytes("r" + std::to_string(i))).ok());
  ASSERT_TRUE(server.pump().ok());

  int served = 0, shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto reply = meter.collect();
    if (reply.ok()) {
      ++served;
      EXPECT_EQ(to_string(*reply).substr(0, 4), "ack:");
    } else {
      ASSERT_EQ(reply.error(), Errc::exhausted);
      ++shed;
    }
  }
  EXPECT_EQ(served, 4);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(server.stats().admission_shed, 6u);

  // Lossless: every admitted request completed; shed ones were rejected
  // visibly at the edge, not queued and not dropped.
  const runtime::InvocationCounters counters =
      hub_.counters("fleet.utility").snapshot();
  EXPECT_EQ(counters.submitted, 4u);
  EXPECT_EQ(counters.completed, 4u);
  EXPECT_EQ(counters.rejected, 6u);
  EXPECT_EQ(counters.cancelled, 0u);
}

TEST_F(FleetTest, BoundedPumpIsBackpressureNotLoss) {
  FleetServerConfig config = server_config();
  config.admission_enabled = false;  // backlog growth is the point here
  FleetServer server(config);
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());

  constexpr int kRequests = 9;
  for (int i = 0; i < kRequests; ++i)
    ASSERT_TRUE(
        meter.submit("report", to_bytes("b" + std::to_string(i))).ok());

  // A capped pump serves at most 3 per tick; the rest wait their turn.
  ASSERT_TRUE(server.pump(3).ok());
  EXPECT_EQ(server.backlog(), static_cast<std::size_t>(kRequests - 3));
  ASSERT_TRUE(server.pump(3).ok());
  ASSERT_TRUE(server.pump(3).ok());
  EXPECT_EQ(server.backlog(), 0u);

  for (int i = 0; i < kRequests; ++i) {
    auto reply = meter.collect();
    ASSERT_TRUE(reply.ok()) << "request " << i;
    EXPECT_EQ(to_string(*reply), "ack:b" + std::to_string(i));
  }
  EXPECT_EQ(hub_.counters("fleet.utility")->completed,
            static_cast<std::uint64_t>(kRequests));
}

// A reading still in the backlog when its meter starts a new session ran
// under the old one: its ack must not be sealed on the new session, where
// the meter would read it as the answer to its next call.
TEST_F(FleetTest, ReplyNeverCrossesIntoANewSession) {
  FleetServer server(server_config());
  FleetClient meter0 = make_client("meter-0", server);
  FleetClient meter1 = make_client("meter-1", server);
  ASSERT_TRUE(meter0.connect().ok());
  ASSERT_TRUE(meter1.connect().ok());

  ASSERT_TRUE(meter0.submit("report", to_bytes("bucket-0")).ok());
  ASSERT_TRUE(meter1.submit("report", to_bytes("bucket-1")).ok());
  ASSERT_TRUE(server.pump(1).ok());  // serves meter-0 only
  ASSERT_EQ(server.backlog(), 1u);

  // meter-1 resumes; the pump that answers its resume also serves the
  // bucket-1 reading admitted on the old session.
  ASSERT_TRUE(meter1.connect().ok());
  ASSERT_TRUE(meter1.resumed());
  EXPECT_EQ(server.backlog(), 0u);

  auto reply = meter1.call("report", to_bytes("bucket-2"));
  ASSERT_TRUE(reply.ok()) << errc_name(reply.error());
  EXPECT_EQ(to_string(*reply), "ack:bucket-2");
  EXPECT_EQ(meter1.collect().error(), Errc::would_block);
  auto ack0 = meter0.collect();
  ASSERT_TRUE(ack0.ok());
  EXPECT_EQ(to_string(*ack0), "ack:bucket-0");

  // The stale reading still ran and is accounted completed, like a reply
  // to a vanished peer.
  EXPECT_EQ(service_runs_, 3);
  const runtime::InvocationCounters counters =
      hub_.counters("fleet.utility").snapshot();
  EXPECT_EQ(counters.submitted, 3u);
  EXPECT_EQ(counters.completed, 3u);
  EXPECT_EQ(counters.in_flight(), 0u);
}

// A meter that forgets its ticket while one of its readings is still in
// the backlog: the full handshake's last pump serves that reading on the
// session connect() dropped, so its ack reaches the meter between msg2 and
// the grant. The meter skips it instead of taking it for the grant.
TEST_F(FleetTest, FullHandshakeSkipsAStaleAckFromTheDroppedSession) {
  FleetServer server(server_config());
  FleetClient meter0 = make_client("meter-0", server);
  FleetClient meter1 = make_client("meter-1", server);
  ASSERT_TRUE(meter0.connect().ok());
  ASSERT_TRUE(meter1.connect().ok());

  ASSERT_TRUE(meter0.submit("report", to_bytes("bucket-0")).ok());
  ASSERT_TRUE(meter1.submit("report", to_bytes("bucket-1")).ok());
  ASSERT_TRUE(server.pump(1).ok());  // serves meter-0 only
  ASSERT_EQ(server.backlog(), 1u);

  meter1.clear_ticket();
  const Status connected = meter1.connect();
  ASSERT_TRUE(connected.ok()) << errc_name(connected.error());
  EXPECT_FALSE(meter1.resumed());
  EXPECT_EQ(server.backlog(), 0u);
  EXPECT_EQ(service_runs_, 2);

  auto reply = meter1.call("report", to_bytes("bucket-2"));
  ASSERT_TRUE(reply.ok()) << errc_name(reply.error());
  EXPECT_EQ(to_string(*reply), "ack:bucket-2");
  EXPECT_EQ(meter1.collect().error(), Errc::would_block);
}

// The resume variant: the old session's ack already waits, uncollected,
// when the meter reconnects. The resumption skips it and still succeeds.
TEST_F(FleetTest, ResumeSkipsAStaleAckAlreadyQueued) {
  FleetServer server(server_config());
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());
  ASSERT_TRUE(meter.submit("report", to_bytes("bucket-1")).ok());
  ASSERT_TRUE(server.pump().ok());  // the ack is queued for the meter

  const Status connected = meter.connect();
  ASSERT_TRUE(connected.ok()) << errc_name(connected.error());
  EXPECT_TRUE(meter.resumed());
  EXPECT_EQ(meter.last_reject(), Errc::ok);
  EXPECT_EQ(server.stats().handshakes_full, 1u);
  EXPECT_EQ(server.stats().handshakes_resumed, 1u);

  auto reply = meter.call("report", to_bytes("bucket-2"));
  ASSERT_TRUE(reply.ok()) << errc_name(reply.error());
  EXPECT_EQ(to_string(*reply), "ack:bucket-2");
  EXPECT_EQ(meter.collect().error(), Errc::would_block);
}

// A datagram injected under a name nobody registered reaches the server
// and is handled like any other: the resume it carries redeems (and so
// burns) the ticket, is counted, and leaves audit evidence under the
// claimed name. Only the answers go nowhere: the network refuses them.
// (Recorded against the string-keyed server this table replaced.)
TEST_F(FleetTest, UnregisteredClaimedSourceIsHandledButAnsweredNowhere) {
  health::AuditLog audit(server_machine_.get());
  FleetServerConfig config = server_config();
  config.audit = &audit;
  config.ticket_ttl = 2'000'000'000;  // outlives the fallback handshakes
  FleetServer server(config);
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());

  // The attacker takes the meter's resume frame off the wire; the meter
  // sees no answer and falls back to a full handshake, which leaves it a
  // fresh ticket.
  Bytes lifted;
  const auto lift_resume = [&] {
    lifted.clear();
    network_.set_tamperer([&](const std::string&, const std::string&,
                              BytesView payload) -> std::optional<Bytes> {
      if (!payload.empty() &&
          payload[0] == static_cast<std::uint8_t>(FrameKind::resume)) {
        lifted.assign(payload.begin(), payload.end());
        return std::nullopt;
      }
      return Bytes(payload.begin(), payload.end());
    });
    ASSERT_TRUE(meter.connect().ok());
    EXPECT_FALSE(meter.resumed());
    network_.clear_tamperer();
    ASSERT_FALSE(lifted.empty());
  };
  lift_resume();

  const std::uint64_t messages = network_.stats().messages;
  const std::size_t sessions = server.sessions();
  const std::size_t audited = audit.size();

  // Replayed under an unregistered name with a forged binder: the ticket
  // is redeemed (burned), then refused for the binder.
  Bytes forged = lifted;
  forged.back() ^= 0x01;
  ASSERT_TRUE(network_.inject("mallory", "utility", forged).ok());
  ASSERT_TRUE(server.pump().ok());
  EXPECT_EQ(server.stats().tickets_rejected, 1u);
  // Again: the ticket is spent now.
  ASSERT_TRUE(network_.inject("mallory", "utility", forged).ok());
  ASSERT_TRUE(server.pump().ok());
  EXPECT_EQ(server.stats().tickets_rejected, 2u);
  // A record claimed from the same name finds no session: rejected, with
  // no audit record.
  const Bytes forged_record = frame(FrameKind::record, Bytes(40, 0x5A));
  ASSERT_TRUE(network_.inject("mallory", "utility", forged_record).ok());
  ASSERT_TRUE(server.pump().ok());

  std::vector<health::AuditRecord> records = audit.records(audited);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, health::AuditKind::ticket_rejected);
  EXPECT_EQ(records[0].component, "mallory");
  EXPECT_EQ(records[0].errc, Errc::verification_failed);
  EXPECT_EQ(records[0].detail, "binder");
  EXPECT_EQ(records[1].kind, health::AuditKind::ticket_rejected);
  EXPECT_EQ(records[1].component, "mallory");
  EXPECT_EQ(records[1].errc, Errc::ticket_replayed);
  EXPECT_EQ(records[1].detail, "redeem");

  // Every answer was refused by the network, so none was sent or counted,
  // and the real meter's session is untouched.
  EXPECT_EQ(network_.stats().messages, messages);
  EXPECT_EQ(server.sessions(), sessions);
  EXPECT_EQ(network_.receive("meter-1").error(), Errc::would_block);
  auto reply = meter.call("report", to_bytes("after"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "ack:after");

  // A second lifted resume, replayed intact: the binder holds, so the
  // name gets a resumed session (its resume_ok goes nowhere). A forged
  // record under that name then fails to open, leaves session_tamper
  // evidence under the name, and drops that session.
  lift_resume();
  const std::uint64_t resumed = server.stats().handshakes_resumed;
  const std::uint64_t sent = network_.stats().messages;
  const std::size_t live = server.sessions();
  const std::size_t audited_before_replay = audit.size();
  ASSERT_TRUE(network_.inject("mallory", "utility", lifted).ok());
  ASSERT_TRUE(server.pump().ok());
  EXPECT_EQ(server.stats().handshakes_resumed, resumed + 1);
  EXPECT_EQ(server.sessions(), live + 1);
  ASSERT_TRUE(network_.inject("mallory", "utility", forged_record).ok());
  ASSERT_TRUE(server.pump().ok());
  EXPECT_EQ(server.sessions(), live);

  records = audit.records(audited_before_replay);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, health::AuditKind::session_tamper);
  EXPECT_EQ(records[0].component, "mallory");
  EXPECT_EQ(records[0].errc, Errc::verification_failed);
  EXPECT_EQ(records[0].detail, "open_record");
  EXPECT_EQ(network_.stats().messages, sent);
  reply = meter.call("report", to_bytes("still"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "ack:still");
}

TEST_F(FleetTest, ObservabilityDumpCarriesFleetCounters) {
  FleetServer server(server_config());
  FleetClient meter = make_client("meter-1", server);
  ASSERT_TRUE(meter.connect().ok());
  ASSERT_TRUE(meter.connect().ok());
  server.sync_verifier_cache(*utility_verifier_);

  trace::Tracer tracer;
  trace::TraceExporter exporter(tracer, &hub_);
  const std::string text = exporter.text_snapshot();
  EXPECT_NE(text.find("fleet.utility (fleet): handshakes_full=1 "
                      "handshakes_resumed=1"),
            std::string::npos);
  EXPECT_NE(text.find("verify_cache_misses=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared-state pieces under concurrency (TSan job runs this binary).

TEST(FleetConcurrency, GateTicketsAndStatsAreThreadSafe) {
  AdmissionGate gate({.burst = 1'000'000, .refill_per_megacycle = 1});
  TicketIssuer issuer(to_bytes("tsan-key"), 1'000'000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        (void)gate.admit(static_cast<Cycles>(i));
        const MintedTicket minted =
            issuer.mint(test_measurement(static_cast<std::uint8_t>(t)), 0);
        (void)issuer.redeem(minted.wire, 1);
        (void)gate.shed();
        (void)issuer.redeemed_live();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gate.admitted(), 800u);
}

}  // namespace
}  // namespace lateral::fleet
