// fleet_ingest and fleet_connect: the Fig. 3 path at fleet scale, from
// TrustZone meters over the simulated network to the SGX anonymizer.
//
// Both run on one rig: a utility machine (SGX anonymizer + untrusted
// frontend, FleetServer with a CachedVerifier) and a meter machine (the
// TrustZone metering component every meter attests as). Meters, sessions
// and the network are in-process objects driven from this one thread.
#include <memory>
#include <string>
#include <vector>

#include "core/attestation.h"
#include "fleet/fleet_client.h"
#include "fleet/fleet_server.h"
#include "fleet/verification_cache.h"
#include "net/network.h"
#include "rig.h"
#include "runtime/metrics.h"
#include "toolbox/anonymizer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kLabel = "perfbench.fleet";

struct FleetRigConfig {
  Cycles ticket_ttl = 5'000'000;
  fleet::CacheConfig cache;  // clock filled in by the rig
};

/// Declaration order is destruction order in reverse: meters (whose drive
/// callbacks point at the server) go first, then the server, then what it
/// borrows.
struct FleetRig {
  std::unique_ptr<hw::Vendor> vendor;
  std::unique_ptr<hw::Machine> utility;
  std::unique_ptr<substrate::IsolationSubstrate> sgx;
  substrate::DomainId anonymizer = 0, frontend = 0;
  substrate::ChannelId channel = 0;
  std::unique_ptr<hw::Machine> meter;
  std::unique_ptr<substrate::IsolationSubstrate> tz;
  substrate::DomainId metering = 0;
  std::unique_ptr<core::AttestationVerifier> meter_verifier;
  std::unique_ptr<fleet::CachedVerifier> utility_verifier;
  std::unique_ptr<net::SimNetwork> network;
  std::unique_ptr<runtime::MetricsHub> hub;
  std::unique_ptr<fleet::FleetServer> server;
  /// Read by the meters' drive callback, so pumps run inside a connect or
  /// a call get their own span under it.
  SpanRecorder* rec = nullptr;
  std::vector<std::unique_ptr<fleet::FleetClient>> meters;
};

std::unique_ptr<FleetRig> make_rig(const FleetRigConfig& cfg,
                                   std::size_t meters) {
  auto rig = std::make_unique<FleetRig>();
  rig->vendor = make_vendor();
  rig->utility = make_machine(*rig->vendor, "utility");
  rig->sgx = *registry().create("sgx", *rig->utility);
  rig->anonymizer = *rig->sgx->create_domain(tc_spec("anonymizer"));
  rig->frontend = *rig->sgx->create_domain(tc_spec("frontend"));
  rig->channel = *rig->sgx->create_channel(rig->frontend, rig->anonymizer);
  (void)rig->sgx->set_handler(
      rig->anonymizer,
      [](const substrate::Invocation& inv) -> Result<Bytes> {
        auto reading = toolbox::decode_reading(inv.data);
        if (!reading) return reading.error();
        return encode_ack(reading->household, reading->bucket);
      });

  rig->meter = make_machine(*rig->vendor, "meter");
  rig->tz = *registry().create("trustzone", *rig->meter);
  rig->metering = *rig->tz->create_domain(tc_spec("metering"));

  rig->meter_verifier =
      std::make_unique<core::AttestationVerifier>(to_bytes("perfbench-mv"));
  rig->meter_verifier->add_trusted_root(rig->vendor->root_public_key());
  rig->meter_verifier->expect_measurement(
      "anonymizer", tc_spec("anonymizer").image.measurement());

  fleet::CacheConfig cache = cfg.cache;
  cache.clock = rig->utility.get();
  rig->utility_verifier =
      std::make_unique<fleet::CachedVerifier>(to_bytes("perfbench-uv"), cache);
  rig->utility_verifier->add_trusted_root(rig->vendor->root_public_key());
  rig->utility_verifier->expect_measurement(
      "metering", tc_spec("metering").image.measurement());

  rig->network = std::make_unique<net::SimNetwork>();
  rig->hub = std::make_unique<runtime::MetricsHub>();
  (void)rig->network->register_endpoint("utility");

  fleet::FleetServerConfig server;
  server.endpoint = "utility";
  server.network = rig->network.get();
  server.substrate = rig->sgx.get();
  server.service_domain = rig->anonymizer;
  server.frontend_domain = rig->frontend;
  server.service_channel = rig->channel;
  server.verifier = rig->utility_verifier.get();
  server.expected_client = "metering";
  server.ticket_ttl = cfg.ticket_ttl;
  server.hub = rig->hub.get();
  server.label = kLabel;
  rig->server = std::make_unique<fleet::FleetServer>(server);

  for (std::size_t i = 0; i < meters; ++i) {
    fleet::FleetClientConfig client;
    client.endpoint = "meter-" + std::to_string(i);
    client.server_endpoint = "utility";
    client.network = rig->network.get();
    client.prover = net::ProverConfig{rig->tz.get(), rig->metering};
    client.verifier =
        net::VerifierConfig{rig->meter_verifier.get(), "anonymizer"};
    FleetRig* raw = rig.get();
    client.drive = [raw] {
      Scope pump(raw->rec, kServerPump);
      (void)raw->server->pump();
    };
    rig->meters.push_back(
        std::make_unique<fleet::FleetClient>(std::move(client)));
  }
  return rig;
}

/// What the model window snapshots on both fleet workloads.
struct FleetMark {
  Cycles utility = 0;
  Cycles meter = 0;
  Cycles paced = 0;
  std::uint64_t ops = 0;
  std::uint64_t readings = 0;
  runtime::InvocationCounters mux;
  net::NetStats net;
};

/// Modeled and counted per-layer numbers over [begin, end). All of them
/// depend only on the seed and the op index, never on the host clock.
double fleet_model(const FleetRig& rig, const FleetMark& begin,
                   const FleetMark& end, std::uint64_t submitted,
                   LayerValues& layer) {
  const double ops = static_cast<double>(end.ops - begin.ops);
  const double readings = static_cast<double>(end.readings - begin.readings);
  const double utility = static_cast<double>(end.utility - begin.utility -
                                             (end.paced - begin.paced));
  const double meter = static_cast<double>(end.meter - begin.meter);
  layer["hw.utility_cycles_per_op"] = ratio(utility, ops);
  layer["hw.meter_cycles_per_op"] = ratio(meter, ops);
  layer["substrate.crossing_cycles_per_reading"] = ratio(
      static_cast<double>(end.mux.crossing_cycles - begin.mux.crossing_cycles),
      readings);
  layer["runtime.calls_per_doorbell"] =
      ratio(static_cast<double>(end.mux.submitted - begin.mux.submitted),
            static_cast<double>(end.mux.doorbells - begin.mux.doorbells));
  layer["net.messages_per_op"] =
      ratio(static_cast<double>(end.net.messages - begin.net.messages), ops);
  layer["net.bytes_per_op"] =
      ratio(static_cast<double>(end.net.bytes - begin.net.bytes), ops);

  // Connection-level ratios are cumulative over the kept rig up to the end
  // of the window: set-up is where fleet_ingest's handshakes happen.
  const runtime::FleetStats stats = rig.server->stats();
  const fleet::CacheStats cache = rig.utility_verifier->cache_stats();
  const double connects =
      static_cast<double>(stats.handshakes_full + stats.handshakes_resumed +
                          stats.tickets_rejected);
  layer["fleet.resume_ratio"] =
      ratio(static_cast<double>(stats.handshakes_resumed), connects);
  layer["fleet.verify_cache_hit_ratio"] =
      ratio(static_cast<double>(cache.hits),
            static_cast<double>(stats.handshakes_full));
  layer["fleet.tickets_rejected"] = static_cast<double>(stats.tickets_rejected);
  layer["fleet.shed_ratio"] = ratio(static_cast<double>(stats.admission_shed),
                                    static_cast<double>(submitted));
  return ratio(utility + meter, ops);
}

FleetMark mark(const FleetRig& rig, Cycles paced, std::uint64_t ops,
               std::uint64_t readings) {
  return FleetMark{.utility = rig.utility->now(),
                   .meter = rig.meter->now(),
                   .paced = paced,
                   .ops = ops,
                   .readings = readings,
                   .mux = rig.hub->counters(std::string(kLabel) + ".mux")
                              .snapshot(),
                   .net = rig.network->stats()};
}

/// Connect every meter with a full handshake, one set-up part each. The
/// first is the one that fills the verification cache.
void connect_all(FleetRig& rig, SetupPhase& phase) {
  for (std::size_t i = 0; i < rig.meters.size(); ++i) {
    fleet::FleetClient& meter = *rig.meters[i];
    if (!meter.connect().ok() || meter.resumed())
      throw Error("fleet: meter connect failed during set-up");
    phase.part(i == 0 ? "connect.first" : "connect");
  }
}

double us_per(const SpanTotals& t) {
  return t.count ? t.total_ns / static_cast<double>(t.count) / 1e3 : 0;
}

// ---------------------------------------------------------------------------
// fleet_ingest: 256 attested meters, closed loop per round. Each round every
// meter submits one seeded reading, the server pumps them all through its
// one CompletionQueue into the anonymizer, and every meter collects its
// sealed ack. One op = one acked reading.

class FleetIngest final : public Workload {
 public:
  static constexpr std::size_t kMeters = 256;
  /// Default admission refills 64 tokens per megacycle into a 256-token
  /// bucket; 4 Mcycles between rounds refill exactly one round's worth, so
  /// the gate sheds nothing.
  static constexpr Cycles kPace = 4'000'000;
  static constexpr int kWarmupRounds = 2;

  void setup(std::uint64_t seed, SetupPhase& phase) override {
    // FIG14 steady-state sizing: generous TTL, since quote generation
    // advances the modeled clock during 256 handshakes.
    rig_ = make_rig({.cache = {.capacity = 64, .ttl = 2'000'000'000}},
                    kMeters);
    rng_ = std::make_unique<util::Xoshiro>(seed);
    for (std::size_t i = 0; i < kMeters; ++i)
      households_.push_back(rng_->next() >> 24);
    phase.part("rig");
    connect_all(*rig_, phase);
    Report warm;
    HostPhase scratch(seed, 1);
    for (int i = 0; i < kWarmupRounds; ++i) {
      (void)step(scratch, nullptr, warm);
      phase.part("warmup");
    }
    if (warm.failed()) throw Error("fleet_ingest: warm-up round failed");
    submitted_ = 0;
    readings_ = 0;
  }

  std::uint64_t step(HostPhase& host, SpanRecorder* rec,
                     Report& result) override {
    FleetRig& rig = *rig_;
    rig.rec = rec;
    wire_.resize(kMeters);
    acks_.resize(kMeters);
    for (std::size_t i = 0; i < kMeters; ++i) {
      const toolbox::Reading reading{.household = households_[i],
                                     .bucket = round_,
                                     .kwh = rng_->uniform() * 4.0};
      wire_[i] = toolbox::encode_reading(reading);
      acks_[i] = encode_ack(reading.household, reading.bucket);
    }
    submit_at_.resize(kMeters);
    for (std::size_t i = 0; i < kMeters; ++i) {
      submit_at_[i] = Clock::now();
      Scope span(rec, kClientSubmit);
      if (!rig.meters[i]->submit("report", wire_[i]).ok())
        result.fail("fleet_ingest: submit refused");
    }
    submitted_ += kMeters;
    {
      Scope span(rec, kServerPump);
      if (!rig.server->pump().ok()) result.fail("fleet_ingest: pump failed");
    }
    rig.utility->advance(kPace);
    paced_ += kPace;
    std::uint64_t acked = 0;
    for (std::size_t i = 0; i < kMeters; ++i) {
      result.attempt();
      Result<Bytes> ack = Errc::would_block;
      {
        Scope span(rec, kClientCollect);
        ack = rig.meters[i]->collect();
      }
      host.latency_us(seconds_between(submit_at_[i], Clock::now()) * 1e6);
      if (!ack) {
        result.fail("fleet_ingest: reading not acked: " +
                    std::string(errc_name(ack.error())));
      } else if (*ack != acks_[i]) {
        result.fail("fleet_ingest: ack does not match its reading");
      } else {
        ++acked;
      }
    }
    ++round_;
    readings_ += kMeters;
    return acked;
  }

  std::uint64_t model_window() const override { return 16; }
  void model_begin() override {
    begin_ = mark(*rig_, paced_, readings_, readings_);
  }
  double model_end(LayerValues& layer) override {
    return fleet_model(*rig_, begin_, mark(*rig_, paced_, readings_, readings_),
                       submitted_, layer);
  }

  void host_layers(const SpanRecorder& rec, std::uint64_t traced_ops,
                   LayerValues& layer) override {
    layer["fleet.client_submit_us"] = us_per(rec.totals(kClientSubmit));
    layer["fleet.client_collect_us"] = us_per(rec.totals(kClientCollect));
    layer["fleet.server_pump_us_per_reading"] =
        ratio(rec.totals(kServerPump).total_ns / 1e3,
              static_cast<double>(traced_ops));
  }

 private:
  std::unique_ptr<FleetRig> rig_;
  std::unique_ptr<util::Xoshiro> rng_;
  std::vector<std::uint64_t> households_;
  std::vector<Bytes> wire_, acks_;
  std::vector<Clock::time_point> submit_at_;
  std::uint64_t round_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t readings_ = 0;
  Cycles paced_ = 0;
  FleetMark begin_;
};

// ---------------------------------------------------------------------------
// fleet_connect: connection churn on a pool of 64 meters, served round
// robin. One op = disconnect + connect + one synchronous report call.
//
// Tickets are single-use and a resumed session is not re-granted one
// (FleetServer::handle_resume mints none), so a meter alternates: a full
// handshake earns a ticket, the next connect may spend it. The seeded
// schedule drops a held ticket on exactly 1 of every 4 ticket-holding
// connects (which one of the 4 comes from the seed), forcing a full
// handshake; a meter without a ticket always does one. The resumed share
// settles at (3/4) / (2 - 1/4) = 3/7, the same for every seed, so p50 sits
// at a fixed rank inside the full-handshake mode and p99 in its tail.

class FleetConnect final : public Workload {
 public:
  static constexpr std::size_t kPool = 64;
  /// One token's worth of refill per op (64 per megacycle), so the report
  /// calls are never shed.
  static constexpr Cycles kPace = 16'000;

  void setup(std::uint64_t seed, SetupPhase& phase) override {
    // The ticket TTL covers a meter's reconnect interval (kPool ops) many
    // times over; the cache uses the FIG14 steady-state sizing.
    rig_ = make_rig({.ticket_ttl = 1'000'000'000,
                     .cache = {.capacity = 64, .ttl = 2'000'000'000}},
                    kPool);
    rng_ = std::make_unique<util::Xoshiro>(seed);
    phase.part("rig");
    connect_all(*rig_, phase);
    Report warm;
    HostPhase scratch(seed, 1);
    for (std::size_t i = 0; i < kPool; ++i) {
      (void)step(scratch, nullptr, warm);
      phase.part(class_ ? "warmup.resumed" : "warmup.full");
    }
    if (warm.failed()) throw Error("fleet_connect: warm-up op failed");
  }

  std::uint64_t step(HostPhase& host, SpanRecorder* rec,
                     Report& result) override {
    FleetRig& rig = *rig_;
    rig.rec = rec;
    fleet::FleetClient& meter = *rig.meters[op_ % kPool];
    bool drop = false;
    if (meter.has_ticket()) {
      if (held_ % 4 == 0) drop_at_ = rng_->below(4);
      drop = held_++ % 4 == drop_at_;
    }
    const bool expect_resume = meter.has_ticket() && !drop;
    const toolbox::Reading reading{.household = op_ % kPool,
                                   .bucket = op_,
                                   .kwh = rng_->uniform() * 4.0};
    const Bytes wire = toolbox::encode_reading(reading);
    const Bytes ack = encode_ack(reading.household, reading.bucket);
    if (drop) meter.clear_ticket();
    result.attempt();

    const auto start = Clock::now();
    meter.disconnect();
    Status connected = Errc::io_error;
    {
      Scope span(rec, expect_resume ? kConnectResumed : kConnectFull);
      connected = meter.connect();
    }
    Result<Bytes> reply = Errc::would_block;
    if (connected.ok()) {
      Scope span(rec, kReportCall);
      reply = meter.call("report", wire);
    }
    host.latency_us(seconds_between(start, Clock::now()) * 1e6);
    class_ = expect_resume ? 1 : 0;
    rig.utility->advance(kPace);
    paced_ += kPace;
    ++op_;

    if (!connected.ok()) {
      result.fail("fleet_connect: connect failed");
    } else if (meter.resumed() != expect_resume) {
      result.fail("fleet_connect: resumption did not follow the schedule");
    } else if (meter.last_reject() != Errc::ok) {
      result.fail("fleet_connect: ticket rejected");
    } else if (!reply) {
      result.fail("fleet_connect: report call failed: " +
                  std::string(errc_name(reply.error())));
    } else if (*reply != ack) {
      result.fail("fleet_connect: ack does not match its reading");
    } else {
      return 1;
    }
    return 0;
  }

  std::uint64_t model_window() const override { return 256; }
  int segments() const override { return 5; }
  std::uint32_t step_class() const override { return class_; }
  void model_begin() override { begin_ = mark(*rig_, paced_, op_, op_); }
  double model_end(LayerValues& layer) override {
    return fleet_model(*rig_, begin_, mark(*rig_, paced_, op_, op_), op_,
                       layer);
  }

  void host_layers(const SpanRecorder& rec, std::uint64_t traced_ops,
                   LayerValues& layer) override {
    layer["fleet.connect_full_us"] = us_per(rec.totals(kConnectFull));
    layer["fleet.connect_resumed_us"] = us_per(rec.totals(kConnectResumed));
    layer["fleet.report_call_us"] = us_per(rec.totals(kReportCall));
    layer["fleet.server_pump_us_per_reading"] =
        ratio(rec.totals(kServerPump).total_ns / 1e3,
              static_cast<double>(traced_ops));
  }

 private:
  std::unique_ptr<FleetRig> rig_;
  std::unique_ptr<util::Xoshiro> rng_;
  std::uint64_t op_ = 0;
  std::uint64_t held_ = 0;  // ticket-holding connects so far
  std::uint64_t drop_at_ = 0;
  std::uint32_t class_ = 0;  // of the last step: 0 full, 1 resumed
  Cycles paced_ = 0;
  FleetMark begin_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_ingest() {
  return std::make_unique<FleetIngest>();
}
std::unique_ptr<Workload> make_fleet_connect() {
  return std::make_unique<FleetConnect>();
}

}  // namespace perfbench
