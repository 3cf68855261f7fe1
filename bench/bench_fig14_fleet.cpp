// FIG14 — one utility server, a fleet of meters.
//
// lateral::fleet multiplexes many attested meter connections onto one SGX
// anonymizer domain. This benchmark measures the three claims that make
// that fleet-scale story work:
//
//   handshakes  — wall-clock cost of the full three-message quote exchange
//                 (cold verification cache vs warm) against the one-RTT
//                 ticket resumption. Acceptance: resumed is at least 5x the
//                 cold handshake rate.
//   steady state — readings/sec through the anonymizer once the fleet is
//                 connected: pipelined submits, ONE CompletionQueue
//                 doorbell per pump, sealed replies collected in order.
//   overload    — 10x more arrivals than the service rate, admission gate
//                 off vs on. Off: the backlog (lossless by design) grows
//                 without bound and arrival->completion p99 collapses. On:
//                 the token bucket sheds visibly (Errc::exhausted, counted)
//                 and the p99 of everything ADMITTED stays bounded. Zero
//                 admitted requests are lost either way.
//
// The report printed before flag parsing holds only simulated-clock
// numbers, so it is committed as bench/reports/bench_fig14_fleet.txt and
// reproduces byte for byte. The wall-clock sections (handshake costs and
// steady-state readings/s) print from the timed benchmarks fig14/handshakes
// and fig14/steady_state. Run with --benchmark_format=json >
// BENCH_FIG14.json for the committed machine-readable artifact (CI
// validates it with python3 -m json.tool).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/attestation.h"
#include "fleet/fleet_client.h"
#include "fleet/fleet_server.h"
#include "fleet/verification_cache.h"
#include "net/network.h"
#include "runtime/metrics.h"
#include "toolbox/anonymizer.h"
#include "util/table.h"

using namespace lateral;
using namespace lateral::bench;

namespace {

// ---------------------------------------------------------------------------
// Rig: the FIG14 topology. One "utility" machine runs the SGX anonymizer
// (service domain) plus an untrusted frontend; one "meter" machine runs the
// TrustZone metering component every client attests as. A CachedVerifier
// guards the server side; its TTL is the scenario knob (0 = every full
// handshake pays the RSA chain check — the cold column).

struct Rig {
  std::unique_ptr<hw::Machine> server_machine;
  std::unique_ptr<substrate::IsolationSubstrate> sgx;
  substrate::DomainId anonymizer = 0, frontend = 0;
  substrate::ChannelId channel = 0;

  std::unique_ptr<hw::Machine> meter_machine;
  std::unique_ptr<substrate::IsolationSubstrate> tz;
  substrate::DomainId metering = 0;

  std::unique_ptr<core::AttestationVerifier> meter_verifier;
  std::unique_ptr<fleet::CachedVerifier> utility_verifier;
  std::unique_ptr<net::SimNetwork> network;
  std::unique_ptr<runtime::MetricsHub> hub;
};

Rig make_rig(Cycles cache_ttl) {
  Rig rig;
  rig.server_machine = make_machine("fig14-utility");
  rig.sgx = *registry().create("sgx", *rig.server_machine);
  rig.anonymizer = *rig.sgx->create_domain(tc_spec("anonymizer"));
  rig.frontend = *rig.sgx->create_domain(tc_spec("frontend"));
  rig.channel = *rig.sgx->create_channel(rig.frontend, rig.anonymizer);
  (void)rig.sgx->set_handler(
      rig.anonymizer,
      [](const substrate::Invocation& inv) -> Result<Bytes> {
        // The ingest path: decode the fixed-width reading, ack with 1 byte.
        auto reading = toolbox::decode_reading(inv.data);
        if (!reading) return reading.error();
        return Bytes{1};
      });

  rig.meter_machine = make_machine("fig14-meter");
  rig.tz = *registry().create("trustzone", *rig.meter_machine);
  rig.metering = *rig.tz->create_domain(tc_spec("metering"));

  rig.meter_verifier =
      std::make_unique<core::AttestationVerifier>(to_bytes("fig14-mv"));
  rig.meter_verifier->add_trusted_root(vendor().root_public_key());
  rig.meter_verifier->expect_measurement(
      "anonymizer", tc_spec("anonymizer").image.measurement());

  rig.utility_verifier = std::make_unique<fleet::CachedVerifier>(
      to_bytes("fig14-uv"),
      fleet::CacheConfig{.capacity = 64,
                         .ttl = cache_ttl,
                         .clock = rig.server_machine.get()});
  rig.utility_verifier->add_trusted_root(vendor().root_public_key());
  rig.utility_verifier->expect_measurement(
      "metering", tc_spec("metering").image.measurement());

  rig.network = std::make_unique<net::SimNetwork>();
  rig.hub = std::make_unique<runtime::MetricsHub>();
  (void)rig.network->register_endpoint("utility");
  return rig;
}

fleet::FleetServerConfig server_config(Rig& rig, const std::string& label) {
  fleet::FleetServerConfig config;
  config.endpoint = "utility";
  config.network = rig.network.get();
  config.substrate = rig.sgx.get();
  config.service_domain = rig.anonymizer;
  config.frontend_domain = rig.frontend;
  config.service_channel = rig.channel;
  config.verifier = rig.utility_verifier.get();
  config.expected_client = "metering";
  config.hub = rig.hub.get();
  config.label = label;
  return config;
}

std::unique_ptr<fleet::FleetClient> make_meter(Rig& rig,
                                               const std::string& name,
                                               fleet::FleetServer& server,
                                               bool attested = true) {
  fleet::FleetClientConfig config;
  config.endpoint = name;
  config.server_endpoint = "utility";
  config.network = rig.network.get();
  if (attested) {
    config.prover = net::ProverConfig{rig.tz.get(), rig.metering};
    config.verifier =
        net::VerifierConfig{rig.meter_verifier.get(), "anonymizer"};
  }
  config.drive = [&server] { (void)server.pump(); };
  return std::make_unique<fleet::FleetClient>(std::move(config));
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fig14: %s\n", what);
  std::abort();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// Scenario 1: handshake cost, wall clock.

constexpr int kHandshakes = 24;
// Passes of kHandshakes per mode; each mode reports its median pass, and
// the modes alternate so that they share the host's slow stretches.
constexpr int kPasses = 5;

struct HandshakeNumbers {
  double cold_us = 0;     // full handshake, verification cache disabled
  double warm_us = 0;     // full handshake, cache hit skips the RSA chain
  double resumed_us = 0;  // one-RTT ticket resumption
  double speedup() const { return resumed_us > 0 ? cold_us / resumed_us : 0; }
  bool pass() const { return speedup() >= 5.0; }
};

double measure_full_us(Cycles cache_ttl) {
  Rig rig = make_rig(cache_ttl);
  fleet::FleetServer server(server_config(rig, "fig14.handshake"));
  auto meter = make_meter(rig, "meter-hs", server);
  if (!meter->connect().ok()) die("full-handshake warm-up failed");

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kHandshakes; ++i) {
    meter->clear_ticket();  // forbid resumption: full quote exchange
    if (!meter->connect().ok()) die("full handshake failed");
  }
  return seconds_since(start) * 1e6 / kHandshakes;
}

double measure_resumed_us() {
  Rig rig = make_rig(/*cache_ttl=*/100'000'000);
  fleet::FleetServer server(server_config(rig, "fig14.handshake"));
  auto meter = make_meter(rig, "meter-hs", server);
  if (!meter->connect().ok()) die("ticket-granting handshake failed");

  double total_s = 0;
  for (int i = 0; i < kHandshakes; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (!meter->connect().ok()) die("resumed connect failed");
    total_s += seconds_since(start);
    if (!meter->resumed()) die("connect did not resume");
    // Tickets are single-use: an untimed full handshake re-arms the next
    // iteration. (A production server would re-grant on the resumed
    // session; the bench keeps grant and resume strictly separated.)
    if (!meter->connect().ok() || meter->resumed()) die("re-arm failed");
  }
  return total_s * 1e6 / kHandshakes;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

HandshakeNumbers measure_handshakes() {
  std::vector<double> cold, warm, resumed;
  for (int pass = 0; pass < kPasses; ++pass) {
    cold.push_back(measure_full_us(/*cache_ttl=*/0));
    warm.push_back(measure_full_us(/*cache_ttl=*/100'000'000));
    resumed.push_back(measure_resumed_us());
  }
  HandshakeNumbers out;
  out.cold_us = median(std::move(cold));
  out.warm_us = median(std::move(warm));
  out.resumed_us = median(std::move(resumed));
  return out;
}

// ---------------------------------------------------------------------------
// Scenario 2: steady-state ingest with the fleet connected.

constexpr std::size_t kFleet = 32;
constexpr int kIngestRounds = 16;

struct SteadyNumbers {
  double readings_per_sec = 0;
  double crossing_cycles_per_reading = 0;  // enclave-boundary cost, amortized
  std::uint64_t batches = 0;
  std::uint64_t cache_misses = 0;  // RSA verifications for all kFleet meters
};

SteadyNumbers measure_steady_state() {
  // Generous TTL: quote *generation* is modeled in simulated cycles, so 32
  // handshakes advance the clock far enough to expire a short hit window.
  Rig rig = make_rig(/*cache_ttl=*/2'000'000'000);
  fleet::FleetServer server(server_config(rig, "fig14.steady"));
  std::vector<std::unique_ptr<fleet::FleetClient>> meters;
  for (std::size_t i = 0; i < kFleet; ++i) {
    meters.push_back(make_meter(rig, "meter-" + std::to_string(i), server));
    if (!meters.back()->connect().ok()) die("fleet connect failed");
  }

  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kIngestRounds; ++round) {
    for (std::size_t i = 0; i < kFleet; ++i) {
      const toolbox::Reading reading{.household = i,
                                     .bucket = static_cast<std::uint64_t>(
                                         round),
                                     .kwh = 1.5};
      if (!meters[i]->submit("report", toolbox::encode_reading(reading)).ok())
        die("steady-state submit failed");
    }
    (void)server.pump();  // one tick serves the whole crossing, batched
    // One megacycle between rounds: the fleet reports on a cadence, and the
    // default admission rate (64/Mcycle) comfortably sustains 32 arrivals.
    rig.server_machine->advance(1'000'000);
    for (auto& meter : meters)
      if (!meter->collect().ok()) die("steady-state reading not acked");
  }
  const double elapsed_s = seconds_since(start);
  const double readings = static_cast<double>(kFleet) * kIngestRounds;

  SteadyNumbers out;
  out.readings_per_sec = readings / elapsed_s;
  // The server's own label counts arrival->completion; the CompletionQueue it
  // multiplexes through reports under "<label>.mux".
  const auto mux = rig.hub->counters("fig14.steady.mux").snapshot();
  out.crossing_cycles_per_reading =
      static_cast<double>(mux.crossing_cycles) / readings;
  out.batches = mux.batches;
  out.cache_misses = rig.utility_verifier->cache_stats().misses;
  return out;
}

// ---------------------------------------------------------------------------
// Scenario 3: 10x overload, admission gate off vs on.
//
// Arrival rate: kOverloadMeters readings per megacycle. Service rate:
// kServiceCap batched submits per megacycle (the pump's cap). That is a
// sustained 10x overload; the only question is where the excess goes —
// into an unbounded (lossless!) backlog, or answered-and-shed at the edge.

constexpr std::size_t kOverloadMeters = 10;
constexpr int kOverloadRounds = 40;
constexpr std::size_t kServiceCap = 1;

struct OverloadNumbers {
  Cycles p99 = 0;
  Cycles mean = 0;
  std::uint64_t shed = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t client_acks = 0;  // Errc::ok replies observed by the meters
  std::uint64_t lost() const { return submitted - completed; }
};

OverloadNumbers measure_overload(bool gate_on) {
  Rig rig = make_rig(/*cache_ttl=*/100'000'000);
  const std::string label = gate_on ? "fig14.gate_on" : "fig14.gate_off";
  fleet::FleetServerConfig config = server_config(rig, label);
  // Anonymous sessions: overload is about queueing, not attestation cost.
  config.verifier = nullptr;
  config.expected_client.clear();
  config.admission_enabled = gate_on;
  config.admission = {.burst = 4, .refill_per_megacycle = 1};
  fleet::FleetServer server(config);

  std::vector<std::unique_ptr<fleet::FleetClient>> meters;
  for (std::size_t i = 0; i < kOverloadMeters; ++i) {
    meters.push_back(make_meter(rig, "ovl-" + std::to_string(i), server,
                                /*attested=*/false));
    if (!meters.back()->connect().ok()) die("overload connect failed");
  }

  OverloadNumbers out;
  auto drain_replies = [&] {
    for (auto& meter : meters) {
      while (true) {
        auto reply = meter->collect();
        if (reply.ok())
          ++out.client_acks;
        else if (reply.error() != Errc::exhausted)
          break;  // would_block: nothing pending for this meter
      }
    }
  };

  for (int round = 0; round < kOverloadRounds; ++round) {
    for (std::size_t i = 0; i < kOverloadMeters; ++i) {
      const toolbox::Reading reading{.household = i,
                                     .bucket = static_cast<std::uint64_t>(
                                         round),
                                     .kwh = 0.5};
      if (!meters[i]->submit("report", toolbox::encode_reading(reading)).ok())
        die("overload submit failed");
    }
    (void)server.pump(kServiceCap);
    rig.server_machine->advance(1'000'000);  // one megacycle per round
    drain_replies();
  }
  // Lossless backpressure: whatever was admitted gets served, however long
  // the gate-off backlog has grown. The drain is part of the story — those
  // late completions are exactly the latencies that collapse the p99.
  while (server.backlog() > 0) {
    (void)server.pump(kServiceCap);
    rig.server_machine->advance(1'000'000);
    drain_replies();
  }
  drain_replies();

  const auto counters = rig.hub->counters(label).snapshot();
  out.p99 = counters.latency_percentile(0.99);
  out.mean = counters.mean_latency_cycles();
  out.submitted = counters.submitted;
  out.completed = counters.completed;
  out.cancelled = counters.cancelled;
  out.shed = server.stats().admission_shed;
  return out;
}

bool overload_pass(const OverloadNumbers& off, const OverloadNumbers& on) {
  return on.shed > 0 && on.lost() == 0 && off.lost() == 0 &&
         on.cancelled == 0 && on.client_acks == on.completed &&
         on.p99 < off.p99;
}

// ---------------------------------------------------------------------------
// Human-facing report. run_report prints the simulated-clock sections
// before flag parsing; the timed benchmarks print the wall-clock ones.

void print_handshakes(const HandshakeNumbers& hs) {
  std::printf("-- handshakes (wall clock, median of %d passes of %d per "
              "mode) --\n",
              kPasses, kHandshakes);
  util::Table hs_table({"mode", "per handshake", "handshakes/s", "skips"});
  char buffer[64];
  auto row = [&](const char* mode, double us, const char* skips) {
    std::snprintf(buffer, sizeof buffer, "%.1f us", us);
    std::string per(buffer);
    std::snprintf(buffer, sizeof buffer, "%.0f", 1e6 / us);
    hs_table.add_row({mode, per, buffer, skips});
  };
  row("full, cold cache", hs.cold_us, "nothing: quote + RSA chain both ways");
  row("full, warm cache", hs.warm_us, "server-side RSA chain check");
  row("resumed (ticket)", hs.resumed_us, "quotes, RSA, DH: one RTT, AEAD only");
  std::printf("%s\n", hs_table.render().c_str());
  std::printf("resumed vs cold speedup: %.1fx  (>= 5x: %s)\n\n", hs.speedup(),
              hs.pass() ? "PASS" : "FAIL");
}

void print_steady_wall_clock(const SteadyNumbers& steady) {
  std::printf("-- steady state (wall clock): %.0f readings/s --\n\n",
              steady.readings_per_sec);
}

void run_report() {
  std::printf("== FIG14: one utility server, a fleet of meters ==\n");
  std::printf("(handshake costs and readings/s are wall clock: the timed\n"
              "benchmarks fig14/handshakes and fig14/steady_state print them)"
              "\n\n");

  const SteadyNumbers steady = measure_steady_state();
  std::printf("-- steady state (%zu meters, %d rounds, batched pump) --\n",
              kFleet, kIngestRounds);
  util::Table st_table(
      {"crossing cycles/reading", "batches", "RSA verifications"});
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.0f",
                steady.crossing_cycles_per_reading);
  st_table.add_row({buffer, std::to_string(steady.batches),
                    std::to_string(steady.cache_misses)});
  std::printf("%s\n", st_table.render().c_str());
  std::printf("one RSA verification served all %zu meters (cache hits for\n"
              "the rest); every round's %zu readings cross in one batch.\n\n",
              kFleet, kFleet);

  const OverloadNumbers off = measure_overload(false);
  const OverloadNumbers on = measure_overload(true);
  std::printf("-- 10x overload (%zu arrivals vs %zu served per megacycle, "
              "%d megacycles) --\n",
              kOverloadMeters, kServiceCap, kOverloadRounds);
  util::Table ov_table({"admission", "p99 (cycles)", "mean (cycles)", "shed",
                        "admitted", "completed", "lost"});
  auto ov_row = [&](const char* mode, const OverloadNumbers& n) {
    ov_table.add_row({mode, util::fmt_cycles(n.p99), util::fmt_cycles(n.mean),
                      std::to_string(n.shed), std::to_string(n.submitted),
                      std::to_string(n.completed), std::to_string(n.lost())});
  };
  ov_row("gate off", off);
  ov_row("gate on", on);
  std::printf("%s\n", ov_table.render().c_str());
  std::printf("gate off is lossless but unbounded: latency IS the queue.\n");
  std::printf("gate on sheds at the edge (answered, counted) and the p99 of\n");
  std::printf("admitted work stays bounded.  overall: %s\n\n",
              overload_pass(off, on) ? "PASS" : "FAIL");
}

// ---------------------------------------------------------------------------
// Machine-readable mirror (the BENCH_FIG14.json artifact). Wall-clock time
// of the google-benchmark loop is meaningless; the counters are the data.
// google-benchmark calls each function once per trial iteration count, so
// the wall-clock scenarios measure on the first call only and, with console
// output, print their section of the report then.

void register_json_benchmarks(bool print_wall_clock) {
  benchmark::RegisterBenchmark("fig14/handshakes", [=](benchmark::State& state) {
    static const HandshakeNumbers hs = [&] {
      const HandshakeNumbers measured = measure_handshakes();
      if (print_wall_clock) print_handshakes(measured);
      return measured;
    }();
    for (auto _ : state) benchmark::DoNotOptimize(hs.resumed_us);
    state.counters["full_cold_us"] = hs.cold_us;
    state.counters["full_warm_cache_us"] = hs.warm_us;
    state.counters["resumed_us"] = hs.resumed_us;
    state.counters["cold_per_sec"] = 1e6 / hs.cold_us;
    state.counters["resumed_per_sec"] = 1e6 / hs.resumed_us;
    state.counters["resumed_speedup"] = hs.speedup();
    state.counters["meets_5x_bar"] = hs.pass() ? 1.0 : 0.0;
  });
  benchmark::RegisterBenchmark(
      "fig14/steady_state", [=](benchmark::State& state) {
        static const SteadyNumbers steady = [&] {
          const SteadyNumbers measured = measure_steady_state();
          if (print_wall_clock) print_steady_wall_clock(measured);
          return measured;
        }();
        for (auto _ : state) benchmark::DoNotOptimize(steady.readings_per_sec);
        state.counters["readings_per_sec"] = steady.readings_per_sec;
        state.counters["crossing_cycles_per_reading"] =
            steady.crossing_cycles_per_reading;
        state.counters["batches"] = static_cast<double>(steady.batches);
        state.counters["rsa_verifications"] =
            static_cast<double>(steady.cache_misses);
      });
  benchmark::RegisterBenchmark("fig14/overload", [](benchmark::State& state) {
    const OverloadNumbers off = measure_overload(false);
    const OverloadNumbers on = measure_overload(true);
    for (auto _ : state) benchmark::DoNotOptimize(on.p99);
    state.counters["p99_gate_off_cycles"] = static_cast<double>(off.p99);
    state.counters["p99_gate_on_cycles"] = static_cast<double>(on.p99);
    state.counters["mean_gate_off_cycles"] = static_cast<double>(off.mean);
    state.counters["mean_gate_on_cycles"] = static_cast<double>(on.mean);
    state.counters["shed_gate_on"] = static_cast<double>(on.shed);
    state.counters["admitted_gate_on"] = static_cast<double>(on.submitted);
    state.counters["admitted_lost_gate_on"] = static_cast<double>(on.lost());
    state.counters["admitted_lost_gate_off"] = static_cast<double>(off.lost());
    state.counters["bounded_by_admission"] = overload_pass(off, on) ? 1.0 : 0.0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bool console = !machine_readable_output(argc, argv);
  if (console) run_report();
  register_json_benchmarks(console);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
