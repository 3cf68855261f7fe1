// perfbench driver: runs one workload in this process and prints one JSON
// result line (see perfbench/NOTES.md).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the first half of
// the timed phase untraced and the second half with spans around every
// driver call into a layer, then prints the per-layer metrics, the tracing
// overhead, and writes the spans to .bench_build/traces/.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "rig.h"
#include "workloads.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names = {
      "driver.op",           "fleet.client_submit",   "fleet.client_collect",
      "fleet.server_pump",   "fleet.connect_full",    "fleet.connect_resumed",
      "fleet.report_call",   "substrate.call",        "substrate.call_sg",
      "runtime.pool_stage",  "runtime.cq_submit",     "runtime.cq_doorbell",
      "runtime.cq_reap",     "runtime.staged_submit", "crypto.rsa_sign",
      "crypto.rsa_verify",   "crypto.dh_shared_secret",
      "crypto.record_aes_hmac",
      "driver.call",         "driver.call_sg",        "driver.cq_batch",
      "driver.cq_staged"};
  return names;
}

namespace {

/// Every per-layer metric, in BENCHMARK.json order. A workload that does
/// no work in a layer reports 0 for it.
struct LayerMetric {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"fleet.client_submit_us", "us"},
        {"fleet.client_collect_us", "us"},
        {"fleet.server_pump_us_per_reading", "us"},
        {"fleet.connect_full_us", "us"},
        {"fleet.connect_resumed_us", "us"},
        {"fleet.report_call_us", "us"},
        {"fleet.resume_ratio", "ratio"},
        {"fleet.verify_cache_hit_ratio", "ratio"},
        {"fleet.tickets_rejected", "count"},
        {"fleet.shed_ratio", "ratio"},
        {"crypto.rsa_sign_us", "us"},
        {"crypto.rsa_verify_us", "us"},
        {"crypto.dh_shared_secret_us", "us"},
        {"crypto.record_aes_hmac_us", "us"},
        {"net.messages_per_op", "count"},
        {"net.bytes_per_op", "bytes"},
        {"runtime.cq_submit_ns", "ns"},
        {"runtime.cq_doorbell_ns", "ns"},
        {"runtime.cq_reap_ns", "ns"},
        {"runtime.staged_submit_ns", "ns"},
        {"runtime.calls_per_doorbell", "count"},
        {"runtime.zero_copy_byte_share", "ratio"},
        {"runtime.cq_model_p50_cycles", "cycles"},
        {"runtime.cq_model_p99_cycles", "cycles"},
        {"substrate.call_ns", "ns"},
        {"substrate.call_sg_ns", "ns"},
        {"substrate.call.model_cycles_per_call", "cycles"},
        {"substrate.call_sg.model_cycles_per_call", "cycles"},
        {"substrate.cq_batch.model_cycles_per_call", "cycles"},
        {"substrate.cq_staged.model_cycles_per_call", "cycles"},
        {"substrate.call.host_share", "ratio"},
        {"substrate.call_sg.host_share", "ratio"},
        {"substrate.cq_batch.host_share", "ratio"},
        {"substrate.cq_staged.host_share", "ratio"},
    };
    for (const char* backend : {"noc", "cheri", "microkernel", "trustzone",
                                "ftpm", "sgx", "sep", "tpm"})
      m.push_back({std::string("substrate.") + backend +
                       ".model_cycles_per_round",
                   "cycles"});
    m.insert(m.end(), {
                          {"hw.utility_cycles_per_op", "cycles"},
                          {"hw.meter_cycles_per_op", "cycles"},
                          {"substrate.crossing_cycles_per_reading", "cycles"},
                          {"layer.driver.self_us_per_op", "us"},
                          {"layer.fleet.self_us_per_op", "us"},
                          {"layer.runtime.self_us_per_op", "us"},
                          {"layer.substrate.self_us_per_op", "us"},
                          {"trace.untraced_ops_per_s", "1/s"},
                          {"trace.traced_ops_per_s", "1/s"},
                          {"trace.overhead_pct", "%"},
                      });
    return m;
  }();
  return metrics;
}

/// The layer a span belongs to, for self-time totals: the prefix of its
/// name up to the first dot.
std::string layer_of(std::uint32_t name) {
  const std::string& full = span_names()[name];
  return full.substr(0, full.find('.'));
}

/// Crypto probes at the sizes the fleet uses: the vendor's RSA key size,
/// the DH group of the secure channel, and AES-CTR + HMAC-SHA256 over a
/// record the size of a sealed reading request. Made in the traced run
/// only, after the timed phase, one span per call.
void crypto_probes(SpanRecorder& rec, std::uint64_t seed, LayerValues& layer) {
  crypto::HmacDrbg drbg(to_bytes("perfbench-probe:" + std::to_string(seed)));
  const crypto::RsaKeyPair rsa =
      crypto::RsaKeyPair::generate(drbg, kVendorKeyBits);
  const crypto::DhGroup& group = crypto::DhGroup::oakley1();
  const crypto::DhKeyPair a = crypto::DhKeyPair::generate(group, drbg);
  const crypto::DhKeyPair b = crypto::DhKeyPair::generate(group, drbg);
  crypto::Aes128Key aes_key{};
  const Bytes key_bytes = drbg.generate(aes_key.size());
  std::copy(key_bytes.begin(), key_bytes.end(), aes_key.begin());
  const Bytes mac_key = drbg.generate(32);
  const Bytes record = drbg.generate(64);
  const Bytes message = drbg.generate(96);
  const Bytes signature = crypto::rsa_sign(rsa, message);

  std::uint64_t op = 1ULL << 62;
  auto probe = [&](std::uint32_t name, int n, auto&& body) {
    for (int i = 0; i < n; ++i) {
      rec.begin_op(op++);
      {
        Scope span(&rec, name);
        body(i);
      }
      rec.end_op();
    }
  };
  bool ok = true;
  probe(kRsaSign, 48, [&](int) { ok &= !crypto::rsa_sign(rsa, message).empty(); });
  probe(kRsaVerify, 256, [&](int) {
    ok &= crypto::rsa_verify(rsa.pub, message, signature).ok();
  });
  probe(kDhSharedSecret, 24, [&](int) {
    ok &= crypto::dh_shared_secret(group, a.private_key, b.public_key).ok();
  });
  probe(kRecordAesHmac, 4096, [&](int i) {
    const Bytes ct = crypto::aes128_ctr(aes_key, static_cast<std::uint64_t>(i),
                                        record);
    ok &= crypto::hmac_sha256(mac_key, ct)[0] != 0x100;
  });
  if (!ok) throw Error("crypto probe failed");
  auto us = [&](std::uint32_t name) {
    const SpanTotals& t = rec.totals(name);
    return t.count ? t.total_ns / static_cast<double>(t.count) / 1e3 : 0.0;
  };
  layer["crypto.rsa_sign_us"] = us(kRsaSign);
  layer["crypto.rsa_verify_us"] = us(kRsaVerify);
  layer["crypto.dh_shared_secret_us"] = us(kDhSharedSecret);
  layer["crypto.record_aes_hmac_us"] = us(kRecordAesHmac);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_driver --workload "
               "fleet_ingest|fleet_connect|crossing_paths --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end) usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end || !(args.seconds > 0)) usage("--seconds takes a number > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "fleet_ingest") return make_fleet_ingest();
  if (name == "fleet_connect") return make_fleet_connect();
  if (name == "crossing_paths") return make_crossing_paths();
  usage(("unknown workload " + name).c_str());
}

int run(const Args& args, Clock::time_point entry) {
  Report report;
  LayerValues layer;

  // Untraced timed phase, cut into segments. Each segment runs on a fresh
  // workload after its own set-up, so the set-ups, costed at quiet speed
  // (see SetupPhase), sample the host across the whole run rather than in
  // its first seconds. Tearing down the previous rig is neither set-up nor
  // timed. A traced run reports no setup_s and keeps its untraced half in
  // one segment, so both halves run on one rig and compare like for like.
  // The model window is the first model_window() steps of the first
  // segment, which runs at least that long whatever --seconds says.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  SetupPhase setup(entry);
  HostPhase host(args.seed);
  std::unique_ptr<Workload> w = make(args.workload);
  const int segments = args.trace ? 1 : w->segments();
  double model_cycles_per_op = 0;
  std::uint64_t steps = 0;
  for (int segment = 0; segment < segments; ++segment) {
    if (segment > 0) {
      w.reset();
      setup.begin();
      w = make(args.workload);
    }
    w->setup(args.seed, setup);
    const auto start = Clock::now();
    const std::uint64_t window = segment == 0 ? w->model_window() : 0;
    std::uint64_t segment_steps = 0;
    if (window) w->model_begin();
    while (segment_steps < window ||
           seconds_between(start, Clock::now()) < untraced_s / segments) {
      host.begin_step();
      const std::uint64_t ops = w->step(host, nullptr, report);
      host.end_step(ops, w->step_class());
      ++steps;
      if (++segment_steps == window) model_cycles_per_op = w->model_end(layer);
    }
  }
  const HostPhase::Summary untraced = host.summarize();
  std::fprintf(stderr,
               "perfbench: %s: %zu of %zu steps quiet, %zu latency samples\n",
               args.workload.c_str(), untraced.quiet_steps, untraced.steps,
               untraced.samples);

  if (!args.trace) {
    report.metric("ops_per_s", untraced.ops_per_s, "1/s");
    report.metric("op_p50_us", untraced.p50_us, "us");
    report.metric("op_p99_us", untraced.p99_us, "us");
    report.metric("setup_s", setup.quiet_seconds(segments), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("model_cycles_per_op", model_cycles_per_op, "cycles");
    report.print();
    return report.correct() ? 0 : 1;
  }

  // Traced half: same loop, one root span per step.
  SpanRecorder rec;
  HostPhase traced(args.seed);
  while (traced.elapsed_s() < args.seconds / 2) {
    rec.begin_op(steps++);
    traced.begin_step();
    {
      Scope root(&rec, kOp);
      const std::uint64_t ops = w->step(traced, &rec, report);
      traced.end_step(ops, w->step_class());
    }
    rec.end_op();
  }
  const HostPhase::Summary traced_summary =
      traced.summarize();
  w->host_layers(rec, traced.total_ops(), layer);

  std::map<std::string, double> self_ns;
  for (const auto& [name, totals] : rec.all_totals())
    self_ns[layer_of(name)] += totals.self_ns;
  for (const char* l : {"driver", "fleet", "runtime", "substrate"})
    layer[std::string("layer.") + l + ".self_us_per_op"] = ratio(
        self_ns[l] / 1e3, static_cast<double>(traced.total_ops()));
  layer["trace.untraced_ops_per_s"] = untraced.ops_per_s;
  layer["trace.traced_ops_per_s"] = traced_summary.ops_per_s;
  layer["trace.overhead_pct"] =
      100.0 * ratio(untraced.ops_per_s - traced_summary.ops_per_s,
                    untraced.ops_per_s);

  crypto_probes(rec, args.seed, layer);

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.csv";
  if (!rec.write_csv(path, span_names()))
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());

  for (const LayerMetric& m : layer_metrics()) {
    const auto it = layer.find(m.name);
    report.metric(m.name, it == layer.end() ? 0.0 : it->second, m.unit);
  }
  report.print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto entry = perfbench::Clock::now();
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args, entry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
