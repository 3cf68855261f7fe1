// crossing_paths: the §III-A crossing interface on all 8 substrates, the
// four paths side by side, so a change that speeds one path at another's
// cost shows up in the same run.
//
// Each substrate gets one client/server echo pair, the health plane's
// crossing profiler at its default 1-in-8 sampling, a CompletionQueue that
// reports to a MetricsHub and, where the substrate realizes grant regions,
// a RegionPool over a client<->server region. One sequence on a substrate:
//   call      kSync synchronous calls;
//   call_sg   kScatter scatter-gather calls, each payload staged in a pool
//             slot;
//   cq_batch  one CompletionQueue burst: kBurst submits, doorbell, reap;
//   cq_staged one burst of kStaged submit_staged through the pool.
// The counts give each path about an equal share of the round's host time
// (measured as substrate.<path>.host_share; see NOTES.md), so a slowdown of
// any one path moves ops_per_s about as much as any other.
// A round runs kSequences sequences on every substrate in turn, a few
// milliseconds of host time, so the host tail is taken over ops long
// enough that one scheduler hiccup does not make the p99 (see NOTES.md).
// Substrates without regions (TPM, fTPM) take the runtime's copy fallback
// for call_sg and cq_staged, as mail::MailClient does.
//
// Payload sizes are log-uniform from 16 B to 16 KiB, stratified: each
// round, each (substrate, path) draws one size from each of its equal
// log-width strata, in seeded order. Every seed thus sends nearly the same
// byte mix and the modeled cost per call barely moves between seeds, while
// which call carries which size, and every payload byte, comes from the
// seed. One op = one completed call.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "health/profiler.h"
#include "rig.h"
#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "runtime/region_pool.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::array<const char*, 8> kSubstrates = {
    "noc", "cheri", "microkernel", "trustzone", "ftpm", "sgx", "sep", "tpm"};

constexpr std::size_t kSync = 16;
constexpr std::size_t kScatter = 10;
constexpr std::size_t kBurst = 8;
constexpr std::size_t kStaged = 6;
constexpr std::size_t kSequences = 16;
constexpr std::size_t kCallsPerSequence = kSync + kScatter + kBurst + kStaged;
constexpr std::size_t kMaxPayload = 16 * 1024;
constexpr std::size_t kHeader = 8;

enum Path { kCall, kCallSg, kCqBatch, kCqStaged, kPathCount };
constexpr std::array<const char*, kPathCount> kPathNames = {
    "call", "call_sg", "cq_batch", "cq_staged"};
constexpr std::array<std::size_t, kPathCount> kPerSequence = {
    kSync, kScatter, kBurst, kStaged};

/// One substrate's echo pair. Declaration order keeps the profiler alive
/// until the substrate that samples into it is gone, and the queue and
/// pool gone before the substrate they borrow.
struct Lane {
  std::string name;
  std::unique_ptr<hw::Machine> machine;
  health::CycleProfiler profiler;
  std::unique_ptr<substrate::IsolationSubstrate> sub;
  substrate::DomainId client = 0, server = 0;
  substrate::ChannelId channel = 0;
  std::unique_ptr<runtime::RegionPool> pool;
  std::unique_ptr<runtime::CompletionQueue> cq;
  /// This round's payload sizes per path, consumed in order.
  std::array<std::vector<std::size_t>, kPathCount> sizes;
  std::array<std::size_t, kPathCount> next{};
};

struct Window {
  std::array<Cycles, kPathCount> path_cycles{};
  std::array<std::uint64_t, kPathCount> path_calls{};
  std::array<Cycles, kSubstrates.size()> lane_cycles{};
  std::vector<std::uint64_t> cq_event_cycles;
  std::uint64_t cq_payload_bytes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t calls = 0;
};

Bytes concat(BytesView header, BytesView payload) {
  Bytes out(header.size() + payload.size());
  std::copy(header.begin(), header.end(), out.begin());
  std::copy(payload.begin(), payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(header.size()));
  return out;
}

bool echoes(BytesView reply, BytesView header, BytesView payload) {
  return reply.size() == header.size() + payload.size() &&
         std::equal(header.begin(), header.end(), reply.begin()) &&
         std::equal(payload.begin(), payload.end(),
                    reply.begin() + static_cast<std::ptrdiff_t>(header.size()));
}

class CrossingPaths final : public Workload {
 public:
  void setup(std::uint64_t seed, SetupPhase& phase) override {
    hub_ = std::make_unique<runtime::MetricsHub>();
    vendor_ = make_vendor();
    rng_ = std::make_unique<util::Xoshiro>(seed);
    source_ = rng_->bytes(2 * kMaxPayload);
    phase.part("rig");
    for (const char* name : kSubstrates) {
      lanes_.push_back(make_lane(name));
      phase.part(std::string("lane.") + name);
    }
    Report warm;
    HostPhase scratch(seed, 1);
    (void)step(scratch, nullptr, warm);
    phase.part("warmup");
    if (warm.failed()) throw Error("crossing_paths: warm-up round failed");
  }

  std::uint64_t step(HostPhase& host, SpanRecorder* rec,
                     Report& result) override {
    plan_round();
    const auto start = Clock::now();
    std::uint64_t done = 0;
    for (std::size_t k = 0; k < kSequences; ++k)
      for (std::size_t i = 0; i < lanes_.size(); ++i)
        done += run_sequence(i, *lanes_[i], rec, result);
    host.latency_us(seconds_between(start, Clock::now()) * 1e6);
    ++round_;
    if (in_window_) {
      ++window_.rounds;
      window_.calls += lanes_.size() * kSequences * kCallsPerSequence;
    }
    return done;
  }

  std::uint64_t model_window() const override { return 64; }
  int segments() const override { return 9; }

  void model_begin() override {
    window_ = Window{};
    hub_begin_ = hub_->all();
    in_window_ = true;
  }

  double model_end(LayerValues& layer) override {
    in_window_ = false;
    const auto hub_end = hub_->all();
    double submitted = 0, doorbells = 0, zero_copy = 0;
    for (const auto& [label, end] : hub_end) {
      const runtime::InvocationCounters begin = hub_begin_[label];
      submitted += static_cast<double>(end.submitted - begin.submitted);
      doorbells += static_cast<double>(end.doorbells - begin.doorbells);
      zero_copy +=
          static_cast<double>(end.zero_copy_bytes - begin.zero_copy_bytes);
    }
    layer["runtime.calls_per_doorbell"] = ratio(submitted, doorbells);
    layer["runtime.zero_copy_byte_share"] =
        ratio(zero_copy, static_cast<double>(window_.cq_payload_bytes));
    layer["runtime.cq_model_p50_cycles"] =
        static_cast<double>(nearest_rank(window_.cq_event_cycles, 0.50));
    layer["runtime.cq_model_p99_cycles"] =
        static_cast<double>(nearest_rank(window_.cq_event_cycles, 0.99));

    Cycles total = 0;
    for (std::size_t p = 0; p < kPathCount; ++p)
      layer[std::string("substrate.") + kPathNames[p] +
            ".model_cycles_per_call"] =
          ratio(static_cast<double>(window_.path_cycles[p]),
                static_cast<double>(window_.path_calls[p]));
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      total += window_.lane_cycles[i];
      layer["substrate." + lanes_[i]->name + ".model_cycles_per_round"] =
          ratio(static_cast<double>(window_.lane_cycles[i]),
                static_cast<double>(window_.rounds));
    }
    return ratio(static_cast<double>(total),
                 static_cast<double>(window_.calls));
  }

  void host_layers(const SpanRecorder& rec, std::uint64_t,
                   LayerValues& layer) override {
    auto ns_per = [&](std::uint32_t name) {
      const SpanTotals& t = rec.totals(name);
      return t.count ? t.total_ns / static_cast<double>(t.count) : 0.0;
    };
    layer["substrate.call_ns"] = ns_per(kSubstrateCall);
    layer["substrate.call_sg_ns"] = ns_per(kSubstrateCallSg);
    layer["runtime.cq_submit_ns"] = ns_per(kCqSubmit);
    layer["runtime.cq_doorbell_ns"] = ns_per(kCqDoorbell);
    layer["runtime.cq_reap_ns"] = ns_per(kCqReap);
    layer["runtime.staged_submit_ns"] = ns_per(kStagedSubmit);
    const std::array<std::uint32_t, kPathCount> spans = {
        kPathCall, kPathCallSg, kPathCqBatch, kPathCqStaged};
    double all_paths = 0;
    for (const std::uint32_t span : spans) all_paths += rec.totals(span).total_ns;
    for (std::size_t p = 0; p < kPathCount; ++p)
      layer[std::string("substrate.") + kPathNames[p] + ".host_share"] =
          ratio(rec.totals(spans[p]).total_ns, all_paths);
  }

 private:
  std::unique_ptr<Lane> make_lane(const std::string& name) {
    auto lane = std::make_unique<Lane>();
    lane->name = name;
    lane->machine = make_machine(*vendor_, "cp-" + name);
    auto sub = registry().create(name, *lane->machine);
    if (!sub) throw Error("crossing_paths: no substrate " + name);
    lane->sub = std::move(*sub);
    substrate::IsolationSubstrate& s = *lane->sub;
    lane->server = *s.create_domain(tc_spec("server"));
    const bool legacy_ok =
        has_feature(s.info().features, substrate::Feature::legacy_hosting);
    lane->client =
        *s.create_domain(legacy_ok ? legacy_spec("client") : tc_spec("client"));
    lane->channel = *s.create_channel(lane->client, lane->server,
                                      {.max_message_bytes = 4 * kMaxPayload});
    substrate::IsolationSubstrate* raw = lane->sub.get();
    const substrate::DomainId server = lane->server;
    (void)s.set_handler(
        server, [raw, server](const substrate::Invocation& inv) -> Result<Bytes> {
          Bytes out(inv.data.begin(), inv.data.end());
          for (const substrate::RegionDescriptor& seg : inv.segments) {
            auto view = raw->region_view(server, seg);
            if (!view) return view.error();
            out.insert(out.end(), view->begin(), view->end());
          }
          return out;
        });
    lane->profiler.set_enabled(true);
    s.set_profiler(&lane->profiler);

    // One slot per staged request plus one for call_sg.
    const std::size_t region_bytes = (kStaged + 1) * kMaxPayload;
    if (s.supports_regions()) {
      auto region = s.create_region(lane->client, lane->server, region_bytes);
      if (!region || !s.map_region(lane->client, *region).ok() ||
          !s.map_region(lane->server, *region).ok())
        throw Error("crossing_paths: region setup failed on " + name);
      lane->pool = std::make_unique<runtime::RegionPool>(
          s, lane->client, *region, region_bytes, kMaxPayload);
    }
    lane->cq = std::make_unique<runtime::CompletionQueue>(
        s, lane->client, lane->channel,
        runtime::CompletionQueueConfig{.hub = hub_.get(),
                                       .label = "perfbench.cq." + name});
    return lane;
  }

  /// Draw this round's stratified sizes for every (substrate, path) and
  /// shuffle them (Fisher-Yates on the seeded generator).
  void plan_round() {
    for (auto& lane : lanes_) {
      for (std::size_t p = 0; p < kPathCount; ++p) {
        std::vector<std::size_t>& sizes = lane->sizes[p];
        const std::size_t n = kSequences * kPerSequence[p];
        sizes.clear();
        for (std::size_t j = 0; j < n; ++j) {
          const double u = (static_cast<double>(j) + rng_->uniform()) /
                           static_cast<double>(n);
          sizes.push_back(std::min(
              kMaxPayload, static_cast<std::size_t>(16.0 * std::exp2(10.0 * u))));
        }
        for (std::size_t j = n; j > 1; --j)
          std::swap(sizes[j - 1], sizes[rng_->below(j)]);
        lane->next[p] = 0;
      }
    }
  }

  BytesView next_payload(Lane& lane, Path path) {
    const std::size_t len = lane.sizes[path][lane.next[path]++];
    const std::size_t offset = rng_->below(source_.size() - len + 1);
    return BytesView(source_.data() + offset, len);
  }

  /// Charge the lane's clock delta since `before` to `path`.
  void account(std::size_t lane, Path path, Cycles before, Cycles after,
               std::uint64_t calls) {
    if (!in_window_) return;
    window_.path_cycles[path] += after - before;
    window_.path_calls[path] += calls;
    window_.lane_cycles[lane] += after - before;
  }

  std::uint64_t run_sequence(std::size_t index, Lane& lane,
                             SpanRecorder* rec, Report& result) {
    substrate::IsolationSubstrate& s = *lane.sub;
    hw::Machine& machine = *lane.machine;
    std::uint64_t done = 0;
    Bytes header(kHeader);
    for (std::size_t b = 0; b < kHeader; ++b)
      header[b] = static_cast<std::uint8_t>((round_ >> (8 * b)) + index);

    // call: synchronous, inline payload.
    {
      Scope path(rec, kPathCall);
      const Cycles before = machine.now();
      for (std::size_t i = 0; i < kSync; ++i) {
        const BytesView payload = next_payload(lane, kCall);
        result.attempt();
        Result<Bytes> reply = Errc::would_block;
        {
          Scope span(rec, kSubstrateCall);
          reply = s.call(lane.client, lane.channel, payload);
        }
        if (reply && echoes(*reply, {}, payload))
          ++done;
        else
          result.fail("crossing_paths: call echo mismatch on " + lane.name);
      }
      account(index, kCall, before, machine.now(), kSync);
    }

    // call_sg: header inline, payload by descriptor from a pool slot.
    {
      Scope path(rec, kPathCallSg);
      const Cycles before = machine.now();
      for (std::size_t i = 0; i < kScatter; ++i) {
        const BytesView payload = next_payload(lane, kCallSg);
        result.attempt();
        Result<Bytes> reply = Errc::would_block;
        if (lane.pool) {
          Result<runtime::RegionPool::Slot> slot = Errc::exhausted;
          Result<substrate::RegionDescriptor> desc = Errc::exhausted;
          {
            Scope span(rec, kPoolStage);
            slot = lane.pool->acquire();
            if (slot) desc = lane.pool->stage(*slot, payload);
          }
          if (desc) {
            Scope span(rec, kSubstrateCallSg);
            reply = s.call_sg(lane.client, lane.channel, header,
                              std::span<const substrate::RegionDescriptor>(
                                  &*desc, 1));
          }
          if (slot) lane.pool->release(*slot);
        } else {
          const Bytes request = concat(header, payload);
          Scope span(rec, kSubstrateCallSg);
          reply = s.call(lane.client, lane.channel, request);
        }
        if (reply && echoes(*reply, header, payload))
          ++done;
        else
          result.fail("crossing_paths: call_sg echo mismatch on " + lane.name);
      }
      account(index, kCallSg, before, machine.now(), kScatter);
    }

    // cq_batch: kBurst submits, one doorbell, one reap.
    {
      Scope path(rec, kPathCqBatch);
      const Cycles before = machine.now();
      std::array<BytesView, kBurst> burst;
      std::unordered_map<runtime::SubmissionId, std::size_t> ids;
      for (std::size_t i = 0; i < kBurst; ++i) {
        burst[i] = next_payload(lane, kCqBatch);
        result.attempt();
        Result<runtime::SubmissionId> id = Errc::would_block;
        {
          Scope span(rec, kCqSubmit);
          id = lane.cq->submit(burst[i]);
        }
        if (id)
          ids.emplace(*id, i);
        else
          result.fail("crossing_paths: cq submit refused on " + lane.name);
        if (in_window_) window_.cq_payload_bytes += burst[i].size();
      }
      done += ring_and_reap(lane, rec, result, ids, {}, burst.data());
      account(index, kCqBatch, before, machine.now(), kBurst);
    }

    // cq_staged: payload staged into a pool slot, header inline.
    {
      Scope path(rec, kPathCqStaged);
      const Cycles before = machine.now();
      std::array<BytesView, kStaged> staged;
      std::unordered_map<runtime::SubmissionId, std::size_t> ids;
      for (std::size_t i = 0; i < kStaged; ++i) {
        staged[i] = next_payload(lane, kCqStaged);
        result.attempt();
        Result<runtime::SubmissionId> id = Errc::would_block;
        {
          Scope span(rec, kStagedSubmit);
          if (lane.pool) {
            id = lane.cq->submit_staged(*lane.pool, header, staged[i]);
          } else {
            id = lane.cq->submit(concat(header, staged[i]));
          }
        }
        if (id)
          ids.emplace(*id, i);
        else
          result.fail("crossing_paths: staged submit refused on " + lane.name);
        if (in_window_) window_.cq_payload_bytes += staged[i].size();
      }
      done += ring_and_reap(lane, rec, result, ids, header, staged.data());
      if (lane.pool && lane.pool->slots_free() != lane.pool->slots_total())
        result.fail("crossing_paths: region pool slot not returned on " +
                    lane.name);
      account(index, kCqStaged, before, machine.now(), kStaged);
    }
    return done;
  }

  /// Ring once, reap everything, and check each submission ended in
  /// exactly one event carrying its own echo.
  std::uint64_t ring_and_reap(
      Lane& lane, SpanRecorder* rec, Report& result,
      std::unordered_map<runtime::SubmissionId, std::size_t>& ids,
      BytesView header, const BytesView* payloads) {
    {
      Scope span(rec, kCqDoorbell);
      if (!lane.cq->doorbell().ok())
        result.fail("crossing_paths: doorbell failed on " + lane.name);
    }
    Result<std::vector<runtime::CqEvent>> events = Errc::would_block;
    {
      Scope span(rec, kCqReap);
      events = lane.cq->reap();
    }
    std::uint64_t done = 0;
    if (!events) {
      result.fail("crossing_paths: reap failed on " + lane.name);
      return 0;
    }
    for (const runtime::CqEvent& event : *events) {
      const auto it = ids.find(event.id);
      if (it == ids.end()) {
        result.fail("crossing_paths: event for an unknown or repeated id on " +
                    lane.name);
        continue;
      }
      if (in_window_) window_.cq_event_cycles.push_back(event.cycles);
      if (event.ok() && echoes(event.payload, header, payloads[it->second]))
        ++done;
      else
        result.fail("crossing_paths: cq echo mismatch on " + lane.name);
      ids.erase(it);
    }
    if (!ids.empty())
      result.fail("crossing_paths: submission without an event on " +
                  lane.name);
    return done;
  }

  std::unique_ptr<runtime::MetricsHub> hub_;
  std::unique_ptr<hw::Vendor> vendor_;
  std::unique_ptr<util::Xoshiro> rng_;
  Bytes source_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t round_ = 0;
  bool in_window_ = false;
  Window window_;
  std::map<std::string, runtime::InvocationCounters> hub_begin_;
};

}  // namespace

std::unique_ptr<Workload> make_crossing_paths() {
  return std::make_unique<CrossingPaths>();
}

}  // namespace perfbench
