// Sampling cycle-profiler (lateral::health, FIG16).
//
// The trace layer answers "what happened to THIS request"; the profiler
// answers "where do the cycles GO" — continuously, in production, at a cost
// the hot path can afford. It piggybacks on the simulated machine's per-core
// clocks: every crossing already computes the cycles it is about to charge,
// so attributing them to (domain, crossing-phase, shard) is two stores —
// and only on sampled crossings (1 in sample_every), which is what makes the
// always-on claim honest.
//
//   - Samples land in fixed-size per-domain rings owned by the profiler,
//     NOT the domain: like the trace FlightRecorder, a profile survives
//     kill_domain, so a post-mortem includes where the corpse spent its
//     final cycles.
//   - The off path is a relaxed atomic load and a branch — conformance-
//     pinned to charge exactly zero simulated cycles (bench_fig16's
//     zero-when-off column). A *taken* sample charges CostModel::
//     profile_stamp, folded into the crossing charge like the trace stamp.
//   - Export is collapsed-stack text ("comp;shard#k;phase cycles"), the
//     flamegraph.pl / speedscope input format, emitted next to the Chrome
//     trace export. Retained-sample cycles are scaled by sample_every, the
//     standard sampling-profiler estimate.
//
// Layering: util only (like trace/trace.h), so the substrate layer can hold
// a CycleProfiler* without dependency cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/ring_registry.h"
#include "util/types.h"

namespace lateral::health {

/// Which side of a crossing the cycles belong to. Coarser than SpanPhase on
/// purpose: the profiler aggregates, it does not narrate.
enum class ProfilePhase : std::uint8_t {
  request,  // caller -> callee direction (flush for batches)
  reply,    // callee -> caller direction (drain for batches)
  send,     // async enqueue crossing
  receive,  // async dequeue crossing
};

constexpr std::string_view profile_phase_name(ProfilePhase p) {
  switch (p) {
    case ProfilePhase::request: return "request";
    case ProfilePhase::reply: return "reply";
    case ProfilePhase::send: return "send";
    case ProfilePhase::receive: return "receive";
  }
  return "unknown";
}

/// One attributed sample: `cycles` of crossing cost observed at machine
/// clock `at`, in phase `phase`. The owning ring supplies domain identity.
struct ProfileSample {
  ProfilePhase phase = ProfilePhase::request;
  Cycles cycles = 0;
  Cycles at = 0;
};

/// Fixed-size overwrite ring of the most recent samples of one domain.
/// Mutex-guarded, not a seqlock: samples arrive at 1/sample_every the rate
/// of crossings, so the lock is cold by construction; what matters is that
/// the storage outlives the domain (kill_domain leaves it readable).
class ProfileRing {
 public:
  explicit ProfileRing(std::size_t capacity)
      : slots_(capacity ? capacity : 1) {}

  ProfileRing(const ProfileRing&) = delete;
  ProfileRing& operator=(const ProfileRing&) = delete;

  void record(const ProfileSample& sample) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[recorded_ % slots_.size()] = sample;
    ++recorded_;
  }

  /// Retained samples, oldest first.
  std::vector<ProfileSample> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ProfileSample> out;
    const std::size_t retained =
        recorded_ < slots_.size() ? recorded_ : slots_.size();
    out.reserve(retained);
    for (std::size_t i = 0; i < retained; ++i)
      out.push_back(slots_[(recorded_ - retained + i) % slots_.size()]);
    return out;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    recorded_ = 0;
  }

  std::size_t capacity() const { return slots_.size(); }
  /// Total samples ever recorded (monotonic; survives wraparound).
  std::uint64_t recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<ProfileSample> slots_;
  std::uint64_t recorded_ = 0;
};

/// Owns the per-domain sample rings, the sampling counter and the master
/// switch. Rings live in the same util::RingRegistry as trace::Tracer's:
/// keyed by (substrate instance, domain id), labelled with the domain name,
/// created on first sample, and kept until scrub().
class CycleProfiler {
 public:
  struct Config {
    /// Samples retained per domain.
    std::size_t ring_capacity = 256;
    /// Sample 1 in N crossings (1 = every crossing; the bench's exact-cost
    /// pin uses 1, production uses a larger stride).
    std::uint64_t sample_every = 8;
  };

  CycleProfiler() : CycleProfiler(Config{}) {}
  explicit CycleProfiler(Config config)
      : config_{config.ring_capacity ? config.ring_capacity : 1,
                config.sample_every ? config.sample_every : 1} {}

  /// Master switch; attaching to a substrate is the compile-in, this is the
  /// runtime toggle whose off position must cost zero simulated cycles.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t sample_every() const { return config_.sample_every; }

  /// The sampling decision: true for 1 in sample_every calls. Callers make
  /// exactly one decision per crossing (both directions share it) so the
  /// charged profile_stamp matches one recorded crossing.
  bool should_sample() {
    return tick_.fetch_add(1, std::memory_order_relaxed) %
               config_.sample_every ==
           0;
  }

  /// Attribute `cycles` to (owner, domain) in `phase`. `label` names the
  /// ring on first use (the domain's component name, "imap#2" for shards).
  void sample(const void* owner, std::uint64_t domain, std::string_view label,
              ProfilePhase phase, Cycles cycles, Cycles at) {
    ring(owner, domain, label).record(ProfileSample{phase, cycles, at});
    samples_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Snapshot of one domain's samples; empty when it never sampled.
  std::vector<ProfileSample> snapshot(const void* owner,
                                      std::uint64_t domain) const {
    return rings_.snapshot(owner, domain);
  }

  /// Forget one domain's profile (after a supervisor reaped the corpse).
  void scrub(const void* owner, std::uint64_t domain) {
    rings_.scrub(owner, domain);
  }

  using RingRef = util::RingRegistry<ProfileRing>::Ref;
  std::vector<RingRef> rings() const { return rings_.rings(); }

  /// Total samples taken across all rings (monotonic).
  std::uint64_t samples_taken() const {
    return samples_.load(std::memory_order_relaxed);
  }

  /// Collapsed-stack (flamegraph) text over every ring's retained samples:
  /// one "frame1;frame2;... cycles" line per distinct stack, cycles scaled
  /// by sample_every (the sampling estimate of the true total). Shards
  /// ("imap#2") split into a component frame plus a shard frame, so a flame
  /// view groups a sharded hot domain under one root.
  std::string collapsed_stacks() const;

 private:
  ProfileRing& ring(const void* owner, std::uint64_t domain,
                    std::string_view label) {
    return rings_.find_or_create(owner, domain, label, [this] {
      return std::make_unique<ProfileRing>(config_.ring_capacity);
    });
  }

  Config config_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> samples_{0};
  util::RingRegistry<ProfileRing> rings_;
};

}  // namespace lateral::health
