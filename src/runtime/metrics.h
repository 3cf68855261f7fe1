// Runtime metrics — the observability half of the batching contract.
//
// Every CompletionQueue (BatchChannel is an adapter over one) and Executor
// accounts each accepted invocation to exactly one terminal counter
// (completed, cancelled, timed_out), and each refused one to `rejected`.
// That makes lossless backpressure *checkable*:
//   submitted == completed + cancelled + timed_out + in_flight()
// holds at every instant, and tests assert it under sustained overload.
//
// Cycle accounting: `sync_equivalent_cycles` is what the same invocations
// would have cost as one-at-a-time synchronous calls (per-message
// message_cost, both directions); `crossing_cycles` is what the batched
// path actually charged. The difference is the amortization the runtime
// exists to deliver, and bench_fig9 reports it per substrate.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace lateral::runtime {

/// One stats block flattened to (snake_case name, value) pairs — the single
/// registration point every exporter renders from. Each *Stats struct
/// exposes `fields()` returning this; adding a counter there is all it
/// takes to appear in text snapshots and dump_observability.
using MetricFields = std::vector<std::pair<std::string, std::uint64_t>>;

struct InvocationCounters {
  // --- Invocation lifecycle (lossless accounting) ---
  std::uint64_t submitted = 0;   // accepted into a queue
  std::uint64_t completed = 0;   // handler ran; reply (or refusal) delivered
  std::uint64_t rejected = 0;    // refused at submit: queue full
  std::uint64_t cancelled = 0;   // withdrawn before running
  std::uint64_t timed_out = 0;   // deadline expired before running

  // --- Batching shape ---
  std::uint64_t batches = 0;          // boundary crossings (flushes)
  std::uint64_t queue_depth_hwm = 0;  // submission-queue high-water mark
  /// batch_size_histogram[i] counts batches of size in [2^i, 2^(i+1)).
  std::array<std::uint64_t, 12> batch_size_histogram{};

  // --- Completion-queue shape (lateral::cq) ---
  /// Coalesced ring crossings: one doorbell flushes the submission ring and
  /// forms every completion into the ready queue for a single crossing
  /// charge. BatchChannel::flush crosses the same way but counts none.
  std::uint64_t doorbells = 0;
  /// The adaptive controller's current batch-depth target (a gauge, not a
  /// counter: the last exported value), plus its decision counters. A fixed
  /// (non-adaptive) queue exports its configured depth and zero decisions.
  std::uint64_t adaptive_depth = 0;
  std::uint64_t adaptive_grows = 0;    // depth doublings (throughput mode)
  std::uint64_t adaptive_shrinks = 0;  // depth halvings (latency mode)

  // --- Cycle accounting ---
  Cycles sync_equivalent_cycles = 0;  // cost had every call gone sync
  Cycles crossing_cycles = 0;         // cost the batched path paid

  // --- Zero-copy data plane ---
  /// Payload bytes that crossed by descriptor (scatter-gather) instead of
  /// being copied; the FIG11 bench and capacity planning read this.
  std::uint64_t zero_copy_bytes = 0;

  // --- Per-invocation latency (submit -> complete, simulated cycles) ---
  // Aggregate amortization (cycles_saved) hides the tail: a request that
  // waited a whole flush window paid for the batch's win. The histogram
  // makes p50/p99 derivable, and bench_fig9 reports both.
  Cycles latency_total_cycles = 0;
  std::uint64_t latency_count = 0;
  /// latency_histogram[i] counts invocations whose submit->complete span
  /// was in [2^i, 2^(i+1)) cycles (same bucketing as mttr_histogram).
  std::array<std::uint64_t, 32> latency_histogram{};

  /// Invocations accepted but not yet terminal (must equal live queue
  /// occupancy — the losslessness invariant).
  std::uint64_t in_flight() const {
    return submitted - completed - cancelled - timed_out;
  }

  /// Boundary-crossing cycles amortized away relative to the sync path.
  Cycles cycles_saved() const {
    return sync_equivalent_cycles > crossing_cycles
               ? sync_equivalent_cycles - crossing_cycles
               : 0;
  }

  void record_batch(std::size_t batch_size) {
    ++batches;
    std::size_t bucket = 0;
    while ((std::size_t{2} << bucket) <= batch_size &&
           bucket + 1 < batch_size_histogram.size())
      ++bucket;
    ++batch_size_histogram[bucket];
  }

  void record_depth(std::size_t depth) {
    if (depth > queue_depth_hwm) queue_depth_hwm = depth;
  }

  void record_latency(Cycles submit_to_complete) {
    latency_total_cycles += submit_to_complete;
    ++latency_count;
    std::size_t bucket = 0;
    while ((Cycles{2} << bucket) <= submit_to_complete &&
           bucket + 1 < latency_histogram.size())
      ++bucket;
    ++latency_histogram[bucket];
  }

  /// Fold in `delta`, the updates a holder accumulated off the lock (a
  /// flush's or a pump's worth), so they cost one locked statement. Counts
  /// and histograms add, the high-water mark keeps the larger; the adaptive
  /// gauges are not counts and are left alone.
  void add(const InvocationCounters& delta) {
    submitted += delta.submitted;
    completed += delta.completed;
    rejected += delta.rejected;
    cancelled += delta.cancelled;
    timed_out += delta.timed_out;
    batches += delta.batches;
    queue_depth_hwm = std::max(queue_depth_hwm, delta.queue_depth_hwm);
    for (std::size_t i = 0; i < batch_size_histogram.size(); ++i)
      batch_size_histogram[i] += delta.batch_size_histogram[i];
    doorbells += delta.doorbells;
    sync_equivalent_cycles += delta.sync_equivalent_cycles;
    crossing_cycles += delta.crossing_cycles;
    zero_copy_bytes += delta.zero_copy_bytes;
    latency_total_cycles += delta.latency_total_cycles;
    latency_count += delta.latency_count;
    for (std::size_t i = 0; i < latency_histogram.size(); ++i)
      latency_histogram[i] += delta.latency_histogram[i];
  }

  Cycles mean_latency_cycles() const {
    return latency_count == 0 ? 0 : latency_total_cycles / latency_count;
  }

  /// Upper bound of the histogram bucket holding the p-th percentile
  /// (p in [0, 1]), i.e. a conservative p50/p99 estimate from log2 buckets.
  Cycles latency_percentile(double p) const {
    if (latency_count == 0) return 0;
    if (p < 0) p = 0;
    if (p > 1) p = 1;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(p * static_cast<double>(latency_count - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < latency_histogram.size(); ++i) {
      seen += latency_histogram[i];
      if (seen > rank) return (Cycles{2} << i) - 1;
    }
    return latency_total_cycles;  // unreachable with consistent counters
  }

  MetricFields fields() const {
    return {{"submitted", submitted},
            {"completed", completed},
            {"rejected", rejected},
            {"cancelled", cancelled},
            {"timed_out", timed_out},
            {"in_flight", in_flight()},
            {"batches", batches},
            {"queue_depth_hwm", queue_depth_hwm},
            {"doorbells", doorbells},
            {"adaptive_depth", adaptive_depth},
            {"crossing_cycles", crossing_cycles},
            {"cycles_saved", cycles_saved()},
            {"zero_copy_bytes", zero_copy_bytes},
            {"mean_latency_cycles", mean_latency_cycles()},
            {"p99_latency_cycles", latency_percentile(0.99)}};
  }
};

/// Crash-recovery observability (lateral::supervisor). Same philosophy as
/// InvocationCounters: every detected death reaches exactly one terminal
/// outcome — restarted, or escalated after the budget ran out — and MTTR is
/// recorded per recovery so the fig10 bench can tabulate it.
struct RecoveryStats {
  std::uint64_t kills_detected = 0;   // heartbeat said: dead
  std::uint64_t restarts = 0;         // successful relaunches
  std::uint64_t restart_failures = 0; // relaunch attempts that failed
  std::uint64_t escalations = 0;      // budget exhausted -> degraded/halted
  std::uint64_t probe_cycles = 0;     // supervisor ticks that probed anyone
  /// Restarts that were update reverts: the new image failed probation and
  /// the supervisor relaunched the previous slot. Counted here (not only in
  /// UpdateStats) so flap-damping is auditable — a component revert-looping
  /// burns its restart budget and must hit the escalation cap.
  std::uint64_t update_reverts = 0;

  // --- Mean-time-to-recovery, in simulated cycles ---
  Cycles mttr_total_cycles = 0;  // sum over recoveries (detection -> serving)
  /// mttr_histogram[i] counts recoveries with MTTR in [2^i, 2^(i+1)) cycles.
  std::array<std::uint64_t, 32> mttr_histogram{};

  void record_recovery(Cycles mttr) {
    ++restarts;
    mttr_total_cycles += mttr;
    std::size_t bucket = 0;
    while ((Cycles{2} << bucket) <= mttr && bucket + 1 < mttr_histogram.size())
      ++bucket;
    ++mttr_histogram[bucket];
  }

  Cycles mean_mttr_cycles() const {
    return restarts == 0 ? 0 : mttr_total_cycles / restarts;
  }

  MetricFields fields() const {
    return {{"kills_detected", kills_detected},
            {"restarts", restarts},
            {"restart_failures", restart_failures},
            {"escalations", escalations},
            {"update_reverts", update_reverts},
            {"probe_cycles", probe_cycles},
            {"mean_mttr_cycles", mean_mttr_cycles()}};
  }
};

/// Fleet connectivity observability (lateral::fleet). The full/resumed
/// split is the subsystem's whole value proposition made measurable: every
/// accepted connection lands in exactly one of handshakes_full /
/// handshakes_resumed, every refused ticket in tickets_rejected (which then
/// falls back to a full handshake — the terminal counters still balance),
/// and admission_shed counts requests refused at the edge so overload is
/// visible as shedding, never as silent loss.
struct FleetStats {
  std::uint64_t handshakes_full = 0;     // three-message quote exchanges
  std::uint64_t handshakes_resumed = 0;  // one-RTT ticket resumptions
  std::uint64_t tickets_issued = 0;      // resumption tickets minted
  std::uint64_t tickets_rejected = 0;    // expired/replayed/unsealable/wrong id
  std::uint64_t admission_shed = 0;      // requests refused by the token bucket
  std::uint64_t verify_cache_hits = 0;   // quote verifications skipped
  std::uint64_t verify_cache_misses = 0; // full verifications performed
  std::uint64_t scrapes = 0;             // metrics snapshots served (sealed)
  std::uint64_t audit_pulls = 0;         // audit segments served (sealed)

  MetricFields fields() const {
    return {{"handshakes_full", handshakes_full},
            {"handshakes_resumed", handshakes_resumed},
            {"tickets_issued", tickets_issued},
            {"tickets_rejected", tickets_rejected},
            {"admission_shed", admission_shed},
            {"verify_cache_hits", verify_cache_hits},
            {"verify_cache_misses", verify_cache_misses},
            {"scrapes", scrapes},
            {"audit_pulls", audit_pulls}};
  }
};

/// Over-the-air update observability (lateral::update). Every accepted
/// UpdateManifest reaches exactly one terminal outcome — committed or
/// reverted — and every refused one exactly one refusal counter, so "did
/// the fleet converge" is a counter equation, not a log grep. Latency is
/// recorded per update (manifest accepted -> committed) and per revert
/// (probation failure detected -> old slot serving), mirroring
/// RecoveryStats::record_recovery so benches tabulate both the same way.
struct UpdateStats {
  std::uint64_t staged = 0;             // images fully transferred to a slot
  std::uint64_t verified = 0;           // staged images that passed all checks
  std::uint64_t committed = 0;          // probation survived; counter bumped
  std::uint64_t reverted = 0;           // probation failed; old slot restored
  std::uint64_t signature_refused = 0;  // manifest signature did not verify
  std::uint64_t rollback_refused = 0;   // version <= NV counter (replay)
  std::uint64_t image_refused = 0;      // staged bytes hash != manifest hash
  std::uint64_t bytes_streamed = 0;     // image bytes staged over the plane

  // --- Update latency (accept -> committed), simulated cycles ---
  Cycles update_total_cycles = 0;
  std::array<std::uint64_t, 32> update_histogram{};
  // --- Revert MTTR (failure detected -> old image serving), cycles ---
  Cycles revert_total_cycles = 0;
  std::array<std::uint64_t, 32> revert_histogram{};

  void record_commit(Cycles accept_to_commit) {
    ++committed;
    update_total_cycles += accept_to_commit;
    std::size_t bucket = 0;
    while ((Cycles{2} << bucket) <= accept_to_commit &&
           bucket + 1 < update_histogram.size())
      ++bucket;
    ++update_histogram[bucket];
  }

  void record_revert(Cycles detect_to_serving) {
    ++reverted;
    revert_total_cycles += detect_to_serving;
    std::size_t bucket = 0;
    while ((Cycles{2} << bucket) <= detect_to_serving &&
           bucket + 1 < revert_histogram.size())
      ++bucket;
    ++revert_histogram[bucket];
  }

  Cycles mean_update_cycles() const {
    return committed == 0 ? 0 : update_total_cycles / committed;
  }
  Cycles mean_revert_cycles() const {
    return reverted == 0 ? 0 : revert_total_cycles / reverted;
  }

  MetricFields fields() const {
    return {{"staged", staged},
            {"verified", verified},
            {"committed", committed},
            {"reverted", reverted},
            {"signature_refused", signature_refused},
            {"rollback_refused", rollback_refused},
            {"image_refused", image_refused},
            {"bytes_streamed", bytes_streamed},
            {"mean_update_cycles", mean_update_cycles()},
            {"mean_revert_cycles", mean_revert_cycles()}};
  }
};

/// Multi-core scheduling observability (FIG13). Published per label by the
/// Executor (steals/migrations + per-core run-queue depth gauges) and by
/// whoever drives a microkernel Scheduler (ipi_kicks), plus the machine's
/// contention counter and the substrate's serialization-gate stalls — the
/// four signals that attribute a flattened scaling curve: work moved
/// (migrations), work bounced (contention), work queued behind the
/// architecture (serial_stalls).
struct SchedStats {
  std::uint64_t steals = 0;       // domain queues taken by an idle worker
  std::uint64_t migrations = 0;   // domains that changed home core/worker
  std::uint64_t ipi_kicks = 0;    // cross-core kicks those moves sent
  std::uint64_t contention_events = 0;  // shared-bus/cache penalties charged
  std::uint64_t serial_stalls = 0;      // crossings queued at a serial gate
  Cycles serial_stall_cycles = 0;       // cycles spent in those queues
  /// Current run-queue depth per core (a gauge: last published value).
  std::vector<std::uint64_t> run_queue_depth;

  MetricFields fields() const {
    MetricFields out{{"steals", steals},
                     {"migrations", migrations},
                     {"ipi_kicks", ipi_kicks},
                     {"contention_events", contention_events},
                     {"serial_stalls", serial_stalls},
                     {"serial_stall_cycles", serial_stall_cycles}};
    for (std::size_t core = 0; core < run_queue_depth.size(); ++core)
      out.emplace_back("run_queue_depth_core" + std::to_string(core),
                       run_queue_depth[core]);
    return out;
  }
};

/// Health-plane observability (lateral::health, FIG16). Every watchdog
/// tick bumps evaluations; a confirmed multi-window breach lands in exactly
/// one of p99_breaches / error_breaches, and escalations counts the ones
/// that crossed into the supervisor's restart machinery. Detection latency
/// (first bad sample -> confirmed breach, simulated cycles) is recorded per
/// breach so bench_fig16 can tabulate it like MTTR.
struct HealthStats {
  std::uint64_t evaluations = 0;     // watchdog ticks that checked anyone
  std::uint64_t p99_breaches = 0;    // confirmed tail-latency breaches
  std::uint64_t error_breaches = 0;  // confirmed error-rate breaches
  std::uint64_t escalations = 0;     // breaches escalated to a restart
  Cycles detect_total_cycles = 0;    // sum over breaches (onset -> confirm)
  std::uint64_t detect_count = 0;

  void record_detection(Cycles onset_to_confirm) {
    detect_total_cycles += onset_to_confirm;
    ++detect_count;
  }

  Cycles mean_detect_cycles() const {
    return detect_count == 0 ? 0 : detect_total_cycles / detect_count;
  }

  MetricFields fields() const {
    return {{"evaluations", evaluations},
            {"p99_breaches", p99_breaches},
            {"error_breaches", error_breaches},
            {"escalations", escalations},
            {"mean_detect_cycles", mean_detect_cycles()}};
  }
};

/// Aggregates counters per domain label ("mail.ui->imap", "fig9.sgx", ...).
/// Channels configured with the same hub+label share one counter block, so
/// a component's traffic is queryable in one place regardless of how many
/// queues it opens.
///
/// Thread-safety: the label map is guarded by an internal mutex, and every
/// counter block lives in a Slot pairing it with its own mutex.
/// counters()/recovery() hand back a Ref — a locking pointer whose
/// operator-> holds the slot lock for the enclosing full expression — so a
/// channel incrementing its block on one thread and a reporter copying via
/// all()/snapshot() on another never race on the fields either. Refs stay
/// valid for the hub's lifetime (std::map node stability). The slot lock
/// is a leaf: no Ref access ever takes another lock underneath it.
class MetricsHub {
 public:
  /// One label's block plus the lock that makes field access safe.
  /// `mu` is mutable so const traversals (all()) can still lock to copy.
  template <typename T>
  struct Slot {
    mutable std::mutex mu;
    T value;
  };

  /// Expression-scoped locked view of a Slot (what Ref::operator-> yields;
  /// the temporary's lifetime — and thus the lock — spans the statement).
  template <typename T>
  class Locked {
   public:
    explicit Locked(const Slot<T>& slot)
        : lock_(slot.mu), value_(const_cast<T*>(&slot.value)) {}
    T* operator->() const { return value_; }

   private:
    std::unique_lock<std::mutex> lock_;
    T* const value_;
  };

  /// Locking pointer to one label's block: `ref->submitted++` locks the
  /// slot for that statement; snapshot() returns a consistent copy.
  /// Copyable, and valid as long as the owning hub (or Slot) lives.
  template <typename T>
  class Ref {
   public:
    Ref() = default;
    explicit Ref(Slot<T>* slot) : slot_(slot) {}
    Locked<T> operator->() const { return Locked<T>(*slot_); }
    T snapshot() const {
      std::lock_guard<std::mutex> lock(slot_->mu);
      return slot_->value;
    }
    explicit operator bool() const { return slot_ != nullptr; }

   private:
    Slot<T>* slot_ = nullptr;
  };

  using CounterSlot = Slot<InvocationCounters>;
  using CounterRef = Ref<InvocationCounters>;
  using RecoverySlot = Slot<RecoveryStats>;
  using RecoveryRef = Ref<RecoveryStats>;

  CounterRef counters(const std::string& label) {
    std::lock_guard<std::mutex> lock(mu_);
    return CounterRef(&counters_[label]);  // std::map: nodes stay stable
  }

  std::map<std::string, InvocationCounters> all() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, InvocationCounters> out;
    for (const auto& [label, slot] : counters_) {
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      out.emplace(label, slot.value);
    }
    return out;
  }

  RecoveryRef recovery(const std::string& label) {
    std::lock_guard<std::mutex> lock(mu_);
    return RecoveryRef(&recovery_[label]);
  }

  std::map<std::string, RecoveryStats> all_recovery() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, RecoveryStats> out;
    for (const auto& [label, slot] : recovery_) {
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      out.emplace(label, slot.value);
    }
    return out;
  }

  using FleetSlot = Slot<FleetStats>;
  using FleetRef = Ref<FleetStats>;

  FleetRef fleet(const std::string& label) {
    std::lock_guard<std::mutex> lock(mu_);
    return FleetRef(&fleet_[label]);
  }

  std::map<std::string, FleetStats> all_fleet() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, FleetStats> out;
    for (const auto& [label, slot] : fleet_) {
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      out.emplace(label, slot.value);
    }
    return out;
  }

  using UpdateSlot = Slot<UpdateStats>;
  using UpdateRef = Ref<UpdateStats>;

  UpdateRef update(const std::string& label) {
    std::lock_guard<std::mutex> lock(mu_);
    return UpdateRef(&update_[label]);
  }

  std::map<std::string, UpdateStats> all_update() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, UpdateStats> out;
    for (const auto& [label, slot] : update_) {
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      out.emplace(label, slot.value);
    }
    return out;
  }

  using SchedSlot = Slot<SchedStats>;
  using SchedRef = Ref<SchedStats>;

  SchedRef sched(const std::string& label) {
    std::lock_guard<std::mutex> lock(mu_);
    return SchedRef(&sched_[label]);
  }

  std::map<std::string, SchedStats> all_sched() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, SchedStats> out;
    for (const auto& [label, slot] : sched_) {
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      out.emplace(label, slot.value);
    }
    return out;
  }

  using HealthSlot = Slot<HealthStats>;
  using HealthRef = Ref<HealthStats>;

  HealthRef health(const std::string& label) {
    std::lock_guard<std::mutex> lock(mu_);
    return HealthRef(&health_[label]);
  }

  std::map<std::string, HealthStats> all_health() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, HealthStats> out;
    for (const auto& [label, slot] : health_) {
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      out.emplace(label, slot.value);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, CounterSlot> counters_;
  std::map<std::string, RecoverySlot> recovery_;
  std::map<std::string, FleetSlot> fleet_;
  std::map<std::string, UpdateSlot> update_;
  std::map<std::string, SchedSlot> sched_;
  std::map<std::string, HealthSlot> health_;
};

}  // namespace lateral::runtime
