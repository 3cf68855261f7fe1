// CompletionQueue — the runtime's one queue (lateral::cq).
//
// The paper's horizontal paradigm pays a boundary-crossing toll on every
// component interaction; at serving scale that toll dominates.
// CompletionQueue is the io_uring answer: a submission ring over one
// substrate channel, plus a ready queue of CqEvents. The client enqueues
// many invocations (no crossing); the DOORBELL carries everything queued
// across the isolation boundary in ONE crossing
// (IsolationSubstrate::call_batch_sg) and forms each completion straight
// into the ready queue, which reap / for_each_completion drain at the same
// granularity the completions were produced. BatchChannel is a thin
// fixed-depth adapter over this class; Executor futures, FleetServer and
// the benches all ride the same submit/flush/complete path.
//
// Batch depth is adaptive. An AdaptiveBatchController watches the windowed
// p50/p99 of submit->complete latency (the PR-5 log2 histograms, computed
// per doorbell window, not cumulatively) and the ring occupancy:
//   - under load (occupancy reached the target) it doubles the target, but
//     only while the tail has headroom — growth must not push the windowed
//     p99 past tail_factor x the best p50 ever observed (the latency floor,
//     which is what the smallest batches cost). On substrates whose
//     crossing is byte-dominated (NoC) this is what stops depth from
//     climbing into latency territory that batching cannot buy back;
//   - when the queue runs shallow it halves the target, so sparse traffic
//     is flushed in small, low-latency batches;
//   - a flush_age bound rings the doorbell for stragglers: an entry never
//     waits longer than flush_age cycles just because traffic went quiet.
// The chosen depth is exported through MetricsHub (adaptive_depth /
// adaptive_grows / adaptive_shrinks / doorbells) and, when tracing is on,
// as a SpanPhase::doorbell span whose size field carries the depth.
//
// Contract:
//   - submit paths are lossless-or-rejected: a full submission ring refuses
//     with Errc::exhausted (backpressure), and a refused submit consumes
//     nothing — not even a moved-in request buffer;
//   - every accepted invocation terminates in exactly one CqEvent:
//     completed (reply or refusal from the handler), cancelled, or
//     timed_out; the metrics counters mirror this one-to-one;
//   - one doorbell == at most one boundary crossing;
//   - deadlines are absolute simulated cycles, checked against the
//     substrate machine's clock at flush time;
//   - ids are the submission ring's sequence numbers (plus one, so 0 is
//     never an id): unique for the queue's lifetime, never reused when the
//     ring wraps. "Still queued" is a range check on the ring's cursors.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/endpoint.h"
#include "runtime/metrics.h"
#include "runtime/region_pool.h"
#include "runtime/spsc_ring.h"
#include "substrate/substrate.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::runtime {

using SubmissionId = std::uint64_t;

struct SubmitOptions {
  /// Absolute deadline in simulated machine cycles; 0 = no deadline. An
  /// invocation still queued when the clock passes its deadline completes
  /// with Errc::timed_out instead of running.
  Cycles deadline = 0;
};

/// One completed invocation, as formed by the flush. This is the
/// batch-path replacement for a per-call Future: plain data, no shared
/// state, no allocation beyond the payload itself.
struct CqEvent {
  SubmissionId id = 0;
  Errc status = Errc::ok;
  /// Reply payload (meaningful when status == ok).
  Bytes payload;
  /// Submit->complete simulated cycles (zero when the invocation never
  /// crossed: cancelled, deadline-expired, epoch-fenced).
  Cycles cycles = 0;

  bool ok() const { return status == Errc::ok; }
};

struct AdaptiveConfig {
  std::size_t min_batch = 4;
  std::size_t max_batch = 256;
  /// Starting depth target; 0 means min_batch. A fixed-depth queue
  /// (adaptive = false) stays at this value forever.
  std::size_t initial = 0;
  /// Tail headroom: growth stops once doubling could push the windowed p99
  /// past tail_factor x the latency floor (best windowed p50 seen), and a
  /// window that already violates the bound forces a shrink.
  std::uint64_t tail_factor = 8;
  /// maybe_doorbell() rings when the oldest queued entry has waited this
  /// many cycles, regardless of depth. 0 = never ring on age.
  Cycles flush_age = 0;
  bool adaptive = true;
};

/// Histogram-driven batch-depth controller. Pure policy — no rings, no
/// clocks — so the edge cases (cold start, saturation, tail damping) are
/// unit-testable without a substrate.
class AdaptiveBatchController {
 public:
  explicit AdaptiveBatchController(AdaptiveConfig config);

  std::size_t depth() const { return depth_; }
  std::uint64_t grows() const { return grows_; }
  std::uint64_t shrinks() const { return shrinks_; }

  /// Feed one doorbell window: `occupancy` = entries flushed by the
  /// doorbell, window_p50/p99 = that window's latency percentiles (0 when
  /// the window recorded nothing, e.g. every entry was cancelled — the
  /// cold-start case, where occupancy alone drives the decision).
  void observe(std::size_t occupancy, Cycles window_p50, Cycles window_p99);

 private:
  AdaptiveConfig config_;
  std::size_t depth_;
  /// Best (smallest) windowed p50 seen — what a small batch costs on this
  /// substrate; the reference the tail bound is measured against.
  Cycles floor_p50_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
};

/// Apply one doorbell's counter updates in one locked statement: the
/// window's `delta`, the doorbell itself and the gauges of the controller
/// the window fed (nullptr when the crossing failed and fed none: the
/// gauges keep their last published values). CompletionQueue::doorbell and
/// AsyncRemoteProxy::flush both publish through this.
void publish_doorbell(const MetricsHub::CounterRef& counters,
                      const InvocationCounters& delta,
                      const AdaptiveBatchController* controller);

struct CompletionQueueConfig {
  /// Submission ring depth; raised to at least adaptive.max_batch so the
  /// controller's deepest batch always fits, and rounded up to a power of
  /// two. This bound IS the backpressure contract.
  std::size_t depth = 512;
  AdaptiveConfig adaptive;
  /// Optional shared metrics sink; falls back to queue-local counters.
  MetricsHub* hub = nullptr;
  std::string label;
};

class CompletionQueue {
 public:
  /// Attach to one side of an assembly channel. The channel's epoch is
  /// captured at attach time: if the peer is restarted by a supervisor
  /// (epoch bump), every invocation queued here completes with
  /// Errc::stale_epoch at the next flush — delivered, not lost — and the
  /// caller re-attaches via a fresh Assembly::endpoint().
  explicit CompletionQueue(const core::Endpoint& endpoint,
                           CompletionQueueConfig config = {});
  /// Raw-substrate attach (tests, benches); captures the current epoch.
  CompletionQueue(substrate::IsolationSubstrate& substrate,
                  substrate::DomainId actor, substrate::ChannelId channel,
                  CompletionQueueConfig config = {});

  // --- Submission ring ------------------------------------------------------
  /// Enqueue an invocation; returns its id. Errc::exhausted when the
  /// submission ring is full — ring the doorbell and retry.
  Result<SubmissionId> submit(BytesView request, SubmitOptions opts = {});
  /// Move-in overload: adopts the request buffer instead of copying it, so
  /// the payload is copied exactly once (by the flush's delivery). A
  /// refused submit leaves `request` untouched for the retry.
  Result<SubmissionId> submit(Bytes&& request, SubmitOptions opts = {});
  /// Enqueue a scatter-gather invocation: a small inline header plus
  /// descriptors naming payload already staged in a shared grant region
  /// (see RegionPool::stage). The flush crosses with O(descriptors) bytes
  /// for this entry regardless of payload size.
  Result<SubmissionId> submit_sg(BytesView header,
                                 std::vector<substrate::RegionDescriptor>
                                     segments,
                                 SubmitOptions opts = {});
  /// Convenience producer path: lease a pool slot, stage `payload` into it
  /// (the single copy), and submit header+descriptor. The slot is returned
  /// to the pool when this submission's completion is formed — by then the
  /// peer's handler has consumed the bytes in place. Errc::exhausted means
  /// the pool (or the ring) is full; stale_epoch means the region was
  /// re-epoched (re-wire via Assembly::region_between).
  Result<SubmissionId> submit_staged(RegionPool& pool, BytesView header,
                                     BytesView payload,
                                     SubmitOptions opts = {});
  /// Withdraw a still-queued invocation; it completes as Errc::cancelled at
  /// the next flush. Errc::invalid_argument when `id` is not queued.
  Status cancel(SubmissionId id);

  // --- Doorbell -------------------------------------------------------------
  /// Ring unconditionally: flush the submission ring (one crossing), which
  /// forms every completion into the ready queue, then feed the adaptive
  /// controller with the window. No-op (no charge) when nothing is queued.
  Status doorbell();
  /// Ring only when policy says so: occupancy reached the controller's
  /// depth target, or the oldest queued entry is older than flush_age.
  Status maybe_doorbell();

  // --- Completion drain -----------------------------------------------------
  /// Drain up to `max` ready events (0 = all). Never blocks; rings the
  /// doorbell at most once (only when nothing is ready but submissions are
  /// queued). A non-zero `deadline` already in the past suppresses even
  /// that crossing: past-deadline reaps only return what is already ready.
  Result<std::vector<CqEvent>> reap(std::size_t max = 0, Cycles deadline = 0);
  /// Apply `fn` to every ready event (no doorbell, no crossing) and return
  /// how many were consumed.
  std::size_t for_each_completion(const std::function<void(CqEvent&)>& fn);

  /// Future-compatibility shim for sync callers: ring if `id` is still
  /// queued, then take `id`'s event (other ids' events stay in the ready
  /// queue). Errc::invalid_argument for an id that is neither queued nor
  /// ready (never issued, or already taken).
  Result<Bytes> wait(SubmissionId id);

  // --- Introspection --------------------------------------------------------
  std::size_t pending() const { return ring_.size(); }
  /// Submission ring slots: the most invocations queued at once. Queued
  /// ids are consecutive, so `id % capacity()` tells them apart.
  std::size_t capacity() const { return ring_.capacity(); }
  std::size_t ready() const { return ready_.size(); }
  /// The controller's current batch-depth target.
  std::size_t batch_depth() const { return controller_.depth(); }
  InvocationCounters metrics() const { return counters_.snapshot(); }

 private:
  friend class BatchChannel;

  struct Pending {
    SubmissionId id = 0;
    /// Inline payload (no segments), or SG header + descriptors.
    substrate::SgRequest request;
    /// Bytes the descriptors name (0 for inline entries).
    std::uint64_t payload = 0;
    Cycles deadline = 0;
    /// Pool to return the staged slot to once the completion is formed
    /// (submit_staged only).
    RegionPool* pool = nullptr;
    RegionPool::Slot slot;
    /// Trace context captured at submit (zero when the submitter's thread
    /// carried none): parent_span is this submission's own submit span, so
    /// the dispatch span the substrate mints at flush chains under it.
    trace::TraceContext ctx;
    /// Machine clock at submit; the completed path records submit->complete
    /// latency from it (always captured — latency accounting is not gated
    /// on tracing).
    Cycles submitted_at = 0;
  };

  /// True while `id` sits in the submission ring (issued, not yet flushed).
  bool queued(SubmissionId id) const {
    return id > ring_.head() && id <= ring_.tail();
  }
  /// The one admission point: refuses with Errc::exhausted (counted as
  /// rejected) BEFORE touching `request`, else moves it into the ring.
  Result<SubmissionId> enqueue(Bytes& request,
                               std::vector<substrate::RegionDescriptor>
                                   segments,
                               SubmitOptions opts, RegionPool* pool = nullptr,
                               RegionPool::Slot slot = {});
  /// The single terminal path for every accepted invocation: bump exactly
  /// one terminal counter in `delta`, close the submit span (when `phase`
  /// names a terminal span and the submission was traced), return the
  /// staged slot, and form the CqEvent. Every way out of flush() funnels
  /// through here so no path can leak a RegionPool slot or skip the
  /// accounting.
  void finish_pending(Pending& pending, InvocationCounters& delta,
                      std::uint64_t InvocationCounters::* counter,
                      std::optional<trace::SpanPhase> phase,
                      Result<Bytes> result, Cycles latency = 0);
  /// Cross the boundary once with everything queued. Cancelled and
  /// deadline-expired invocations complete without running; the rest go
  /// through IsolationSubstrate::call_batch_sg. No-op on an empty ring.
  /// Counts no doorbell and feeds no controller — doorbell() does that.
  /// Its counter updates accumulate in `delta`, for the caller to apply
  /// under one lock.
  void flush(InvocationCounters& delta);
  /// The crossing of a non-empty flush: `requests[i]` is `batch[i]`'s.
  void cross(std::vector<Pending>& batch,
             std::vector<substrate::SgRequest>& requests,
             InvocationCounters& delta);
  /// Remove `id`'s event from the ready queue and return its outcome;
  /// Errc::invalid_argument when it is not there.
  Result<Bytes> take(SubmissionId id);

  substrate::IsolationSubstrate& substrate_;
  substrate::DomainId actor_;
  substrate::ChannelId channel_;
  std::uint64_t epoch_;  // channel epoch at attach; flush checks it
  SpscRing<Pending> ring_;
  /// One cancel mark per ring slot, indexed like the ring itself.
  std::vector<bool> cancel_marks_;
  std::deque<CqEvent> ready_;
  AdaptiveBatchController controller_;
  /// Machine clock when the oldest currently-queued entry was submitted
  /// (meaningful only while pending() > 0); drives the flush_age bound.
  Cycles oldest_submitted_at_ = 0;
  Cycles flush_age_ = 0;
  /// flush()'s batch and request vectors, kept for their capacity.
  std::vector<Pending> batch_scratch_;
  std::vector<substrate::SgRequest> requests_scratch_;
  MetricsHub::CounterSlot own_counters_;
  MetricsHub::CounterRef counters_;
};

}  // namespace lateral::runtime
