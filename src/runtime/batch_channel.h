// BatchChannel — asynchronous, batched cross-domain invocation.
//
// The paper's horizontal paradigm pays a boundary-crossing toll on every
// component interaction; at serving scale that toll dominates. BatchChannel
// is the io_uring answer: an SPSC submission ring and completion ring
// layered over a substrate channel. The client enqueues many invocations
// (no crossing), then flush() carries the whole batch across the isolation
// boundary with the fixed crossing cost paid ONCE per direction
// (IsolationSubstrate::call_batch_sg), and replies come back through the
// completion ring tagged with their submission ids.
//
// Contract:
//   - submit() is lossless-or-rejected: a full submission ring refuses
//     with Errc::exhausted (backpressure) — nothing is ever dropped.
//   - flush() refuses with Errc::exhausted when the completion ring cannot
//     hold every would-be completion; submissions stay queued.
//   - Every accepted invocation terminates in exactly one of: completed
//     (reply or refusal from the handler), cancelled, timed_out. The
//     metrics counters mirror this one-to-one.
//   - Deadlines are absolute simulated cycles, checked against the
//     substrate machine's clock at flush time (the invocation's budget is
//     charged against the cost model like everything else).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

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

struct Completion {
  SubmissionId id = 0;
  Result<Bytes> result;
  /// Submit->complete simulated cycles for invocations that ran (zero for
  /// cancelled/expired/fenced ones — they never crossed). CompletionQueue
  /// surfaces this as CqEvent::cycles and the adaptive controller feeds on
  /// it, so it is carried on every completion, not recomputed by callers.
  Cycles latency = 0;
};

struct BatchChannelConfig {
  /// Ring depth (submission and completion each); rounded up to a power
  /// of two. This bound IS the backpressure contract.
  std::size_t depth = 64;
  /// Optional shared metrics sink; falls back to channel-local counters.
  MetricsHub* hub = nullptr;
  std::string label;
};

class BatchChannel {
 public:
  /// Attach to one side of an assembly channel. The channel's epoch is
  /// captured at attach time: if the peer is restarted by a supervisor
  /// (epoch bump), every invocation queued here completes with
  /// Errc::stale_epoch at the next flush — delivered, not lost — and the
  /// caller re-attaches via a fresh Assembly::endpoint().
  explicit BatchChannel(const core::Endpoint& endpoint,
                        BatchChannelConfig config = {});
  /// Raw-substrate attach (tests, benches); captures the current epoch.
  BatchChannel(substrate::IsolationSubstrate& substrate,
               substrate::DomainId actor, substrate::ChannelId channel,
               BatchChannelConfig config = {});

  /// Enqueue an invocation; returns its id. Errc::exhausted when the
  /// submission ring is full — resolve by flushing or draining.
  Result<SubmissionId> submit(BytesView request, SubmitOptions opts = {});
  /// Move-in overload: adopts the request buffer instead of copying it.
  /// On substrates without region support this is the whole fallback
  /// story — the payload is copied exactly once (by the flush's delivery),
  /// never re-copied into the ring.
  Result<SubmissionId> submit(Bytes&& request, SubmitOptions opts = {});

  /// Enqueue a scatter-gather invocation: a small inline header plus
  /// descriptors naming payload already staged in a shared grant region
  /// (see RegionPool::stage). The flush crosses with O(descriptors) bytes
  /// for this entry regardless of payload size.
  Result<SubmissionId> submit_sg(
      BytesView header, std::vector<substrate::RegionDescriptor> segments,
      SubmitOptions opts = {});

  /// Convenience producer path: lease a pool slot, stage `payload` into it
  /// (the single copy), and submit header+descriptor. The slot is returned
  /// to the pool automatically when this submission's completion is
  /// formed — by then the peer's handler has consumed the bytes in place.
  /// Staging failures are reported, not papered over: Errc::exhausted means
  /// the pool is empty (flush and retry), stale_epoch means the region was
  /// re-epoched (re-wire via Assembly::region_between). Callers that want
  /// the copy fallback call submit() instead.
  Result<SubmissionId> submit_staged(RegionPool& pool, BytesView header,
                                     BytesView payload,
                                     SubmitOptions opts = {});

  /// Withdraw a still-queued invocation. It will surface as a cancelled
  /// completion at the next flush (so the accounting stays lossless).
  /// Errc::invalid_argument when the id is unknown or already flushed.
  Status cancel(SubmissionId id);

  /// Cross the boundary once with everything queued. Cancelled and
  /// deadline-expired invocations complete without running; the rest go
  /// through IsolationSubstrate::call_batch_sg. No-op on an empty queue.
  Status flush();

  /// Pop the next completion; Errc::would_block when none is ready.
  Result<Completion> next_completion();

  /// Convenience: flush if `id` is still queued, then drain completions
  /// (stashing others for later retrieval) until `id`'s result arrives.
  Result<Bytes> wait(SubmissionId id);

  std::size_t pending() const { return submissions_.size(); }
  std::size_t completions_ready() const {
    return completions_.size() + stashed_.size();
  }

  InvocationCounters metrics() const { return counters_.snapshot(); }

  /// The live counter block this channel accounts to (the hub's label slot
  /// when configured, else the channel-local block). CompletionQueue layers
  /// its doorbell/adaptive gauges into the same block so one snapshot shows
  /// the whole queue pair.
  MetricsHub::CounterRef counters_ref() const { return counters_; }

 private:
  struct Pending {
    SubmissionId id = 0;
    Bytes request;  // inline payload, or the SG header
    std::vector<substrate::RegionDescriptor> segments;  // non-empty => SG
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

  Result<SubmissionId> enqueue(Pending pending);
  void complete(Completion completion);
  /// Return a staged slot (if any) — called exactly once per pending, when
  /// its completion is formed.
  static void release_slot(Pending& pending);
  /// The single terminal path for every accepted invocation: bump exactly
  /// one terminal counter, close the submit span (when `phase` names a
  /// terminal span and the submission was traced), return the staged slot,
  /// and form the completion. Every way out of flush() funnels through
  /// here so no path can leak a RegionPool slot or skip the accounting.
  void finish_pending(Pending& pending,
                      std::uint64_t InvocationCounters::* counter,
                      std::optional<trace::SpanPhase> phase,
                      Result<Bytes> result, Cycles latency = 0);

  substrate::IsolationSubstrate& substrate_;
  substrate::DomainId actor_;
  substrate::ChannelId channel_;
  std::uint64_t epoch_;  // channel epoch at attach; flush checks it
  SpscRing<Pending> submissions_;
  SpscRing<Completion> completions_;
  /// Completions popped while waiting for a different id.
  std::map<SubmissionId, Result<Bytes>> stashed_;
  std::set<SubmissionId> live_;       // ids currently in the submission ring
  std::set<SubmissionId> cancelled_;  // subset of live_
  SubmissionId next_id_ = 1;
  MetricsHub::CounterSlot own_counters_;
  MetricsHub::CounterRef counters_;
};

}  // namespace lateral::runtime
