// BatchChannel — the fixed-depth face of the completion queue.
//
// A thin adapter that holds one CompletionQueue (privately inherited) with
// a fixed, non-adaptive depth: submissions, ids, cancellation, deadlines,
// the epoch fence, tracing and the one-crossing flush are all the queue's
// (see completion_queue.h). What the adapter adds is its own older
// contract:
//   - flush() crosses once with everything queued, without counting a
//     doorbell or feeding an adaptive controller;
//   - flush() refuses with Errc::exhausted when the unread completions plus
//     the queued entries would exceed the depth; submissions stay queued
//     until the caller drains (next_completion / wait);
//   - next_completion() pops one completion at a time, would_block when
//     none is ready — it never crosses.
#pragma once

#include <cstddef>
#include <string>

#include "core/endpoint.h"
#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "substrate/substrate.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::runtime {

struct BatchChannelConfig {
  /// Ring depth; rounded up to a power of two. It bounds both the queued
  /// submissions and the unread completions — the backpressure contract.
  std::size_t depth = 64;
  /// Optional shared metrics sink; falls back to channel-local counters.
  MetricsHub* hub = nullptr;
  std::string label;
};

class BatchChannel : private CompletionQueue {
 public:
  /// Attach to one side of an assembly channel (epoch captured at attach;
  /// see CompletionQueue).
  explicit BatchChannel(const core::Endpoint& endpoint,
                        BatchChannelConfig config = {});
  /// Raw-substrate attach (tests, benches); captures the current epoch.
  BatchChannel(substrate::IsolationSubstrate& substrate,
               substrate::DomainId actor, substrate::ChannelId channel,
               BatchChannelConfig config = {});

  using CompletionQueue::cancel;
  using CompletionQueue::metrics;
  using CompletionQueue::pending;
  using CompletionQueue::submit;
  using CompletionQueue::submit_sg;
  using CompletionQueue::submit_staged;

  /// Cross the boundary once with everything queued (no-op when empty), or
  /// refuse with Errc::exhausted under the completion-space guard.
  Status flush();

  /// Pop the next completion; Errc::would_block when none is ready.
  Result<CqEvent> next_completion();

  /// Flush if `id` is still queued, then take `id`'s result (other
  /// completions stay readable). Errc::invalid_argument for an id that is
  /// neither queued nor unread.
  Result<Bytes> wait(SubmissionId id);

  std::size_t completions_ready() const { return ready(); }
};

}  // namespace lateral::runtime
