// Executor — a work-stealing thread pool with per-domain run queues and a
// Future-style completion API (submit / poll / wait / wait_all).
//
// Scheduling model: every task is bound to a domain (a DomainKey). Tasks of
// one domain run in submission order and never concurrently — a domain is a
// single-threaded component; that is what the isolation model promises its
// handler. Each domain has a FIFO run queue; domain queues are dealt to a
// home worker by hash, and an idle worker steals whole domain queues from
// the back of a victim's deck (stealing whole queues, not single tasks,
// is what preserves per-domain ordering).
//
// The simulated hardware is not thread-safe (Machine::advance is a plain
// add), so the executor serializes all work touching one substrate through
// a striped lock. Parallelism is real across substrates/machines — which
// is also the physically honest model: one machine, one clock.
//
// Backpressure: per-domain queue depth is bounded; submit() refuses with
// Errc::exhausted when full. Deadlines (absolute simulated cycles) and
// cancellation resolve at dequeue time: the task completes with
// Errc::timed_out / Errc::cancelled instead of running. Together with the
// stats() counters this gives the same lossless accounting contract as
// CompletionQueue.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "substrate/substrate.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::runtime {

/// What a task is charged to: a domain on a substrate. `substrate` may be
/// null for work not tied to simulated hardware (no stripe lock, no
/// deadline clock).
struct DomainKey {
  substrate::IsolationSubstrate* substrate = nullptr;
  substrate::DomainId domain = substrate::kInvalidDomain;

  auto operator<=>(const DomainKey&) const = default;
};

/// Completion handle for one submitted task.
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }
  /// True once the task reached a terminal state (result available).
  bool poll() const;
  /// Block until terminal; returns the task's result (or Errc::cancelled /
  /// Errc::timed_out when it never ran).
  Result<Bytes> wait();
  /// Best-effort withdrawal: takes effect only if the task has not started.
  Status cancel();

 private:
  friend class Executor;
  struct State;
  std::shared_ptr<State> state_;
};

struct ExecutorConfig {
  std::size_t threads = 2;
  /// Per-domain run-queue bound (backpressure).
  std::size_t queue_depth = 256;
  /// Publish SchedStats (steals, migrations, per-core run-queue depth
  /// gauges) under `label` after every queue run. Optional: a null hub
  /// keeps the pre-FIG13 behaviour of stats() being the only export.
  MetricsHub* hub = nullptr;
  std::string label = "executor";
};

struct ExecutorStats {
  InvocationCounters counters;
  std::uint64_t steals = 0;  // domain queues migrated to an idle worker
  /// Domain queues observed running on a different worker than their last
  /// run — the cross-worker moves FIG13 attributes (a steal moves a queue;
  /// a migration is that move actually landing somewhere new).
  std::uint64_t migrations = 0;
  /// Completion-queue path: cq_calls invocations were carried by
  /// cq_batches doorbells, i.e. consecutive submit_call* tasks bound for
  /// the same endpoint crossed together instead of future-by-future.
  std::uint64_t cq_batches = 0;
  std::uint64_t cq_calls = 0;
};

class Executor {
 public:
  using Task = std::function<Result<Bytes>()>;

  explicit Executor(ExecutorConfig config = {});
  /// Joins workers; tasks still queued complete with Errc::cancelled.
  ~Executor();

  /// Enqueue `task` on `key`'s run queue. Errc::exhausted when that
  /// domain's queue is at its depth bound.
  Result<Future> submit(const DomainKey& key, Task task,
                        SubmitOptions opts = {});

  /// Plain call as a task, routed through the endpoint's CompletionQueue:
  /// consecutive submit_call* tasks bound for the same endpoint are popped
  /// together by the worker and cross the boundary under ONE doorbell —
  /// the future-per-call API on the outside, the CqEvent batch path on the
  /// inside. The Future resolves with the reply (or the queue's terminal
  /// error: cancelled, timed_out, stale_epoch after a peer restart).
  Result<Future> submit_call(const core::Endpoint& endpoint, Bytes request,
                             SubmitOptions opts = {});

  /// Zero-copy call as a task: when the task runs (under the endpoint
  /// substrate's stripe lock, in domain order), it leases a pool slot,
  /// stages `payload` (the path's one copy), and submits header+descriptor
  /// to the endpoint's CompletionQueue; the slot is returned when the
  /// completion is formed. The task co-owns the pool, so the pool outlives
  /// every deferred call staged through it, and the pool's free list is
  /// internally locked, so one pool may serve tasks keyed to different
  /// domains. Errors surface through the Future (exhausted = pool empty,
  /// stale_epoch = peer restarted; re-wire and resubmit). Like
  /// submit_call, consecutive same-endpoint tasks share one doorbell.
  Result<Future> submit_call_sg(const core::Endpoint& endpoint,
                                std::shared_ptr<RegionPool> pool,
                                Bytes header, Bytes payload,
                                SubmitOptions opts = {});

  /// Pin `key`'s tasks to simulated core `core` of its substrate's machine.
  /// Without an explicit affinity a domain's home core is its key hash
  /// modulo the machine's core count — the executor-side half of shard
  /// routing (one shard per core). Takes effect for tasks not yet running.
  Status set_affinity(const DomainKey& key, std::size_t core);
  /// The simulated core `key`'s tasks account to.
  std::size_t core_of(const DomainKey& key) const;

  /// Block until every task submitted so far is terminal.
  void wait_all();

  ExecutorStats stats() const;

 private:
  /// Stages one invocation into the endpoint's CompletionQueue; runs on the
  /// worker under the substrate stripe lock.
  using CqPrep = std::function<Result<SubmissionId>(CompletionQueue&)>;

  struct Item {
    std::shared_ptr<Future::State> state;
    Task task;
    /// Completion-queue item (submit_call*): `prep` stages the submission
    /// and `cq` is the shared per-(endpoint, epoch) queue it lands in.
    /// Consecutive items with the same `cq` are popped as one run and
    /// share a doorbell. Exactly one of task / prep is set.
    std::shared_ptr<CompletionQueue> cq;
    CqPrep prep;
    Cycles deadline = 0;
    /// Trace context of the submitting thread, captured at submit and
    /// re-installed around the task on the worker — the context follows the
    /// request across the thread hop, not the thread.
    trace::TraceContext ctx;
  };
  struct DomainQueue {
    DomainKey key;
    std::deque<Item> items;
    bool in_run_deck = false;  // scheduled on some worker's deck
    bool running = false;      // a worker is executing its head task
    /// Simulated core this domain's work accounts to (CoreLease around the
    /// task under the stripe lock). Hash-resolved at creation; overridden
    /// by set_affinity.
    std::size_t core = 0;
    /// Last worker that ran this queue (npos before the first run); a
    /// different worker picking it up is a migration.
    std::size_t last_worker = static_cast<std::size_t>(-1);
  };

  /// Cache key for per-endpoint CompletionQueues. The channel epoch is part
  /// of the key: a supervised restart re-epochs the channel, and the next
  /// submit_call against the fresh endpoint must get a fresh queue instead
  /// of one that would see stale_epoch forever.
  struct CqKey {
    substrate::IsolationSubstrate* substrate = nullptr;
    substrate::DomainId actor = substrate::kInvalidDomain;
    substrate::ChannelId channel = 0;
    std::uint64_t epoch = 0;
    /// Sharded components get one cached queue per (substrate, shard,
    /// core): a shard re-pinned to another core must not share a ring —
    /// rings carry per-core cycle stamps.
    std::size_t core = 0;

    auto operator<=>(const CqKey&) const = default;
  };

  void worker_loop(std::size_t index);
  std::shared_ptr<DomainQueue> next_queue_locked(std::size_t index);
  /// Resolve `key`'s home core (mu_ held): explicit affinity, else key hash
  /// modulo the substrate machine's core count.
  std::size_t core_for_locked(const DomainKey& key) const;
  /// Find-or-create `key`'s queue (mu_ held) with its core resolved.
  std::shared_ptr<DomainQueue>& queue_for_locked(const DomainKey& key);
  /// Push current SchedStats to the configured hub (mu_ held).
  void publish_sched_locked();
  void finish(const std::shared_ptr<Future::State>& state, Result<Bytes> r);
  std::mutex& stripe_for(const substrate::IsolationSubstrate* substrate);
  /// Enqueue a completion-queue item (shared plumbing of submit_call*).
  Result<Future> submit_cq(const core::Endpoint& endpoint, CqPrep prep,
                           SubmitOptions opts);
  /// Common enqueue tail (mu_ held): allocate the future state, bound the
  /// queue, schedule the domain.
  Result<Future> enqueue_locked(const DomainKey& key, Item item);
  /// Run a coalesced batch of same-queue items under the stripe lock and
  /// resolve their futures; returns each item's terminal counter.
  void run_cq_batch(const std::shared_ptr<DomainQueue>& queue,
                    std::vector<Item>& run,
                    std::vector<std::uint64_t InvocationCounters::*>&
                        outcomes);

  ExecutorConfig config_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::map<DomainKey, std::shared_ptr<DomainQueue>> domains_;
  /// Per-(endpoint, epoch) CompletionQueues (created under mu_; driven only
  /// under the owning substrate's stripe lock).
  std::map<CqKey, std::shared_ptr<CompletionQueue>> cqs_;
  /// Per-worker deck of runnable domain queues.
  std::vector<std::deque<std::shared_ptr<DomainQueue>>> decks_;
  std::vector<std::thread> workers_;
  std::uint64_t outstanding_ = 0;
  bool stopping_ = false;
  ExecutorStats stats_;
  /// Explicit core pins (set_affinity) consulted before the hash fallback.
  std::map<DomainKey, std::size_t> affinity_;
  /// Striped locks serializing access to each substrate's machine.
  static constexpr std::size_t kStripes = 16;
  std::array<std::mutex, kStripes> substrate_stripes_;
};

}  // namespace lateral::runtime
