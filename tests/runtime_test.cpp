// lateral::runtime — rings, batched channels, executor, async RPC.
//
// The load-bearing property throughout: lossless backpressure. Every
// accepted submission terminates in exactly one of {completed, cancelled,
// timed_out}, every refused submission surfaces a distinct Errc, and the
// counters reconcile: submitted == completed + cancelled + timed_out +
// in-flight, with rejections tallied separately.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "net/remote.h"
#include "net/secure_channel.h"
#include "runtime/async_proxy.h"
#include "runtime/batch_channel.h"
#include "runtime/executor.h"
#include "runtime/spsc_ring.h"
#include "test_support.h"

namespace lateral::runtime {
namespace {

using test::tc_spec;

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, FullAndEmpty) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.pop().has_value());
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push(3));  // refused, not overwritten
  EXPECT_EQ(*ring.pop(), 1);
  EXPECT_TRUE(ring.push(3));
  EXPECT_EQ(*ring.pop(), 2);
  EXPECT_EQ(*ring.pop(), 3);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FifoAcrossManyWraparounds) {
  SpscRing<std::size_t> ring(4);
  std::size_t next_in = 0, next_out = 0;
  // Stay near-full so the indices wrap dozens of times.
  for (int round = 0; round < 100; ++round) {
    while (ring.push(next_in)) ++next_in;
    ASSERT_TRUE(ring.full());
    EXPECT_EQ(*ring.pop(), next_out++);
    EXPECT_EQ(*ring.pop(), next_out++);
  }
  while (auto v = ring.pop()) EXPECT_EQ(*v, next_out++);
  EXPECT_EQ(next_in, next_out);
}

TEST(SpscRing, ThreadedProducerConsumer) {
  SpscRing<std::size_t> ring(8);
  constexpr std::size_t kCount = 20000;
  std::thread producer([&] {
    for (std::size_t i = 0; i < kCount;) {
      if (ring.push(i)) ++i;
    }
  });
  std::size_t expected = 0;
  while (expected < kCount) {
    if (auto v = ring.pop()) {
      ASSERT_EQ(*v, expected);  // order survives concurrency
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// BatchChannel on a concrete substrate.

class BatchChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("batch");
    substrate_ = *test::shared_registry().create("microkernel", *machine_);
    client_ = *substrate_->create_domain(tc_spec("client"));
    server_ = *substrate_->create_domain(tc_spec("server"));
    channel_ = *substrate_->create_channel(client_, server_);
    ASSERT_TRUE(substrate_
                    ->set_handler(
                        server_,
                        [this](const substrate::Invocation& inv)
                            -> Result<Bytes> {
                          ++handler_runs_;
                          const std::string request = to_string(inv.data);
                          if (request == "refuse") return Errc::access_denied;
                          return to_bytes("echo:" + request);
                        })
                    .ok());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> substrate_;
  substrate::DomainId client_ = 0, server_ = 0;
  substrate::ChannelId channel_ = 0;
  int handler_runs_ = 0;
};

TEST_F(BatchChannelTest, BatchRoundTripMatchesIds) {
  BatchChannel batch(*substrate_, client_, channel_);
  std::vector<SubmissionId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(*batch.submit(to_bytes("m" + std::to_string(i))));
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(handler_runs_, 8);
  // Retrieve out of submission order: ids, not positions, do the matching.
  for (int i = 7; i >= 0; --i) {
    auto reply = batch.wait(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(to_string(*reply), "echo:m" + std::to_string(i));
  }
}

TEST_F(BatchChannelTest, PerRequestRefusalsStayPerRequest) {
  BatchChannel batch(*substrate_, client_, channel_);
  const SubmissionId good = *batch.submit(to_bytes("fine"));
  const SubmissionId bad = *batch.submit(to_bytes("refuse"));
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(to_string(*batch.wait(good)), "echo:fine");
  EXPECT_EQ(batch.wait(bad).error(), Errc::access_denied);
}

TEST_F(BatchChannelTest, SubmissionRingBackpressure) {
  BatchChannel batch(*substrate_, client_, channel_, {.depth = 4});
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(batch.submit(to_bytes("x")).ok());
  EXPECT_EQ(batch.submit(to_bytes("overflow")).error(), Errc::exhausted);
  EXPECT_EQ(batch.metrics().rejected, 1u);
  EXPECT_EQ(batch.metrics().submitted, 4u);
  // Flushing drains the ring; submission is possible again.
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_TRUE(batch.submit(to_bytes("again")).ok());
}

TEST_F(BatchChannelTest, CompletionRingGuardKeepsSubmissionsQueued) {
  BatchChannel batch(*substrate_, client_, channel_, {.depth = 2});
  const SubmissionId first = *batch.submit(to_bytes("a"));
  ASSERT_TRUE(batch.flush().ok());
  // Two unread completions would not fit next to two more: flush refuses
  // and the queued submissions survive untouched.
  ASSERT_TRUE(batch.submit(to_bytes("b")).ok());
  ASSERT_TRUE(batch.submit(to_bytes("c")).ok());
  EXPECT_EQ(batch.flush().error(), Errc::exhausted);
  EXPECT_EQ(batch.pending(), 2u);
  // Reading a completion makes room, which unblocks the flush.
  EXPECT_EQ(to_string(*batch.wait(first)), "echo:a");
  EXPECT_TRUE(batch.flush().ok());
  EXPECT_EQ(batch.pending(), 0u);
}

TEST_F(BatchChannelTest, CancellationCompletesWithoutRunning) {
  BatchChannel batch(*substrate_, client_, channel_);
  const SubmissionId keep = *batch.submit(to_bytes("keep"));
  const SubmissionId drop = *batch.submit(to_bytes("drop"));
  ASSERT_TRUE(batch.cancel(drop).ok());
  EXPECT_EQ(batch.cancel(999).error(), Errc::invalid_argument);
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(handler_runs_, 1);  // only "keep" crossed the boundary
  EXPECT_EQ(batch.wait(drop).error(), Errc::cancelled);
  EXPECT_EQ(to_string(*batch.wait(keep)), "echo:keep");
  EXPECT_EQ(batch.metrics().cancelled, 1u);
}

TEST_F(BatchChannelTest, ExpiredDeadlineCompletesTimedOut) {
  BatchChannel batch(*substrate_, client_, channel_);
  // Domain/channel creation already advanced the simulated clock, so an
  // absolute deadline of 1 cycle is long gone.
  ASSERT_GT(substrate_->machine().now(), 1u);
  const SubmissionId late = *batch.submit(to_bytes("late"), {.deadline = 1});
  const SubmissionId fresh = *batch.submit(
      to_bytes("fresh"), {.deadline = substrate_->machine().now() + 100000});
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(handler_runs_, 1);
  EXPECT_EQ(batch.wait(late).error(), Errc::timed_out);
  EXPECT_EQ(to_string(*batch.wait(fresh)), "echo:fresh");
  EXPECT_EQ(batch.metrics().timed_out, 1u);
}

TEST_F(BatchChannelTest, BatchLevelRefusalDeliveredToEveryEntry) {
  // A channel the actor does not hold: the whole batch is refused, and the
  // refusal is delivered as every entry's completion — not silently lost.
  BatchChannel batch(*substrate_, server_ + 17, channel_);
  const SubmissionId a = *batch.submit(to_bytes("a"));
  const SubmissionId b = *batch.submit(to_bytes("b"));
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(batch.wait(a).error(), Errc::access_denied);
  EXPECT_EQ(batch.wait(b).error(), Errc::access_denied);
  EXPECT_EQ(batch.metrics().in_flight(), 0u);
}

TEST_F(BatchChannelTest, DeadPeerRefusalDeliveredToEveryEntry) {
  BatchChannel batch(*substrate_, client_, channel_);
  const SubmissionId a = *batch.submit(to_bytes("a"));
  const SubmissionId b = *batch.submit(to_bytes("b"));
  // The server crashes with work in flight: every queued invocation still
  // completes — promptly, with the honest error — and nothing is lost.
  ASSERT_TRUE(substrate_->kill_domain(server_).ok());
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(handler_runs_, 0);
  EXPECT_EQ(batch.wait(a).error(), Errc::domain_dead);
  EXPECT_EQ(batch.wait(b).error(), Errc::domain_dead);
  EXPECT_EQ(batch.metrics().in_flight(), 0u);
  EXPECT_EQ(batch.metrics().completed, 2u);
}

TEST_F(BatchChannelTest, EpochFenceDeliversStaleEpoch) {
  BatchChannel batch(*substrate_, client_, channel_);
  const SubmissionId a = *batch.submit(to_bytes("a"));
  const SubmissionId b = *batch.submit(to_bytes("b"));
  // A supervised restart re-epochs the channel under the adapter.
  ASSERT_TRUE(substrate_->bump_channel_epoch(channel_).ok());
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(handler_runs_, 0);  // nothing addressed to the old life runs
  EXPECT_EQ(batch.wait(a).error(), Errc::stale_epoch);
  EXPECT_EQ(batch.wait(b).error(), Errc::stale_epoch);
  EXPECT_EQ(batch.metrics().in_flight(), 0u);
  // Re-attaching captures the new epoch; the channel serves again.
  BatchChannel fresh(*substrate_, client_, channel_);
  const SubmissionId c = *fresh.submit(to_bytes("c"));
  ASSERT_TRUE(fresh.flush().ok());
  EXPECT_EQ(to_string(*fresh.wait(c)), "echo:c");
}

TEST_F(BatchChannelTest, LosslessAccountingInvariant) {
  BatchChannel batch(*substrate_, client_, channel_, {.depth = 8});
  std::vector<SubmissionId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(*batch.submit(to_bytes("m" + std::to_string(i))));
  ASSERT_TRUE(batch.cancel(ids[1]).ok());
  ASSERT_TRUE(batch.cancel(ids[4]).ok());
  // Rejected submissions are tallied but never enter the pipeline.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(batch.submit(to_bytes("no")).error(), Errc::exhausted);
  ASSERT_TRUE(batch.flush().ok());
  while (batch.next_completion().ok()) {
  }
  const InvocationCounters& m = batch.metrics();
  EXPECT_EQ(m.submitted, 8u);
  EXPECT_EQ(m.rejected, 4u);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.cancelled, 2u);
  EXPECT_EQ(m.timed_out, 0u);
  EXPECT_EQ(m.submitted, m.completed + m.cancelled + m.timed_out);
  EXPECT_EQ(m.in_flight(), 0u);
  EXPECT_EQ(m.queue_depth_hwm, 8u);
}

TEST_F(BatchChannelTest, AmortizationBeatsPerCallCosts) {
  const Cycles before_sync = substrate_->machine().now();
  for (int i = 0; i < 16; ++i)
    ASSERT_TRUE(substrate_->call(client_, channel_, to_bytes("one")).ok());
  const Cycles sync_cost = substrate_->machine().now() - before_sync;

  BatchChannel batch(*substrate_, client_, channel_);
  for (int i = 0; i < 16; ++i)
    ASSERT_TRUE(batch.submit(to_bytes("one")).ok());
  const Cycles before_batch = substrate_->machine().now();
  ASSERT_TRUE(batch.flush().ok());
  const Cycles batch_cost = substrate_->machine().now() - before_batch;

  EXPECT_LT(batch_cost, sync_cost);
  const InvocationCounters& m = batch.metrics();
  EXPECT_EQ(m.crossing_cycles, batch_cost);
  EXPECT_EQ(m.sync_equivalent_cycles, sync_cost);
  EXPECT_EQ(m.cycles_saved(), sync_cost - batch_cost);
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.batch_size_histogram[4], 1u);  // 16 lands in bucket 2^4
}

TEST_F(BatchChannelTest, LatencyAccountedPerInvocationWithoutTracing) {
  // Latency is part of the base metrics contract — no tracer attached.
  BatchChannel batch(*substrate_, client_, channel_);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(batch.submit(to_bytes("m")).ok());
  ASSERT_TRUE(batch.flush().ok());
  const InvocationCounters& m = batch.metrics();
  EXPECT_EQ(m.latency_count, 4u);
  EXPECT_GT(m.latency_total_cycles, 0u);
  EXPECT_GT(m.mean_latency_cycles(), 0u);
  // Percentile estimates are bucket upper bounds: monotone in p, and p99
  // bounds the worst submit->complete span from above.
  EXPECT_LE(m.latency_percentile(0.5), m.latency_percentile(0.99));
  EXPECT_GE(m.latency_percentile(0.99), m.latency_total_cycles / 4);
}

TEST(InvocationCountersTest, LatencyHistogramAndPercentiles) {
  InvocationCounters c;
  // Buckets: [2^i, 2^(i+1)). 1 -> bucket 0, 3 -> bucket 1, 1000 -> bucket 9.
  c.record_latency(1);
  c.record_latency(3);
  c.record_latency(3);
  c.record_latency(1000);
  EXPECT_EQ(c.latency_count, 4u);
  EXPECT_EQ(c.latency_histogram[0], 1u);
  EXPECT_EQ(c.latency_histogram[1], 2u);
  EXPECT_EQ(c.latency_histogram[9], 1u);
  EXPECT_EQ(c.mean_latency_cycles(), (1u + 3 + 3 + 1000) / 4);
  EXPECT_EQ(c.latency_percentile(0.0), 1u);    // bucket 0 upper bound: 2^1-1
  EXPECT_EQ(c.latency_percentile(0.5), 3u);    // bucket 1 upper bound: 2^2-1
  EXPECT_EQ(c.latency_percentile(1.0), 1023u); // bucket 9 upper bound: 2^10-1
  EXPECT_EQ(InvocationCounters{}.latency_percentile(0.99), 0u);
}

TEST(MetricsHubTest, ConcurrentLabelRegistrationIsSafe) {
  // The TSan regression for the hub's locking: many threads register
  // distinct labels (mutating the map) and hammer one *shared* label's
  // fields through the locking Ref, while a reader snapshots via all().
  // Pre-fix this raced on std::map rebalancing and on the field copies.
  MetricsHub hub;
  constexpr int kThreads = 8;
  constexpr int kLabels = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hub, t] {
      MetricsHub::CounterRef shared = hub.counters("shared");
      for (int i = 0; i < kLabels; ++i) {
        MetricsHub::CounterRef c =
            hub.counters("worker-" + std::to_string(t) + "-" +
                         std::to_string(i));
        ++c->submitted;  // slot-locked for the statement
        ++c->completed;
        ++shared->submitted;  // contended across all workers
        hub.recovery("rec-" + std::to_string(t))->kills_detected = 1;
      }
    });
  }
  std::thread reader([&hub] {
    for (int i = 0; i < 100; ++i) {
      const auto snapshot = hub.all();  // copies each slot under its lock
      for (const auto& [label, c] : snapshot)
        if (label != "shared") EXPECT_LE(c.completed, 1u);
      (void)hub.all_recovery();
    }
  });
  for (std::thread& worker : workers) worker.join();
  reader.join();
  EXPECT_EQ(hub.all().size(), kThreads * kLabels + 1u);
  EXPECT_EQ(hub.all_recovery().size(), kThreads);
  // Refs handed out earlier stay stable (std::map node stability), and the
  // contended label lost no increments.
  EXPECT_EQ(hub.counters("worker-0-0")->submitted, 1u);
  EXPECT_EQ(hub.counters("shared").snapshot().submitted,
            static_cast<std::uint64_t>(kThreads) * kLabels);
}

// ---------------------------------------------------------------------------
// Executor

// ---------------------------------------------------------------------------
// Zero-copy data plane: RegionPool + scatter-gather BatchChannel

class ZeroCopyBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("zerocopy");
    substrate_ = *test::shared_registry().create("microkernel", *machine_);
    client_ = *substrate_->create_domain(tc_spec("client"));
    server_ = *substrate_->create_domain(tc_spec("server"));
    channel_ = *substrate_->create_channel(client_, server_);
    region_ = *substrate_->create_region(client_, server_, 4096);
    ASSERT_TRUE(substrate_->map_region(client_, region_).ok());
    ASSERT_TRUE(substrate_->map_region(server_, region_).ok());
    ASSERT_TRUE(
        substrate_
            ->set_handler(
                server_,
                [this](const substrate::Invocation& inv) -> Result<Bytes> {
                  ++handler_runs_;
                  // Consumer side of the plane: header inline, payload read
                  // in place from the grant region.
                  std::string assembled = to_string(inv.data);
                  for (const substrate::RegionDescriptor& seg : inv.segments) {
                    auto view = substrate_->region_view(server_, seg);
                    if (!view) return view.error();
                    assembled.append(view->begin(), view->end());
                  }
                  return to_bytes("got:" + assembled);
                })
            .ok());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> substrate_;
  substrate::DomainId client_ = 0, server_ = 0;
  substrate::ChannelId channel_ = 0;
  substrate::RegionId region_ = 0;
  int handler_runs_ = 0;
};

TEST_F(ZeroCopyBatchTest, RegionPoolLeaseStageRelease) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  EXPECT_EQ(pool.slots_total(), 4u);
  EXPECT_EQ(pool.slots_free(), 4u);

  auto slot = pool.acquire();
  ASSERT_TRUE(slot.ok());
  auto desc = pool.stage(*slot, to_bytes("payload"));
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->length, 7u);
  auto view = substrate_->region_view(server_, *desc);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(to_string(*view), "payload");

  // Oversized payloads are refused at stage time, not truncated.
  EXPECT_EQ(pool.stage(*slot, Bytes(2048, 1)).error(), Errc::invalid_argument);
  EXPECT_EQ(pool.stage(*slot, Bytes{}).error(), Errc::invalid_argument);

  // Drain the pool: the empty pool is backpressure, not an error state.
  auto s2 = pool.acquire(), s3 = pool.acquire(), s4 = pool.acquire();
  ASSERT_TRUE(s2.ok() && s3.ok() && s4.ok());
  EXPECT_EQ(pool.acquire().error(), Errc::exhausted);
  pool.release(*slot);
  EXPECT_EQ(pool.slots_free(), 1u);
  EXPECT_TRUE(pool.acquire().ok());
}

TEST_F(ZeroCopyBatchTest, SubmitSgDeliversInPlacePayload) {
  BatchChannel batch(*substrate_, client_, channel_);
  // A bulk payload — the path's target case. (Below ~16 bytes the
  // descriptor wire bytes would cost more than the payload they replace.)
  const Bytes bulk(2048, 0xB7);
  ASSERT_TRUE(substrate_->region_write(client_, region_, 0, bulk).ok());
  auto desc = substrate_->make_descriptor(client_, region_, 0, bulk.size());
  ASSERT_TRUE(desc.ok());
  const SubmissionId id = *batch.submit_sg(to_bytes("hdr|"), {*desc});
  EXPECT_EQ(batch.submit_sg(to_bytes("x"), {}).error(),
            Errc::invalid_argument);  // SG without segments is a misuse
  ASSERT_TRUE(batch.flush().ok());
  Bytes expected = to_bytes("got:hdr|");
  expected.insert(expected.end(), bulk.begin(), bulk.end());
  EXPECT_EQ(*batch.wait(id), expected);
  EXPECT_EQ(batch.metrics().zero_copy_bytes, bulk.size());
  // The descriptor crossed, not the payload: the batched crossing is
  // cheaper than the payload-copying sync equivalent it replaced.
  EXPECT_LT(batch.metrics().crossing_cycles,
            batch.metrics().sync_equivalent_cycles);
}

TEST_F(ZeroCopyBatchTest, SubmitStagedReturnsSlotAtCompletion) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  BatchChannel batch(*substrate_, client_, channel_);
  const SubmissionId id =
      *batch.submit_staged(pool, to_bytes("h:"), to_bytes("staged"));
  EXPECT_EQ(pool.slots_free(), 3u);  // slot leased while in flight
  ASSERT_TRUE(batch.flush().ok());
  // By completion time the handler has consumed the bytes in place, so the
  // slot is already back in the pool.
  EXPECT_EQ(pool.slots_free(), 4u);
  EXPECT_EQ(to_string(*batch.wait(id)), "got:h:staged");

  // The pool sustains repeated bursts without leaking slots.
  for (int round = 0; round < 3; ++round) {
    std::vector<SubmissionId> ids;
    for (int i = 0; i < 4; ++i)
      ids.push_back(
          *batch.submit_staged(pool, to_bytes("r:"), to_bytes("p")));
    EXPECT_EQ(pool.slots_free(), 0u);
    EXPECT_EQ(batch.submit_staged(pool, to_bytes("r:"), to_bytes("p")).error(),
              Errc::exhausted);  // pool empty = backpressure, fail closed
    ASSERT_TRUE(batch.flush().ok());
    EXPECT_EQ(pool.slots_free(), 4u);
    for (const SubmissionId i : ids) EXPECT_TRUE(batch.wait(i).ok());
  }
}

TEST_F(ZeroCopyBatchTest, MixedBatchCompletesInlineAndSgEntries) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  BatchChannel batch(*substrate_, client_, channel_);
  const SubmissionId inline_id = *batch.submit(to_bytes("plain"));
  const SubmissionId sg_id =
      *batch.submit_staged(pool, to_bytes("sg:"), to_bytes("body"));
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(handler_runs_, 2);  // one crossing, both delivered
  EXPECT_EQ(batch.metrics().batches, 1u);
  EXPECT_EQ(to_string(*batch.wait(inline_id)), "got:plain");
  EXPECT_EQ(to_string(*batch.wait(sg_id)), "got:sg:body");
}

TEST_F(ZeroCopyBatchTest, EpochFenceReleasesStagedSlots) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  BatchChannel batch(*substrate_, client_, channel_);
  const SubmissionId a =
      *batch.submit_staged(pool, to_bytes("h"), to_bytes("x"));
  const SubmissionId b =
      *batch.submit_staged(pool, to_bytes("h"), to_bytes("y"));
  EXPECT_EQ(pool.slots_free(), 2u);
  ASSERT_TRUE(substrate_->bump_channel_epoch(channel_).ok());
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(batch.wait(a).error(), Errc::stale_epoch);
  EXPECT_EQ(batch.wait(b).error(), Errc::stale_epoch);
  EXPECT_EQ(pool.slots_free(), 4u);  // fenced completions still free slots
  EXPECT_EQ(batch.metrics().in_flight(), 0u);
}

TEST_F(ZeroCopyBatchTest, CancelledStagedSubmissionFreesItsSlot) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  BatchChannel batch(*substrate_, client_, channel_);
  const SubmissionId drop =
      *batch.submit_staged(pool, to_bytes("h"), to_bytes("x"));
  ASSERT_TRUE(batch.cancel(drop).ok());
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(handler_runs_, 0);
  EXPECT_EQ(batch.wait(drop).error(), Errc::cancelled);
  EXPECT_EQ(pool.slots_free(), 4u);
}

TEST_F(ZeroCopyBatchTest, RevokedRegionFailsStagingClosed) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  ASSERT_TRUE(substrate_->revoke_region(region_).ok());
  auto slot = pool.acquire();
  ASSERT_TRUE(slot.ok());  // the free list is local; the substrate decides
  EXPECT_EQ(pool.stage(*slot, to_bytes("x")).error(), Errc::stale_epoch);
}

TEST_F(ZeroCopyBatchTest, ExecutorSubmitCallSgDeliversThroughFuture) {
  const std::uint64_t epoch = *substrate_->channel_epoch(channel_);
  const core::Endpoint endpoint(substrate_.get(), channel_, client_, epoch);
  auto pool =
      std::make_shared<RegionPool>(*substrate_, client_, region_, 4096, 1024);
  Executor executor({.threads = 2});
  auto future = executor.submit_call_sg(endpoint, pool, to_bytes("exec:"),
                                        to_bytes("task-payload"));
  ASSERT_TRUE(future.ok());
  auto reply = future->wait();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "got:exec:task-payload");
  executor.wait_all();
  EXPECT_EQ(pool->slots_free(), 4u);  // slot returned after the call
}

TEST_F(ZeroCopyBatchTest, ExecutorSubmitCallSgSurvivesCallerDroppingPool) {
  const std::uint64_t epoch = *substrate_->channel_epoch(channel_);
  const core::Endpoint endpoint(substrate_.get(), channel_, client_, epoch);
  Executor executor({.threads = 2});
  Future future;
  {
    auto pool = std::make_shared<RegionPool>(*substrate_, client_, region_,
                                             4096, 1024);
    auto submitted = executor.submit_call_sg(endpoint, pool, to_bytes("exec:"),
                                             to_bytes("late"));
    ASSERT_TRUE(submitted.ok());
    future = std::move(*submitted);
  }  // caller's reference gone; the queued task co-owns the pool
  auto reply = future.wait();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "got:exec:late");
  executor.wait_all();
}

TEST_F(ZeroCopyBatchTest, RegionPoolIgnoresDoubleRelease) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  auto a = pool.acquire();
  ASSERT_TRUE(a.ok());
  pool.release(*a);
  pool.release(*a);  // stale second release must not mint a duplicate slot
  EXPECT_EQ(pool.slots_free(), 4u);
  auto x = pool.acquire();
  auto y = pool.acquire();
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_NE(x->offset, y->offset);
}

// ---------------------------------------------------------------------------
// RegionPool sharding (FIG13): per-shard arenas, cache-line-strided slots

TEST(RegionPoolSharded, PerShardArenasWithCacheLineStride) {
  auto machine = test::make_smp_machine(4, "pool-smp");
  auto sub = *test::shared_registry().create("microkernel", *machine);
  const auto client = *sub->create_domain(tc_spec("client"));
  const auto server = *sub->create_domain(tc_spec("server"));
  const auto region = *sub->create_region(client, server, 1 << 16);
  ASSERT_TRUE(sub->map_region(client, region).ok());
  ASSERT_TRUE(sub->map_region(server, region).ok());

  // 100-byte slots on a multi-core machine pad to the cache-line stride:
  // two slots (and two shards' free-list heads) never share a line.
  RegionPool pool(*sub, client, region, 1 << 16, 100, 4);
  EXPECT_EQ(pool.shard_count(), 4u);
  EXPECT_EQ(pool.slot_bytes(), 100u);
  const std::size_t line = machine->costs().cache_line_bytes;
  EXPECT_EQ(pool.slot_stride() % line, 0u);
  EXPECT_GE(pool.slot_stride(), 100u);
  EXPECT_LT(pool.slot_stride(), 100u + line);
  ASSERT_GT(pool.slots_total(), 0u);
  EXPECT_EQ(pool.slots_total() % 4, 0u);  // symmetric arenas

  // Arena bases are one whole span apart; the first lease from each shard
  // is that shard's base, stride-aligned.
  const std::size_t per_shard = pool.slots_total() / 4;
  const std::uint64_t span = per_shard * pool.slot_stride();
  for (std::size_t s = 0; s < 4; ++s) {
    auto slot = pool.acquire(s);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->offset, s * span);
    EXPECT_EQ(slot->offset % pool.slot_stride(), 0u);
    pool.release(*slot);
  }
}

TEST(RegionPoolSharded, StrictShardAcquireAndOwnerRouting) {
  auto machine = test::make_smp_machine(2, "pool-strict");
  auto sub = *test::shared_registry().create("microkernel", *machine);
  const auto client = *sub->create_domain(tc_spec("client"));
  const auto server = *sub->create_domain(tc_spec("server"));
  const auto region = *sub->create_region(client, server, 4096);
  ASSERT_TRUE(sub->map_region(client, region).ok());
  ASSERT_TRUE(sub->map_region(server, region).ok());

  RegionPool pool(*sub, client, region, 4096, 256, 2);
  const std::size_t per_shard = pool.slots_total() / 2;
  ASSERT_GT(per_shard, 0u);

  // acquire(shard) never borrows from another arena: draining shard 0
  // exhausts it even though shard 1 is untouched.
  std::vector<RegionPool::Slot> held;
  for (std::size_t i = 0; i < per_shard; ++i) {
    auto slot = pool.acquire(0);
    ASSERT_TRUE(slot.ok());
    held.push_back(*slot);
  }
  EXPECT_EQ(pool.acquire(0).error(), Errc::exhausted);
  EXPECT_EQ(pool.slots_free(0), 0u);
  EXPECT_EQ(pool.slots_free(1), per_shard);
  EXPECT_EQ(pool.acquire(2).error(), Errc::invalid_argument);

  // The shard-blind acquire() still finds shard 1's slots (pre-FIG13
  // behaviour for unsharded callers).
  auto spill = pool.acquire();
  ASSERT_TRUE(spill.ok());
  EXPECT_GE(spill->offset, per_shard * pool.slot_stride());
  pool.release(*spill);

  // release() routes by offset to the owning arena, not round-robin.
  pool.release(held.back());
  EXPECT_EQ(pool.slots_free(0), 1u);
  EXPECT_EQ(pool.slots_free(1), per_shard);
  for (std::size_t i = 0; i + 1 < held.size(); ++i) pool.release(held[i]);
  EXPECT_EQ(pool.slots_free(), pool.slots_total());
}

TEST(RegionPoolSharded, SingleCoreMachineKeepsDenseLayout) {
  // N=1 bit-exactness: without a live contention model there is nothing to
  // pad against, so offsets are dense — byte for byte the pre-FIG13 layout,
  // even when the pool itself is sharded.
  auto machine = test::make_machine("pool-dense");
  auto sub = *test::shared_registry().create("microkernel", *machine);
  const auto client = *sub->create_domain(tc_spec("client"));
  const auto server = *sub->create_domain(tc_spec("server"));
  const auto region = *sub->create_region(client, server, 4096);
  ASSERT_TRUE(sub->map_region(client, region).ok());
  ASSERT_TRUE(sub->map_region(server, region).ok());

  RegionPool pool(*sub, client, region, 4096, 100, 2);
  EXPECT_EQ(pool.slot_stride(), 100u);  // no cache-line padding
  EXPECT_EQ(pool.shard_count(), 2u);
  auto first = pool.acquire(0);
  auto second = pool.acquire(0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->offset - first->offset, 100u);

  // Staging through a shard-1 slot still goes through the monitor and
  // mints a descriptor for exactly the staged bytes.
  auto slot = pool.acquire(1);
  ASSERT_TRUE(slot.ok());
  auto desc = pool.stage(*slot, to_bytes("sharded-payload"));
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->offset, slot->offset);
  EXPECT_EQ(desc->length, std::string("sharded-payload").size());
}

TEST(Executor, RunsTasksAndDeliversResults) {
  Executor executor({.threads = 4});
  std::vector<Future> futures;
  for (int i = 0; i < 32; ++i) {
    auto future = executor.submit(
        DomainKey{nullptr, static_cast<substrate::DomainId>(i % 4)},
        [i]() -> Result<Bytes> { return to_bytes(std::to_string(i)); });
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  executor.wait_all();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(futures[static_cast<std::size_t>(i)].poll());
    auto result = futures[static_cast<std::size_t>(i)].wait();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(to_string(*result), std::to_string(i));
  }
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.counters.submitted, 32u);
  EXPECT_EQ(stats.counters.completed, 32u);
  EXPECT_EQ(stats.counters.in_flight(), 0u);
}

TEST(Executor, PerDomainOrderIsSubmissionOrder) {
  Executor executor({.threads = 4});
  const DomainKey key{nullptr, 7};
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(executor
                    .submit(key,
                            [&, i]() -> Result<Bytes> {
                              std::lock_guard<std::mutex> guard(mu);
                              order.push_back(i);
                              return Bytes{};
                            })
                    .ok());
  }
  executor.wait_all();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Executor, TasksErrorsComeBackThroughFutures) {
  Executor executor({.threads = 1});
  auto future = executor.submit(
      DomainKey{}, []() -> Result<Bytes> { return Errc::io_error; });
  ASSERT_TRUE(future.ok());
  EXPECT_EQ(future->wait().error(), Errc::io_error);
}

TEST(Executor, DeadDomainWorkCompletesWithDomainDead) {
  auto machine = test::make_machine("executor-dead");
  auto substrate = *test::shared_registry().create("microkernel", *machine);
  const auto domain = *substrate->create_domain(tc_spec("worker"));
  ASSERT_TRUE(substrate->kill_domain(domain).ok());

  Executor executor({.threads = 2});
  bool ran = false;
  auto future = executor.submit(DomainKey{substrate.get(), domain},
                                [&]() -> Result<Bytes> {
                                  ran = true;
                                  return to_bytes("impossible");
                                });
  ASSERT_TRUE(future.ok());
  // Work addressed to a corpse completes promptly with the honest error —
  // the task never runs, and the accounting stays lossless.
  EXPECT_EQ(future->wait().error(), Errc::domain_dead);
  EXPECT_FALSE(ran);
  executor.wait_all();
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.counters.submitted, 1u);
  EXPECT_EQ(stats.counters.completed, 1u);
  EXPECT_EQ(stats.counters.in_flight(), 0u);
}

TEST(Executor, CancelBeforeRunWins) {
  Executor executor({.threads = 1});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  // Occupy the single worker so the second task stays queued.
  auto blocker = executor.submit(DomainKey{nullptr, 1},
                                 [opened]() -> Result<Bytes> {
                                   opened.wait();
                                   return Bytes{};
                                 });
  ASSERT_TRUE(blocker.ok());
  bool ran = false;
  auto victim = executor.submit(DomainKey{nullptr, 2},
                                [&ran]() -> Result<Bytes> {
                                  ran = true;
                                  return Bytes{};
                                });
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(victim->cancel().ok());
  gate.set_value();
  executor.wait_all();
  EXPECT_EQ(victim->wait().error(), Errc::cancelled);
  EXPECT_FALSE(ran);
  EXPECT_EQ(executor.stats().counters.cancelled, 1u);
}

TEST(Executor, QueueDepthBackpressure) {
  Executor executor({.threads = 1, .queue_depth = 2});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  const DomainKey busy{nullptr, 1};
  ASSERT_TRUE(executor
                  .submit(busy,
                          [opened]() -> Result<Bytes> {
                            opened.wait();
                            return Bytes{};
                          })
                  .ok());
  // The worker may or may not have dequeued the blocker yet; fill whatever
  // is left of the domain's budget, then expect a refusal.
  int accepted = 1;
  for (;;) {
    auto r = executor.submit(busy, []() -> Result<Bytes> { return Bytes{}; });
    if (!r.ok()) {
      EXPECT_EQ(r.error(), Errc::exhausted);
      break;
    }
    ++accepted;
    ASSERT_LE(accepted, 3);  // blocker (running) + depth 2 queued
  }
  // An unrelated domain is NOT affected: the bound is per-domain.
  EXPECT_TRUE(executor
                  .submit(DomainKey{nullptr, 2},
                          []() -> Result<Bytes> { return Bytes{}; })
                  .ok());
  gate.set_value();
  executor.wait_all();
  EXPECT_GE(executor.stats().counters.rejected, 1u);
}

TEST(Executor, ExpiredDeadlineSkipsTask) {
  auto machine = test::make_machine("executor-deadline");
  auto substrate = *test::shared_registry().create("microkernel", *machine);
  auto domain = *substrate->create_domain(tc_spec("component"));
  ASSERT_GT(substrate->machine().now(), 1u);

  Executor executor({.threads = 2});
  bool ran = false;
  auto late = executor.submit(DomainKey{substrate.get(), domain},
                              [&ran]() -> Result<Bytes> {
                                ran = true;
                                return Bytes{};
                              },
                              {.deadline = 1});
  auto fresh = executor.submit(
      DomainKey{substrate.get(), domain},
      []() -> Result<Bytes> { return to_bytes("ok"); },
      {.deadline = substrate->machine().now() + 1000000});
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(fresh.ok());
  executor.wait_all();
  EXPECT_EQ(late->wait().error(), Errc::timed_out);
  EXPECT_FALSE(ran);
  EXPECT_EQ(to_string(*fresh->wait()), "ok");
  EXPECT_EQ(executor.stats().counters.timed_out, 1u);
}

TEST(Executor, ShutdownCancelsQueuedTasksLosslessly) {
  std::vector<Future> futures;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::thread releaser;
  {
    Executor executor({.threads = 1});
    ASSERT_TRUE(executor
                    .submit(DomainKey{nullptr, 1},
                            [opened]() -> Result<Bytes> {
                              opened.wait();
                              return Bytes{};
                            })
                    .ok());
    for (int i = 0; i < 3; ++i) {
      auto f = executor.submit(DomainKey{nullptr, 2},
                               []() -> Result<Bytes> { return Bytes{}; });
      ASSERT_TRUE(f.ok());
      futures.push_back(std::move(*f));
    }
    releaser = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.set_value();
    });
    // Destructor runs here with the worker still blocked: the three queued
    // tasks must terminate as cancelled, never hang or vanish.
  }
  releaser.join();
  for (Future& future : futures)
    EXPECT_EQ(future.wait().error(), Errc::cancelled);
}

TEST(Executor, ParallelismAcrossSubstratesWithSerializedMachines) {
  // Two independent machines may run truly in parallel; all clock movement
  // for one machine is serialized by the executor's substrate stripes.
  auto machine_a = test::make_machine("exec-a");
  auto machine_b = test::make_machine("exec-b");
  auto sub_a = *test::shared_registry().create("microkernel", *machine_a);
  auto sub_b = *test::shared_registry().create("microkernel", *machine_b);
  struct Wire {
    substrate::DomainId client, server;
    substrate::ChannelId channel;
  };
  auto wire_up = [](substrate::IsolationSubstrate& sub) -> Wire {
    Wire wire{};
    wire.client = *sub.create_domain(tc_spec("client"));
    wire.server = *sub.create_domain(tc_spec("server"));
    wire.channel = *sub.create_channel(wire.client, wire.server);
    (void)sub.set_handler(wire.server,
                          [](const substrate::Invocation& inv) -> Result<Bytes> {
                            return Bytes(inv.data.begin(), inv.data.end());
                          });
    return wire;
  };
  const Wire wire_a = wire_up(*sub_a);
  const Wire wire_b = wire_up(*sub_b);
  const Cycles start_a = sub_a->machine().now();
  const Cycles start_b = sub_b->machine().now();

  Executor executor({.threads = 4});
  std::vector<Future> futures;
  for (int i = 0; i < 50; ++i) {
    substrate::IsolationSubstrate& sub = (i % 2 == 0) ? *sub_a : *sub_b;
    const Wire& wire = (i % 2 == 0) ? wire_a : wire_b;
    auto f = executor.submit(
        DomainKey{&sub, wire.client},
        [&sub, wire]() -> Result<Bytes> {
          return sub.call(wire.client, wire.channel, to_bytes("tick"));
        });
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  executor.wait_all();
  for (Future& future : futures) ASSERT_TRUE(future.wait().ok());
  // 25 calls each; the per-substrate serialization means the simulated
  // clocks advanced by exactly 25 round trips — no torn updates.
  const Cycles per_call =
      sub_a->message_cost(4) + sub_a->message_cost(4);
  EXPECT_EQ(sub_a->machine().now() - start_a, 25 * per_call);
  EXPECT_EQ(sub_b->machine().now() - start_b, 25 * per_call);
}

TEST(Executor, CoreRoutingHashFallbackAndAffinity) {
  auto machine = test::make_smp_machine(4, "exec-smp");
  auto sub = *test::shared_registry().create("microkernel", *machine);
  const auto worker = *sub->create_domain(tc_spec("worker"));
  const auto helper = *sub->create_domain(tc_spec("helper"));
  Executor executor({.threads = 2});

  // Without an explicit pin a domain's home core is its key hash modulo the
  // machine's core count — stable across queries, and always on-machine.
  const DomainKey kw{sub.get(), worker};
  const std::size_t home = executor.core_of(kw);
  EXPECT_LT(home, 4u);
  EXPECT_EQ(executor.core_of(kw), home);
  // Keys without simulated hardware have no cores to route across.
  EXPECT_EQ(executor.core_of(DomainKey{}), 0u);

  // set_affinity overrides the hash; off-machine cores are refused and the
  // previous pin survives the refusal.
  ASSERT_TRUE(executor.set_affinity(kw, 3).ok());
  EXPECT_EQ(executor.core_of(kw), 3u);
  EXPECT_EQ(executor.set_affinity(kw, 4).error(), Errc::invalid_argument);
  EXPECT_EQ(executor.core_of(kw), 3u);

  // The pin is real accounting, not a label: a task submitted on a pinned
  // key runs under a CoreLease, so its cycles land on that core's clock.
  const DomainKey kh{sub.get(), helper};
  ASSERT_TRUE(executor.set_affinity(kh, 2).ok());
  const Cycles before1 = machine->core(1);
  const Cycles before2 = machine->core(2);
  auto future = executor.submit(kh, [&]() -> Result<Bytes> {
    sub->machine().advance(700);
    return Bytes{};
  });
  ASSERT_TRUE(future.ok());
  ASSERT_TRUE(future->wait().ok());
  executor.wait_all();
  EXPECT_EQ(machine->core(2) - before2, 700u);
  EXPECT_EQ(machine->core(1), before1);
}

TEST(Executor, PublishesSchedStatsThroughMetricsHub) {
  // The FIG13 observability satellite: an executor configured with a hub
  // publishes SchedStats under its label — steals/migrations counters plus
  // a per-core run-queue depth gauge sized to the widest machine it serves.
  MetricsHub hub;
  auto machine = test::make_smp_machine(4, "exec-hub");
  auto sub = *test::shared_registry().create("microkernel", *machine);
  const auto domain = *sub->create_domain(tc_spec("d"));
  Executor executor({.threads = 3, .hub = &hub, .label = "fig13.exec"});

  const DomainKey key{sub.get(), domain};
  ASSERT_TRUE(executor.set_affinity(key, 1).ok());
  for (int i = 0; i < 24; ++i) {
    // Spread across several domains (some hardware-free) so queues migrate
    // between workers; all of it must fold into one labelled block.
    const DomainKey k = (i % 3 == 0)
                            ? key
                            : DomainKey{nullptr,
                                        static_cast<substrate::DomainId>(
                                            100 + i % 5)};
    ASSERT_TRUE(
        executor.submit(k, []() -> Result<Bytes> { return Bytes{}; }).ok());
  }
  executor.wait_all();

  const SchedStats sched = hub.sched("fig13.exec").snapshot();
  ASSERT_EQ(sched.run_queue_depth.size(), 4u);  // sized to the machine
  for (const std::uint64_t depth : sched.run_queue_depth)
    EXPECT_EQ(depth, 0u);  // drained: the gauge reads empty queues
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(sched.steals, stats.steals);
  EXPECT_EQ(sched.migrations, stats.migrations);
  // A microkernel machine with one busy domain neither stalls at a serial
  // gate nor bounces cache lines; the published signals agree.
  EXPECT_EQ(sched.serial_stalls, sub->serial_stalls());
  EXPECT_EQ(sched.contention_events, machine->contention_events());
}

// ---------------------------------------------------------------------------
// AsyncRemoteProxy / AsyncRemoteDispatcher

class AsyncRemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<net::SecureChannelEndpoint>(
        net::Role::initiator, to_bytes("async-i"), std::nullopt, std::nullopt);
    server_ = std::make_unique<net::SecureChannelEndpoint>(
        net::Role::responder, to_bytes("async-r"), std::nullopt, std::nullopt);
    auto msg1 = client_->start();
    ASSERT_TRUE(msg1.ok());
    auto msg2 = server_->handle_msg1(*msg1);
    ASSERT_TRUE(msg2.ok());
    auto msg3 = client_->handle_msg2(*msg2);
    ASSERT_TRUE(msg3.ok());
    ASSERT_TRUE(server_->handle_msg3(*msg3).ok());

    dispatcher_ = std::make_unique<AsyncRemoteDispatcher>(*server_);
    ASSERT_TRUE(dispatcher_
                    ->register_method("echo",
                                      [this](BytesView request)
                                          -> Result<Bytes> {
                                        ++server_calls_;
                                        return Bytes(request.begin(),
                                                     request.end());
                                      })
                    .ok());
    ASSERT_TRUE(dispatcher_
                    ->register_method("refuse",
                                      [](BytesView) -> Result<Bytes> {
                                        return Errc::access_denied;
                                      })
                    .ok());
  }

  AsyncRemoteProxy make_proxy(AsyncProxyConfig config = {}) {
    return AsyncRemoteProxy(
        *client_,
        [this](const std::vector<Bytes>& records)
            -> Result<std::vector<Bytes>> {
          ++bursts_;
          return dispatcher_->handle_burst(records);
        },
        config);
  }

  std::unique_ptr<net::SecureChannelEndpoint> client_;
  std::unique_ptr<net::SecureChannelEndpoint> server_;
  std::unique_ptr<AsyncRemoteDispatcher> dispatcher_;
  int server_calls_ = 0;
  int bursts_ = 0;
};

TEST_F(AsyncRemoteTest, PipelinedBurstMatchesRepliesById) {
  AsyncRemoteProxy proxy = make_proxy();
  std::vector<RequestId> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(*proxy.submit("echo", to_bytes("r" + std::to_string(i))));
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(bursts_, 1);  // five invocations, one transport exchange
  EXPECT_EQ(server_calls_, 5);
  for (int i = 4; i >= 0; --i) {
    auto reply = proxy.take(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(to_string(*reply), "r" + std::to_string(i));
  }
}

TEST_F(AsyncRemoteTest, RemoteErrorsStayPerRequest) {
  AsyncRemoteProxy proxy = make_proxy();
  const RequestId good = *proxy.submit("echo", to_bytes("fine"));
  const RequestId bad = *proxy.submit("refuse", to_bytes("x"));
  const RequestId missing = *proxy.submit("no-such-method", {});
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(to_string(*proxy.take(good)), "fine");
  EXPECT_EQ(proxy.take(bad).error(), Errc::access_denied);
  EXPECT_EQ(proxy.take(missing).error(), Errc::invalid_argument);
}

TEST_F(AsyncRemoteTest, CancelBeforeFlushLeavesChannelHealthy) {
  AsyncRemoteProxy proxy = make_proxy();
  const RequestId keep = *proxy.submit("echo", to_bytes("keep"));
  const RequestId drop = *proxy.submit("echo", to_bytes("drop"));
  ASSERT_TRUE(proxy.cancel(drop).ok());
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(proxy.take(drop).error(), Errc::cancelled);
  EXPECT_EQ(to_string(*proxy.take(keep)), "keep");
  EXPECT_EQ(server_calls_, 1);
  // Cancellation left no hole in the record sequence: further traffic works.
  EXPECT_EQ(to_string(*proxy.call("echo", to_bytes("after"))), "after");
}

TEST_F(AsyncRemoteTest, DepthBoundRejectsExcessSubmissions) {
  AsyncRemoteProxy proxy = make_proxy({.depth = 2});
  ASSERT_TRUE(proxy.submit("echo", to_bytes("a")).ok());
  ASSERT_TRUE(proxy.submit("echo", to_bytes("b")).ok());
  EXPECT_EQ(proxy.submit("echo", to_bytes("c")).error(), Errc::exhausted);
  EXPECT_EQ(proxy.metrics().rejected, 1u);
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_TRUE(proxy.submit("echo", to_bytes("c")).ok());
}

TEST_F(AsyncRemoteTest, TransportFailureCompletesEveryInFlightRequest) {
  AsyncRemoteProxy proxy(
      *client_,
      [](const std::vector<Bytes>&) -> Result<std::vector<Bytes>> {
        return Errc::io_error;  // the network ate the burst
      });
  const RequestId a = *proxy.submit("echo", to_bytes("a"));
  const RequestId b = *proxy.submit("echo", to_bytes("b"));
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(proxy.take(a).error(), Errc::io_error);
  EXPECT_EQ(proxy.take(b).error(), Errc::io_error);
  EXPECT_EQ(proxy.pending(), 0u);
}

TEST_F(AsyncRemoteTest, TamperedBurstRecordRefusedByDispatcher) {
  AsyncRemoteProxy proxy(
      *client_,
      [this](const std::vector<Bytes>& records) -> Result<std::vector<Bytes>> {
        std::vector<Bytes> tampered = records;
        tampered.back()[tampered.back().size() - 1] ^= 0x01;
        return dispatcher_->handle_burst(tampered);
      });
  ASSERT_TRUE(proxy.submit("echo", to_bytes("x")).ok());
  const RequestId last = *proxy.submit("echo", to_bytes("y"));
  (void)last;
  // The dispatcher refuses the whole burst (its sequence window broke);
  // the proxy surfaces that as each request's completion.
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(proxy.take(1).error(), Errc::verification_failed);
  EXPECT_EQ(proxy.take(2).error(), Errc::verification_failed);
}

TEST_F(AsyncRemoteTest, UnauthenticReplyCompletesEveryUnansweredId) {
  AsyncRemoteProxy proxy(
      *client_,
      [this](const std::vector<Bytes>& records) -> Result<std::vector<Bytes>> {
        auto replies = dispatcher_->handle_burst(records);
        if (replies) (*replies)[1].back() ^= 0x01;  // forge the second reply
        return replies;
      });
  const RequestId a = *proxy.submit("echo", to_bytes("a"));
  const RequestId b = *proxy.submit("echo", to_bytes("b"));
  const RequestId c = *proxy.submit("echo", to_bytes("c"));
  ASSERT_TRUE(proxy.flush().ok());
  // Replies before the forgery stand; from it on the sequence window is
  // broken, so the rest can never be authenticated.
  EXPECT_EQ(to_string(*proxy.take(a)), "a");
  EXPECT_EQ(proxy.take(b).error(), Errc::verification_failed);
  EXPECT_EQ(proxy.take(c).error(), Errc::verification_failed);
  EXPECT_EQ(proxy.pending(), 0u);
  const InvocationCounters m = proxy.metrics();
  EXPECT_EQ(m.submitted, m.completed + m.cancelled);
}

TEST_F(AsyncRemoteTest, ShortReplyRecordCompletesItsIdWithIoError) {
  AsyncRemoteProxy proxy(
      *client_,
      [this](const std::vector<Bytes>& records) -> Result<std::vector<Bytes>> {
        std::vector<Bytes> replies;
        for (const Bytes& record : records) {
          auto plain = server_->open_record(record);
          if (!plain) return plain.error();
          // Authentic but truncated: the request id, no status byte.
          auto sealed = server_->seal_record(BytesView(*plain).first(4));
          if (!sealed) return sealed.error();
          replies.push_back(std::move(*sealed));
        }
        return replies;
      });
  const RequestId a = *proxy.submit("echo", to_bytes("a"));
  const RequestId b = *proxy.submit("echo", to_bytes("b"));
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(proxy.take(a).error(), Errc::io_error);
  EXPECT_EQ(proxy.take(b).error(), Errc::io_error);
  EXPECT_EQ(proxy.pending(), 0u);
  const InvocationCounters m = proxy.metrics();
  EXPECT_EQ(m.submitted, m.completed + m.cancelled);
}

TEST_F(AsyncRemoteTest, MissingReplyCompletesWithoutResealing) {
  AsyncRemoteProxy proxy(
      *client_,
      [this](const std::vector<Bytes>& records) -> Result<std::vector<Bytes>> {
        ++bursts_;
        auto replies = dispatcher_->handle_burst(records);
        if (replies) replies->pop_back();  // the peer drops the last reply
        return replies;
      });
  const RequestId a = *proxy.submit("echo", to_bytes("a"));
  const RequestId b = *proxy.submit("echo", to_bytes("b"));
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(to_string(*proxy.take(a)), "a");
  EXPECT_EQ(proxy.take(b).error(), Errc::io_error);
  EXPECT_EQ(proxy.pending(), 0u);
  const InvocationCounters m = proxy.metrics();
  EXPECT_EQ(m.submitted, m.completed + m.cancelled);
  // Nothing is left to re-seal: the server ran each request exactly once.
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(bursts_, 1);
  EXPECT_EQ(server_calls_, 2);
}

TEST_F(AsyncRemoteTest, ReapDrainsCompletedEventsInOrder) {
  AsyncRemoteProxy proxy = make_proxy();
  std::vector<RequestId> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(*proxy.submit("echo", to_bytes("r" + std::to_string(i))));
  ASSERT_TRUE(proxy.flush().ok());
  std::vector<CqEvent> first = proxy.reap(3);
  ASSERT_EQ(first.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].id, ids[i]);  // oldest request id first
    ASSERT_TRUE(first[i].ok());
    EXPECT_EQ(to_string(first[i].payload), "r" + std::to_string(i));
  }
  std::size_t rest = proxy.for_each_completion([&](CqEvent& event) {
    EXPECT_EQ(event.id, ids[3]);
  });
  EXPECT_EQ(rest, 1u);
  EXPECT_TRUE(proxy.reap().empty());
}

TEST_F(AsyncRemoteTest, AdaptiveAutoFlushRingsAtDepthTarget) {
  AsyncProxyConfig config;
  config.adaptive.min_batch = 2;
  config.adaptive.max_batch = 8;
  config.adaptive.adaptive = true;
  AsyncRemoteProxy proxy = make_proxy(config);
  EXPECT_EQ(proxy.batch_depth(), 2u);
  ASSERT_TRUE(proxy.submit("echo", to_bytes("a")).ok());
  EXPECT_EQ(bursts_, 0);  // below target: nothing on the wire yet
  ASSERT_TRUE(proxy.submit("echo", to_bytes("b")).ok());
  EXPECT_EQ(bursts_, 1);  // target reached: implicit flush
  EXPECT_EQ(proxy.pending(), 0u);
  EXPECT_EQ(proxy.reap().size(), 2u);
  // The saturated no-latency window grew the target (cold start).
  EXPECT_EQ(proxy.batch_depth(), 4u);
  EXPECT_EQ(proxy.metrics().doorbells, 1u);
}

// Every counter a flush touches, after a scenario that runs each of its
// endings: a burst whose replies come back late (the transport's error; no
// controller feed), clocked bursts that feed the adaptive controller, a
// cancellation, and a reply that fails authentication. Recorded before the
// flush gathered its updates in one delta; the values must not move.
TEST_F(AsyncRemoteTest, CountersOfEveryFlushEndingMatchRecording) {
  auto machine = test::make_machine("async-counters");
  bool late = false;
  bool garble = false;
  std::vector<Bytes> held;  // replies not yet delivered, oldest first
  AsyncProxyConfig config;
  config.clock = machine.get();
  config.adaptive.min_batch = 2;
  config.adaptive.max_batch = 8;
  config.adaptive.adaptive = true;
  AsyncRemoteProxy proxy(
      *client_,
      [&](const std::vector<Bytes>& records) -> Result<std::vector<Bytes>> {
        auto replies = dispatcher_->handle_burst(records);
        if (!replies) return replies.error();
        if (garble) replies->front().back() ^= 0x01;
        held.insert(held.end(), replies->begin(), replies->end());
        if (late) return Errc::io_error;  // they ride the next burst
        return std::exchange(held, {});
      },
      config);
  const auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const char* method = i == 2 ? "refuse" : "echo";
      ASSERT_TRUE(proxy.submit(method, to_bytes("x")).ok());
      machine->advance(300 + 700 * static_cast<Cycles>(i));
    }
    ASSERT_TRUE(proxy.flush().ok());
  };

  late = true;  // auto-flush at the first target, 2
  ASSERT_TRUE(proxy.submit("echo", to_bytes("a")).ok());
  ASSERT_TRUE(proxy.submit("echo", to_bytes("b")).ok());
  // The controller was not fed, so no gauge has been published yet.
  const std::uint64_t gauge_after_loss = proxy.metrics().adaptive_depth;
  late = false;
  for (int round = 0; round < 4; ++round) burst(round < 2 ? 3 : 7);
  const RequestId withdrawn = *proxy.submit("echo", to_bytes("c"));
  ASSERT_TRUE(proxy.cancel(withdrawn).ok());
  late = true;
  burst(1);
  late = false;
  garble = true;
  burst(2);

  std::map<Errc, int> outcomes;
  for (const CqEvent& event : proxy.reap()) ++outcomes[event.status];
  std::ostringstream seen;
  seen << "gauge_after_loss=" << gauge_after_loss << ' ';
  for (const auto& [errc, n] : outcomes)
    seen << errc_name(errc) << '=' << n << ' ';
  const InvocationCounters m = proxy.metrics();
  for (const auto& [name, value] : m.fields())
    seen << name << '=' << value << ' ';
  seen << "grows=" << m.adaptive_grows << " shrinks=" << m.adaptive_shrinks
       << " latency=" << m.latency_count << '/' << m.latency_total_cycles
       << " batch_hist=";
  for (const std::uint64_t n : m.batch_size_histogram) seen << n << ',';
  seen << " latency_hist=";
  for (const std::uint64_t n : m.latency_histogram) seen << n << ',';
  seen << " depth=" << proxy.batch_depth();
  EXPECT_EQ(seen.str(),
            "gauge_after_loss=0 ok=16 access_denied=4 verification_failed=2 "
            "io_error=3 cancelled=1 submitted=26 completed=25 rejected=0 "
            "cancelled=1 timed_out=0 in_flight=0 batches=13 "
            "queue_depth_hwm=4 doorbells=13 adaptive_depth=4 "
            "crossing_cycles=0 cycles_saved=0 zero_copy_bytes=0 "
            "mean_latency_cycles=3228 p99_latency_cycles=8191 grows=5 "
            "shrinks=4 latency=14/45200 batch_hist=5,6,2,0,0,0,0,0,0,0,0,0, "
            "latency_hist=0,0,0,0,0,0,0,0,4,0,2,2,6,0,0,0,0,0,0,0,0,0,0,0,0,"
            "0,0,0,0,0,0,0, depth=4");
}

TEST_F(AsyncRemoteTest, WaitFlushesImplicitly) {
  AsyncRemoteProxy proxy = make_proxy();
  const RequestId id = *proxy.submit("echo", to_bytes("lazy"));
  EXPECT_EQ(proxy.take(id).error(), Errc::would_block);  // not flushed yet
  EXPECT_EQ(to_string(*proxy.wait(id)), "lazy");
  EXPECT_EQ(proxy.take(999).error(), Errc::invalid_argument);
}

// ---------------------------------------------------------------------------
// The batched path behaves identically on every capable substrate — same
// conformance posture as substrate_conformance_test.cpp.

class BatchedPathConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("batched-" + GetParam());
    substrate_ = *test::shared_registry().create(GetParam(), *machine_);
    client_ = *substrate_->create_domain(tc_spec("client"));
    const bool use_legacy = has_feature(substrate_->info().features,
                                        substrate::Feature::legacy_hosting);
    server_ = *substrate_->create_domain(use_legacy
                                             ? test::legacy_spec("server")
                                             : tc_spec("server"));
    channel_ = *substrate_->create_channel(client_, server_);
    ASSERT_TRUE(substrate_
                    ->set_handler(server_,
                                  [](const substrate::Invocation& inv)
                                      -> Result<Bytes> {
                                    Bytes reply(inv.data.begin(),
                                                inv.data.end());
                                    reply.push_back('!');
                                    return reply;
                                  })
                    .ok());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> substrate_;
  substrate::DomainId client_ = 0, server_ = 0;
  substrate::ChannelId channel_ = 0;
};

TEST_P(BatchedPathConformance, BatchRoundTrip) {
  BatchChannel batch(*substrate_, client_, channel_);
  std::vector<SubmissionId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(*batch.submit(to_bytes("m" + std::to_string(i))));
  ASSERT_TRUE(batch.flush().ok());
  for (int i = 0; i < 8; ++i) {
    auto reply = batch.wait(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(to_string(*reply), "m" + std::to_string(i) + "!");
  }
}

TEST_P(BatchedPathConformance, BatchingAmortizesTheCrossing) {
  const Cycles before_sync = substrate_->machine().now();
  for (int i = 0; i < 32; ++i)
    ASSERT_TRUE(substrate_->call(client_, channel_, to_bytes("ping")).ok());
  const Cycles sync_cost = substrate_->machine().now() - before_sync;

  BatchChannel batch(*substrate_, client_, channel_);
  for (int i = 0; i < 32; ++i)
    ASSERT_TRUE(batch.submit(to_bytes("ping")).ok());
  const Cycles before_batch = substrate_->machine().now();
  ASSERT_TRUE(batch.flush().ok());
  const Cycles batch_cost = substrate_->machine().now() - before_batch;

  ASSERT_GT(batch_cost, 0u);
  // The acceptance bar: batch-32 must be at least 5x cheaper per call.
  EXPECT_GE(sync_cost / batch_cost, 5u)
      << GetParam() << ": sync=" << sync_cost << " batched=" << batch_cost;
}

TEST_P(BatchedPathConformance, LosslessUnderCancelAndDeadline) {
  // Move the simulated clock past cycle 1 so an absolute deadline of 1 is
  // expired on every substrate regardless of its setup costs.
  ASSERT_TRUE(substrate_->call(client_, channel_, to_bytes("warm")).ok());
  ASSERT_GT(substrate_->machine().now(), 1u);
  BatchChannel batch(*substrate_, client_, channel_, {.depth = 8});
  std::vector<SubmissionId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(*batch.submit(to_bytes("x"), {.deadline = (i == 5)
                                                    ? Cycles{1}
                                                    : Cycles{0}}));
  ASSERT_TRUE(batch.cancel(ids[0]).ok());
  ASSERT_TRUE(batch.flush().ok());
  std::size_t drained = 0;
  while (batch.next_completion().ok()) ++drained;
  EXPECT_EQ(drained, 6u);
  const InvocationCounters& m = batch.metrics();
  EXPECT_EQ(m.submitted, m.completed + m.cancelled + m.timed_out);
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_EQ(m.timed_out, 1u);
  EXPECT_EQ(m.in_flight(), 0u);
}

TEST_P(BatchedPathConformance, AdapterMatchesFixedDepthQueue) {
  // One mixed batch — inline, moved-in, sg, staged, cancelled, expired —
  // through the BatchChannel adapter and through a fixed-depth
  // CompletionQueue: the same crossing, the same counters, the same
  // per-id outcomes. Substrates without grant regions (TPM, fTPM) send the
  // sg and staged entries by the runtime's copy fallback: one inline
  // submission carrying the bytes the region would have held.
  ASSERT_TRUE(substrate_->call(client_, channel_, to_bytes("warm")).ok());
  const Bytes segment(512, 0x5A);
  std::optional<RegionPool> pool;
  std::optional<substrate::RegionDescriptor> desc;
  if (substrate_->supports_regions()) {
    auto region = substrate_->create_region(client_, server_, 4096);
    ASSERT_TRUE(region.ok());
    ASSERT_TRUE(substrate_->map_region(client_, *region).ok());
    ASSERT_TRUE(substrate_->map_region(server_, *region).ok());
    pool.emplace(*substrate_, client_, *region, 2048, 1024);
    ASSERT_TRUE(substrate_->region_write(client_, *region, 3072, segment).ok());
    auto made = substrate_->make_descriptor(client_, *region, 3072, 512);
    ASSERT_TRUE(made.ok());
    desc = *made;
  } else {
    EXPECT_EQ(substrate_->create_region(client_, server_, 4096).error(),
              Errc::no_region_support);
  }
  const auto concat = [](std::string_view head, BytesView body) {
    Bytes out = to_bytes(head);
    out.insert(out.end(), body.begin(), body.end());
    return out;
  };

  struct Outcome {
    Cycles crossing = 0;
    InvocationCounters m;
    std::vector<std::pair<Errc, Bytes>> results;
  };
  const auto run = [&](auto& queue, auto&& ring) {
    std::vector<SubmissionId> ids;
    ids.push_back(*queue.submit(to_bytes("inline")));
    ids.push_back(*queue.submit(to_bytes("moved")));
    ids.push_back(desc ? *queue.submit_sg(to_bytes("sg"), {*desc})
                       : *queue.submit(concat("sg", segment)));
    ids.push_back(pool ? *queue.submit_staged(*pool, to_bytes("st"),
                                              to_bytes("b"))
                       : *queue.submit(to_bytes("stb")));
    ids.push_back(*queue.submit(to_bytes("cancel-me")));
    ids.push_back(*queue.submit(to_bytes("late"), {.deadline = 1}));
    EXPECT_TRUE(queue.cancel(ids[4]).ok());
    Outcome out;
    const Cycles start = substrate_->machine().now();
    EXPECT_TRUE(ring().ok());
    out.crossing = substrate_->machine().now() - start;
    out.m = queue.metrics();
    for (const SubmissionId id : ids) {
      Result<Bytes> r = queue.wait(id);
      out.results.emplace_back(r ? Errc::ok : r.error(),
                               r ? std::move(*r) : Bytes{});
    }
    return out;
  };

  BatchChannel batch(*substrate_, client_, channel_, {.depth = 8});
  const Outcome a = run(batch, [&] { return batch.flush(); });
  CompletionQueueConfig cfg;
  cfg.depth = 8;
  cfg.adaptive.min_batch = 8;
  cfg.adaptive.max_batch = 8;
  cfg.adaptive.adaptive = false;
  CompletionQueue cq(*substrate_, client_, channel_, cfg);
  const Outcome b = run(cq, [&] { return cq.doorbell(); });

  EXPECT_GT(a.crossing, 0u) << GetParam();
  EXPECT_EQ(a.crossing, b.crossing) << GetParam();
  EXPECT_EQ(a.results, b.results) << GetParam();
  EXPECT_EQ(a.results[0].second, to_bytes("inline!"));
  // The handler echoes the inline bytes only, so a region's segment stays
  // out of the reply and a copied one is in it.
  Bytes copied_sg = concat("sg", segment);
  copied_sg.push_back('!');
  EXPECT_EQ(a.results[2].second, desc ? to_bytes("sg!") : copied_sg);
  EXPECT_EQ(a.results[4].first, Errc::cancelled);
  EXPECT_EQ(a.results[5].first, Errc::timed_out);
  if (pool) {
    EXPECT_EQ(pool->slots_free(), pool->slots_total());
  }
  for (const auto field :
       {&InvocationCounters::submitted, &InvocationCounters::completed,
        &InvocationCounters::cancelled, &InvocationCounters::timed_out,
        &InvocationCounters::batches, &InvocationCounters::crossing_cycles,
        &InvocationCounters::sync_equivalent_cycles,
        &InvocationCounters::zero_copy_bytes,
        &InvocationCounters::latency_count,
        &InvocationCounters::latency_total_cycles})
    EXPECT_EQ(a.m.*field, b.m.*field) << GetParam();
  EXPECT_EQ(a.m.completed, 4u) << GetParam();
  // Only the queue rings doorbells; the adapter's flush counts none.
  EXPECT_EQ(a.m.doorbells, 0u);
  EXPECT_EQ(b.m.doorbells, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBatchedSubstrates, BatchedPathConformance,
                         ::testing::Values("microkernel", "trustzone", "sgx",
                                           "tpm", "ftpm", "sep", "cheri",
                                           "noc"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lateral::runtime
