// lateral::cq — the CompletionQueue API and its adaptive batch controller.
//
// Three layers of coverage:
//  * AdaptiveBatchController as pure policy (cold start, saturation,
//    tail damping, clamps, fixed mode) — no substrate needed;
//  * CompletionQueue semantics on one substrate (doorbell coalescing,
//    saturated-ring backpressure, deadlines interleaved with completions,
//    pool-slot return on expiry, the Future-style wait shim, hub export,
//    Executor submit_call coalescing, refused submits, sequence-number ids
//    across ring wraparound);
//  * x8 conformance that reap() charges exactly one crossing per drain.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/endpoint.h"
#include "runtime/batch_channel.h"
#include "runtime/completion_queue.h"
#include "runtime/executor.h"
#include "runtime/region_pool.h"
#include "test_support.h"

namespace lateral::runtime {
namespace {

using test::legacy_spec;
using test::tc_spec;

// ---------------------------------------------------------------------------
// AdaptiveBatchController — pure policy.

TEST(AdaptiveController, ColdStartGrowsOnOccupancyAlone) {
  // Empty histogram (p50 == p99 == 0): nothing ever crossed yet. The
  // controller must still deepen under load instead of waiting for a
  // latency signal that cannot exist before the first flush.
  AdaptiveBatchController c({.min_batch = 4, .max_batch = 64});
  EXPECT_EQ(c.depth(), 4u);
  c.observe(/*occupancy=*/4, /*p50=*/0, /*p99=*/0);
  EXPECT_EQ(c.depth(), 8u);
  c.observe(8, 0, 0);
  EXPECT_EQ(c.depth(), 16u);
  EXPECT_EQ(c.grows(), 2u);
  EXPECT_EQ(c.shrinks(), 0u);
}

TEST(AdaptiveController, FixedModeNeverMoves) {
  AdaptiveBatchController c(
      {.min_batch = 4, .max_batch = 256, .initial = 32, .adaptive = false});
  EXPECT_EQ(c.depth(), 32u);
  c.observe(32, 10, 10);          // saturated
  c.observe(1, 10, 1'000'000);    // shallow AND tail-blown
  EXPECT_EQ(c.depth(), 32u);
  EXPECT_EQ(c.grows() + c.shrinks(), 0u);
}

TEST(AdaptiveController, InitialIsClampedToBounds) {
  EXPECT_EQ(AdaptiveBatchController({.min_batch = 4, .max_batch = 64,
                                     .initial = 1000}).depth(), 64u);
  EXPECT_EQ(AdaptiveBatchController({.min_batch = 4, .max_batch = 64,
                                     .initial = 1}).depth(), 4u);
  // Degenerate configs are repaired, not UB.
  EXPECT_EQ(AdaptiveBatchController({.min_batch = 0, .max_batch = 0}).depth(),
            1u);
}

TEST(AdaptiveController, ShrinksWhenShallowWithHysteresis) {
  AdaptiveBatchController c({.min_batch = 4, .max_batch = 64, .initial = 32});
  c.observe(/*occupancy=*/8, /*p50=*/100, /*p99=*/100);  // 8*4 <= 32
  EXPECT_EQ(c.depth(), 16u);
  // Hovering just below target is NOT shallow: 10*4 > 16, no shrink.
  c.observe(10, 100, 100);
  EXPECT_EQ(c.depth(), 16u);
  EXPECT_EQ(c.shrinks(), 1u);
}

TEST(AdaptiveController, TailDamperShrinksRegardlessOfOccupancy) {
  AdaptiveBatchController c(
      {.min_batch = 4, .max_batch = 64, .initial = 32, .tail_factor = 8});
  // Establish the floor: p50 = 100 -> tail bound = 800.
  c.observe(32, 100, 200);
  EXPECT_EQ(c.depth(), 64u);  // saturated with headroom (2*200 <= 800)
  // A saturated window whose p99 blew the bound still shrinks.
  c.observe(64, 100, 900);
  EXPECT_EQ(c.depth(), 32u);
  EXPECT_EQ(c.shrinks(), 1u);
}

TEST(AdaptiveController, GrowthRequiresTailHeadroom) {
  AdaptiveBatchController c(
      {.min_batch = 4, .max_batch = 64, .initial = 32, .tail_factor = 8});
  // floor = 100, bound = 800. p99 = 500 is within the bound, but doubling
  // could double it past the bound (2*500 > 800): hold depth.
  c.observe(32, 100, 500);
  EXPECT_EQ(c.depth(), 32u);
  EXPECT_EQ(c.grows(), 0u);
}

TEST(AdaptiveController, FloorRatchetsDownToBestWindow) {
  AdaptiveBatchController c(
      {.min_batch = 4, .max_batch = 64, .initial = 4, .tail_factor = 8});
  // A congested first window must not inflate the floor forever.
  c.observe(4, 1000, 1000);   // floor 1000, bound 8000 -> grow
  EXPECT_EQ(c.depth(), 8u);
  c.observe(8, 100, 100);     // floor ratchets to 100, bound 800 -> grow
  EXPECT_EQ(c.depth(), 16u);
  c.observe(16, 100, 700);    // 2*700 > 800: the tighter bound now binds
  EXPECT_EQ(c.depth(), 16u);
}

TEST(AdaptiveController, ClampsAtMinAndMax) {
  AdaptiveBatchController c({.min_batch = 4, .max_batch = 8, .initial = 8});
  c.observe(8, 0, 0);
  EXPECT_EQ(c.depth(), 8u);  // at max: no grow
  EXPECT_EQ(c.grows(), 0u);
  c.observe(1, 0, 0);
  EXPECT_EQ(c.depth(), 4u);
  c.observe(1, 0, 0);
  EXPECT_EQ(c.depth(), 4u);  // at min: no shrink
  EXPECT_EQ(c.shrinks(), 1u);
}

// ---------------------------------------------------------------------------
// CompletionQueue semantics (one representative substrate).

class CqTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("cq");
    substrate_ = *test::shared_registry().create("microkernel", *machine_);
    client_ = *substrate_->create_domain(tc_spec("client"));
    server_ = *substrate_->create_domain(tc_spec("server"));
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

  /// One sync call: moves the clock well past cycle 1 so an absolute
  /// deadline of 1 is expired in later submissions.
  void warm() {
    ASSERT_TRUE(substrate_->call(client_, channel_, to_bytes("warm")).ok());
    ASSERT_GT(machine_->now(), 1u);
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> substrate_;
  substrate::DomainId client_ = 0, server_ = 0;
  substrate::ChannelId channel_ = 0;
};

TEST_F(CqTest, DoorbellFlushesAndDrainsInOneRing) {
  CompletionQueue cq(*substrate_, client_, channel_);
  std::vector<SubmissionId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(*cq.submit(to_bytes("m" + std::to_string(i))));
  EXPECT_EQ(cq.pending(), 8u);
  EXPECT_EQ(cq.ready(), 0u);
  ASSERT_TRUE(cq.doorbell().ok());
  EXPECT_EQ(cq.pending(), 0u);
  EXPECT_EQ(cq.ready(), 8u);  // completions drained by the same ring
  auto events = cq.reap();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*events)[i].id, ids[i]);
    ASSERT_TRUE((*events)[i].ok());
    EXPECT_EQ(to_string((*events)[i].payload),
              "m" + std::to_string(i) + "!");
    EXPECT_GT((*events)[i].cycles, 0u);  // submit->complete latency
  }
}

TEST_F(CqTest, SaturatedRingIsBackpressureNotLoss) {
  CompletionQueueConfig cfg;
  cfg.depth = 4;
  cfg.adaptive.min_batch = 2;
  cfg.adaptive.max_batch = 4;
  CompletionQueue cq(*substrate_, client_, channel_, cfg);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(cq.submit(to_bytes("x")).ok());
  EXPECT_EQ(cq.submit(to_bytes("overflow")).error(), Errc::exhausted);
  EXPECT_EQ(cq.metrics().rejected, 1u);
  // The doorbell makes room; the refused submission succeeds on retry.
  ASSERT_TRUE(cq.doorbell().ok());
  ASSERT_TRUE(cq.submit(to_bytes("retry")).ok());
  auto first = cq.reap();  // the 4 already-drained events, no new crossing
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 4u);
  auto second = cq.reap();  // nothing ready -> rings for the retry
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ(to_string((*second)[0].payload), "retry!");
  const InvocationCounters m = cq.metrics();
  EXPECT_EQ(m.submitted, 5u);
  EXPECT_EQ(m.completed, 5u);
  EXPECT_EQ(m.in_flight(), 0u);
}

TEST_F(CqTest, DeadlineExpiredInterleavedWithCompletions) {
  warm();
  CompletionQueue cq(*substrate_, client_, channel_);
  std::map<SubmissionId, int> index;
  for (int i = 0; i < 6; ++i) {
    auto id = cq.submit(to_bytes("p" + std::to_string(i)),
                        {.deadline = (i % 2 == 1) ? Cycles{1} : Cycles{0}});
    ASSERT_TRUE(id.ok());
    index[*id] = i;
  }
  auto events = cq.reap();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 6u);
  for (const CqEvent& event : *events) {
    const int i = index.at(event.id);
    if (i % 2 == 1) {
      EXPECT_EQ(event.status, Errc::timed_out);
      EXPECT_EQ(event.cycles, 0u);  // never crossed
    } else {
      ASSERT_TRUE(event.ok());
      EXPECT_EQ(to_string(event.payload), "p" + std::to_string(i) + "!");
      EXPECT_GT(event.cycles, 0u);
    }
  }
  const InvocationCounters m = cq.metrics();
  EXPECT_EQ(m.timed_out, 3u);
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.submitted, m.completed + m.cancelled + m.timed_out);
  EXPECT_EQ(m.in_flight(), 0u);
}

TEST_F(CqTest, PastDeadlineReapNeverCrosses) {
  warm();
  CompletionQueue cq(*substrate_, client_, channel_);
  ASSERT_TRUE(cq.submit(to_bytes("queued")).ok());
  const Cycles before = machine_->now();
  auto events = cq.reap(/*max=*/0, /*deadline=*/Cycles{1});
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
  EXPECT_EQ(machine_->now(), before);  // no crossing was charged
  EXPECT_EQ(cq.pending(), 1u);        // the submission is still queued
}

TEST_F(CqTest, CancelledSubmissionYieldsOneEvent) {
  CompletionQueue cq(*substrate_, client_, channel_);
  const SubmissionId keep = *cq.submit(to_bytes("keep"));
  const SubmissionId gone = *cq.submit(to_bytes("gone"));
  ASSERT_TRUE(cq.cancel(gone).ok());
  auto events = cq.reap();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  std::map<SubmissionId, CqEvent> by_id;
  for (CqEvent& event : *events) by_id[event.id] = std::move(event);
  EXPECT_EQ(by_id.at(gone).status, Errc::cancelled);
  EXPECT_EQ(by_id.at(gone).cycles, 0u);
  EXPECT_EQ(to_string(by_id.at(keep).payload), "keep!");
}

TEST_F(CqTest, ExpiredStagedSubmissionReturnsPoolSlot) {
  warm();
  auto region = substrate_->create_region(client_, server_, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(client_, *region).ok());
  ASSERT_TRUE(substrate_->map_region(server_, *region).ok());
  RegionPool pool(*substrate_, client_, *region, 4096, 256);
  const std::size_t free_before = pool.slots_free();
  CompletionQueue cq(*substrate_, client_, channel_);
  ASSERT_TRUE(cq.submit_staged(pool, to_bytes("hdr"), to_bytes("payload"),
                               {.deadline = Cycles{1}})
                  .ok());
  EXPECT_EQ(pool.slots_free(), free_before - 1);
  auto events = cq.reap();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].status, Errc::timed_out);
  // The unified completion helper returned the slot — no leak on the
  // deadline path.
  EXPECT_EQ(pool.slots_free(), free_before);
}

TEST_F(CqTest, MaybeDoorbellRingsAtDepthTarget) {
  CompletionQueueConfig cfg;
  cfg.adaptive.min_batch = 2;
  cfg.adaptive.max_batch = 8;
  CompletionQueue cq(*substrate_, client_, channel_, cfg);
  ASSERT_TRUE(cq.submit(to_bytes("a")).ok());
  ASSERT_TRUE(cq.maybe_doorbell().ok());
  EXPECT_EQ(cq.ready(), 0u);  // 1 < target 2: no ring
  ASSERT_TRUE(cq.submit(to_bytes("b")).ok());
  ASSERT_TRUE(cq.maybe_doorbell().ok());
  EXPECT_EQ(cq.ready(), 2u);  // occupancy reached the target
}

TEST_F(CqTest, MaybeDoorbellRingsForAgedStragglers) {
  CompletionQueueConfig cfg;
  cfg.adaptive.min_batch = 8;
  cfg.adaptive.max_batch = 8;
  cfg.adaptive.flush_age = 100;
  CompletionQueue cq(*substrate_, client_, channel_, cfg);
  ASSERT_TRUE(cq.submit(to_bytes("straggler")).ok());
  ASSERT_TRUE(cq.maybe_doorbell().ok());
  EXPECT_EQ(cq.ready(), 0u);  // young and far below the depth target
  machine_->advance(150);
  ASSERT_TRUE(cq.maybe_doorbell().ok());
  EXPECT_EQ(cq.ready(), 1u);  // age bound fired
}

TEST_F(CqTest, WaitShimResolvesOneIdAndKeepsTheRest) {
  CompletionQueue cq(*substrate_, client_, channel_);
  const SubmissionId a = *cq.submit(to_bytes("a"));
  const SubmissionId b = *cq.submit(to_bytes("b"));
  EXPECT_EQ(to_string(*cq.wait(b)), "b!");
  EXPECT_EQ(cq.ready(), 1u);  // a's event stayed in the ready queue
  EXPECT_EQ(to_string(*cq.wait(a)), "a!");
  EXPECT_EQ(cq.wait(9999).error(), Errc::invalid_argument);
}

TEST_F(CqTest, RefusedRvalueSubmitLeavesBufferUntouched) {
  CompletionQueueConfig cfg;
  cfg.depth = 2;
  cfg.adaptive.min_batch = 1;
  cfg.adaptive.max_batch = 2;
  CompletionQueue cq(*substrate_, client_, channel_, cfg);
  ASSERT_TRUE(cq.submit(to_bytes("a")).ok());
  ASSERT_TRUE(cq.submit(to_bytes("b")).ok());
  Bytes payload = to_bytes("keep-me");
  EXPECT_EQ(cq.submit(std::move(payload)).error(), Errc::exhausted);
  // The refusal consumed nothing: the caller still owns the bytes and can
  // retry with the same buffer once the doorbell made room.
  EXPECT_EQ(to_string(payload), "keep-me");  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(cq.doorbell().ok());
  const auto id = cq.submit(std::move(payload));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(to_string(*cq.wait(*id)), "keep-me!");
  EXPECT_EQ(cq.metrics().rejected, 1u);
}

TEST_F(CqTest, IdsStayUniqueAcrossRingWraparound) {
  // A two-slot ring: the third submission reuses the first one's slot.
  CompletionQueueConfig cfg;
  cfg.depth = 2;
  cfg.adaptive.min_batch = 1;
  cfg.adaptive.max_batch = 2;
  CompletionQueue cq(*substrate_, client_, channel_, cfg);
  const SubmissionId old_id = *cq.submit(to_bytes("old"));
  EXPECT_EQ(to_string(*cq.wait(old_id)), "old!");
  const SubmissionId x = *cq.submit(to_bytes("x"));
  const SubmissionId y = *cq.submit(to_bytes("y"));  // old_id's slot
  EXPECT_NE(y, old_id);
  EXPECT_NE(x, old_id);
  // The stale id names nothing any more: no cancel mark lands on the
  // occupant, and wait neither rings nor returns someone else's event.
  const Cycles before = machine_->now();
  EXPECT_EQ(cq.cancel(old_id).error(), Errc::invalid_argument);
  EXPECT_EQ(cq.wait(old_id).error(), Errc::invalid_argument);
  EXPECT_EQ(machine_->now(), before);
  EXPECT_EQ(cq.pending(), 2u);
  EXPECT_EQ(to_string(*cq.wait(y)), "y!");
  EXPECT_EQ(to_string(*cq.wait(x)), "x!");
  EXPECT_EQ(cq.metrics().cancelled, 0u);

  // The BatchChannel adapter shares the id scheme.
  BatchChannel batch(*substrate_, client_, channel_, {.depth = 2});
  const SubmissionId b_old = *batch.submit(to_bytes("old"));
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(to_string(*batch.wait(b_old)), "old!");
  const SubmissionId bx = *batch.submit(to_bytes("x"));
  const SubmissionId by = *batch.submit(to_bytes("y"));
  EXPECT_NE(by, b_old);
  EXPECT_EQ(batch.cancel(b_old).error(), Errc::invalid_argument);
  EXPECT_EQ(batch.wait(b_old).error(), Errc::invalid_argument);
  EXPECT_EQ(batch.pending(), 2u);  // the stale wait flushed nothing
  ASSERT_TRUE(batch.flush().ok());
  EXPECT_EQ(to_string(*batch.wait(by)), "y!");
  EXPECT_EQ(to_string(*batch.wait(bx)), "x!");
  EXPECT_EQ(batch.metrics().cancelled, 0u);
}

TEST_F(CqTest, ControllerStateIsExportedThroughTheHub) {
  MetricsHub hub;
  CompletionQueueConfig cfg;
  cfg.adaptive.min_batch = 2;
  cfg.adaptive.max_batch = 8;
  cfg.hub = &hub;
  cfg.label = "cq.export";
  CompletionQueue cq(*substrate_, client_, channel_, cfg);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(cq.submit(to_bytes("x")).ok());
  ASSERT_TRUE(cq.doorbell().ok());
  const InvocationCounters snap = hub.counters("cq.export").snapshot();
  EXPECT_EQ(snap.doorbells, 1u);
  EXPECT_EQ(snap.adaptive_depth, cq.batch_depth());
  EXPECT_EQ(snap.adaptive_grows + snap.adaptive_shrinks,
            cq.metrics().adaptive_grows + cq.metrics().adaptive_shrinks);
}

TEST_F(CqTest, ExecutorCoalescesSameEndpointCalls) {
  const std::uint64_t epoch = *substrate_->channel_epoch(channel_);
  const core::Endpoint endpoint(substrate_.get(), channel_, client_, epoch);
  Executor executor({.threads = 1});
  std::vector<Future> futures;
  for (int i = 0; i < 8; ++i) {
    auto f = executor.submit_call(endpoint,
                                  to_bytes("e" + std::to_string(i)));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  for (int i = 0; i < 8; ++i) {
    auto reply = futures[static_cast<std::size_t>(i)].wait();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(to_string(*reply), "e" + std::to_string(i) + "!");
  }
  executor.wait_all();
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.cq_calls, 8u);
  EXPECT_GE(stats.cq_batches, 1u);
  // Coalescing means doorbells never exceed calls; with one worker and a
  // pre-filled queue they should be strictly fewer.
  EXPECT_LE(stats.cq_batches, stats.cq_calls);
}

// ---------------------------------------------------------------------------
// x8 conformance: one doorbell == one coalesced crossing, on every
// substrate.

class CqConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("cq-" + GetParam());
    substrate_ = *test::shared_registry().create(GetParam(), *machine_);
    client_ = *substrate_->create_domain(tc_spec("client"));
    const bool use_legacy = has_feature(substrate_->info().features,
                                        substrate::Feature::legacy_hosting);
    server_ = *substrate_->create_domain(use_legacy
                                             ? legacy_spec("server")
                                             : tc_spec("server"));
    channel_ = *substrate_->create_channel(client_, server_);
    ASSERT_TRUE(substrate_
                    ->set_handler(server_,
                                  [](const substrate::Invocation& inv)
                                      -> Result<Bytes> {
                                    return Bytes(inv.data.begin(),
                                                 inv.data.end());
                                  })
                    .ok());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> substrate_;
  substrate::DomainId client_ = 0, server_ = 0;
  substrate::ChannelId channel_ = 0;
};

TEST_P(CqConformance, ReapChargesExactlyOneCrossingPerDrain) {
  // Baseline: what one synchronous call costs here.
  const Cycles sync_start = machine_->now();
  ASSERT_TRUE(substrate_->call(client_, channel_, to_bytes("ping")).ok());
  const Cycles sync_cost = machine_->now() - sync_start;
  ASSERT_GT(sync_cost, 0u);

  CompletionQueue cq(*substrate_, client_, channel_);
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(cq.submit(to_bytes("m" + std::to_string(i))).ok());
  const Cycles drain_start = machine_->now();
  auto events = cq.reap();
  const Cycles drain_cost = machine_->now() - drain_start;
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 8u);
  // One coalesced crossing for all 8: far cheaper than 8 sync calls, and
  // cheaper than even 2 (the fixed crossing is paid once, not per call).
  EXPECT_LT(drain_cost, 2 * sync_cost) << GetParam();
  const InvocationCounters m = cq.metrics();
  EXPECT_EQ(m.batches, 1u) << GetParam();
  EXPECT_EQ(m.doorbells, 1u) << GetParam();

  // And a drain with nothing queued and nothing ready is free: no charge,
  // no phantom doorbell.
  const Cycles idle_start = machine_->now();
  auto idle = cq.reap();
  ASSERT_TRUE(idle.ok());
  EXPECT_TRUE(idle->empty());
  EXPECT_EQ(machine_->now(), idle_start) << GetParam();
  EXPECT_EQ(cq.metrics().doorbells, 1u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, CqConformance,
                         ::testing::Values("microkernel", "trustzone", "sgx",
                                           "tpm", "ftpm", "sep", "cheri",
                                           "noc"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lateral::runtime
