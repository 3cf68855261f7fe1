// Microkernel substrate specifics: address spaces over DRAM frames, the
// two-policy scheduler (covert-channel mitigation), IOMMU-guarded DMA, and
// what a physical attacker sees (plaintext — the substrate's documented
// limit).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "hw/attacker.h"
#include "microkernel/microkernel.h"
#include "test_support.h"

namespace lateral::microkernel {
namespace {

using substrate::DomainId;
using test::tc_spec;

class MicrokernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("mk");
    kernel_ = std::make_unique<Microkernel>(*machine_,
                                            substrate::SubstrateConfig{});
  }
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<Microkernel> kernel_;
};

TEST_F(MicrokernelTest, FramesComeFromDram) {
  auto domain = kernel_->create_domain(tc_spec("d", 3));
  ASSERT_TRUE(domain.ok());
  auto frames = kernel_->domain_frames(*domain);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 3u);
  for (const hw::PhysAddr frame : *frames) {
    EXPECT_GE(frame, machine_->dram().begin);
    EXPECT_LT(frame, machine_->dram().end);
  }
}

TEST_F(MicrokernelTest, FramesReclaimedOnDestroy) {
  auto d1 = kernel_->create_domain(tc_spec("d1", 4));
  ASSERT_TRUE(d1.ok());
  auto frames1 = kernel_->domain_frames(*d1);
  ASSERT_TRUE(frames1.ok());
  ASSERT_TRUE(kernel_->destroy_domain(*d1).ok());
  auto d2 = kernel_->create_domain(tc_spec("d2", 4));
  ASSERT_TRUE(d2.ok());
  auto frames2 = kernel_->domain_frames(*d2);
  ASSERT_TRUE(frames2.ok());
  EXPECT_EQ(*frames1, *frames2);  // first-fit reuses the hole
}

TEST_F(MicrokernelTest, PhysicalAttackerSeesPlaintext) {
  // §II-D: plain MMU isolation does not defend the memory bus. This is a
  // *feature test* of the model: the microkernel must NOT hide data from
  // the physical attacker, or the TAB1 matrix would lie.
  auto domain = kernel_->create_domain(tc_spec("victim", 1));
  ASSERT_TRUE(domain.ok());
  ASSERT_TRUE(kernel_
                  ->write_memory(*domain, *domain, 0,
                                 to_bytes("SECRET-IN-PLAINTEXT"))
                  .ok());
  hw::PhysicalAttacker attacker(*machine_);
  const auto hits =
      attacker.scan(machine_->dram(), to_bytes("SECRET-IN-PLAINTEXT"));
  EXPECT_FALSE(hits.empty());
}

TEST_F(MicrokernelTest, LegacyOsHosting) {
  // Paravirtualized legacy OS next to trusted components (L4Android style).
  auto legacy = kernel_->create_domain(test::legacy_spec("android", 16));
  ASSERT_TRUE(legacy.ok());
  auto tc = kernel_->create_domain(tc_spec("keystore"));
  ASSERT_TRUE(tc.ok());
  // Both run concurrently; the legacy OS cannot touch the component.
  EXPECT_EQ(kernel_->read_memory(*legacy, *tc, 0, 4).error(),
            Errc::access_denied);
}

TEST_F(MicrokernelTest, GrantDmaMapsOnlyOwnFrames) {
  auto driver = kernel_->create_domain(tc_spec("driver", 2));
  auto victim = kernel_->create_domain(tc_spec("victim", 2));
  ASSERT_TRUE(driver.ok());
  ASSERT_TRUE(victim.ok());
  hw::Device nic = kernel_->make_device("nic");
  ASSERT_TRUE(kernel_->grant_dma(*driver, nic, /*writable=*/true).ok());

  auto driver_frames = kernel_->domain_frames(*driver);
  auto victim_frames = kernel_->domain_frames(*victim);
  ASSERT_TRUE(driver_frames.ok());
  ASSERT_TRUE(victim_frames.ok());

  // DMA into the driver's own buffer: allowed.
  EXPECT_TRUE(nic.dma_write((*driver_frames)[0], to_bytes("packet")).ok());
  // DMA into the victim: the IOMMU stops the malicious driver/device.
  EXPECT_EQ(nic.dma_write((*victim_frames)[0], to_bytes("pwn")).error(),
            Errc::access_denied);
}

TEST_F(MicrokernelTest, DmaAttackSucceedsWithIommuDisabled) {
  // The fig6 ablation case: no IOMMU -> any device overwrites anything.
  auto victim = kernel_->create_domain(tc_spec("victim", 1));
  ASSERT_TRUE(victim.ok());
  kernel_->iommu().set_mode(hw::Iommu::Mode::disabled);
  hw::Device rogue = kernel_->make_device("rogue");
  auto frames = kernel_->domain_frames(*victim);
  ASSERT_TRUE(frames.ok());
  EXPECT_TRUE(rogue.dma_write((*frames)[0], to_bytes("overwritten")).ok());
  auto read = kernel_->read_memory(*victim, *victim, 0, 11);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(to_string(*read), "overwritten");
}

TEST_F(MicrokernelTest, MemoryGrantSharesExactPages) {
  auto producer = kernel_->create_domain(tc_spec("producer", 4));
  auto consumer = kernel_->create_domain(tc_spec("consumer", 2));
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE(consumer.ok());

  // Without a grant: nothing.
  EXPECT_EQ(kernel_->read_granted(*consumer, *producer, 0, 16).error(),
            Errc::access_denied);

  // Grant page 1 read-only.
  ASSERT_TRUE(kernel_
                  ->grant_memory(*producer, *consumer, /*first_page=*/1,
                                 /*pages=*/1, /*writable=*/false)
                  .ok());
  ASSERT_TRUE(kernel_
                  ->write_memory(*producer, *producer, hw::kPageSize,
                                 to_bytes("shared-buffer"))
                  .ok());
  auto read = kernel_->read_granted(*consumer, *producer, hw::kPageSize, 13);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(to_string(*read), "shared-buffer");

  // The grant is exact: page 0 stays private, writes stay refused, and
  // a range straddling out of the grant fails.
  EXPECT_EQ(kernel_->read_granted(*consumer, *producer, 0, 8).error(),
            Errc::access_denied);
  EXPECT_EQ(kernel_
                ->write_granted(*consumer, *producer, hw::kPageSize,
                                to_bytes("x"))
                .error(),
            Errc::access_denied);
  EXPECT_EQ(kernel_
                ->read_granted(*consumer, *producer,
                               2 * hw::kPageSize - 4, 8)
                .error(),
            Errc::access_denied);
}

TEST_F(MicrokernelTest, WritableGrantAllowsSharedWrite) {
  auto a = kernel_->create_domain(tc_spec("a", 2));
  auto b = kernel_->create_domain(tc_spec("b", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(kernel_->grant_memory(*a, *b, 0, 1, /*writable=*/true).ok());
  ASSERT_TRUE(
      kernel_->write_granted(*b, *a, 100, to_bytes("from-peer")).ok());
  auto read = kernel_->read_memory(*a, *a, 100, 9);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(to_string(*read), "from-peer");
}

TEST_F(MicrokernelTest, RevocationRemovesAccess) {
  auto a = kernel_->create_domain(tc_spec("a", 2));
  auto b = kernel_->create_domain(tc_spec("b", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(kernel_->grant_memory(*a, *b, 0, 2, true).ok());
  ASSERT_TRUE(kernel_->read_granted(*b, *a, 0, 16).ok());
  ASSERT_TRUE(kernel_->revoke_memory(*a, *b).ok());
  EXPECT_EQ(kernel_->read_granted(*b, *a, 0, 16).error(),
            Errc::access_denied);
  EXPECT_FALSE(kernel_->revoke_memory(*a, *b).ok());  // nothing left
}

TEST_F(MicrokernelTest, GrantValidation) {
  auto a = kernel_->create_domain(tc_spec("a", 2));
  auto b = kernel_->create_domain(tc_spec("b", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(kernel_->grant_memory(*a, *a, 0, 1, true).ok());   // self
  EXPECT_FALSE(kernel_->grant_memory(*a, *b, 0, 0, true).ok());   // empty
  EXPECT_FALSE(kernel_->grant_memory(*a, *b, 1, 2, true).ok());   // beyond
  EXPECT_FALSE(kernel_->grant_memory(*a, 999, 0, 1, true).ok());  // ghost
}

TEST_F(MicrokernelTest, GrantsDieWithEitherDomain) {
  auto a = kernel_->create_domain(tc_spec("a", 2));
  auto b = kernel_->create_domain(tc_spec("b", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(kernel_->grant_memory(*a, *b, 0, 1, false).ok());
  ASSERT_TRUE(kernel_->destroy_domain(*a).ok());
  // A new domain may reuse a's frames; b must not retain a path to them.
  auto c = kernel_->create_domain(tc_spec("c", 2));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(kernel_->read_granted(*b, *c, 0, 16).error(),
            Errc::access_denied);
}

// A killed domain is a corpse: the grant calls read it as domain_dead, as
// read_memory/write_memory and every other operation do, and keep
// no_such_domain for an id that never existed.
TEST_F(MicrokernelTest, GrantCallsReportACorpseAsDead) {
  auto a = kernel_->create_domain(tc_spec("a", 2));
  auto b = kernel_->create_domain(tc_spec("b", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(kernel_->grant_memory(*a, *b, 0, 1, true).ok());
  hw::Device nic = kernel_->make_device("nic");
  ASSERT_TRUE(kernel_->kill_domain(*b).ok());
  constexpr DomainId kGhost = 999;

  EXPECT_EQ(kernel_->grant_dma(*b, nic, false).error(), Errc::domain_dead);
  EXPECT_EQ(kernel_->grant_dma(kGhost, nic, false).error(),
            Errc::no_such_domain);

  EXPECT_EQ(kernel_->grant_memory(*a, *b, 0, 1, false).error(),
            Errc::domain_dead);
  EXPECT_EQ(kernel_->grant_memory(*b, *a, 0, 1, false).error(),
            Errc::domain_dead);
  EXPECT_EQ(kernel_->grant_memory(*a, kGhost, 0, 1, false).error(),
            Errc::no_such_domain);

  EXPECT_EQ(kernel_->read_granted(*b, *a, 0, 4).error(), Errc::domain_dead);
  EXPECT_EQ(kernel_->read_granted(*a, *b, 0, 4).error(), Errc::domain_dead);
  EXPECT_EQ(kernel_->read_granted(kGhost, *a, 0, 4).error(),
            Errc::no_such_domain);

  EXPECT_EQ(kernel_->write_granted(*b, *a, 0, to_bytes("x")).error(),
            Errc::domain_dead);
  EXPECT_EQ(kernel_->write_granted(*a, *b, 0, to_bytes("x")).error(),
            Errc::domain_dead);
  EXPECT_EQ(kernel_->write_granted(kGhost, *a, 0, to_bytes("x")).error(),
            Errc::no_such_domain);

  // Once reaped, the id is gone: no_such_domain again.
  ASSERT_TRUE(kernel_->destroy_domain(*b).ok());
  EXPECT_EQ(kernel_->read_granted(*b, *a, 0, 4).error(),
            Errc::no_such_domain);
}

TEST(Scheduler, SharesRespectedUnderFullDemand) {
  Scheduler sched(SchedulingPolicy::fixed_partition);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());
  ASSERT_TRUE(sched.add_domain(2, 250).ok());
  ASSERT_TRUE(sched.add_domain(3, 250).ok());
  for (DomainId d : {1u, 2u, 3u}) ASSERT_TRUE(sched.set_demand(d, 1'000'000).ok());
  const auto grants = sched.run_epoch(100'000);
  EXPECT_EQ(grants.at(1), 50'000u);
  EXPECT_EQ(grants.at(2), 25'000u);
  EXPECT_EQ(grants.at(3), 25'000u);
}

TEST(Scheduler, WorkConservingDonatesSlack) {
  Scheduler sched(SchedulingPolicy::work_conserving);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());
  ASSERT_TRUE(sched.add_domain(2, 500).ok());
  ASSERT_TRUE(sched.set_demand(1, 10'000).ok());   // mostly idle
  ASSERT_TRUE(sched.set_demand(2, 1'000'000).ok());  // greedy
  const auto grants = sched.run_epoch(100'000);
  EXPECT_EQ(grants.at(1), 10'000u);
  EXPECT_EQ(grants.at(2), 90'000u);  // received domain 1's slack
}

TEST(Scheduler, FixedPartitionIdlesSlack) {
  Scheduler sched(SchedulingPolicy::fixed_partition);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());
  ASSERT_TRUE(sched.add_domain(2, 500).ok());
  ASSERT_TRUE(sched.set_demand(1, 10'000).ok());
  ASSERT_TRUE(sched.set_demand(2, 1'000'000).ok());
  const auto grants = sched.run_epoch(100'000);
  EXPECT_EQ(grants.at(1), 10'000u);
  EXPECT_EQ(grants.at(2), 50'000u);  // capped at its partition
}

TEST(Scheduler, CovertChannelExistsWhenWorkConserving) {
  // Sender signals a bit by yielding (0) or burning (1) its slice; the
  // receiver's grant varies with the sender's behaviour => readable bit.
  Scheduler sched(SchedulingPolicy::work_conserving);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());  // sender
  ASSERT_TRUE(sched.add_domain(2, 500).ok());  // receiver (always greedy)
  ASSERT_TRUE(sched.set_demand(2, 1'000'000).ok());

  ASSERT_TRUE(sched.set_demand(1, 0).ok());  // bit 0: yield
  const Cycles bit0 = sched.run_epoch(100'000).at(2);
  ASSERT_TRUE(sched.set_demand(1, 1'000'000).ok());  // bit 1: burn
  const Cycles bit1 = sched.run_epoch(100'000).at(2);
  EXPECT_NE(bit0, bit1);  // the channel is wide open
  EXPECT_GT(bit0, bit1);
}

TEST(Scheduler, CovertChannelClosedByFixedPartitions) {
  Scheduler sched(SchedulingPolicy::fixed_partition);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());
  ASSERT_TRUE(sched.add_domain(2, 500).ok());
  ASSERT_TRUE(sched.set_demand(2, 1'000'000).ok());

  ASSERT_TRUE(sched.set_demand(1, 0).ok());
  const Cycles bit0 = sched.run_epoch(100'000).at(2);
  ASSERT_TRUE(sched.set_demand(1, 1'000'000).ok());
  const Cycles bit1 = sched.run_epoch(100'000).at(2);
  EXPECT_EQ(bit0, bit1);  // receiver cannot observe the sender at all
}

TEST(Scheduler, RemoveDomainStopsScheduling) {
  Scheduler sched(SchedulingPolicy::work_conserving);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());
  ASSERT_TRUE(sched.remove_domain(1).ok());
  EXPECT_FALSE(sched.set_demand(1, 100).ok());
  EXPECT_TRUE(sched.run_epoch(1000).empty());
}

TEST(Scheduler, ZeroShareRejected) {
  Scheduler sched(SchedulingPolicy::work_conserving);
  EXPECT_FALSE(sched.add_domain(1, 0).ok());
}

TEST(Scheduler, RoundRobinPlacementAndAffinity) {
  Scheduler sched(SchedulingPolicy::work_conserving, 2);
  EXPECT_EQ(sched.core_count(), 2u);
  ASSERT_TRUE(sched.add_domain(1, 100).ok());
  ASSERT_TRUE(sched.add_domain(2, 100).ok());
  ASSERT_TRUE(sched.add_domain(3, 100).ok());
  EXPECT_EQ(*sched.core_of(1), 0u);  // deterministic round-robin homes
  EXPECT_EQ(*sched.core_of(2), 1u);
  EXPECT_EQ(*sched.core_of(3), 0u);
  ASSERT_TRUE(sched.set_affinity(3, 1).ok());
  EXPECT_EQ(*sched.core_of(3), 1u);
  EXPECT_FALSE(sched.set_affinity(3, 2).ok());  // no such core
  EXPECT_FALSE(sched.set_affinity(9, 0).ok());  // no such domain
}

TEST(Scheduler, IdleBalanceMigratesHungriestDomain) {
  Scheduler sched(SchedulingPolicy::work_conserving, 2);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());  // core 0, mostly idle
  ASSERT_TRUE(sched.add_domain(2, 500).ok());  // core 1, greedy
  ASSERT_TRUE(sched.set_demand(1, 10'000).ok());
  ASSERT_TRUE(sched.set_demand(2, 1'000'000).ok());
  const auto grants = sched.run_epoch(100'000);
  // Domain 2 exhausted its own core's epoch, then idle balancing pulled it
  // to core 0 and granted it the slack there too (an IPI kick).
  EXPECT_EQ(grants.at(1), 10'000u);
  EXPECT_EQ(grants.at(2), 190'000u);
  EXPECT_EQ(*sched.core_of(2), 0u);  // the migration moved its home
  EXPECT_EQ(sched.smp_stats().migrations, 1u);
  EXPECT_EQ(sched.smp_stats().ipi_kicks, 1u);
}

TEST(Scheduler, PinnedDomainIsNeverMigrated) {
  Scheduler sched(SchedulingPolicy::work_conserving, 2);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());
  ASSERT_TRUE(sched.add_domain(2, 500).ok());
  ASSERT_TRUE(sched.set_affinity(2, 1).ok());
  ASSERT_TRUE(sched.set_demand(1, 10'000).ok());
  ASSERT_TRUE(sched.set_demand(2, 1'000'000).ok());
  const auto grants = sched.run_epoch(100'000);
  EXPECT_EQ(grants.at(2), 100'000u);  // capped at its own core's epoch
  EXPECT_EQ(*sched.core_of(2), 1u);
  EXPECT_EQ(sched.smp_stats().migrations, 0u);
}

TEST(Scheduler, FixedPartitionNeverMigratesAcrossCores) {
  // Cross-core donation would reopen the covert channel the policy closes:
  // a sender could signal by yielding its core's time to a receiver homed
  // elsewhere. Partitions are strictly per-core.
  Scheduler sched(SchedulingPolicy::fixed_partition, 2);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());
  ASSERT_TRUE(sched.add_domain(2, 500).ok());
  ASSERT_TRUE(sched.set_demand(1, 0).ok());  // core 0 fully idle
  ASSERT_TRUE(sched.set_demand(2, 1'000'000).ok());
  const auto grants = sched.run_epoch(100'000);
  EXPECT_EQ(grants.at(2), 100'000u);
  EXPECT_EQ(*sched.core_of(2), 1u);
  EXPECT_EQ(sched.smp_stats().migrations, 0u);
  EXPECT_EQ(sched.smp_stats().ipi_kicks, 0u);
}

TEST(Scheduler, CoreTimeIsMonotone) {
  Scheduler sched(SchedulingPolicy::work_conserving, 2);
  ASSERT_TRUE(sched.add_domain(1, 500).ok());
  ASSERT_TRUE(sched.add_domain(2, 500).ok());
  Cycles last0 = 0;
  Cycles last1 = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(sched.set_demand(1, i % 3 == 0 ? 0 : 50'000).ok());
    ASSERT_TRUE(sched.set_demand(2, 1'000'000).ok());
    (void)sched.run_epoch(100'000);
    EXPECT_GE(sched.core_time(0), last0);
    EXPECT_GE(sched.core_time(1), last1);
    last0 = sched.core_time(0);
    last1 = sched.core_time(1);
  }
  EXPECT_GT(last0 + last1, 0u);
}

TEST(Scheduler, ThreadSafeUnderConcurrentEpochs) {
  // TSan pin: demands, epochs and stat reads race from worker threads the
  // way executor workers and a supervisor would drive one kernel instance.
  Scheduler sched(SchedulingPolicy::work_conserving, 4);
  for (DomainId d = 1; d <= 8; ++d)
    ASSERT_TRUE(sched.add_domain(d, 100).ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sched, t] {
      Cycles last = 0;
      for (int i = 0; i < 50; ++i) {
        (void)sched.set_demand(1 + (t + i) % 8, 1'000 * (i + 1));
        (void)sched.run_epoch(10'000);
        (void)sched.core_of(1 + i % 8);
        (void)sched.smp_stats();
        const Cycles seen = sched.core_time(static_cast<std::size_t>(t));
        EXPECT_GE(seen, last);  // monotone even under the races
        last = seen;
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST_F(MicrokernelTest, SchedulerSizedToMachineCores) {
  auto machine = test::make_smp_machine(4, "mk-smp");
  Microkernel kernel(*machine, substrate::SubstrateConfig{});
  EXPECT_EQ(kernel.scheduler().core_count(), 4u);
  EXPECT_EQ(kernel_->scheduler().core_count(), 1u);  // default machine
}

TEST(Scheduler, CovertMitigationReflectedInFeatures) {
  auto machine = test::make_machine("mk-feat");
  Microkernel partitioned(*machine, substrate::SubstrateConfig{},
                          SchedulingPolicy::fixed_partition);
  EXPECT_TRUE(has_feature(partitioned.info().features,
                          substrate::Feature::covert_channel_mitigation));
  auto machine2 = test::make_machine("mk-feat2");
  Microkernel shared(*machine2, substrate::SubstrateConfig{},
                     SchedulingPolicy::work_conserving);
  EXPECT_FALSE(has_feature(shared.info().features,
                           substrate::Feature::covert_channel_mitigation));
}

}  // namespace
}  // namespace lateral::microkernel
