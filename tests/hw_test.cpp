// Simulated hardware: physical memory regions and attributes, frame
// allocation, IOMMU-filtered DMA, physical bus attacker, fuses, cost model.
#include <gtest/gtest.h>

#include "hw/attacker.h"
#include "hw/iommu.h"
#include "hw/machine.h"
#include "hw/memory.h"
#include "test_support.h"
#include "util/rng.h"

namespace lateral::hw {
namespace {

TEST(PhysicalMemory, RegionsMustBePageAligned) {
  PhysicalMemory mem(64 * kPageSize);
  EXPECT_FALSE(mem.add_region("bad", 100, kPageSize, {}).ok());
  EXPECT_FALSE(mem.add_region("bad", 0, 100, {}).ok());
  EXPECT_TRUE(mem.add_region("good", 0, kPageSize, {}).ok());
}

TEST(PhysicalMemory, RegionsMustNotOverlap) {
  PhysicalMemory mem(64 * kPageSize);
  ASSERT_TRUE(mem.add_region("a", 0, 4 * kPageSize, {}).ok());
  EXPECT_FALSE(mem.add_region("b", 2 * kPageSize, 4 * kPageSize, {}).ok());
  EXPECT_TRUE(mem.add_region("c", 4 * kPageSize, kPageSize, {}).ok());
}

TEST(PhysicalMemory, DuplicateRegionNameRejected) {
  PhysicalMemory mem(64 * kPageSize);
  ASSERT_TRUE(mem.add_region("x", 0, kPageSize, {}).ok());
  EXPECT_FALSE(mem.add_region("x", kPageSize, kPageSize, {}).ok());
}

TEST(PhysicalMemory, ReadWriteRoundTrip) {
  PhysicalMemory mem(4 * kPageSize);
  const AccessContext ctx{};
  ASSERT_TRUE(mem.write(ctx, 100, to_bytes("hello")).ok());
  Bytes out;
  ASSERT_TRUE(mem.read(ctx, 100, 5, out).ok());
  EXPECT_EQ(to_string(out), "hello");
}

// Pages get storage on their first write: a range that spans written and
// never-written pages reads back the written bytes and zeros elsewhere,
// through every read path.
TEST(PhysicalMemory, AccessesSpanPagesAndUnwrittenPagesReadZero) {
  PhysicalMemory mem(8 * kPageSize);
  const AccessContext ctx{};
  const Bytes data = to_bytes("straddles a page boundary");
  const PhysAddr at = 3 * kPageSize - 10;
  ASSERT_TRUE(mem.write(ctx, at, data).ok());
  Bytes out;
  ASSERT_TRUE(mem.read(ctx, 2 * kPageSize, 3 * kPageSize, out).ok());
  Bytes expected(3 * kPageSize, 0);
  std::copy(data.begin(), data.end(), expected.begin() + (kPageSize - 10));
  EXPECT_EQ(out, expected);
  EXPECT_EQ(mem.dump(2 * kPageSize, 3 * kPageSize), expected);
  ASSERT_TRUE(mem.raw_read(7 * kPageSize, kPageSize, out).ok());
  EXPECT_EQ(out, Bytes(kPageSize, 0));
  EXPECT_FALSE(mem.read(ctx, 8 * kPageSize - 4, 5, out).ok());
}

// A discarded page reads as zeros again through every path; its neighbours
// keep their bytes, and a misaligned or out-of-range discard is refused.
TEST(PhysicalMemory, DiscardedPagesReadZeroAgain) {
  PhysicalMemory mem(4 * kPageSize);
  const AccessContext ctx{};
  const Bytes data = to_bytes("straddles a page boundary");
  const PhysAddr at = 2 * kPageSize - 10;
  ASSERT_TRUE(mem.write(ctx, at, data).ok());
  ASSERT_TRUE(mem.discard(kPageSize, 1).ok());
  Bytes out;
  ASSERT_TRUE(mem.read(ctx, at, data.size(), out).ok());
  Bytes expected(data.size(), 0);
  std::copy(data.begin() + 10, data.end(), expected.begin() + 10);
  EXPECT_EQ(out, expected);
  ASSERT_TRUE(mem.raw_read(kPageSize, kPageSize, out).ok());
  EXPECT_EQ(out, Bytes(kPageSize, 0));
  EXPECT_TRUE(mem.discard(0, 4).ok());  // never-written pages too
  EXPECT_EQ(mem.dump(at, data.size()), Bytes(data.size(), 0));
  EXPECT_EQ(mem.discard(100, 1).error(), Errc::invalid_argument);
  EXPECT_EQ(mem.discard(3 * kPageSize, 2).error(), Errc::invalid_argument);
}

TEST(PhysicalMemory, SecureOnlyRegionBlocksNonSecure) {
  PhysicalMemory mem(4 * kPageSize);
  ASSERT_TRUE(mem.add_region("sec", 0, kPageSize, {.secure_only = true}).ok());
  Bytes out;
  const AccessContext non_secure{SecurityState::non_secure, 0};
  const AccessContext secure{SecurityState::secure, 0};
  EXPECT_EQ(mem.read(non_secure, 0, 16, out).error(), Errc::access_denied);
  EXPECT_EQ(mem.write(non_secure, 0, to_bytes("x")).error(),
            Errc::access_denied);
  EXPECT_TRUE(mem.read(secure, 0, 16, out).ok());
}

TEST(PhysicalMemory, ReadOnlyRegionBlocksWrites) {
  PhysicalMemory mem(4 * kPageSize);
  ASSERT_TRUE(mem.add_region("rom", 0, kPageSize, {.read_only = true}).ok());
  const AccessContext ctx{};
  EXPECT_EQ(mem.write(ctx, 0, to_bytes("x")).error(), Errc::access_denied);
  Bytes out;
  EXPECT_TRUE(mem.read(ctx, 0, 4, out).ok());
}

TEST(PhysicalMemory, OwnerTagGatesAccess) {
  PhysicalMemory mem(4 * kPageSize);
  ASSERT_TRUE(mem.set_page_owner(0, 42).ok());
  Bytes out;
  EXPECT_EQ(mem.read(AccessContext{SecurityState::non_secure, 0}, 0, 8, out)
                .error(),
            Errc::access_denied);
  EXPECT_EQ(mem.read(AccessContext{SecurityState::non_secure, 7}, 0, 8, out)
                .error(),
            Errc::access_denied);
  EXPECT_TRUE(
      mem.read(AccessContext{SecurityState::non_secure, 42}, 0, 8, out).ok());
  // Clearing the tag restores general access.
  ASSERT_TRUE(mem.set_page_owner(0, 0).ok());
  EXPECT_TRUE(
      mem.read(AccessContext{SecurityState::non_secure, 0}, 0, 8, out).ok());
}

TEST(PhysicalMemory, OutOfBoundsRejected) {
  PhysicalMemory mem(kPageSize);
  Bytes out;
  const AccessContext ctx{};
  EXPECT_FALSE(mem.read(ctx, kPageSize - 1, 2, out).ok());
  EXPECT_FALSE(mem.write(ctx, kPageSize, to_bytes("x")).ok());
}

TEST(PhysicalMemory, RawReadBlockedOnChip) {
  PhysicalMemory mem(4 * kPageSize);
  ASSERT_TRUE(mem.add_region("sram", 0, kPageSize, {.on_chip = true}).ok());
  ASSERT_TRUE(mem.add_region("dram", kPageSize, kPageSize, {}).ok());
  Bytes out;
  EXPECT_EQ(mem.raw_read(0, 16, out).error(), Errc::access_denied);
  EXPECT_TRUE(mem.raw_read(kPageSize, 16, out).ok());
  EXPECT_EQ(mem.raw_write(10, to_bytes("x")).error(), Errc::access_denied);
  EXPECT_TRUE(mem.raw_write(kPageSize + 10, to_bytes("x")).ok());
}

TEST(FrameAllocator, AllocatesAndFrees) {
  FrameAllocator alloc(Range{0, 8 * kPageSize});
  EXPECT_EQ(alloc.pages_free(), 8u);
  auto a = alloc.allocate(3);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(alloc.pages_free(), 5u);
  ASSERT_TRUE(alloc.free(*a, 3).ok());
  EXPECT_EQ(alloc.pages_free(), 8u);
}

TEST(FrameAllocator, ContiguousAllocation) {
  FrameAllocator alloc(Range{0, 8 * kPageSize});
  auto a = alloc.allocate(2);
  auto b = alloc.allocate(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(*b - *a, 2 * kPageSize);  // first fit packs densely
}

TEST(FrameAllocator, ExhaustionReported) {
  FrameAllocator alloc(Range{0, 2 * kPageSize});
  ASSERT_TRUE(alloc.allocate(2).ok());
  EXPECT_EQ(alloc.allocate(1).error(), Errc::exhausted);
}

TEST(FrameAllocator, DoubleFreeRejected) {
  FrameAllocator alloc(Range{0, 4 * kPageSize});
  auto a = alloc.allocate(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.free(*a, 1).ok());
  EXPECT_FALSE(alloc.free(*a, 1).ok());
}

TEST(FrameAllocator, ReusesFreedHoles) {
  FrameAllocator alloc(Range{0, 4 * kPageSize});
  auto a = alloc.allocate(2);
  auto b = alloc.allocate(2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(alloc.free(*a, 2).ok());
  auto c = alloc.allocate(2);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);
}

TEST(Machine, StandardRegionsExist) {
  auto machine = test::make_machine();
  EXPECT_TRUE(machine->memory().region("rom").ok());
  EXPECT_TRUE(machine->memory().region("sram").ok());
  EXPECT_TRUE(machine->memory().region("dram").ok());
  EXPECT_GT(machine->dram().size(), 0u);
}

TEST(Machine, ClockAdvances) {
  auto machine = test::make_machine();
  const Cycles start = machine->now();
  machine->advance(100);
  machine->charge(10, 2, 32);  // 10 + 2*2
  EXPECT_EQ(machine->now(), start + 100 + 14);
}

TEST(Machine, MultiCoreClocksAreIndependent) {
  auto machine = test::make_smp_machine(4);
  EXPECT_EQ(machine->core_count(), 4u);
  {
    CoreLease lease(*machine, 2);
    machine->advance(500);
  }
  EXPECT_EQ(machine->core(2), 500u);
  EXPECT_EQ(machine->core(0), 0u);
  EXPECT_EQ(machine->core(1), 0u);
  // The global epoch is the max over core clocks.
  EXPECT_EQ(machine->now(), 500u);
  {
    CoreLease lease(*machine, 0);
    machine->advance(900);
  }
  EXPECT_EQ(machine->now(), 900u);
}

TEST(Machine, CoreLeaseRestoresPreviousCore) {
  auto machine = test::make_smp_machine(2);
  EXPECT_EQ(machine->active_core(), 0u);
  {
    CoreLease outer(*machine, 1);
    EXPECT_EQ(machine->active_core(), 1u);
    {
      CoreLease inner(*machine, 0);
      EXPECT_EQ(machine->active_core(), 0u);
    }
    EXPECT_EQ(machine->active_core(), 1u);
  }
  EXPECT_EQ(machine->active_core(), 0u);
}

TEST(Machine, SingleCoreNeverPaysContention) {
  // N=1 bit-exactness: the contention model must be invisible on the
  // machines every committed FIG9/11/12 number was measured on.
  auto machine = test::make_machine();
  EXPECT_EQ(machine->note_shared_access(42), 0u);
  EXPECT_EQ(machine->note_shared_access(42), 0u);
  EXPECT_EQ(machine->contention_events(), 0u);
}

TEST(Machine, CrossCoreTouchWithinWindowPaysPenalty) {
  auto machine = test::make_smp_machine(2);
  const Cycles penalty = machine->costs().bus_contention_penalty;
  {
    CoreLease lease(*machine, 0);
    EXPECT_EQ(machine->note_shared_access(7), 0u);  // first touch is free
  }
  {
    CoreLease lease(*machine, 1);
    EXPECT_EQ(machine->note_shared_access(7), penalty);
    EXPECT_EQ(machine->core(1), penalty);
  }
  EXPECT_EQ(machine->contention_events(), 1u);
  // Same core re-touching its own line stays free.
  {
    CoreLease lease(*machine, 1);
    EXPECT_EQ(machine->note_shared_access(7), 0u);
  }
  // Distinct resources never interfere.
  {
    CoreLease lease(*machine, 0);
    EXPECT_EQ(machine->note_shared_access(8), 0u);
  }
}

TEST(Machine, ContentionWindowExpires) {
  auto machine = test::make_smp_machine(2);
  {
    CoreLease lease(*machine, 0);
    machine->note_shared_access(7);
  }
  {
    CoreLease lease(*machine, 1);
    machine->advance(machine->costs().contention_window + 10);
    // The other core's touch has aged out of the window: no penalty.
    EXPECT_EQ(machine->note_shared_access(7), 0u);
  }
  EXPECT_EQ(machine->contention_events(), 0u);
}

TEST(Machine, StallUntilOnlyMovesForward) {
  auto machine = test::make_smp_machine(2);
  {
    CoreLease lease(*machine, 1);
    machine->stall_until(300);
    EXPECT_EQ(machine->core(1), 300u);
    machine->stall_until(100);  // already past the gate: no-op
    EXPECT_EQ(machine->core(1), 300u);
  }
}

TEST(Machine, NvCounterMonotonic) {
  auto machine = test::make_machine();
  const std::uint64_t v = machine->nv_counter();
  EXPECT_EQ(machine->nv_counter_increment(), v + 1);
  EXPECT_EQ(machine->nv_counter(), v + 1);
}

TEST(Machine, BootRomMeasurementStable) {
  auto a = test::make_machine("a");
  auto b = test::make_machine("b");
  EXPECT_EQ(a->boot_rom().measurement(), b->boot_rom().measurement());
}

TEST(Machine, FusesEndorsedByVendor) {
  auto machine = test::make_machine();
  EXPECT_TRUE(crypto::rsa_verify(test::shared_vendor().root_public_key(),
                                 machine->fuses().endorsement_key().pub.serialize(),
                                 machine->fuses().endorsement_cert())
                  .ok());
}

TEST(Machine, DistinctMachinesDistinctDeviceKeys) {
  auto a = test::make_machine("a");
  auto b = test::make_machine("b");
  EXPECT_NE(a->fuses().device_key(), b->fuses().device_key());
  EXPECT_NE(a->fuses().endorsement_key().pub, b->fuses().endorsement_key().pub);
}

TEST(Iommu, EnforcingBlocksUnmappedDma) {
  auto machine = test::make_machine();
  Iommu iommu(Iommu::Mode::enforcing);
  Device device(1, "nic", *machine, iommu);
  const PhysAddr target = machine->dram().begin;
  EXPECT_EQ(device.dma_read(target, 64).error(), Errc::access_denied);
  EXPECT_EQ(device.dma_write(target, to_bytes("x")).error(),
            Errc::access_denied);
}

TEST(Iommu, MappedDmaWorks) {
  auto machine = test::make_machine();
  Iommu iommu(Iommu::Mode::enforcing);
  Device device(1, "nic", *machine, iommu);
  const PhysAddr target = machine->dram().begin;
  ASSERT_TRUE(iommu.map(1, target, 1, /*writable=*/true).ok());
  ASSERT_TRUE(device.dma_write(target, to_bytes("dma-data")).ok());
  auto read = device.dma_read(target, 8);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(to_string(*read), "dma-data");
}

TEST(Iommu, ReadOnlyMappingBlocksWrites) {
  auto machine = test::make_machine();
  Iommu iommu(Iommu::Mode::enforcing);
  Device device(1, "nic", *machine, iommu);
  const PhysAddr target = machine->dram().begin;
  ASSERT_TRUE(iommu.map(1, target, 1, /*writable=*/false).ok());
  EXPECT_TRUE(device.dma_read(target, 8).ok());
  EXPECT_EQ(device.dma_write(target, to_bytes("x")).error(),
            Errc::access_denied);
}

TEST(Iommu, MappingsArePerDevice) {
  auto machine = test::make_machine();
  Iommu iommu(Iommu::Mode::enforcing);
  Device nic(1, "nic", *machine, iommu);
  Device disk(2, "disk", *machine, iommu);
  const PhysAddr target = machine->dram().begin;
  ASSERT_TRUE(iommu.map(1, target, 1, true).ok());
  EXPECT_TRUE(nic.dma_read(target, 8).ok());
  EXPECT_EQ(disk.dma_read(target, 8).error(), Errc::access_denied);
}

TEST(Iommu, DisabledModeAllowsEverything) {
  // The pre-IOMMU world: any device DMAs anywhere off-chip.
  auto machine = test::make_machine();
  Iommu iommu(Iommu::Mode::disabled);
  Device device(1, "rogue", *machine, iommu);
  EXPECT_TRUE(device.dma_write(machine->dram().begin, to_bytes("pwn")).ok());
}

TEST(Iommu, DmaCannotReachOnChipMemoryEvenWhenDisabled) {
  auto machine = test::make_machine();
  Iommu iommu(Iommu::Mode::disabled);
  Device device(1, "rogue", *machine, iommu);
  EXPECT_FALSE(device.dma_read(machine->sram().begin, 16).ok());
}

TEST(Iommu, UnmapRevokes) {
  auto machine = test::make_machine();
  Iommu iommu(Iommu::Mode::enforcing);
  Device device(1, "nic", *machine, iommu);
  const PhysAddr target = machine->dram().begin;
  ASSERT_TRUE(iommu.map(1, target, 1, true).ok());
  ASSERT_TRUE(iommu.unmap(1, target, 1).ok());
  EXPECT_FALSE(device.dma_read(target, 8).ok());
}

TEST(PhysicalAttacker, ReadsOffChipPlaintext) {
  auto machine = test::make_machine();
  machine->memory().load(machine->dram().begin, to_bytes("secret-in-dram"));
  PhysicalAttacker attacker(*machine);
  auto probe = attacker.probe(machine->dram().begin, 14);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(to_string(*probe), "secret-in-dram");
}

TEST(PhysicalAttacker, CannotReachOnChip) {
  auto machine = test::make_machine();
  PhysicalAttacker attacker(*machine);
  EXPECT_EQ(attacker.probe(machine->sram().begin, 16).error(),
            Errc::access_denied);
  EXPECT_EQ(attacker.tamper(0, to_bytes("x")).error(), Errc::access_denied);
}

TEST(PhysicalAttacker, ScanFindsPattern) {
  auto machine = test::make_machine();
  const PhysAddr offset = machine->dram().begin + 12345;
  machine->memory().load(offset, to_bytes("NEEDLE"));
  PhysicalAttacker attacker(*machine);
  const auto hits = attacker.scan(machine->dram(), to_bytes("NEEDLE"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], offset);
}

TEST(PhysicalAttacker, TamperChangesDram) {
  auto machine = test::make_machine();
  PhysicalAttacker attacker(*machine);
  ASSERT_TRUE(attacker.tamper(machine->dram().begin, to_bytes("EVIL")).ok());
  EXPECT_EQ(to_string(machine->memory().dump(machine->dram().begin, 4)),
            "EVIL");
}

TEST(PhysicalAttacker, BitFlipsLandInRange) {
  auto machine = test::make_machine();
  PhysicalAttacker attacker(*machine);
  util::Xoshiro rng(1);
  const Bytes before = machine->memory().dump(machine->dram().begin, 4096);
  ASSERT_TRUE(
      attacker.flip_random_bits(
                  hw::Range{machine->dram().begin, machine->dram().begin + 4096},
                  32, rng)
          .ok());
  const Bytes after = machine->memory().dump(machine->dram().begin, 4096);
  EXPECT_NE(before, after);
}

TEST(CostModel, StandardOrdering) {
  // The cross-substrate invocation-cost ordering the paper implies:
  // IPC < SMC < ECALL-ish < SEP mailbox < TPM command.
  const CostModel& costs = CostModel::standard();
  EXPECT_LT(costs.ipc_one_way, costs.smc_world_switch);
  EXPECT_LT(costs.smc_world_switch,
            costs.sgx_eenter + costs.sgx_eexit);
  EXPECT_LT(costs.sgx_eenter + costs.sgx_eexit,
            costs.sep_mailbox_round_trip);
  EXPECT_LT(costs.sep_mailbox_round_trip, costs.tpm_command_base);
}

}  // namespace
}  // namespace lateral::hw
