// fTPM: the same TPM command set as the discrete chip, implemented in
// TrustZone software — plus a parameterized interchangeability suite that
// runs the identical BitLocker-style scenario against both implementations
// (the paper's §II-C point that isolation technologies are partially
// interchangeable).
#include <gtest/gtest.h>

#include "ftpm/ftpm.h"
#include "hw/attacker.h"
#include "test_support.h"
#include "tpm/tpm.h"

namespace lateral {
namespace {

using test::tc_spec;

class FtpmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("ftpm");
    ftpm_ = std::make_unique<ftpm::Ftpm>(*machine_,
                                         substrate::SubstrateConfig{});
  }
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<ftpm::Ftpm> ftpm_;
};

TEST_F(FtpmTest, CommandsAreOrdersOfMagnitudeCheaperThanTheChip) {
  auto chip_machine = test::make_machine("tpm-chip");
  tpm::Tpm chip(*chip_machine, substrate::SubstrateConfig{});

  const crypto::Digest digest = crypto::Sha256::hash(to_bytes("event"));
  const Cycles ftpm_before = machine_->now();
  ASSERT_TRUE(ftpm_->pcr_extend(5, digest).ok());
  const Cycles ftpm_cost = machine_->now() - ftpm_before;

  const Cycles chip_before = chip_machine->now();
  ASSERT_TRUE(chip.pcr_extend(5, digest).ok());
  const Cycles chip_cost = chip_machine->now() - chip_before;

  EXPECT_LT(ftpm_cost * 100, chip_cost);  // >100x faster
}

TEST_F(FtpmTest, StateIsPlaintextInDramUnlikeTheChip) {
  // The flip side of the speedup: fTPM state lives in secure-world DRAM.
  auto pal = ftpm_->create_domain(tc_spec("pal", 1));
  ASSERT_TRUE(pal.ok());
  ASSERT_TRUE(
      ftpm_->write_memory(*pal, *pal, 0, to_bytes("FTPM-STATE-SECRET")).ok());
  hw::PhysicalAttacker attacker(*machine_);
  EXPECT_FALSE(
      attacker.scan(machine_->dram(), to_bytes("FTPM-STATE-SECRET")).empty());
  EXPECT_FALSE(
      ftpm_->info().defends(substrate::AttackerModel::physical_bus));
  // ...while the discrete chip does defend it (see tpm_test).
}

TEST_F(FtpmTest, ComponentsRunConcurrentlyUnlikeFlicker) {
  auto a = ftpm_->create_domain(tc_spec("pal-a"));
  auto b = ftpm_->create_domain(tc_spec("pal-b"));
  auto caller = ftpm_->create_domain(tc_spec("caller"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(caller.ok());
  auto chan_a = ftpm_->create_channel(*caller, *a);
  auto chan_b = ftpm_->create_channel(*caller, *b);
  ASSERT_TRUE(chan_a.ok());
  ASSERT_TRUE(chan_b.ok());
  const auto echo = [](const substrate::Invocation&) -> Result<Bytes> {
    return Bytes{};
  };
  ASSERT_TRUE(ftpm_->set_handler(*a, echo).ok());
  ASSERT_TRUE(ftpm_->set_handler(*b, echo).ok());

  // Alternating calls have symmetric costs: no late-launch switching toll.
  ASSERT_TRUE(ftpm_->call(*caller, *chan_a, to_bytes("x")).ok());
  const Cycles t1 = machine_->now();
  ASSERT_TRUE(ftpm_->call(*caller, *chan_b, to_bytes("x")).ok());
  const Cycles cost_b = machine_->now() - t1;
  const Cycles t2 = machine_->now();
  ASSERT_TRUE(ftpm_->call(*caller, *chan_a, to_bytes("x")).ok());
  const Cycles cost_a = machine_->now() - t2;
  EXPECT_EQ(cost_a, cost_b);
}

TEST_F(FtpmTest, NormalWorldCannotTouchFtpmState) {
  auto pal = ftpm_->create_domain(tc_spec("pal", 1));
  ASSERT_TRUE(pal.ok());
  auto frames_begin = machine_->dram().begin;
  // A normal-world (non-secure) software access to the fTPM's tagged pages
  // is refused by the TZASC check in the memory system.
  Bytes out;
  const hw::AccessContext normal{hw::SecurityState::non_secure, 0};
  EXPECT_EQ(machine_->memory().read(normal, frames_begin, 16, out).error(),
            Errc::access_denied);
}

// ---------------------------------------------------------------------------
// Interchangeability: one scenario, two implementations. The BitLocker
// story from §II-B runs identically against the chip and the software TPM,
// both driven through the one command set they share.
class TpmInterchangeTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("interchange-" + GetParam());
    const hw::CostModel& costs = machine_->costs();
    if (GetParam() == "tpm") {
      holder_ = std::make_unique<tpm::Tpm>(*machine_,
                                           substrate::SubstrateConfig{});
      expected_prices_ = {.command = costs.tpm_command_base,
                          .quote_signature = costs.tpm_sign_extra};
    } else {
      holder_ = std::make_unique<ftpm::Ftpm>(*machine_,
                                             substrate::SubstrateConfig{});
      expected_prices_ = {
          .command = 2 * costs.smc_world_switch + costs.tz_secure_os_dispatch,
          .quote_signature = costs.sw_rsa_sign};
    }
  }

  /// Clock cycles `command` advanced the machine by.
  template <typename Fn>
  Cycles cost_of(Fn&& command) {
    const Cycles before = machine_->now();
    command();
    return machine_->now() - before;
  }

  tpm::CommandSet& api() { return *holder_; }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<tpm::CommandSet> holder_;
  tpm::CommandSet::Prices expected_prices_;
};

TEST_P(TpmInterchangeTest, BitLockerScenario) {
  // Measured boot: loader and kernel extended into PCR4.
  ASSERT_TRUE(
      api().pcr_extend(4, crypto::Sha256::hash(to_bytes("bootmgr"))).ok());
  ASSERT_TRUE(
      api().pcr_extend(4, crypto::Sha256::hash(to_bytes("winload"))).ok());

  // Seal the volume key to the current boot state.
  auto sealed = api().seal_to_pcrs({0, 4}, to_bytes("volume-key"));
  ASSERT_TRUE(sealed.ok());

  // Same boot chain: key released.
  auto released = api().unseal_pcrs(*sealed);
  ASSERT_TRUE(released.ok());
  EXPECT_EQ(to_string(*released), "volume-key");

  // Evil-maid boot chain: PCR4 diverges, key stays locked.
  ASSERT_TRUE(
      api().pcr_extend(4, crypto::Sha256::hash(to_bytes("evil-loader"))).ok());
  EXPECT_EQ(api().unseal_pcrs(*sealed).error(), Errc::verification_failed);
}

TEST_P(TpmInterchangeTest, QuoteChainsAndNamesImplementation) {
  ASSERT_TRUE(
      api().pcr_extend(10, crypto::Sha256::hash(to_bytes("app"))).ok());
  auto quote = api().quote_pcrs({0, 10}, to_bytes("nonce"));
  ASSERT_TRUE(quote.ok());
  EXPECT_TRUE(quote->verify(test::shared_vendor().root_public_key()).ok());
  // A verifier CAN tell the implementations apart (and may require the
  // chip's stronger attacker model) — the name is in the signed body.
  EXPECT_EQ(quote->substrate_name, GetParam());
}

TEST_P(TpmInterchangeTest, SealedBlobsDoNotCrossImplementations) {
  auto sealed = api().seal_to_pcrs({0}, to_bytes("secret"));
  ASSERT_TRUE(sealed.ok());

  // The other implementation on the same machine class cannot unseal: the
  // composite may match, but the device key differs per machine, and even
  // on the same machine the PCR0 history differs (chip CRTM vs fTPM CRTM
  // both measure the ROM — so here the distinguishing factor is the device
  // key of the second machine).
  auto other_machine = test::make_machine("interchange-other");
  tpm::Tpm other(*other_machine, substrate::SubstrateConfig{});
  EXPECT_FALSE(other.unseal_pcrs(*sealed).ok());
}

TEST_P(TpmInterchangeTest, NvCountersAreMonotonic) {
  ASSERT_TRUE(api().nv_define("fw-version").ok());
  EXPECT_EQ(*api().nv_read("fw-version"), 0u);
  EXPECT_EQ(*api().nv_increment("fw-version"), 1u);
  EXPECT_EQ(*api().nv_increment("fw-version"), 2u);
  // Defining again keeps the value: provisioning may re-run.
  ASSERT_TRUE(api().nv_define("fw-version").ok());
  EXPECT_EQ(*api().nv_read("fw-version"), 2u);
  // Undefined counters fail closed.
  EXPECT_EQ(api().nv_read("missing").error(), Errc::invalid_argument);
  EXPECT_EQ(api().nv_increment("missing").error(), Errc::invalid_argument);
  EXPECT_EQ(api().nv_define("").error(), Errc::invalid_argument);
}

TEST_P(TpmInterchangeTest, BadPcrSelectionRefusedForFree) {
  const std::vector<std::size_t> bad = {0, tpm::kNumPcrs};
  EXPECT_EQ(cost_of([&] {
              EXPECT_EQ(api().quote_pcrs(bad, to_bytes("n")).error(),
                        Errc::invalid_argument);
            }),
            0u);
  EXPECT_EQ(cost_of([&] {
              EXPECT_EQ(api().seal_to_pcrs(bad, to_bytes("k")).error(),
                        Errc::invalid_argument);
            }),
            0u);
}

TEST_P(TpmInterchangeTest, MalformedUnsealBlobCostsOneCommand) {
  // The command reaches the TPM before its blob is parsed.
  EXPECT_EQ(cost_of([&] {
              EXPECT_EQ(api().unseal_pcrs(Bytes{}).error(),
                        Errc::invalid_argument);
            }),
            expected_prices_.command);
  EXPECT_EQ(cost_of([&] { EXPECT_FALSE(api().unseal_pcrs(Bytes(10, 0)).ok()); }),
            expected_prices_.command);
}

TEST_P(TpmInterchangeTest, EachImplementationChargesItsOwnPrice) {
  EXPECT_EQ(api().prices().command, expected_prices_.command);
  EXPECT_EQ(api().prices().quote_signature, expected_prices_.quote_signature);
  const Cycles command = expected_prices_.command;
  const crypto::Digest digest = crypto::Sha256::hash(to_bytes("event"));
  EXPECT_EQ(cost_of([&] { ASSERT_TRUE(api().pcr_extend(7, digest).ok()); }),
            command);
  EXPECT_EQ(cost_of([&] { ASSERT_TRUE(api().pcr_read(7).ok()); }), 0u);
  EXPECT_EQ(cost_of([&] { (void)api().pcr_composite({0, 7}); }), 0u);
  EXPECT_EQ(cost_of([&] {
              ASSERT_TRUE(api().quote_pcrs({0, 7}, to_bytes("n")).ok());
            }),
            command + expected_prices_.quote_signature);
  Bytes sealed;
  EXPECT_EQ(cost_of([&] {
              auto blob = api().seal_to_pcrs({7}, to_bytes("key"));
              ASSERT_TRUE(blob.ok());
              sealed = std::move(*blob);
            }),
            command);
  EXPECT_EQ(cost_of([&] { ASSERT_TRUE(api().unseal_pcrs(sealed).ok()); }),
            command);
  EXPECT_EQ(cost_of([&] { ASSERT_TRUE(api().nv_define("c").ok()); }), command);
  EXPECT_EQ(cost_of([&] { ASSERT_TRUE(api().nv_read("c").ok()); }), command);
  EXPECT_EQ(cost_of([&] { ASSERT_TRUE(api().nv_increment("c").ok()); }),
            command);
}

INSTANTIATE_TEST_SUITE_P(ChipAndSoftware, TpmInterchangeTest,
                         ::testing::Values("tpm", "ftpm"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lateral
