// lateral::update — attested OTA updates, rollback protection, auto-revert.
//
// The contract under test: a vendor-signed UpdateManifest streams into the
// inactive slot while the old image serves, the swap is a supervised
// restart with fresh attestation against the new measurement, probation
// decides commit-or-revert, and the TPM's monotonic NV counter (bumped only
// on commit) makes stale-version replay impossible even for validly signed
// images. The fault matrix at the bottom is FIG15's: crash mid-transfer,
// corrupted image, stale replay, post-swap heartbeat failure, power loss
// between arm and commit.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/composer.h"
#include "fleet/fleet_client.h"
#include "fleet/fleet_server.h"
#include "ftpm/ftpm.h"
#include "microkernel/microkernel.h"
#include "net/network.h"
#include "supervisor/supervisor.h"
#include "test_support.h"
#include "tpm/tpm.h"
#include "trace/trace.h"
#include "update/update.h"
#include "util/hex.h"

namespace lateral::update {
namespace {

using supervisor::Health;
using supervisor::Supervisor;

// --- NV counter primitive ---------------------------------------------------

TEST(NvCounterBank, DefinesReadsAndIncrementsMonotonically) {
  tpm::NvCounterBank bank;
  EXPECT_EQ(bank.read("boot").error(), Errc::invalid_argument);  // undefined
  EXPECT_EQ(bank.increment("boot").error(), Errc::invalid_argument);
  EXPECT_EQ(bank.define("").error(), Errc::invalid_argument);

  ASSERT_TRUE(bank.define("boot").ok());
  EXPECT_EQ(*bank.read("boot"), 0u);
  EXPECT_EQ(*bank.increment("boot"), 1u);
  EXPECT_EQ(*bank.increment("boot"), 2u);
  EXPECT_EQ(*bank.read("boot"), 2u);
  // Re-defining is idempotent provisioning, never a reset.
  ASSERT_TRUE(bank.define("boot").ok());
  EXPECT_EQ(*bank.read("boot"), 2u);
  EXPECT_EQ(bank.defined(), 1u);
}

TEST(NvCounterBank, BudgetIsBounded) {
  tpm::NvCounterBank bank;
  for (std::size_t i = 0; i < tpm::kMaxNvCounters; ++i)
    ASSERT_TRUE(bank.define("c" + std::to_string(i)).ok());
  EXPECT_EQ(bank.define("one-too-many").error(), Errc::exhausted);
  // Existing names still provision fine once the budget is full.
  EXPECT_TRUE(bank.define("c0").ok());
}

TEST(NvCounter, PersistsAcrossDomainLifecyclesOnTpmAndFtpm) {
  auto machine = test::make_machine("nv-machine");
  tpm::Tpm tpm_chip(*machine, {});
  ftpm::Ftpm ftpm_chip(*machine, {});

  const auto exercise = [&](auto& device) {
    ASSERT_TRUE(device.nv_define("update.fw").ok());
    ASSERT_TRUE(device.nv_increment("update.fw").ok());
    // Counters are chip state, not domain state: killing and re-creating
    // domains (the supervised-restart lifecycle) does not touch them.
    auto domain = device.create_domain(test::tc_spec("fw"));
    ASSERT_TRUE(domain.ok());
    ASSERT_TRUE(device.kill_domain(*domain).ok());
    EXPECT_EQ(*device.nv_read("update.fw"), 1u);
    EXPECT_EQ(*device.nv_increment("update.fw"), 2u);
  };
  exercise(tpm_chip);
  exercise(ftpm_chip);

  // The adapter the orchestrator uses sees the same values.
  DeviceRollbackCounters<tpm::Tpm> counters(tpm_chip);
  EXPECT_EQ(*counters.read("update.fw"), 2u);
}

// --- Manifest signing -------------------------------------------------------

class ManifestSigningTest : public ::testing::Test {
 protected:
  static crypto::RsaKeyPair make_vendor_key() {
    crypto::HmacDrbg drbg(to_bytes("update-test-vendor-key"));
    return crypto::RsaKeyPair::generate(drbg, 512);
  }
};

TEST_F(ManifestSigningTest, SignedManifestVerifiesAndTamperFailsClosed) {
  const crypto::RsaKeyPair vendor = make_vendor_key();
  const Bytes image = to_bytes("firmware-v2");
  UpdateManifest manifest = make_manifest("fw", 2, image);
  EXPECT_EQ(manifest.new_measurement, manifest.image_hash);
  sign_manifest(manifest, vendor);
  EXPECT_TRUE(verify_manifest(manifest, vendor.pub).ok());

  // Every signed field is covered: flipping any one kills the signature.
  UpdateManifest bad = manifest;
  bad.version = 3;
  EXPECT_EQ(verify_manifest(bad, vendor.pub).error(),
            Errc::verification_failed);
  bad = manifest;
  bad.component = "other";
  EXPECT_FALSE(verify_manifest(bad, vendor.pub).ok());
  bad = manifest;
  bad.image_hash[0] ^= 1;
  EXPECT_FALSE(verify_manifest(bad, vendor.pub).ok());
  bad = manifest;
  bad.new_measurement[0] ^= 1;
  EXPECT_FALSE(verify_manifest(bad, vendor.pub).ok());

  // And a different vendor's signature is not this vendor's.
  crypto::HmacDrbg other_drbg(to_bytes("another-vendor"));
  const auto other = crypto::RsaKeyPair::generate(other_drbg, 512);
  EXPECT_FALSE(verify_manifest(manifest, other.pub).ok());
}

// --- Slot bank --------------------------------------------------------------

TEST(SlotBank, StagesSwapsAndRollsBackAb) {
  SlotBank bank(2, to_bytes("factory"), 1);
  EXPECT_EQ(bank.active_slot(), 0u);
  EXPECT_EQ(to_string(bank.active_image()), "factory");
  EXPECT_EQ(bank.active_version(), 1u);
  EXPECT_EQ(bank.append(to_bytes("x")).error(), Errc::invalid_argument);
  EXPECT_EQ(bank.swap().error(), Errc::invalid_argument);  // nothing staged

  ASSERT_TRUE(bank.begin_staging(2).ok());
  ASSERT_TRUE(bank.append(to_bytes("fw-")).ok());
  ASSERT_TRUE(bank.append(to_bytes("v2")).ok());
  EXPECT_EQ(bank.staged_hash(), crypto::Sha256::hash(to_bytes("fw-v2")));
  EXPECT_EQ(bank.swap().error(), Errc::invalid_argument);  // still open
  ASSERT_TRUE(bank.finish_staging().ok());

  ASSERT_TRUE(bank.swap().ok());
  EXPECT_EQ(bank.active_slot(), 1u);
  EXPECT_EQ(to_string(bank.active_image()), "fw-v2");
  EXPECT_EQ(bank.active_version(), 2u);

  // Revert restores the previous slot; the failed image stays for forensics.
  ASSERT_TRUE(bank.rollback().ok());
  EXPECT_EQ(bank.active_slot(), 0u);
  EXPECT_EQ(to_string(bank.active_image()), "factory");
  EXPECT_EQ(bank.rollback().error(), Errc::invalid_argument);  // once only
}

TEST(SlotBank, AbortedStagingLeavesActiveUntouched) {
  SlotBank bank(2, to_bytes("factory"));
  ASSERT_TRUE(bank.begin_staging(5).ok());
  ASSERT_TRUE(bank.append(to_bytes("partial")).ok());
  bank.abort_staging();
  EXPECT_FALSE(bank.staged_valid());
  EXPECT_EQ(to_string(bank.active_image()), "factory");
  EXPECT_EQ(bank.swap().error(), Errc::invalid_argument);
}

// --- Orchestrator -----------------------------------------------------------

constexpr const char* kUpdatableSystem = R"(
component updater {
  substrate microkernel
  channel worker
  region worker 65536
}
component front {
  substrate microkernel
  channel worker
}
component worker {
  substrate microkernel
  channel updater
  channel front
  restart {
    max 4
    backoff 10
    escalate degraded
  }
  update {
    key vendor
    slots 2
    probation 3
  }
}
)";

class UpdateOrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("update");
    mk_ = std::make_unique<microkernel::Microkernel>(
        *machine_, substrate::SubstrateConfig{});
    tpm_ = std::make_unique<tpm::Tpm>(*machine_, substrate::SubstrateConfig{});
    core::SystemComposer composer(
        {{"microkernel",
          static_cast<substrate::IsolationSubstrate*>(mk_.get())}});
    auto manifests = core::parse_manifests(kUpdatableSystem);
    ASSERT_TRUE(manifests.ok());
    auto assembly = composer.compose(*manifests);
    ASSERT_TRUE(assembly.ok()) << composer.diagnostics().size();
    assembly_ = std::move(*assembly);
    ASSERT_TRUE(assembly_
                    ->set_behavior("worker",
                                   [](const substrate::Invocation&)
                                       -> Result<Bytes> {
                                     return to_bytes("serving");
                                   })
                    .ok());
    verifier_ = std::make_unique<core::AttestationVerifier>(
        to_bytes("update-test-verifier"));
    verifier_->add_trusted_root(test::shared_vendor().root_public_key());
    supervisor_ = std::make_unique<Supervisor>(
        *assembly_, supervisor::SupervisorConfig{.hub = &hub_,
                                                 .verifier = verifier_.get()});
    ASSERT_TRUE(supervisor_->watch_all().ok());
    counters_ =
        std::make_unique<DeviceRollbackCounters<tpm::Tpm>>(*tpm_);
    crypto::HmacDrbg drbg(to_bytes("orchestrator-vendor"));
    vendor_ = crypto::RsaKeyPair::generate(drbg, 512);
    UpdateOrchestratorConfig config;
    config.chunk_bytes = 64;  // several chunks for a ~200-byte image
    config.hub = &hub_;
    orchestrator_ = std::make_unique<UpdateOrchestrator>(
        *assembly_, *supervisor_, *counters_, vendor_.pub, config);
  }

  /// A signed manifest + image pair for `worker`.
  std::pair<UpdateManifest, Bytes> signed_update(std::uint64_t version) {
    Bytes image = to_bytes("worker-image-v" + std::to_string(version) + ":");
    while (image.size() < 200) image.push_back(0x5a);  // force chunking
    UpdateManifest manifest = make_manifest("worker", version, image);
    sign_manifest(manifest, vendor_);
    return {manifest, image};
  }

  crypto::Digest worker_measurement() {
    auto comp = assembly_->component("worker");
    return *(*comp)->substrate->measurement((*comp)->domain);
  }

  /// Full happy path through commit; leaves the update in probation.
  void stage_arm_commit(std::uint64_t version) {
    auto [manifest, image] = signed_update(version);
    ASSERT_TRUE(orchestrator_->stage(manifest, image).ok());
    ASSERT_TRUE(orchestrator_->arm("worker").ok());
    ASSERT_TRUE(orchestrator_->commit("worker").ok());
    ASSERT_EQ(orchestrator_->state("worker"), UpdateState::probation);
  }

  runtime::MetricsHub hub_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<microkernel::Microkernel> mk_;
  std::unique_ptr<tpm::Tpm> tpm_;
  std::unique_ptr<core::Assembly> assembly_;
  std::unique_ptr<core::AttestationVerifier> verifier_;
  std::unique_ptr<Supervisor> supervisor_;
  std::unique_ptr<DeviceRollbackCounters<tpm::Tpm>> counters_;
  crypto::RsaKeyPair vendor_;
  std::unique_ptr<UpdateOrchestrator> orchestrator_;
};

TEST_F(UpdateOrchestratorTest, FullLifecycleCommitsAndBumpsCounter) {
  const crypto::Digest old_measurement = worker_measurement();
  auto [manifest, image] = signed_update(1);

  ASSERT_TRUE(orchestrator_->stage(manifest, image).ok());
  EXPECT_EQ(orchestrator_->state("worker"), UpdateState::verified);
  // The old image serves throughout staging.
  EXPECT_TRUE(assembly_->invoke("front", "worker", to_bytes("x")).ok());
  EXPECT_EQ(worker_measurement(), old_measurement);
  const SlotBank* bank = orchestrator_->slots("worker");
  ASSERT_NE(bank, nullptr);
  EXPECT_TRUE(bank->staged_valid());

  ASSERT_TRUE(orchestrator_->arm("worker").ok());
  EXPECT_EQ(worker_measurement(), old_measurement);  // armed != swapped

  ASSERT_TRUE(orchestrator_->commit("worker").ok());
  EXPECT_EQ(orchestrator_->state("worker"), UpdateState::probation);
  // Running the new image, re-attested against the manifest's measurement.
  EXPECT_EQ(worker_measurement(), manifest.new_measurement);
  EXPECT_EQ(*supervisor_->health("worker"), Health::running);
  // Behaviour was reinstalled through the supervised-restart path.
  EXPECT_TRUE(assembly_->invoke("front", "worker", to_bytes("x")).ok());
  // The counter must not move until probation ends.
  EXPECT_EQ(*counters_->read("update.worker"), 0u);

  for (int i = 0; i < 2; ++i) {
    auto state = orchestrator_->probation_tick("worker");
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, UpdateState::probation);
  }
  auto state = orchestrator_->probation_tick("worker");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, UpdateState::committed);
  EXPECT_EQ(*counters_->read("update.worker"), 1u);

  const runtime::UpdateStats stats = orchestrator_->stats();
  EXPECT_EQ(stats.staged, 1u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.reverted, 0u);
  EXPECT_EQ(stats.bytes_streamed, image.size());
  EXPECT_GT(stats.mean_update_cycles(), 0u);
}

TEST_F(UpdateOrchestratorTest, RefusesBadSignatureAndMismatchedMeasurement) {
  auto [manifest, image] = signed_update(1);
  UpdateManifest unsigned_copy = manifest;
  unsigned_copy.signature.clear();
  EXPECT_EQ(orchestrator_->stage(unsigned_copy, image).error(),
            Errc::verification_failed);

  // Signed but internally inconsistent: measurement != image hash.
  UpdateManifest inconsistent = make_manifest("worker", 1, image);
  inconsistent.new_measurement[0] ^= 1;
  sign_manifest(inconsistent, vendor_);
  EXPECT_EQ(orchestrator_->stage(inconsistent, image).error(),
            Errc::invalid_argument);

  EXPECT_EQ(orchestrator_->state("worker"), UpdateState::idle);
  const runtime::UpdateStats stats = orchestrator_->stats();
  EXPECT_EQ(stats.signature_refused, 1u);
  EXPECT_EQ(stats.image_refused, 1u);
  EXPECT_EQ(stats.staged, 0u);
}

TEST_F(UpdateOrchestratorTest, UnsupervisedComponentIsRefused) {
  // `front` has no update stanza: the manifest never consented to field
  // updates, so even a validly signed image is refused.
  Bytes image = to_bytes("front-v2");
  UpdateManifest manifest = make_manifest("front", 1, image);
  sign_manifest(manifest, vendor_);
  EXPECT_EQ(orchestrator_->stage(manifest, image).error(),
            Errc::policy_violation);
}

TEST_F(UpdateOrchestratorTest, StaleVersionReplayIsRefusedByCounter) {
  stage_arm_commit(3);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(orchestrator_->probation_tick("worker").ok());
  ASSERT_EQ(orchestrator_->state("worker"), UpdateState::committed);
  ASSERT_EQ(*counters_->read("update.worker"), 1u);

  // A validly signed *old* manifest — the classic rollback attack. The
  // signature verifies; only the monotonic counter can refuse it.
  auto [stale, stale_image] = signed_update(1);
  EXPECT_EQ(orchestrator_->stage(stale, stale_image).error(),
            Errc::rollback_refused);
  // The just-committed version itself is also "not strictly newer".
  auto [same, same_image] = signed_update(1);
  EXPECT_EQ(orchestrator_->stage(same, same_image).error(),
            Errc::rollback_refused);
  EXPECT_EQ(orchestrator_->stats().rollback_refused, 2u);

  // A genuinely newer version is still welcome.
  auto [next, next_image] = signed_update(4);
  EXPECT_TRUE(orchestrator_->stage(next, next_image).ok());
}

TEST_F(UpdateOrchestratorTest, CorruptedImageIsRefusedAfterTransfer) {
  auto [manifest, image] = signed_update(1);
  Bytes corrupted = image;
  corrupted[corrupted.size() / 2] ^= 0xff;  // bit-flip in transit
  EXPECT_EQ(orchestrator_->stage(manifest, corrupted).error(),
            Errc::tamper_detected);
  EXPECT_EQ(orchestrator_->state("worker"), UpdateState::idle);
  EXPECT_EQ(orchestrator_->stats().image_refused, 1u);
  // The active image never stopped serving and a clean retry succeeds.
  EXPECT_TRUE(assembly_->invoke("front", "worker", to_bytes("x")).ok());
  EXPECT_TRUE(orchestrator_->stage(manifest, image).ok());
}

TEST_F(UpdateOrchestratorTest, CrashMidTransferAbortsAndIsRecoverable) {
  auto [manifest, image] = signed_update(1);
  // Kill the worker on the third chunk delivery — mid-transfer.
  const auto worker_domain = (*assembly_->component("worker"))->domain;
  int deliveries = 0;
  mk_->set_fault_hook([&](substrate::DomainId callee, std::string_view) {
    return callee == worker_domain && ++deliveries == 3;
  });
  EXPECT_EQ(orchestrator_->stage(manifest, image).error(), Errc::domain_dead);
  mk_->set_fault_hook(nullptr);
  EXPECT_EQ(orchestrator_->state("worker"), UpdateState::idle);

  // The supervisor recovers the crashed target...
  supervisor_->tick();
  for (int i = 0; i < 10 && *supervisor_->health("worker") != Health::running;
       ++i) {
    machine_->advance(1 << 16);
    supervisor_->tick();
  }
  ASSERT_EQ(*supervisor_->health("worker"), Health::running);
  // ...and the same update stages cleanly on retry: nothing leaked.
  EXPECT_TRUE(orchestrator_->stage(manifest, image).ok());
  EXPECT_TRUE(orchestrator_->arm("worker").ok());
  EXPECT_TRUE(orchestrator_->commit("worker").ok());
}

TEST_F(UpdateOrchestratorTest, HeartbeatFailureInProbationAutoReverts) {
  const crypto::Digest old_measurement = worker_measurement();
  stage_arm_commit(1);
  const crypto::Digest new_measurement = worker_measurement();
  ASSERT_NE(new_measurement, old_measurement);

  // First probation heartbeat is healthy...
  ASSERT_EQ(*orchestrator_->probation_tick("worker"), UpdateState::probation);
  // ...then the new incarnation dies.
  ASSERT_TRUE(assembly_->kill_component("worker").ok());
  auto state = orchestrator_->probation_tick("worker");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, UpdateState::reverted);

  // Old image is back, serving, and attested as its old self.
  EXPECT_EQ(worker_measurement(), old_measurement);
  EXPECT_TRUE(assembly_->invoke("front", "worker", to_bytes("x")).ok());
  // The counter never moved: the failed version may be retried, but an
  // older one still cannot be replayed.
  EXPECT_EQ(*counters_->read("update.worker"), 0u);

  const runtime::UpdateStats stats = orchestrator_->stats();
  EXPECT_EQ(stats.reverted, 1u);
  EXPECT_EQ(stats.committed, 0u);
  EXPECT_GT(stats.mean_revert_cycles(), 0u);
  // The revert is auditable next to the supervisor's restart accounting.
  EXPECT_EQ(hub_.recovery("supervisor")->update_reverts, 1u);
}

TEST_F(UpdateOrchestratorTest, PowerLossBetweenArmAndCommitRollsBack) {
  const crypto::Digest old_measurement = worker_measurement();
  auto [manifest, image] = signed_update(1);
  ASSERT_TRUE(orchestrator_->stage(manifest, image).ok());
  ASSERT_TRUE(orchestrator_->arm("worker").ok());

  // Power loss: the orchestrator restarts and runs boot-time recovery
  // before anything else. The armed-but-uncommitted update rolls back —
  // the NV counter never advanced, so the old slot is still the newest
  // committed image.
  EXPECT_EQ(orchestrator_->recover(), 1u);
  EXPECT_EQ(orchestrator_->state("worker"), UpdateState::reverted);
  EXPECT_EQ(worker_measurement(), old_measurement);
  EXPECT_EQ(*counters_->read("update.worker"), 0u);
  EXPECT_TRUE(assembly_->invoke("front", "worker", to_bytes("x")).ok());
  // The same version can be retried after the rollback.
  EXPECT_TRUE(orchestrator_->stage(manifest, image).ok());
}

TEST_F(UpdateOrchestratorTest, FlapDampingStopsTheRevertLoop) {
  // Every new incarnation fails probation. Each cycle consumes supervisor
  // restart budget (the relaunch) and ends in a revert; once the policy's
  // budget is exhausted the component escalates and commit() refuses with
  // Errc::exhausted instead of revert-looping forever.
  std::uint64_t version = 1;
  for (; version < 16; ++version) {
    auto [manifest, image] = signed_update(version);
    ASSERT_TRUE(orchestrator_->stage(manifest, image).ok());
    ASSERT_TRUE(orchestrator_->arm("worker").ok());
    machine_->advance(1 << 16);  // past any accumulated backoff
    const Status committed = orchestrator_->commit("worker");
    if (!committed.ok()) {
      EXPECT_EQ(committed.error(), Errc::exhausted);
      break;
    }
    ASSERT_TRUE(assembly_->kill_component("worker").ok());
    ASSERT_EQ(*orchestrator_->probation_tick("worker"),
              UpdateState::reverted);
    machine_->advance(1 << 16);
    supervisor_->tick();  // let the supervisor settle after the revert
  }
  EXPECT_LT(version, 16u) << "flap damping never engaged";
  const runtime::UpdateStats stats = orchestrator_->stats();
  EXPECT_GE(stats.reverted, 1u);
  EXPECT_EQ(stats.committed, 0u);
  // Every revert is auditable in the supervisor's recovery accounting.
  EXPECT_EQ(hub_.recovery("supervisor")->update_reverts, stats.reverted);
  EXPECT_EQ(*counters_->read("update.worker"), 0u);  // nothing committed
}

TEST_F(UpdateOrchestratorTest, LifecycleEmitsTraceSpans) {
  trace::Tracer tracer;
  mk_->set_tracer(&tracer);
  const auto has_phase = [&](trace::SpanPhase phase) {
    auto comp = assembly_->component("worker");
    const auto events =
        tracer.snapshot((*comp)->substrate, (*comp)->domain);
    return std::any_of(events.begin(), events.end(),
                       [&](const trace::SpanEvent& e) {
                         return e.phase == phase;
                       });
  };

  auto [manifest, image] = signed_update(1);
  ASSERT_TRUE(orchestrator_->stage(manifest, image).ok());
  EXPECT_TRUE(has_phase(trace::SpanPhase::update_stage));
  ASSERT_TRUE(orchestrator_->arm("worker").ok());
  ASSERT_TRUE(orchestrator_->commit("worker").ok());
  EXPECT_TRUE(has_phase(trace::SpanPhase::update_commit));
  ASSERT_TRUE(assembly_->kill_component("worker").ok());
  ASSERT_EQ(*orchestrator_->probation_tick("worker"), UpdateState::reverted);
  EXPECT_TRUE(has_phase(trace::SpanPhase::update_revert));
  mk_->set_tracer(nullptr);
}

TEST_F(UpdateOrchestratorTest, ObservabilityDumpCarriesUpdateCounters) {
  stage_arm_commit(1);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(orchestrator_->probation_tick("worker").ok());
  const std::string dump = assembly_->dump_observability(nullptr, &hub_);
  EXPECT_NE(dump.find("(update)"), std::string::npos);
  EXPECT_NE(dump.find("committed=1"), std::string::npos);
  EXPECT_NE(dump.find("update_reverts=0"), std::string::npos);
}

// --- Fleet-wide update under load (FIG15's serving-traffic half) ------------

TEST_F(UpdateOrchestratorTest, FleetServesAcrossUpdateAndRotatesTickets) {
  net::SimNetwork network;
  ASSERT_TRUE(network.register_endpoint("utility").ok());
  auto endpoint = assembly_->endpoint("front", "worker");
  ASSERT_TRUE(endpoint.ok());

  fleet::FleetServerConfig config;
  config.endpoint = "utility";
  config.network = &network;
  config.substrate = mk_.get();
  config.service_domain = (*assembly_->component("worker"))->domain;
  config.frontend_domain = (*assembly_->component("front"))->domain;
  config.service_channel = endpoint->channel();
  fleet::FleetServer server(std::move(config));

  fleet::FleetClientConfig client_config;
  client_config.endpoint = "meter";
  client_config.server_endpoint = "utility";
  client_config.network = &network;
  client_config.drive = [&server] { (void)server.pump(); };
  fleet::FleetClient meter(std::move(client_config));

  ASSERT_TRUE(meter.connect().ok());
  ASSERT_TRUE(meter.has_ticket());

  // Tickets minted by the pre-update incarnation die with the swap.
  supervisor_->on_restart([&](const std::string& name, std::uint32_t) {
    if (name == "worker")
      server.on_service_restart((*assembly_->component(name))->domain);
  });

  std::uint64_t admitted = 0, served = 0;
  const auto drive_traffic = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto reply = meter.call("report", to_bytes("r"));
      if (reply.ok()) {
        ++admitted;
        ++served;
        EXPECT_EQ(to_string(*reply), "serving");
      }
    }
  };

  drive_traffic(8);  // baseline load
  auto [manifest, image] = signed_update(1);
  ASSERT_TRUE(orchestrator_->stage(manifest, image).ok());
  drive_traffic(8);  // the old slot serves during staging
  ASSERT_TRUE(orchestrator_->arm("worker").ok());
  ASSERT_TRUE(orchestrator_->commit("worker").ok());

  // The held ticket was sealed by the dead incarnation: refused, and the
  // meter re-proves itself with a full handshake against the new identity.
  ASSERT_TRUE(meter.connect().ok());
  EXPECT_FALSE(meter.resumed());
  EXPECT_GE(server.stats().tickets_rejected, 1u);
  ASSERT_TRUE(meter.has_ticket());

  drive_traffic(8);  // probation traffic against the new image
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(orchestrator_->probation_tick("worker").ok());
  EXPECT_EQ(orchestrator_->state("worker"), UpdateState::committed);
  drive_traffic(8);

  // Lossless across the whole update: every admitted request was served.
  EXPECT_EQ(admitted, served);
  EXPECT_EQ(admitted, 32u);
}

// --- Wire goldens -----------------------------------------------------------
// The manifest's signed bytes and the transfer channel's chunk headers,
// recorded before the codecs moved behind one reader and writer.

using WireGolden = UpdateOrchestratorTest;

TEST_F(WireGolden, UpdateSigningBytesAndChunkHeader) {
  auto [manifest, image] = signed_update(1);
  EXPECT_EQ(util::to_hex(crypto::digest_view(
                crypto::Sha256::hash(signing_bytes(manifest)))),
            "c3d0fa9bb7edc6d740b627e9354bbdd7dddb68e42cf58764da90bffd15544231");
  Bytes headers;
  ASSERT_TRUE(assembly_
                  ->set_behavior("worker",
                                 [&headers](const substrate::Invocation& inv)
                                     -> Result<Bytes> {
                                   if (inv.data.size() >= 12)
                                     headers.insert(headers.end(),
                                                    inv.data.begin(),
                                                    inv.data.begin() + 12);
                                   return Bytes{};
                                 })
                  .ok());
  ASSERT_TRUE(orchestrator_->stage(manifest, image).ok());
  EXPECT_EQ(util::to_hex(headers),
            "555053540000000000000000" "555053540000000000000040"
            "555053540000000000000080" "5550535400000000000000c0");
}

}  // namespace
}  // namespace lateral::update
