// Boot-chain orchestration (core/launch) and remote component invocation
// (net/remote).
#include <gtest/gtest.h>

#include "core/launch.h"
#include "net/federation.h"
#include "net/network.h"
#include "net/remote.h"
#include "test_support.h"

namespace lateral {
namespace {

// ---------------------------------------------------------------------------
// Boot chains.
class BootChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crypto::HmacDrbg drbg(to_bytes("owner"));
    owner_ = crypto::RsaKeyPair::generate(drbg, 512);
    stages_ = {make_stage("bootloader"), make_stage("kernel"),
               make_stage("system-services")};
  }

  core::BootStage make_stage(const std::string& name) {
    core::BootStage stage;
    stage.name = name;
    stage.image = {name, to_bytes("code-of-" + name)};
    stage.signature = crypto::rsa_sign(owner_, stage.image.code);
    return stage;
  }

  crypto::RsaKeyPair owner_;
  std::vector<core::BootStage> stages_;
};

TEST_F(BootChainTest, SecureBootRunsFullySignedChain) {
  const core::BootOutcome outcome = core::run_secure_boot(owner_.pub, stages_);
  EXPECT_TRUE(outcome.booted);
  EXPECT_EQ(outcome.stages_run, 3u);
  EXPECT_EQ(outcome.log.size(), 3u);
  EXPECT_TRUE(outcome.refusal.empty());
}

TEST_F(BootChainTest, SecureBootHaltsAtFirstBadStage) {
  // The evil maid swaps the kernel.
  stages_[1].image.code = to_bytes("code-of-kernel-with-backdoor");
  const core::BootOutcome outcome = core::run_secure_boot(owner_.pub, stages_);
  EXPECT_FALSE(outcome.booted);
  EXPECT_EQ(outcome.stages_run, 1u);  // only the boot loader ran
  EXPECT_NE(outcome.refusal.find("kernel"), std::string::npos);
}

TEST_F(BootChainTest, SecureBootRejectsResignedByOtherKey) {
  crypto::HmacDrbg drbg(to_bytes("attacker"));
  const crypto::RsaKeyPair attacker = crypto::RsaKeyPair::generate(drbg, 512);
  stages_[2].image.code = to_bytes("payload");
  stages_[2].signature = crypto::rsa_sign(attacker, stages_[2].image.code);
  const core::BootOutcome outcome = core::run_secure_boot(owner_.pub, stages_);
  EXPECT_FALSE(outcome.booted);
  EXPECT_EQ(outcome.stages_run, 2u);
}

TEST_F(BootChainTest, AuthenticatedBootNeverRefuses) {
  // Strip every signature; the open platform still boots.
  for (auto& stage : stages_) stage.signature.clear();
  tpm::PcrBank pcrs;
  const core::BootOutcome outcome =
      core::run_authenticated_boot(pcrs, 4, stages_);
  EXPECT_TRUE(outcome.booted);
  EXPECT_EQ(outcome.stages_run, 3u);
  // ...but the log faithfully records what ran.
  EXPECT_EQ(*pcrs.read(4), core::expected_pcr_after_boot(stages_));
}

TEST_F(BootChainTest, AuthenticatedBootLogRevealsSubstitution) {
  tpm::PcrBank honest, tampered;
  (void)core::run_authenticated_boot(honest, 4, stages_);
  auto evil = stages_;
  evil[1].image.code = to_bytes("code-of-kernel-with-rootkit");
  (void)core::run_authenticated_boot(tampered, 4, evil);
  EXPECT_NE(*honest.read(4), *tampered.read(4));
  // A verifier who knows the good chain can tell exactly.
  EXPECT_EQ(*honest.read(4), core::expected_pcr_after_boot(stages_));
  EXPECT_NE(*tampered.read(4), core::expected_pcr_after_boot(stages_));
}

TEST_F(BootChainTest, SamePolicyDifferenceAsThePaperDescribes) {
  // "The difference between secure and authenticated booting is simply
  // caused by different launch policies": one chain with an unsigned
  // stage — secure refuses, authenticated records.
  stages_[2].signature.clear();
  const core::BootOutcome secure = core::run_secure_boot(owner_.pub, stages_);
  tpm::PcrBank pcrs;
  const core::BootOutcome authenticated =
      core::run_authenticated_boot(pcrs, 4, stages_);
  EXPECT_FALSE(secure.booted);
  EXPECT_TRUE(authenticated.booted);
  EXPECT_EQ(authenticated.log.size(), 3u);
}

// ---------------------------------------------------------------------------
// Remote invocation.
class RemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<net::SecureChannelEndpoint>(
        net::Role::initiator, to_bytes("c"), std::nullopt, std::nullopt);
    server_ = std::make_unique<net::SecureChannelEndpoint>(
        net::Role::responder, to_bytes("s"), std::nullopt, std::nullopt);
    auto msg1 = *client_->start();
    auto msg2 = *server_->handle_msg1(msg1);
    auto msg3 = *client_->handle_msg2(msg2);
    ASSERT_TRUE(server_->handle_msg3(msg3).ok());

    dispatcher_ = std::make_unique<net::RemoteDispatcher>(*server_);
    ASSERT_TRUE(dispatcher_
                    ->register_method("anonymize",
                                      [](BytesView req) -> Result<Bytes> {
                                        Bytes out = to_bytes("anon(");
                                        out.insert(out.end(), req.begin(),
                                                   req.end());
                                        out.push_back(')');
                                        return out;
                                      })
                    .ok());
    ASSERT_TRUE(dispatcher_
                    ->register_method("forbidden",
                                      [](BytesView) -> Result<Bytes> {
                                        return Errc::access_denied;
                                      })
                    .ok());

    proxy_ = std::make_unique<net::RemoteProxy>(
        *client_, [this](BytesView record) -> Result<Bytes> {
          // Loopback transport through the (optionally tampering) network.
          if (tamper_) {
            Bytes evil(record.begin(), record.end());
            evil[evil.size() / 2] ^= 0x01;
            return dispatcher_->handle(evil);
          }
          return dispatcher_->handle(record);
        });
  }

  std::unique_ptr<net::SecureChannelEndpoint> client_, server_;
  std::unique_ptr<net::RemoteDispatcher> dispatcher_;
  std::unique_ptr<net::RemoteProxy> proxy_;
  bool tamper_ = false;
};

TEST_F(RemoteTest, CallRoundTrip) {
  auto reply = proxy_->call("anonymize", to_bytes("household-17"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "anon(household-17)");
}

TEST_F(RemoteTest, SequentialCallsKeepOrdering) {
  for (int i = 0; i < 5; ++i) {
    auto reply = proxy_->call("anonymize", to_bytes(std::to_string(i)));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(to_string(*reply), "anon(" + std::to_string(i) + ")");
  }
}

TEST_F(RemoteTest, RemoteRefusalTravelsAsErrorCode) {
  auto reply = proxy_->call("forbidden", to_bytes("x"));
  EXPECT_EQ(reply.error(), Errc::access_denied);
}

TEST_F(RemoteTest, UnknownMethodRejected) {
  EXPECT_EQ(proxy_->call("no-such-method", {}).error(),
            Errc::invalid_argument);
}

TEST_F(RemoteTest, TamperedRequestNeverReachesTheMethod) {
  tamper_ = true;
  auto reply = proxy_->call("anonymize", to_bytes("data"));
  EXPECT_EQ(reply.error(), Errc::verification_failed);
}

TEST_F(RemoteTest, EmptyPayloadSupported) {
  auto reply = proxy_->call("anonymize", {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "anon()");
}

TEST_F(RemoteTest, DuplicateMethodRegistrationRejected) {
  EXPECT_FALSE(dispatcher_
                   ->register_method("anonymize",
                                     [](BytesView) -> Result<Bytes> {
                                       return Bytes{};
                                     })
                   .ok());
}

TEST_F(RemoteTest, DispatcherRequiresEstablishedChannel) {
  net::SecureChannelEndpoint fresh(net::Role::responder, to_bytes("f"),
                                   std::nullopt, std::nullopt);
  EXPECT_THROW(net::RemoteDispatcher{fresh}, Error);
}

// ---------------------------------------------------------------------------
// Federation: establish_link packages handshake + RPC over a SimNetwork.
class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(network_.register_endpoint("meter").ok());
    ASSERT_TRUE(network_.register_endpoint("utility").ok());

    server_machine_ = test::make_machine("fed-server");
    sgx_ = *test::shared_registry().create("sgx", *server_machine_);
    anonymizer_ = *sgx_->create_domain(test::tc_spec("anonymizer"));
    verifier_ = std::make_unique<core::AttestationVerifier>(to_bytes("fv"));
    verifier_->add_trusted_root(test::shared_vendor().root_public_key());
    verifier_->expect_measurement(
        "anonymizer", test::tc_spec("anonymizer").image.measurement());
  }

  net::SimNetwork network_;
  std::unique_ptr<hw::Machine> server_machine_;
  std::unique_ptr<substrate::IsolationSubstrate> sgx_;
  substrate::DomainId anonymizer_ = 0;
  std::unique_ptr<core::AttestationVerifier> verifier_;
};

TEST_F(FederationTest, EstablishAndCallAcrossMachines) {
  auto link = net::establish_link(
      network_, "meter", "utility",
      {.initiator_verifier = net::VerifierConfig{verifier_.get(), "anonymizer"},
       .responder_prover = net::ProverConfig{sgx_.get(), anonymizer_}});
  ASSERT_TRUE(link.ok());

  ASSERT_TRUE((*link)
                  ->responder_dispatcher()
                  .register_method("submit",
                                   [](BytesView reading) -> Result<Bytes> {
                                     return to_bytes("accepted:" +
                                                     to_string(reading));
                                   })
                  .ok());
  auto reply = (*link)->proxy().call("submit", to_bytes("3.2kWh"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "accepted:3.2kWh");
}

// The link resolves both endpoint names once, in establish_link: every
// call then moves its records by id and looks no name up.
TEST_F(FederationTest, CallsResolveNoEndpointName) {
  auto link = net::establish_link(
      network_, "meter", "utility",
      {.initiator_verifier = net::VerifierConfig{verifier_.get(), "anonymizer"},
       .responder_prover = net::ProverConfig{sgx_.get(), anonymizer_}});
  ASSERT_TRUE(link.ok());
  ASSERT_TRUE((*link)
                  ->responder_dispatcher()
                  .register_method("echo",
                                   [](BytesView request) -> Result<Bytes> {
                                     return Bytes(request.begin(),
                                                  request.end());
                                   })
                  .ok());

  const net::NetStats before = network_.stats();
  for (int i = 0; i < 4; ++i) {
    const std::string reading = "r" + std::to_string(i);
    auto reply = (*link)->proxy().call("echo", to_bytes(reading));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(to_string(*reply), reading);
  }
  EXPECT_EQ(network_.stats().name_resolutions, before.name_resolutions);
  EXPECT_EQ(network_.stats().messages, before.messages + 8);
}

TEST_F(FederationTest, UnregisteredEndpointIsRefused) {
  EXPECT_EQ(net::establish_link(network_, "meter", "nobody", {}).error(),
            Errc::invalid_argument);
  EXPECT_EQ(network_.stats().messages, 0u);
}

TEST_F(FederationTest, RefusesUnattestedResponder) {
  // Responder cannot prove the expected code identity: no link.
  auto link = net::establish_link(
      network_, "meter", "utility",
      {.initiator_verifier =
           net::VerifierConfig{verifier_.get(), "anonymizer"}});
  EXPECT_FALSE(link.ok());
}

TEST_F(FederationTest, SurvivesPassiveMitmFailsOnActive) {
  // Passive observer: link works.
  std::size_t observed = 0;
  network_.set_tamperer([&](const std::string&, const std::string&,
                            BytesView payload) -> std::optional<Bytes> {
    ++observed;
    return Bytes(payload.begin(), payload.end());
  });
  auto link = net::establish_link(
      network_, "meter", "utility",
      {.initiator_verifier = net::VerifierConfig{verifier_.get(), "anonymizer"},
       .responder_prover = net::ProverConfig{sgx_.get(), anonymizer_}});
  ASSERT_TRUE(link.ok());
  EXPECT_GE(observed, 3u);

  // Active tampering on records: every call fails closed.
  network_.set_tamperer([](const std::string&, const std::string&,
                           BytesView payload) -> std::optional<Bytes> {
    Bytes evil(payload.begin(), payload.end());
    evil[evil.size() / 2] ^= 0x01;
    return evil;
  });
  ASSERT_TRUE((*link)
                  ->responder_dispatcher()
                  .register_method("submit",
                                   [](BytesView) -> Result<Bytes> {
                                     return Bytes{};
                                   })
                  .ok());
  EXPECT_FALSE((*link)->proxy().call("submit", to_bytes("x")).ok());
}

TEST_F(FederationTest, DroppedHandshakeFailsCleanly) {
  network_.set_tamperer([](const std::string&, const std::string&,
                           BytesView) -> std::optional<Bytes> {
    return std::nullopt;  // black hole
  });
  auto link = net::establish_link(network_, "meter", "utility", {});
  EXPECT_EQ(link.error(), Errc::io_error);
}

}  // namespace
}  // namespace lateral
