// Substrate conformance suite — the paper's POSIX analogy made executable.
//
// One behavioural contract, instantiated against every isolation technology
// ("microkernel", "trustzone", "sgx", "tpm", "ftpm", "sep", "cheri", "noc").
// §III-A: "Software components should be developed once against the common
// pattern and then should run on any isolation implementation." Each test
// either passes identically on every substrate or consults info().features
// — never the substrate's name — mirroring how portable code must behave.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <tuple>
#include <utility>

#include "crypto/rsa.h"
#include "runtime/region_pool.h"
#include "substrate/substrate.h"
#include "test_support.h"
#include "tpm/tpm.h"
#include "trace/trace.h"

namespace lateral::substrate {
namespace {

using test::legacy_spec;
using test::tc_spec;

class ConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("conformance-" + GetParam());
    auto substrate = test::shared_registry().create(GetParam(), *machine_);
    ASSERT_TRUE(substrate.ok());
    substrate_ = std::move(*substrate);
  }

  /// A pair of domains that can hold a channel on every substrate: the
  /// second is legacy where the substrate hosts legacy code (SEP only
  /// admits one trusted component), trusted otherwise (the TPM hosts no
  /// legacy code at all).
  std::pair<DomainId, DomainId> make_pair() {
    auto a = substrate_->create_domain(tc_spec("alpha"));
    EXPECT_TRUE(a.ok());
    const bool use_legacy =
        has_feature(substrate_->info().features, Feature::legacy_hosting);
    auto b = substrate_->create_domain(use_legacy ? legacy_spec("beta")
                                                  : tc_spec("beta"));
    EXPECT_TRUE(b.ok());
    return {*a, *b};
  }

  Features features() const { return substrate_->info().features; }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<IsolationSubstrate> substrate_;
};

TEST_P(ConformanceTest, InfoIsCoherent) {
  const SubstrateInfo& info = substrate_->info();
  EXPECT_EQ(info.name, GetParam());
  EXPECT_TRUE(has_feature(info.features, Feature::spatial_isolation));
  EXPECT_GT(info.tcb_loc, 0u);
  EXPECT_FALSE(info.defends_against.empty());
  // Everyone defends at least against remote attackers.
  EXPECT_TRUE(info.defends(AttackerModel::remote_network));
}

TEST_P(ConformanceTest, CreateDomain) {
  auto domain = substrate_->create_domain(tc_spec("tc"));
  ASSERT_TRUE(domain.ok());
  EXPECT_NE(*domain, kInvalidDomain);
  EXPECT_EQ(substrate_->domains().size(), 1u);
}

TEST_P(ConformanceTest, RejectsEmptyNameOrImage) {
  DomainSpec spec = tc_spec("x");
  spec.name = "";
  EXPECT_FALSE(substrate_->create_domain(spec).ok());
  spec = tc_spec("x");
  spec.image.code.clear();
  EXPECT_FALSE(substrate_->create_domain(spec).ok());
}

TEST_P(ConformanceTest, DomainSpecRetrievable) {
  auto domain = substrate_->create_domain(tc_spec("tc", 2));
  ASSERT_TRUE(domain.ok());
  auto spec = substrate_->domain_spec(*domain);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "tc");
  EXPECT_EQ(spec->memory_pages, 2u);
  EXPECT_FALSE(substrate_->domain_spec(999).ok());
}

TEST_P(ConformanceTest, MeasurementIsImageHash) {
  const DomainSpec spec = tc_spec("measured");
  auto domain = substrate_->create_domain(spec);
  ASSERT_TRUE(domain.ok());
  auto measurement = substrate_->measurement(*domain);
  ASSERT_TRUE(measurement.ok());
  EXPECT_EQ(*measurement, spec.image.measurement());
}

TEST_P(ConformanceTest, DestroyRemovesDomainAndChannels) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_->destroy_domain(b).ok());
  EXPECT_FALSE(substrate_->domain_spec(b).ok());
  EXPECT_EQ(substrate_->send(a, *channel, to_bytes("x")).error(),
            Errc::no_such_channel);
}

TEST_P(ConformanceTest, OwnMemoryRoundTrip) {
  auto domain = substrate_->create_domain(tc_spec("mem", 2));
  ASSERT_TRUE(domain.ok());
  ASSERT_TRUE(
      substrate_->write_memory(*domain, *domain, 100, to_bytes("payload"))
          .ok());
  auto read = substrate_->read_memory(*domain, *domain, 100, 7);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(to_string(*read), "payload");
}

TEST_P(ConformanceTest, MemoryAcrossPageBoundary) {
  auto domain = substrate_->create_domain(tc_spec("mem", 2));
  ASSERT_TRUE(domain.ok());
  const std::uint64_t offset = hw::kPageSize - 3;
  ASSERT_TRUE(
      substrate_->write_memory(*domain, *domain, offset, to_bytes("straddle"))
          .ok());
  auto read = substrate_->read_memory(*domain, *domain, offset, 8);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(to_string(*read), "straddle");
}

TEST_P(ConformanceTest, OutOfBoundsMemoryDenied) {
  auto domain = substrate_->create_domain(tc_spec("mem", 1));
  ASSERT_TRUE(domain.ok());
  EXPECT_FALSE(
      substrate_->read_memory(*domain, *domain, hw::kPageSize - 1, 2).ok());
  EXPECT_FALSE(
      substrate_->write_memory(*domain, *domain, hw::kPageSize, to_bytes("x"))
          .ok());
}

TEST_P(ConformanceTest, SpatialIsolationHolds) {
  // The core guarantee: the "weaker" domain cannot touch the trusted
  // component's memory on ANY substrate.
  auto [tc, other] = make_pair();
  ASSERT_TRUE(
      substrate_->write_memory(tc, tc, 0, to_bytes("tc-secret")).ok());
  EXPECT_EQ(substrate_->read_memory(other, tc, 0, 9).error(),
            Errc::access_denied);
  EXPECT_EQ(substrate_->write_memory(other, tc, 0, to_bytes("pwn")).error(),
            Errc::access_denied);
  // And the secret is intact.
  auto read = substrate_->read_memory(tc, tc, 0, 9);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(to_string(*read), "tc-secret");
}

TEST_P(ConformanceTest, CompromisedDomainStillConfined) {
  // Marking a domain compromised does not weaken the walls around its
  // peers — that is the whole point of the architecture.
  auto [tc, other] = make_pair();
  ASSERT_TRUE(substrate_->write_memory(tc, tc, 0, to_bytes("asset")).ok());
  ASSERT_TRUE(substrate_->mark_compromised(other).ok());
  EXPECT_TRUE(substrate_->is_compromised(other));
  EXPECT_FALSE(substrate_->is_compromised(tc));
  EXPECT_EQ(substrate_->read_memory(other, tc, 0, 5).error(),
            Errc::access_denied);
}

// A refused access moves no byte, so it costs nothing: the same on every
// substrate, whichever check refuses it and whichever direction it has.
TEST_P(ConformanceTest, RefusedMemoryAccessIsFree) {
  auto [a, b] = make_pair();
  constexpr DomainId kUnknown = 999;
  constexpr std::uint64_t kWrap = std::numeric_limits<std::uint64_t>::max() - 1;
  const std::uint64_t past_end = 2 * hw::kPageSize;  // tc_spec: 2 pages
  const auto expect_free = [&](const char* what, auto&& access) {
    const Cycles before = machine_->now();
    EXPECT_FALSE(access()) << what;
    EXPECT_EQ(machine_->now(), before) << what;
  };
  const auto refused_read = [&](DomainId actor, DomainId target,
                                std::uint64_t offset) {
    return [=, this] {
      return substrate_->read_memory(actor, target, offset, 4).ok();
    };
  };
  const auto refused_write = [&](DomainId actor, DomainId target,
                                 std::uint64_t offset) {
    return [=, this] {
      return substrate_->write_memory(actor, target, offset, to_bytes("data"))
          .ok();
    };
  };
  expect_free("read past end", refused_read(a, a, past_end));
  expect_free("write past end", refused_write(a, a, past_end));
  expect_free("read wrapping", refused_read(a, a, kWrap));
  expect_free("write wrapping", refused_write(a, a, kWrap));
  expect_free("read foreign", refused_read(b, a, 0));
  expect_free("write foreign", refused_write(b, a, 0));
  expect_free("read unknown actor", refused_read(kUnknown, a, 0));
  expect_free("write unknown actor", refused_write(kUnknown, a, 0));
  expect_free("read unknown target", refused_read(a, kUnknown, 0));
  expect_free("write unknown target", refused_write(a, kUnknown, 0));
  ASSERT_TRUE(substrate_->kill_domain(b).ok());
  expect_free("read dead", refused_read(b, b, 0));
  expect_free("write dead", refused_write(b, b, 0));
  expect_free("read dead target", refused_read(a, b, 0));
  expect_free("write dead actor", refused_write(b, a, 0));
}

// One price per access: writing n bytes costs what reading them does, for a
// trusted component and, where the substrate hosts one, a legacy domain.
// The one difference is memory encryption's: a write reseals each page it
// touches (read-modify-write), one more engine pass per page. That pass is
// priced as what a read pays for touching one more page, which is nothing
// where pages are not encrypted.
TEST_P(ConformanceTest, ReadAndWriteCostTheSame) {
  const Bytes data = to_bytes("forty bytes of payload for one access..");
  const std::uint64_t in_page = 0;
  const std::uint64_t straddle = hw::kPageSize - 7;
  const auto expect_same_price = [&](DomainId domain, const char* what) {
    const auto cost = [&](auto&& access) {
      const Cycles before = machine_->now();
      EXPECT_TRUE(access()) << what;
      return machine_->now() - before;
    };
    const auto read = [&](std::uint64_t offset) {
      return cost([&] {
        return substrate_->read_memory(domain, domain, offset, data.size())
            .ok();
      });
    };
    const auto write = [&](std::uint64_t offset) {
      return cost([&] {
        return substrate_->write_memory(domain, domain, offset, data).ok();
      });
    };
    const Cycles page_pass = read(straddle) - read(in_page);
    if (!has_feature(features(), Feature::memory_encryption))
      EXPECT_EQ(page_pass, 0u) << what;
    EXPECT_EQ(write(in_page), read(in_page) + page_pass) << what;
    EXPECT_EQ(write(straddle), read(straddle) + 2 * page_pass) << what;
  };
  auto tc = substrate_->create_domain(tc_spec("trusted"));
  ASSERT_TRUE(tc.ok());
  expect_same_price(*tc, "trusted component");
  if (has_feature(features(), Feature::legacy_hosting)) {
    auto legacy = substrate_->create_domain(legacy_spec("legacy"));
    ASSERT_TRUE(legacy.ok());
    expect_same_price(*legacy, "legacy domain");
  }
}

TEST_P(ConformanceTest, ChannelSendReceive) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_->send(a, *channel, to_bytes("ping")).ok());
  auto msg = substrate_->receive(b, *channel);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(to_string(msg->data), "ping");
  EXPECT_NE(msg->badge, 0u);
}

TEST_P(ConformanceTest, ReceiveOnEmptyChannelWouldBlock) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  EXPECT_EQ(substrate_->receive(b, *channel).error(), Errc::would_block);
}

TEST_P(ConformanceTest, MessagesPreserveFifoOrder) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(substrate_->send(a, *channel,
                                 to_bytes("m" + std::to_string(i)))
                    .ok());
  for (int i = 0; i < 5; ++i) {
    auto msg = substrate_->receive(b, *channel);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(to_string(msg->data), "m" + std::to_string(i));
  }
}

TEST_P(ConformanceTest, PolaUnknownChannelRefused) {
  auto [a, b] = make_pair();
  (void)b;
  EXPECT_EQ(substrate_->send(a, /*channel=*/777, to_bytes("x")).error(),
            Errc::no_such_channel);
  EXPECT_EQ(substrate_->receive(a, 777).error(), Errc::no_such_channel);
  EXPECT_EQ(substrate_->call(a, 777, to_bytes("x")).error(),
            Errc::no_such_channel);
}

TEST_P(ConformanceTest, NonEndpointCannotUseChannel) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  // A domain id that is not an endpoint (may or may not exist).
  const DomainId stranger = 424242;
  EXPECT_EQ(substrate_->send(stranger, *channel, to_bytes("x")).error(),
            Errc::access_denied);
  EXPECT_EQ(substrate_->receive(stranger, *channel).error(),
            Errc::access_denied);
}

TEST_P(ConformanceTest, MessageSizeLimitEnforced) {
  auto [a, b] = make_pair();
  ChannelSpec spec;
  spec.max_message_bytes = 16;
  auto channel = substrate_->create_channel(a, b, spec);
  ASSERT_TRUE(channel.ok());
  EXPECT_TRUE(substrate_->send(a, *channel, Bytes(16, 0)).ok());
  EXPECT_EQ(substrate_->send(a, *channel, Bytes(17, 0)).error(),
            Errc::invalid_argument);
}

TEST_P(ConformanceTest, CallInvokesHandlerWithBadge) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  auto expected_badge = substrate_->endpoint_badge(*channel, a);
  ASSERT_TRUE(expected_badge.ok());

  std::uint64_t seen_badge = 0;
  ASSERT_TRUE(substrate_
                  ->set_handler(b,
                                [&](const Invocation& invocation) -> Result<Bytes> {
                                  seen_badge = invocation.badge;
                                  Bytes reply = to_bytes("echo:");
                                  reply.insert(reply.end(),
                                               invocation.data.begin(),
                                               invocation.data.end());
                                  return reply;
                                })
                  .ok());
  auto reply = substrate_->call(a, *channel, to_bytes("hi"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "echo:hi");
  EXPECT_EQ(seen_badge, *expected_badge);
}

TEST_P(ConformanceTest, CallWithoutHandlerWouldBlock) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  EXPECT_EQ(substrate_->call(a, *channel, to_bytes("x")).error(),
            Errc::would_block);
}

TEST_P(ConformanceTest, HandlerCanRefuse) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return Errc::access_denied;
                  })
                  .ok());
  EXPECT_EQ(substrate_->call(a, *channel, to_bytes("x")).error(),
            Errc::access_denied);
}

TEST_P(ConformanceTest, InvocationAdvancesTheClock) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return Bytes{};
                  })
                  .ok());
  const Cycles before = machine_->now();
  ASSERT_TRUE(substrate_->call(a, *channel, to_bytes("x")).ok());
  EXPECT_GT(machine_->now(), before);
}

TEST_P(ConformanceTest, SealUnsealRoundTrip) {
  if (!has_feature(features(), Feature::sealed_storage)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("sealer"));
  ASSERT_TRUE(domain.ok());
  auto sealed = substrate_->seal(*domain, to_bytes("precious"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->size() > 7u, true);
  auto opened = substrate_->unseal(*domain, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(to_string(*opened), "precious");
}

TEST_P(ConformanceTest, UnsealRejectsTamperedBlob) {
  if (!has_feature(features(), Feature::sealed_storage)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("sealer"));
  ASSERT_TRUE(domain.ok());
  auto sealed = substrate_->seal(*domain, to_bytes("precious"));
  ASSERT_TRUE(sealed.ok());
  (*sealed)[sealed->size() - 1] ^= 0x01;
  EXPECT_EQ(substrate_->unseal(*domain, *sealed).error(),
            Errc::verification_failed);
}

TEST_P(ConformanceTest, SealBindsCodeIdentity) {
  if (!has_feature(features(), Feature::sealed_storage)) GTEST_SKIP();
  auto first = substrate_->create_domain(tc_spec("identity-a"));
  ASSERT_TRUE(first.ok());
  auto sealed = substrate_->seal(*first, to_bytes("bound-secret"));
  ASSERT_TRUE(sealed.ok());
  // A different code identity on the same device must not unseal it.
  // (Destroy first so two-domain-limited substrates can host the second.)
  ASSERT_TRUE(substrate_->destroy_domain(*first).ok());
  auto second = substrate_->create_domain(tc_spec("identity-b"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(substrate_->unseal(*second, *sealed).error(),
            Errc::verification_failed);
}

TEST_P(ConformanceTest, SealedBlobsDifferPerDevice) {
  if (!has_feature(features(), Feature::sealed_storage)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("sealer"));
  ASSERT_TRUE(domain.ok());
  auto sealed = substrate_->seal(*domain, to_bytes("precious"));
  ASSERT_TRUE(sealed.ok());

  // Same code on a different machine cannot unseal: the key derives from
  // that machine's fuses.
  auto other_machine = test::make_machine("other-device");
  auto other = test::shared_registry().create(GetParam(), *other_machine);
  ASSERT_TRUE(other.ok());
  auto twin = (*other)->create_domain(tc_spec("sealer"));
  ASSERT_TRUE(twin.ok());
  EXPECT_FALSE((*other)->unseal(*twin, *sealed).ok());
}

TEST_P(ConformanceTest, AttestationChainVerifies) {
  if (!has_feature(features(), Feature::attestation)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("prover"));
  ASSERT_TRUE(domain.ok());
  auto quote = substrate_->attest(*domain, to_bytes("challenge-data"));
  ASSERT_TRUE(quote.ok());
  EXPECT_TRUE(quote->verify(test::shared_vendor().root_public_key()).ok());
  EXPECT_EQ(quote->measurement, tc_spec("prover").image.measurement());
  EXPECT_EQ(to_string(quote->user_data), "challenge-data");
}

TEST_P(ConformanceTest, QuoteRejectsWrongRoot) {
  if (!has_feature(features(), Feature::attestation)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("prover"));
  ASSERT_TRUE(domain.ok());
  auto quote = substrate_->attest(*domain, to_bytes("x"));
  ASSERT_TRUE(quote.ok());
  hw::Vendor imposter(/*seed=*/999, /*key_bits=*/512);
  EXPECT_FALSE(quote->verify(imposter.root_public_key()).ok());
}

TEST_P(ConformanceTest, QuoteSerializationRoundTrip) {
  if (!has_feature(features(), Feature::attestation)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("prover"));
  ASSERT_TRUE(domain.ok());
  auto quote = substrate_->attest(*domain, to_bytes("ud"));
  ASSERT_TRUE(quote.ok());
  auto parsed = Quote::deserialize(quote->serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->substrate_name, quote->substrate_name);
  EXPECT_EQ(parsed->measurement, quote->measurement);
  EXPECT_TRUE(parsed->verify(test::shared_vendor().root_public_key()).ok());
}

TEST_P(ConformanceTest, TamperedQuoteRejected) {
  if (!has_feature(features(), Feature::attestation)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("prover"));
  ASSERT_TRUE(domain.ok());
  auto quote = substrate_->attest(*domain, to_bytes("ud"));
  ASSERT_TRUE(quote.ok());
  quote->measurement[0] ^= 0x01;  // claim different code identity
  EXPECT_FALSE(quote->verify(test::shared_vendor().root_public_key()).ok());
}

TEST_P(ConformanceTest, SecureBootRejectsUnsignedCode) {
  // Build a fresh substrate with a secure_boot launch policy.
  crypto::HmacDrbg drbg(to_bytes("owner-key"));
  const crypto::RsaKeyPair owner = crypto::RsaKeyPair::generate(drbg, 512);
  auto machine = test::make_machine("secure-boot");
  SubstrateConfig config;
  config.launch_policy = LaunchPolicy::secure_boot;
  config.owner_key = owner.pub;
  auto substrate = test::shared_registry().create(GetParam(), *machine, config);
  ASSERT_TRUE(substrate.ok());

  DomainSpec unsigned_spec = tc_spec("unsigned");
  EXPECT_EQ((*substrate)->create_domain(unsigned_spec).error(),
            Errc::verification_failed);

  DomainSpec signed_spec = tc_spec("signed");
  signed_spec.image_signature = crypto::rsa_sign(owner, signed_spec.image.code);
  EXPECT_TRUE((*substrate)->create_domain(signed_spec).ok());

  DomainSpec badly_signed = tc_spec("badly-signed");
  badly_signed.image_signature =
      crypto::rsa_sign(owner, to_bytes("different code"));
  EXPECT_EQ((*substrate)->create_domain(badly_signed).error(),
            Errc::verification_failed);
}

TEST_P(ConformanceTest, AuthenticatedBootLogsEveryLaunch) {
  auto machine = test::make_machine("auth-boot");
  SubstrateConfig config;
  config.launch_policy = LaunchPolicy::authenticated_boot;
  auto substrate = test::shared_registry().create(GetParam(), *machine, config);
  ASSERT_TRUE(substrate.ok());

  const DomainSpec spec_a = tc_spec("first");
  ASSERT_TRUE((*substrate)->create_domain(spec_a).ok());
  // Unlike secure boot, nothing is rejected — only recorded. (Second domain
  // is legacy where the substrate can host one, to respect SEP's
  // two-environment limit.)
  const DomainSpec spec_b =
      has_feature((*substrate)->info().features, Feature::legacy_hosting)
          ? legacy_spec("second")
          : tc_spec("second");
  ASSERT_TRUE((*substrate)->create_domain(spec_b).ok());

  const auto& log = (*substrate)->boot_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], spec_a.image.measurement());
  EXPECT_EQ(log[1], spec_b.image.measurement());
}

TEST_P(ConformanceTest, DomainIdsAreNeverReused) {
  auto first = substrate_->create_domain(tc_spec("ephemeral"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(substrate_->destroy_domain(*first).ok());
  auto second = substrate_->create_domain(tc_spec("ephemeral"));
  ASSERT_TRUE(second.ok());
  // A stale capability naming the dead domain must not alias the new one.
  EXPECT_NE(*first, *second);
  EXPECT_FALSE(substrate_->domain_spec(*first).ok());
}

TEST_P(ConformanceTest, MultipleChannelsBetweenSamePair) {
  auto [a, b] = make_pair();
  auto control = substrate_->create_channel(a, b);
  auto data = substrate_->create_channel(a, b);
  ASSERT_TRUE(control.ok());
  ASSERT_TRUE(data.ok());
  EXPECT_NE(*control, *data);
  // Traffic does not bleed between them.
  ASSERT_TRUE(substrate_->send(a, *control, to_bytes("ctl")).ok());
  EXPECT_EQ(substrate_->receive(b, *data).error(), Errc::would_block);
  auto msg = substrate_->receive(b, *control);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(to_string(msg->data), "ctl");
  // Each channel has its own badges.
  EXPECT_NE(*substrate_->endpoint_badge(*control, a),
            *substrate_->endpoint_badge(*data, a));
}

TEST_P(ConformanceTest, HandlerReplacementTakesEffect) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("v1");
                  })
                  .ok());
  EXPECT_EQ(to_string(*substrate_->call(a, *channel, {})), "v1");
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("v2");
                  })
                  .ok());
  EXPECT_EQ(to_string(*substrate_->call(a, *channel, {})), "v2");
}

TEST_P(ConformanceTest, SealEmptyPayload) {
  if (!has_feature(features(), Feature::sealed_storage)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("sealer"));
  ASSERT_TRUE(domain.ok());
  auto sealed = substrate_->seal(*domain, {});
  ASSERT_TRUE(sealed.ok());
  auto opened = substrate_->unseal(*domain, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST_P(ConformanceTest, SealedBlobsAreNonDeterministic) {
  if (!has_feature(features(), Feature::sealed_storage)) GTEST_SKIP();
  auto domain = substrate_->create_domain(tc_spec("sealer"));
  ASSERT_TRUE(domain.ok());
  auto first = substrate_->seal(*domain, to_bytes("same data"));
  auto second = substrate_->seal(*domain, to_bytes("same data"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Fresh nonce per seal: identical plaintexts must not produce identical
  // blobs (a storage observer could otherwise correlate state).
  EXPECT_NE(*first, *second);
  EXPECT_TRUE(substrate_->unseal(*domain, *second).ok());
}

TEST_P(ConformanceTest, FeatureGatedOperationsReportNotSupported) {
  // A substrate that lacks a feature must say so, not misbehave.
  auto domain = substrate_->create_domain(tc_spec("probe"));
  ASSERT_TRUE(domain.ok());
  if (!has_feature(features(), Feature::sealed_storage)) {
    EXPECT_EQ(substrate_->seal(*domain, to_bytes("x")).error(),
              Errc::not_supported);
  }
  if (!has_feature(features(), Feature::attestation)) {
    EXPECT_EQ(substrate_->attest(*domain, to_bytes("x")).error(),
              Errc::not_supported);
  }
}

// --- Crash semantics: kill_domain, corpses, epochs, fault injection -------
//
// The supervised-restart contract (lateral::supervisor) leans on every
// substrate honouring the same corpse semantics: an abrupt death leaves a
// diagnosable corpse (domain_dead everywhere), channels survive for
// rebinding, and epochs fence off the old life.

TEST_P(ConformanceTest, KillLeavesDiagnosableCorpse) {
  auto domain = substrate_->create_domain(tc_spec("victim"));
  ASSERT_TRUE(domain.ok());
  ASSERT_TRUE(substrate_->kill_domain(*domain).ok());
  EXPECT_TRUE(substrate_->is_dead(*domain));
  // A corpse is not "no such domain": the id stays known and diagnosable.
  EXPECT_EQ(substrate_->domain_spec(*domain).error(), Errc::domain_dead);
  // But it no longer counts as a live domain.
  EXPECT_TRUE(substrate_->domains().empty());
  // Killing a corpse again is refused (the first death is the real one).
  EXPECT_EQ(substrate_->kill_domain(*domain).error(), Errc::domain_dead);
  EXPECT_EQ(substrate_->kill_domain(999).error(), Errc::no_such_domain);
}

// A released domain's bytes must not reach the next domain on its frames,
// whether it was destroyed or killed. Offset 3000 lies past every image, so
// only a scrub (not the next image load) can clear it.
TEST_P(ConformanceTest, ReusedFramesReadAsZeros) {
  const Bytes secret = to_bytes("SECRET-KEY");
  const Bytes zeros(secret.size(), 0);
  auto first = substrate_->create_domain(tc_spec("first"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(substrate_->write_memory(*first, *first, 3000, secret).ok());
  ASSERT_TRUE(substrate_->destroy_domain(*first).ok());

  auto second = substrate_->create_domain(tc_spec("second"));
  ASSERT_TRUE(second.ok());
  auto read = substrate_->read_memory(*second, *second, 3000, secret.size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, zeros) << "destroyed domain's bytes survived";
  ASSERT_TRUE(substrate_->write_memory(*second, *second, 3000, secret).ok());
  ASSERT_TRUE(substrate_->kill_domain(*second).ok());

  auto third = substrate_->create_domain(tc_spec("third"));
  ASSERT_TRUE(third.ok());
  read = substrate_->read_memory(*third, *third, 3000, secret.size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, zeros) << "killed domain's bytes survived";
  EXPECT_TRUE(substrate_->destroy_domain(*second).ok());
}

TEST_P(ConformanceTest, EveryOperationOnCorpseFailsDomainDead) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("alive");
                  })
                  .ok());
  ASSERT_TRUE(substrate_->call(a, *channel, to_bytes("x")).ok());

  ASSERT_TRUE(substrate_->kill_domain(b).ok());
  EXPECT_EQ(substrate_->call(a, *channel, to_bytes("x")).error(),
            Errc::domain_dead);
  EXPECT_EQ(substrate_->send(a, *channel, to_bytes("x")).error(),
            Errc::domain_dead);
  // receive() against a dead peer fails fast, not would_block forever —
  // this is exactly the supervisor's heartbeat probe.
  EXPECT_EQ(substrate_->receive(a, *channel).error(), Errc::domain_dead);
  EXPECT_EQ(substrate_->read_memory(b, b, 0, 1).error(), Errc::domain_dead);
  EXPECT_EQ(substrate_->write_memory(b, b, 0, to_bytes("x")).error(),
            Errc::domain_dead);
  EXPECT_EQ(substrate_->measurement(b).error(), Errc::domain_dead);
  EXPECT_EQ(substrate_->set_handler(b, nullptr).error(), Errc::domain_dead);
  EXPECT_EQ(substrate_->create_channel(a, b).error(), Errc::domain_dead);
  if (has_feature(features(), Feature::attestation)) {
    EXPECT_EQ(substrate_->attest(b, to_bytes("x")).error(), Errc::domain_dead);
  }
  if (has_feature(features(), Feature::sealed_storage)) {
    EXPECT_EQ(substrate_->seal(b, to_bytes("x")).error(), Errc::domain_dead);
  }
}

TEST_P(ConformanceTest, KillDropsQueuedMessagesBothDirections) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_->send(a, *channel, to_bytes("to-b")).ok());
  ASSERT_TRUE(substrate_->send(b, *channel, to_bytes("to-a")).ok());
  ASSERT_TRUE(substrate_->kill_domain(b).ok());
  // Everything queued belonged to the old life: the survivor sees the
  // death, not a stale message.
  EXPECT_EQ(substrate_->receive(a, *channel).error(), Errc::domain_dead);
}

TEST_P(ConformanceTest, DestroyReapsCorpseAndItsChannels) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_->kill_domain(b).ok());
  ASSERT_TRUE(substrate_->destroy_domain(b).ok());
  EXPECT_FALSE(substrate_->is_dead(b));  // reaped, not a corpse any more
  EXPECT_EQ(substrate_->domain_spec(b).error(), Errc::no_such_domain);
  EXPECT_EQ(substrate_->send(a, *channel, to_bytes("x")).error(),
            Errc::no_such_channel);
}

TEST_P(ConformanceTest, ChannelEpochBumpInvalidatesAndDropsQueues) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  auto epoch = substrate_->channel_epoch(*channel);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);  // every channel starts life at epoch 1
  ASSERT_TRUE(substrate_->send(a, *channel, to_bytes("old-life")).ok());
  ASSERT_TRUE(substrate_->bump_channel_epoch(*channel).ok());
  EXPECT_EQ(*substrate_->channel_epoch(*channel), 2u);
  EXPECT_EQ(substrate_->receive(b, *channel).error(), Errc::would_block);
  EXPECT_EQ(substrate_->channel_epoch(777).error(), Errc::no_such_channel);
}

TEST_P(ConformanceTest, RebindChannelMovesEndpointToSuccessor) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  const std::uint64_t old_badge =
      substrate_->endpoint_badge(*channel, b).value_or(0);
  ASSERT_TRUE(substrate_->kill_domain(b).ok());

  const bool use_legacy =
      has_feature(substrate_->info().features, Feature::legacy_hosting);
  auto b2 = substrate_->create_domain(use_legacy ? legacy_spec("beta2")
                                                 : tc_spec("beta2"));
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(substrate_->rebind_channel(*channel, b, *b2).ok());

  // Same channel id, new life: epoch bumped, fresh badge for the rebound
  // side, and traffic flows to the successor.
  EXPECT_EQ(*substrate_->channel_epoch(*channel), 2u);
  const std::uint64_t new_badge =
      substrate_->endpoint_badge(*channel, *b2).value_or(0);
  EXPECT_NE(new_badge, old_badge);
  ASSERT_TRUE(substrate_
                  ->set_handler(*b2, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("successor");
                  })
                  .ok());
  auto reply = substrate_->call(a, *channel, to_bytes("hi"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "successor");
  // The corpse can now be reaped without touching the rebound channel.
  ASSERT_TRUE(substrate_->destroy_domain(b).ok());
  EXPECT_TRUE(substrate_->call(a, *channel, to_bytes("hi")).ok());
}

TEST_P(ConformanceTest, RebindChannelRefusesBadArguments) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  // A third domain, by whatever kind this substrate still has room for
  // (trustzone hosts one legacy world; SEP hosts one of each and refuses).
  auto c = substrate_->create_domain(tc_spec("gamma"));
  if (!c.ok() &&
      has_feature(substrate_->info().features, Feature::legacy_hosting))
    c = substrate_->create_domain(legacy_spec("gamma"));
  if (c.ok()) {
    // `from` must be a current endpoint of the channel.
    EXPECT_EQ(substrate_->rebind_channel(*channel, *c, *c).error(),
              Errc::access_denied);
  }
  // Rebinding onto the peer would collapse the channel onto one domain.
  EXPECT_EQ(substrate_->rebind_channel(*channel, b, a).error(),
            Errc::invalid_argument);
  EXPECT_EQ(substrate_->rebind_channel(999, a, b).error(),
            Errc::no_such_channel);
  // The successor must be live.
  if (c.ok()) {
    ASSERT_TRUE(substrate_->kill_domain(*c).ok());
    EXPECT_EQ(substrate_->rebind_channel(*channel, b, *c).error(),
              Errc::domain_dead);
  } else {
    // Two-domain substrates still fence dead successors.
    ASSERT_TRUE(substrate_->kill_domain(b).ok());
    EXPECT_EQ(substrate_->rebind_channel(*channel, a, b).error(),
              Errc::domain_dead);
  }
}

TEST_P(ConformanceTest, FaultHookCrashesCalleeMidInvocation) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("served");
                  })
                  .ok());
  int arm = 0;  // fire on the second delivery only
  substrate_->set_fault_hook(
      [&](DomainId callee, std::string_view op) {
        return callee == b && op == "call" && ++arm == 2;
      });
  EXPECT_TRUE(substrate_->call(a, *channel, to_bytes("one")).ok());
  // The fault fires mid-invocation: the caller sees the same domain_dead a
  // real crash would produce, and the callee is a corpse afterwards.
  EXPECT_EQ(substrate_->call(a, *channel, to_bytes("two")).error(),
            Errc::domain_dead);
  EXPECT_TRUE(substrate_->is_dead(b));
  substrate_->set_fault_hook(nullptr);
}

// --- Grant regions (zero-copy data plane) -----------------------------------

TEST_P(ConformanceTest, RegionUnsupportedReportsHonestly) {
  auto [a, b] = make_pair();
  if (substrate_->supports_regions()) return;
  // The discrete/firmware TPMs have no memory both sides can address: the
  // data plane reports that precisely so callers take the copy path.
  EXPECT_EQ(substrate_->create_region(a, b, 4096).error(),
            Errc::no_region_support);
  EXPECT_TRUE(substrate_->regions().empty());
}

TEST_P(ConformanceTest, RegionLifecycleAndInPlaceData) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto region = substrate_->create_region(a, b, 8192);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(*substrate_->region_epoch(*region), 1u);

  // Unmapped endpoints cannot touch the region yet.
  EXPECT_EQ(substrate_->region_write(a, *region, 0, to_bytes("x")).error(),
            Errc::access_denied);
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());  // idempotent

  ASSERT_TRUE(substrate_->region_write(a, *region, 64, to_bytes("bulk")).ok());
  auto desc = substrate_->make_descriptor(a, *region, 64, 4);
  ASSERT_TRUE(desc.ok());
  auto view = substrate_->region_view(b, *desc);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(to_string(*view), "bulk");  // same bytes, no copy
  auto copy = substrate_->region_read(b, *region, 64, 4);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(to_string(*copy), "bulk");

  // Bounds are enforced at mint time and at access time.
  EXPECT_EQ(substrate_->make_descriptor(a, *region, 8190, 8).error(),
            Errc::invalid_argument);
  EXPECT_EQ(substrate_->make_descriptor(a, *region, 0, 0).error(),
            Errc::invalid_argument);

  // The size a pool would carve comes from the substrate, not a restated
  // manifest literal.
  auto size = substrate_->region_size(*region);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 8192u);
  EXPECT_EQ(substrate_->region_size(999).error(), Errc::invalid_argument);
}

TEST_P(ConformanceTest, RegionBoundsRefuseOverflowingRanges) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto region = substrate_->create_region(a, b, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());

  // offset + len wraps to a tiny sum: a naive `offset + len > size` check
  // would accept these ranges and the reference monitor would hand out an
  // out-of-bounds view. Every validation surface must refuse them.
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(substrate_->make_descriptor(a, *region, huge, 2).error(),
            Errc::invalid_argument);
  EXPECT_EQ(substrate_->make_descriptor(a, *region, huge - 1, 4).error(),
            Errc::invalid_argument);
  EXPECT_EQ(substrate_->region_write(a, *region, huge, to_bytes("xx")).error(),
            Errc::invalid_argument);
  EXPECT_EQ(substrate_->region_read(a, *region, huge, 2).error(),
            Errc::invalid_argument);

  // A forged descriptor (bypassing make_descriptor, as a compromised peer
  // could) is caught by check_descriptor before region_view dereferences.
  substrate::RegionDescriptor forged;
  forged.region = *region;
  forged.offset = huge;
  forged.length = 2;
  forged.epoch = *substrate_->region_epoch(*region);
  EXPECT_EQ(substrate_->check_descriptor(a, forged).error(),
            Errc::invalid_argument);
  EXPECT_EQ(substrate_->region_view(a, forged).error(),
            Errc::invalid_argument);
}

TEST_P(ConformanceTest, RegionPolaDeniesNonEndpoint) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto region = substrate_->create_region(a, b, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());

  // A third, undeclared domain (whatever kind this substrate still has
  // room for) is refused at every surface of the plane.
  auto c = substrate_->create_domain(tc_spec("gamma"));
  if (!c.ok() &&
      has_feature(substrate_->info().features, Feature::legacy_hosting))
    c = substrate_->create_domain(legacy_spec("gamma"));
  if (c.ok()) {
    EXPECT_EQ(substrate_->map_region(*c, *region).error(),
              Errc::access_denied);
    EXPECT_EQ(substrate_->region_read(*c, *region, 0, 16).error(),
              Errc::access_denied);
    EXPECT_EQ(substrate_->make_descriptor(*c, *region, 0, 16).error(),
              Errc::access_denied);
    auto desc = substrate_->make_descriptor(a, *region, 0, 16);
    ASSERT_TRUE(desc.ok());
    EXPECT_EQ(substrate_->check_descriptor(*c, *desc).error(),
              Errc::access_denied);
  }
  // Unknown regions are refused regardless of who asks.
  EXPECT_EQ(substrate_->map_region(a, 999).error(), Errc::invalid_argument);
}

TEST_P(ConformanceTest, RegionDescriptorRefusedOnForeignChannel) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  // A descriptor for a region the caller shares with a *third* domain must
  // not ride a channel to someone else — the confused-deputy refusal.
  auto c = substrate_->create_domain(tc_spec("gamma"));
  if (!c.ok() &&
      has_feature(substrate_->info().features, Feature::legacy_hosting))
    c = substrate_->create_domain(legacy_spec("gamma"));
  if (!c.ok()) return;  // two-domain substrate: scenario cannot exist
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return Bytes{};
                  })
                  .ok());
  auto region = substrate_->create_region(a, *c, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(*c, *region).ok());
  auto desc = substrate_->make_descriptor(a, *region, 0, 16);
  ASSERT_TRUE(desc.ok());
  const std::array<RegionDescriptor, 1> segments{*desc};
  EXPECT_EQ(substrate_->call_sg(a, *channel, to_bytes("hdr"), segments)
                .error(),
            Errc::access_denied);
}

TEST_P(ConformanceTest, KillDomainRevokesRegionMappings) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto region = substrate_->create_region(a, b, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());
  ASSERT_TRUE(substrate_->region_write(a, *region, 0, to_bytes("secret")).ok());
  auto desc = substrate_->make_descriptor(a, *region, 0, 6);
  ASSERT_TRUE(desc.ok());

  ASSERT_TRUE(substrate_->kill_domain(b).ok());
  // The survivor's descriptor is fenced: the peer's death is reported (more
  // diagnosable than "stale"), and the epoch was bumped underneath.
  EXPECT_EQ(substrate_->check_descriptor(a, *desc).error(), Errc::domain_dead);
  EXPECT_EQ(substrate_->region_view(a, *desc).error(), Errc::domain_dead);
  EXPECT_EQ(*substrate_->region_epoch(*region), 2u);

  // Secret hygiene: the kill scrubbed the backing, so nothing of the old
  // life is readable even after the survivor legitimately re-maps.
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  auto bytes = substrate_->region_read(a, *region, 0, 6);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, Bytes(6, 0));

  // Reaping the corpse erases the region with it.
  ASSERT_TRUE(substrate_->destroy_domain(b).ok());
  EXPECT_EQ(substrate_->region_epoch(*region).error(), Errc::invalid_argument);
}

TEST_P(ConformanceTest, RevokeRegionPermanentlyFences) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto region = substrate_->create_region(a, b, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());
  auto desc = substrate_->make_descriptor(a, *region, 0, 16);
  ASSERT_TRUE(desc.ok());

  ASSERT_TRUE(substrate_->revoke_region(*region).ok());
  EXPECT_EQ(substrate_->region_view(a, *desc).error(), Errc::stale_epoch);
  EXPECT_EQ(substrate_->map_region(a, *region).error(), Errc::stale_epoch);
  EXPECT_EQ(substrate_->make_descriptor(a, *region, 0, 16).error(),
            Errc::stale_epoch);
  EXPECT_EQ(substrate_->revoke_region(*region).error(), Errc::stale_epoch);
  EXPECT_TRUE(substrate_->regions().empty());  // revoked ids are not listed
}

TEST_P(ConformanceTest, RebindRegionFencesStaleDescriptorsAndScrubs) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto region = substrate_->create_region(a, b, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());
  ASSERT_TRUE(substrate_->region_write(a, *region, 0, to_bytes("oldlife")).ok());
  auto stale = substrate_->make_descriptor(a, *region, 0, 7);
  ASSERT_TRUE(stale.ok());

  const bool use_legacy =
      has_feature(substrate_->info().features, Feature::legacy_hosting);
  auto b2 = substrate_->create_domain(use_legacy ? legacy_spec("beta2")
                                                 : tc_spec("beta2"));
  if (!b2.ok()) {
    // Two-domain substrate: the supervised-restart path still fences via
    // revoke; nothing more to check here.
    return;
  }
  ASSERT_TRUE(substrate_->kill_domain(b).ok());
  ASSERT_TRUE(substrate_->rebind_region(*region, b, *b2).ok());
  EXPECT_EQ(substrate_->check_descriptor(a, *stale).error(),
            Errc::stale_epoch);

  // Both sides re-map; the reincarnation must not inherit the old bytes.
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(*b2, *region).ok());
  auto bytes = substrate_->region_read(*b2, *region, 0, 7);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, Bytes(7, 0));

  // The rebound region carries fresh descriptors end to end.
  ASSERT_TRUE(substrate_->region_write(a, *region, 0, to_bytes("newlife")).ok());
  auto fresh = substrate_->make_descriptor(a, *region, 0, 7);
  ASSERT_TRUE(fresh.ok());
  auto view = substrate_->region_view(*b2, *fresh);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(to_string(*view), "newlife");

  EXPECT_EQ(substrate_->rebind_region(*region, b, *b2).error(),
            Errc::access_denied);  // `from` no longer an endpoint
}

TEST_P(ConformanceTest, ReadOnlyRegionRefusesGranteeWrites) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto region =
      substrate_->create_region(a, b, 4096, RegionPerms::read_only);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());
  ASSERT_TRUE(substrate_->region_write(a, *region, 0, to_bytes("ro")).ok());
  EXPECT_EQ(substrate_->region_write(b, *region, 0, to_bytes("no")).error(),
            Errc::access_denied);
  auto copy = substrate_->region_read(b, *region, 0, 2);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(to_string(*copy), "ro");
}

TEST_P(ConformanceTest, ScatterGatherCrossingIsPayloadIndependent) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation& inv) -> Result<Bytes> {
                    EXPECT_EQ(inv.segments.size(), 1u);
                    return Bytes{};
                  })
                  .ok());
  auto region = substrate_->create_region(a, b, 1 << 16);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());

  auto crossing_for = [&](std::uint64_t len) -> Cycles {
    auto desc = substrate_->make_descriptor(a, *region, 0, len);
    EXPECT_TRUE(desc.ok());
    const std::array<RegionDescriptor, 1> segments{*desc};
    const Cycles before = machine_->now();
    EXPECT_TRUE(
        substrate_->call_sg(a, *channel, to_bytes("h"), segments).ok());
    return machine_->now() - before;
  };
  // 64 B or 32 KiB behind the descriptor: the crossing charge is identical,
  // because only header + 16 bytes per descriptor ever cross.
  EXPECT_EQ(crossing_for(64), crossing_for(32768));
}

TEST_P(ConformanceTest, BatchSgVetoesBadDescriptorWithoutSinkingBatch) {
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("ok");
                  })
                  .ok());
  auto region = substrate_->create_region(a, b, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());
  auto good = substrate_->make_descriptor(a, *region, 0, 16);
  ASSERT_TRUE(good.ok());
  RegionDescriptor stale = *good;
  stale.epoch = 999;  // forged/outdated epoch

  std::vector<SgRequest> requests(2);
  requests[0].header = to_bytes("good");
  requests[0].segments = {*good};
  requests[1].header = to_bytes("bad");
  requests[1].segments = {stale};
  auto reply = substrate_->call_batch_sg(a, *channel, requests);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->replies.size(), 2u);
  EXPECT_TRUE(reply->replies[0].ok());
  EXPECT_EQ(reply->replies[1].error(), Errc::stale_epoch);
}

TEST_P(ConformanceTest, BatchOfOneMatchesSingleCall) {
  // A batch of one is charged fixed + (message_cost(n) - fixed), which is
  // exactly what the single call pays: the two are the same crossing, down
  // to the spans and profiler samples they leave behind.
  trace::Tracer tracer;
  health::CycleProfiler profiler(
      health::CycleProfiler::Config{.ring_capacity = 64, .sample_every = 1});
  profiler.set_enabled(true);
  substrate_->set_tracer(&tracer);
  substrate_->set_profiler(&profiler);
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b,
                                [](const Invocation& inv) -> Result<Bytes> {
                                  Bytes reply(inv.data.begin(),
                                              inv.data.end());
                                  reply.resize(reply.size() +
                                                   64 * inv.segments.size(),
                                               0x5a);
                                  return reply;
                                })
                  .ok());
  const trace::TraceContext ctx = tracer.begin_trace();
  trace::TraceScope scope(ctx);

  struct Crossing {
    Cycles cycles = 0;
    Bytes reply;
    std::vector<std::pair<trace::SpanPhase, std::uint64_t>> spans;
    std::vector<std::tuple<health::ProfilePhase, Cycles, Cycles>> samples;
  };
  // Everything one delivery leaves behind: its clock delta, its reply, the
  // callee's new flight-recorder events and the new profiler samples (with
  // their stamps relative to the start of the delivery).
  const auto observe = [&](const auto& deliver) {
    const std::size_t spans_before =
        tracer.snapshot(substrate_.get(), b).size();
    const std::size_t samples_before =
        profiler.snapshot(substrate_.get(), b).size();
    Crossing out;
    const Cycles before = machine_->now();
    out.reply = deliver();
    out.cycles = machine_->now() - before;
    const auto spans = tracer.snapshot(substrate_.get(), b);
    for (std::size_t i = spans_before; i < spans.size(); ++i)
      out.spans.emplace_back(spans[i].phase, spans[i].size);
    const auto samples = profiler.snapshot(substrate_.get(), b);
    for (std::size_t i = samples_before; i < samples.size(); ++i)
      out.samples.emplace_back(samples[i].phase, samples[i].cycles,
                               samples[i].at - before);
    return out;
  };
  const auto expect_same = [](const Crossing& single,
                              const Crossing& batched) {
    EXPECT_EQ(single.cycles, batched.cycles);
    EXPECT_EQ(single.reply, batched.reply);
    EXPECT_EQ(single.spans.size(), 2u);  // dispatch + complete
    EXPECT_EQ(single.spans, batched.spans);
    EXPECT_EQ(single.samples.size(), 2u);  // request + reply
    EXPECT_EQ(single.samples, batched.samples);
  };

  const Bytes request = to_bytes("batch-of-one");
  // Warm up one-time charges (the TPM's late-launch switch).
  ASSERT_TRUE(substrate_->call(a, *channel, request).ok());
  expect_same(observe([&] {
                return substrate_->call(a, *channel, request).value();
              }),
              observe([&] {
                auto reply = substrate_->call_batch(
                    a, *channel, std::vector<Bytes>{request});
                return reply.value().replies.at(0).value();
              }));

  if (substrate_->supports_regions()) {
    auto region = substrate_->create_region(a, b, 4096);
    ASSERT_TRUE(region.ok());
    ASSERT_TRUE(substrate_->map_region(a, *region).ok());
    ASSERT_TRUE(substrate_->map_region(b, *region).ok());
    auto desc = substrate_->make_descriptor(a, *region, 0, 1024);
    ASSERT_TRUE(desc.ok());
    const std::array<RegionDescriptor, 1> segments{*desc};
    std::vector<SgRequest> requests(1);
    requests[0].header = to_bytes("hdr");
    requests[0].segments = {*desc};
    expect_same(observe([&] {
                  return substrate_
                      ->call_sg(a, *channel, to_bytes("hdr"), segments)
                      .value();
                }),
                observe([&] {
                  auto reply = substrate_->call_batch_sg(a, *channel,
                                                         requests);
                  return reply.value().replies.at(0).value();
                }));
  }
  substrate_->set_profiler(nullptr);
  substrate_->set_tracer(nullptr);
}

TEST_P(ConformanceTest, UndeliverableBatchCrossesNothing) {
  // One refusal rule for all four calls: descriptors are vetoed before
  // anything crosses, and a call left with nothing to deliver consults no
  // fault hook, runs no pre_call and charges no cycle.
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("ok");
                  })
                  .ok());
  int consulted = 0;
  substrate_->set_fault_hook([&](DomainId, std::string_view) {
    ++consulted;
    return false;
  });

  Cycles before = machine_->now();
  auto empty = substrate_->call_batch(a, *channel, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->replies.empty());
  EXPECT_EQ(empty->crossing_cycles, 0u);
  EXPECT_EQ(machine_->now(), before);
  EXPECT_EQ(consulted, 0);
  // Nothing crossed, so the TPM never late-launched the callee.
  if (const auto* chip = dynamic_cast<const tpm::Tpm*>(substrate_.get())) {
    EXPECT_EQ(chip->active_component(), kInvalidDomain);
  }

  // A descriptor with a forged epoch; where the substrate has no regions,
  // one naming a region that does not exist.
  RegionDescriptor forged;
  forged.region = 999;
  forged.length = 16;
  Errc refusal = Errc::invalid_argument;
  if (substrate_->supports_regions()) {
    auto region = substrate_->create_region(a, b, 4096);
    ASSERT_TRUE(region.ok());
    ASSERT_TRUE(substrate_->map_region(a, *region).ok());
    ASSERT_TRUE(substrate_->map_region(b, *region).ok());
    auto desc = substrate_->make_descriptor(a, *region, 0, 16);
    ASSERT_TRUE(desc.ok());
    forged = *desc;
    forged.epoch = 999;
    refusal = Errc::stale_epoch;
  }

  before = machine_->now();
  const std::array<RegionDescriptor, 1> segments{forged};
  EXPECT_EQ(substrate_->call_sg(a, *channel, to_bytes("hdr"), segments)
                .error(),
            refusal);
  EXPECT_EQ(machine_->now(), before);
  EXPECT_EQ(consulted, 0);

  std::vector<SgRequest> requests(2);
  requests[0].header = to_bytes("one");
  requests[0].segments = {forged};
  requests[1].header = to_bytes("two");
  requests[1].segments = {forged};
  auto vetoed = substrate_->call_batch_sg(a, *channel, requests);
  ASSERT_TRUE(vetoed.ok());
  ASSERT_EQ(vetoed->replies.size(), 2u);
  EXPECT_EQ(vetoed->replies[0].error(), refusal);
  EXPECT_EQ(vetoed->replies[1].error(), refusal);
  EXPECT_EQ(vetoed->crossing_cycles, 0u);
  EXPECT_EQ(machine_->now(), before);
  EXPECT_EQ(consulted, 0);

  // A mixed batch crosses once for what survived the veto.
  requests[0].segments.clear();
  auto mixed = substrate_->call_batch_sg(a, *channel, requests);
  ASSERT_TRUE(mixed.ok());
  ASSERT_EQ(mixed->replies.size(), 2u);
  EXPECT_TRUE(mixed->replies[0].ok());
  EXPECT_EQ(mixed->replies[1].error(), refusal);
  EXPECT_GT(mixed->crossing_cycles, 0u);
  EXPECT_EQ(consulted, 1);
  substrate_->set_fault_hook(nullptr);
}

TEST_P(ConformanceTest, KilledCalleeMidTransferReturnsPoolSlot) {
  // The update orchestrator's staged-transfer loop: acquire a RegionPool
  // slot, stage a chunk, call_sg, release, repeat. A callee killed mid-
  // transfer cancels the call with domain_dead — and the lease must come
  // back to the pool on that path too, or every aborted update would leak
  // a slot until the pool starves.
  auto [a, b] = make_pair();
  if (!substrate_->supports_regions()) return;
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  auto region = substrate_->create_region(a, b, 1024);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(substrate_->map_region(a, *region).ok());
  ASSERT_TRUE(substrate_->map_region(b, *region).ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("ack");
                  })
                  .ok());

  runtime::RegionPool pool(*substrate_, a, *region, 1024, 256);
  int deliveries = 0;  // kill the callee on the third chunk
  substrate_->set_fault_hook([&](DomainId callee, std::string_view op) {
    return callee == b && op == "call_sg" && ++deliveries == 3;
  });
  Errc failure = Errc::ok;
  for (int chunk = 0; chunk < 4 && failure == Errc::ok; ++chunk) {
    auto slot = pool.acquire();
    ASSERT_TRUE(slot.ok());
    auto desc = pool.stage(*slot, to_bytes("chunk-" + std::to_string(chunk)));
    ASSERT_TRUE(desc.ok());
    const std::array<RegionDescriptor, 1> segments{*desc};
    auto reply = substrate_->call_sg(a, *channel, to_bytes("hdr"), segments);
    // Returned on success AND on cancellation — the invariant under test.
    pool.release(*slot);
    if (!reply.ok()) failure = reply.error();
  }
  substrate_->set_fault_hook(nullptr);
  EXPECT_EQ(failure, Errc::domain_dead);
  EXPECT_TRUE(substrate_->is_dead(b));
  EXPECT_EQ(pool.slots_free(), pool.slots_total());
  // A fresh acquire works immediately: nothing stayed in flight.
  EXPECT_TRUE(pool.acquire().ok());
}

// --- lateral::trace conformance: one tracing contract on every substrate ---

TEST_P(ConformanceTest, TraceContextArrivesIntactOnCall) {
  trace::Tracer tracer;
  substrate_->set_tracer(&tracer);
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  trace::TraceContext seen;
  ASSERT_TRUE(substrate_
                  ->set_handler(b,
                                [&](const Invocation& inv) -> Result<Bytes> {
                                  seen = inv.trace;
                                  return Bytes{};
                                })
                  .ok());
  const trace::TraceContext ctx = tracer.begin_trace();
  trace::TraceScope scope(ctx);
  ASSERT_TRUE(substrate_->call(a, *channel, to_bytes("ping")).ok());
  EXPECT_EQ(seen.trace_id, ctx.trace_id);
  EXPECT_TRUE(seen.sampled());
  EXPECT_NE(seen.parent_span, 0u);  // the substrate minted a dispatch span

  // ...and the callee's flight recorder holds dispatch + complete, fenced
  // around the handler in ticket order.
  const auto events = tracer.snapshot(substrate_.get(), b);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, trace::SpanPhase::dispatch);
  EXPECT_EQ(events[1].phase, trace::SpanPhase::complete);
  EXPECT_EQ(events[0].trace_id, ctx.trace_id);
  EXPECT_EQ(events[0].span_id, seen.parent_span);
  EXPECT_EQ(events[0].size, 4u);
  substrate_->set_tracer(nullptr);
}

TEST_P(ConformanceTest, TraceContextArrivesPerRequestOnCallBatch) {
  trace::Tracer tracer;
  substrate_->set_tracer(&tracer);
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  std::vector<trace::TraceContext> seen;
  ASSERT_TRUE(substrate_
                  ->set_handler(b,
                                [&](const Invocation& inv) -> Result<Bytes> {
                                  seen.push_back(inv.trace);
                                  return Bytes{};
                                })
                  .ok());
  const trace::TraceContext ctx = tracer.begin_trace();
  trace::TraceScope scope(ctx);
  const std::vector<Bytes> requests{to_bytes("a"), to_bytes("b"),
                                    to_bytes("c")};
  ASSERT_TRUE(substrate_->call_batch(a, *channel, requests).ok());
  ASSERT_EQ(seen.size(), 3u);
  std::uint32_t last_span = 0;
  for (const trace::TraceContext& got : seen) {
    EXPECT_EQ(got.trace_id, ctx.trace_id);
    EXPECT_TRUE(got.sampled());
    EXPECT_NE(got.parent_span, last_span);  // one span per delivered request
    last_span = got.parent_span;
  }
  EXPECT_EQ(tracer.snapshot(substrate_.get(), b).size(), 6u);
  substrate_->set_tracer(nullptr);
}

TEST_P(ConformanceTest, TraceContextArrivesOnCallSgAndAfterRebind) {
  trace::Tracer tracer;
  substrate_->set_tracer(&tracer);
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  trace::TraceContext seen;
  const auto handler = [&](const Invocation& inv) -> Result<Bytes> {
    seen = inv.trace;
    return Bytes{};
  };
  const trace::TraceContext ctx = tracer.begin_trace();
  trace::TraceScope scope(ctx);

  if (substrate_->supports_regions()) {
    ASSERT_TRUE(substrate_->set_handler(b, handler).ok());
    auto region = substrate_->create_region(a, b, 4096);
    ASSERT_TRUE(region.ok());
    ASSERT_TRUE(substrate_->map_region(a, *region).ok());
    ASSERT_TRUE(substrate_->map_region(b, *region).ok());
    auto desc = substrate_->make_descriptor(a, *region, 0, 64);
    ASSERT_TRUE(desc.ok());
    const std::array<RegionDescriptor, 1> segments{*desc};
    ASSERT_TRUE(substrate_->call_sg(a, *channel, to_bytes("h"), segments).ok());
    EXPECT_EQ(seen.trace_id, ctx.trace_id);
    // The dispatch span's size is header + descriptor-named payload bytes.
    const auto events = tracer.snapshot(substrate_.get(), b);
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events[0].size, 1u + 64u);
  }

  // The context keeps arriving after a supervised-restart-style rebind:
  // the channel id survives, the epoch bumps, the successor sees the trace.
  ASSERT_TRUE(substrate_->kill_domain(b).ok());
  const bool use_legacy =
      has_feature(substrate_->info().features, Feature::legacy_hosting);
  auto b2 = substrate_->create_domain(use_legacy ? legacy_spec("beta2")
                                                 : tc_spec("beta2"));
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(substrate_->rebind_channel(*channel, b, *b2).ok());
  seen = {};
  ASSERT_TRUE(substrate_->set_handler(*b2, handler).ok());
  ASSERT_TRUE(substrate_->call(a, *channel, to_bytes("again")).ok());
  EXPECT_EQ(seen.trace_id, ctx.trace_id);
  EXPECT_TRUE(seen.sampled());
  EXPECT_FALSE(tracer.snapshot(substrate_.get(), *b2).empty());
  substrate_->set_tracer(nullptr);
}

TEST_P(ConformanceTest, DisabledTracerAddsZeroCycles) {
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return Bytes{};
                  })
                  .ok());
  const auto cost_of_call = [&] {
    const Cycles before = machine_->now();
    EXPECT_TRUE(substrate_->call(a, *channel, to_bytes("x")).ok());
    return machine_->now() - before;
  };
  cost_of_call();  // warm up one-time charges (TPM late-launch switch)
  const Cycles bare = cost_of_call();

  trace::Tracer tracer;
  tracer.set_enabled(false);
  substrate_->set_tracer(&tracer);
  const trace::TraceContext ctx = tracer.begin_trace();
  trace::TraceScope scope(ctx);
  // Tracer attached but disabled: the crossing costs exactly what an
  // untraced one does, and no span is recorded.
  EXPECT_EQ(cost_of_call(), bare);
  EXPECT_TRUE(tracer.snapshot(substrate_.get(), b).empty());

  tracer.set_enabled(true);
  const Cycles traced = cost_of_call();
  // The charge lands once, on the request direction (the reply carries no
  // context — correlation is by span id).
  EXPECT_EQ(traced, bare + substrate_->trace_crossing_cost());
  substrate_->set_tracer(nullptr);
}

TEST_P(ConformanceTest, FlightRecorderSurvivesKillDomain) {
  trace::Tracer tracer;
  substrate_->set_tracer(&tracer);
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation&) -> Result<Bytes> {
                    return to_bytes("ok");
                  })
                  .ok());
  const trace::TraceContext ctx = tracer.begin_trace();
  {
    trace::TraceScope scope(ctx);
    ASSERT_TRUE(substrate_->call(a, *channel, to_bytes("work")).ok());
  }
  ASSERT_TRUE(substrate_->kill_domain(b).ok());

  // The domain is a corpse; its ring is not. The timeline ends with the
  // kill itself — exactly what a supervisor snapshots into its report.
  const auto events = tracer.snapshot(substrate_.get(), b);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, trace::SpanPhase::dispatch);
  EXPECT_EQ(events[1].phase, trace::SpanPhase::complete);
  EXPECT_EQ(events[2].phase, trace::SpanPhase::killed);
  tracer.scrub(substrate_.get(), b);
  EXPECT_TRUE(tracer.snapshot(substrate_.get(), b).empty());
  substrate_->set_tracer(nullptr);
}

/// The published concurrency law per substrate (like info().name, this is
/// part of each backend's contract and pinned by name on purpose): how
/// crossings from different cores of one machine compose.
ConcurrencyLaw expected_law(const std::string& name) {
  if (name == "sgx") return ConcurrencyLaw::transition_serialized;
  if (name == "trustzone" || name == "ftpm")
    return ConcurrencyLaw::monitor_serialized;
  if (name == "tpm" || name == "sep")
    return ConcurrencyLaw::device_serialized;
  return ConcurrencyLaw::parallel;  // microkernel, noc, cheri
}

TEST_P(ConformanceTest, ConcurrencyLawPinned) {
  EXPECT_EQ(substrate_->concurrency_law(), expected_law(GetParam()));
}

TEST_P(ConformanceTest, SingleCoreSerializationInvisible) {
  // N=1 exactness: on the single-core machines every committed FIG9/11/12
  // number was measured on, the concurrency law must change nothing — no
  // stalls, no contention, per-call cost constant.
  auto [a, b] = make_pair();
  auto channel = substrate_->create_channel(a, b, {});
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(substrate_
                  ->set_handler(b, [](const Invocation& inv) -> Result<Bytes> {
                    return Bytes(inv.data.begin(), inv.data.end());
                  })
                  .ok());
  (void)substrate_->call(a, *channel, to_bytes("warm-up!"));
  const Cycles before_one = machine_->now();
  ASSERT_TRUE(substrate_->call(a, *channel, to_bytes("workload")).ok());
  const Cycles per_call = machine_->now() - before_one;
  ASSERT_GT(per_call, 0u);
  const Cycles before = machine_->now();
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(substrate_->call(a, *channel, to_bytes("workload")).ok());
  EXPECT_EQ(machine_->now() - before, 8 * per_call);
  EXPECT_EQ(substrate_->serial_stalls(), 0u);
  EXPECT_EQ(machine_->contention_events(), 0u);
}

TEST_P(ConformanceTest, TwoCoreScalingFollowsConcurrencyLaw) {
  // The FIG13 mechanism in miniature: the same offered work from two cores
  // (one client/server lane per core where the substrate can host it)
  // finishes in one core's time on a parallel substrate and approaches the
  // serialized sum behind a monitor/transition/device gate.
  auto machine = test::make_smp_machine(2, "conformance-smp-" + GetParam());
  auto created = test::shared_registry().create(GetParam(), *machine);
  ASSERT_TRUE(created.ok());
  auto& sub = *created;
  const auto echo = [](const Invocation& inv) -> Result<Bytes> {
    return Bytes(inv.data.begin(), inv.data.end());
  };

  struct Lane {
    DomainId client = kInvalidDomain;
    ChannelId channel = 0;
  };
  std::array<Lane, 2> lanes{};
  for (std::size_t i = 0; i < 2; ++i) {
    hw::CoreLease lease(*machine, i);
    const std::string suffix = std::to_string(i);
    auto server = sub->create_domain(tc_spec("server" + suffix));
    if (!server.ok()) {
      // Two-environment devices (SEP): both cores share the one mailbox.
      lanes[i] = lanes[0];
      continue;
    }
    auto client = sub->create_domain(tc_spec("client" + suffix));
    if (!client.ok())
      client = sub->create_domain(legacy_spec("client" + suffix));
    ASSERT_TRUE(client.ok());
    auto channel = sub->create_channel(*client, *server, {});
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(sub->set_handler(*server, echo).ok());
    lanes[i] = {*client, *channel};
    (void)sub->call(lanes[i].client, lanes[i].channel, to_bytes("warm-up!"));
  }

  // Per-call cost on core 0 with the gate already synchronized to it.
  const Cycles per_call = [&] {
    hw::CoreLease lease(*machine, 0);
    (void)sub->call(lanes[0].client, lanes[0].channel, to_bytes("workload"));
    const Cycles before = machine->core(0);
    (void)sub->call(lanes[0].client, lanes[0].channel, to_bytes("workload"));
    return machine->core(0) - before;
  }();
  ASSERT_GT(per_call, 0u);

  constexpr Cycles kCalls = 8;
  const std::array<Cycles, 2> start{machine->core(0), machine->core(1)};
  for (Cycles i = 0; i < kCalls; ++i) {
    for (std::size_t core = 0; core < 2; ++core) {
      hw::CoreLease lease(*machine, core);
      (void)sub->call(lanes[core].client, lanes[core].channel,
                      to_bytes("workload"));
    }
  }
  Cycles elapsed = 0;
  for (std::size_t core = 0; core < 2; ++core) {
    const Cycles busy = machine->core(core) - start[core];
    if (busy > elapsed) elapsed = busy;
  }

  switch (sub->concurrency_law()) {
    case ConcurrencyLaw::parallel:
      // Both cores cross concurrently: wall time is one core's work.
      EXPECT_LE(elapsed, kCalls * per_call + per_call / 2);
      EXPECT_EQ(sub->serial_stalls(), 0u);
      break;
    case ConcurrencyLaw::transition_serialized:
    case ConcurrencyLaw::monitor_serialized:
    case ConcurrencyLaw::device_serialized:
      // The gate serializes (nearly all of) both cores' crossings: wall
      // time approaches the two-core sum and the stalls are observable.
      EXPECT_GE(elapsed, 3 * kCalls * per_call / 2);
      EXPECT_GT(sub->serial_stalls(), 0u);
      EXPECT_GT(sub->serial_stall_cycles(), 0u);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, ConformanceTest,
                         ::testing::Values("microkernel", "trustzone", "sgx",
                                           "tpm", "ftpm", "sep", "cheri",
                                           "noc"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lateral::substrate
