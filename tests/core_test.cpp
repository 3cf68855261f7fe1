// Core ecosystem: manifest DSL, validation, policy checker, trust graph,
// TCB accounting, composer/assembly POLA, session demux (confused deputy),
// attestation protocol.
#include <gtest/gtest.h>

#include "core/attestation.h"
#include "core/composer.h"
#include "core/manifest.h"
#include "core/policy.h"
#include "core/session.h"
#include "core/standard_registry.h"
#include "core/tcb.h"
#include "core/trust_graph.h"
#include "microkernel/microkernel.h"
#include "test_support.h"

namespace lateral::core {
namespace {

using substrate::AttackerModel;
using substrate::DomainKind;
using substrate::Feature;

constexpr const char* kEmailManifest = R"(
# Decomposed email client (paper §III-C)
component tls {
  kind trusted
  substrate sgx
  pages 4
  attacker physical_bus
  channel imap
  seal
  attest
  assets 10
  loc 4000
}
component imap {
  kind trusted
  substrate microkernel
  channel tls
  channel render
  assets 2
  loc 8000
}
component render {
  kind trusted
  substrate microkernel
  channel imap
  trusts imap
  assets 1
  loc 30000
}
)";

TEST(ManifestParser, ParsesFullExample) {
  auto manifests = parse_manifests(kEmailManifest);
  ASSERT_TRUE(manifests.ok());
  ASSERT_EQ(manifests->size(), 3u);
  const Manifest& tls = (*manifests)[0];
  EXPECT_EQ(tls.name, "tls");
  EXPECT_EQ(tls.kind, DomainKind::trusted_component);
  EXPECT_EQ(tls.substrate_name, "sgx");
  EXPECT_EQ(tls.memory_pages, 4u);
  EXPECT_EQ(tls.attacker, AttackerModel::physical_bus);
  EXPECT_EQ(tls.channels, std::vector<std::string>{"imap"});
  EXPECT_TRUE(tls.needs_sealing);
  EXPECT_TRUE(tls.needs_attestation);
  EXPECT_DOUBLE_EQ(tls.asset_value, 10.0);
  EXPECT_EQ(tls.loc, 4000u);
  EXPECT_EQ((*manifests)[2].trusts, std::vector<std::string>{"imap"});
}

TEST(ManifestParser, CommentsAndBlankLinesIgnored) {
  auto manifests = parse_manifests(
      "# top comment\n\ncomponent x {\n  kind legacy  # inline\n}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_EQ(manifests->size(), 1u);
  EXPECT_EQ((*manifests)[0].kind, DomainKind::legacy);
}

TEST(ManifestParser, RejectsMalformedInput) {
  EXPECT_FALSE(parse_manifests("component x {").ok());       // unterminated
  EXPECT_FALSE(parse_manifests("kind trusted\n").ok());      // outside block
  EXPECT_FALSE(parse_manifests("component x {\n component y {\n}\n}\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n bogus y\n}\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n attacker alien\n}\n").ok());
  EXPECT_FALSE(parse_manifests("component x y {\n}\n").ok());
}

// A bad number is a malformed directive like any other: refused with
// invalid_argument, never thrown.
TEST(ManifestParser, RejectsNonNumericOrNonFiniteAssets) {
  for (const char* value : {"abc", "1e999", "-1e999", "inf", "nan", "2.5x",
                            "", "0x10"}) {
    const std::string text =
        "component x {\n assets " + std::string(value) + "\n}\n";
    Errc error = Errc::ok;
    EXPECT_NO_THROW(error = parse_manifests(text).error()) << value;
    EXPECT_EQ(error, Errc::invalid_argument) << value;
  }
  auto parsed = parse_manifests("component x {\n assets 2.5\n}\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)[0].asset_value, 2.5);
}

// Every 32-bit field refuses a value past 2^32 - 1 instead of keeping its
// low 32 bits, and still takes 2^32 - 1 itself.
TEST(ManifestParser, RejectsThirtyTwoBitOverflow) {
  const std::pair<const char*, const char*> fields[] = {
      {"restart {\n max ", "\n }"},
      {"update {\n slots ", "\n }"},
      {"update {\n probation ", "\n }"},
      {"slo {\n error_rate ", "\n }"},
      {"slo {\n burn_windows ", "\n }"},
      {"share ", ""},
  };
  for (const auto& [before, after] : fields) {
    const auto text = [&](const char* value) {
      return "component x {\n " + std::string(before) + value + after +
             "\n}\n";
    };
    EXPECT_EQ(parse_manifests(text("4294967297")).error(),
              Errc::invalid_argument)
        << before;
    EXPECT_EQ(parse_manifests(text("18446744073709551615")).error(),
              Errc::invalid_argument)
        << before;
  }
  auto parsed = parse_manifests(
      "component x {\n share 4294967295\n restart {\n max 4294967295\n }\n"
      " update {\n slots 4294967295\n probation 4294967295\n }\n"
      " slo {\n burn_windows 4294967295\n }\n}\n");
  ASSERT_TRUE(parsed.ok());
  const Manifest& m = (*parsed)[0];
  EXPECT_EQ(m.time_share_permille, 4294967295u);
  EXPECT_EQ(m.restart->max_restarts, 4294967295u);
  EXPECT_EQ(m.update->slots, 4294967295u);
  EXPECT_EQ(m.update->probation_ticks, 4294967295u);
  EXPECT_EQ(m.slo->burn_windows, 4294967295u);
}

TEST(ManifestParser, RoundTripsThroughText) {
  auto original = parse_manifests(kEmailManifest);
  ASSERT_TRUE(original.ok());
  auto reparsed = parse_manifests(to_text(*original));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), original->size());
  for (std::size_t i = 0; i < original->size(); ++i) {
    EXPECT_EQ((*reparsed)[i].name, (*original)[i].name);
    EXPECT_EQ((*reparsed)[i].channels, (*original)[i].channels);
    EXPECT_EQ((*reparsed)[i].trusts, (*original)[i].trusts);
    EXPECT_EQ((*reparsed)[i].attacker, (*original)[i].attacker);
    EXPECT_EQ((*reparsed)[i].loc, (*original)[i].loc);
  }
}

TEST(ManifestParser, ParsesRestartStanza) {
  auto manifests = parse_manifests(
      "component x {\n"
      "  restart {\n"
      "    max 5\n"
      "    backoff 2000\n"
      "    escalate halted\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].restart.has_value());
  EXPECT_EQ((*manifests)[0].restart->max_restarts, 5u);
  EXPECT_EQ((*manifests)[0].restart->backoff_cycles, 2000u);
  EXPECT_EQ((*manifests)[0].restart->escalation,
            RestartPolicy::Escalation::halted);
}

TEST(ManifestParser, EmptyRestartStanzaMeansDefaults) {
  auto manifests = parse_manifests("component x {\n  restart {\n  }\n}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].restart.has_value());
  EXPECT_EQ(*(*manifests)[0].restart, RestartPolicy{});
  // And absence means unsupervised — the two are different declarations.
  auto plain = parse_manifests("component y {\n}\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE((*plain)[0].restart.has_value());
}

TEST(ManifestParser, RestartStanzaRoundTrips) {
  auto original = parse_manifests(
      "component x {\n  restart {\n    max 2\n    backoff 512\n"
      "    escalate degraded\n  }\n}\n");
  ASSERT_TRUE(original.ok());
  auto reparsed = parse_manifests(to_text(*original));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)[0].restart, (*original)[0].restart);
}

TEST(ManifestParser, RejectsMalformedRestartStanza) {
  EXPECT_FALSE(parse_manifests("component x {\n restart {\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n restart\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n restart {\n bogus 1\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n restart {\n escalate meltdown\n}\n}\n")
          .ok());
  EXPECT_FALSE(parse_manifests("component x {\n restart {\n}\n restart {\n}\n}\n")
                   .ok());  // one stanza per component
}

TEST(ManifestParser, ParsesSloStanza) {
  auto manifests = parse_manifests(
      "component svc {\n"
      "  restart {\n"
      "  }\n"
      "  slo {\n"
      "    p99 5000\n"
      "    error_rate 50\n"
      "    window 10000\n"
      "    burn_windows 4\n"
      "    restart\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].slo.has_value());
  EXPECT_EQ((*manifests)[0].slo->p99_cycles, 5000u);
  EXPECT_EQ((*manifests)[0].slo->error_permille, 50u);
  EXPECT_EQ((*manifests)[0].slo->window_cycles, 10'000u);
  EXPECT_EQ((*manifests)[0].slo->burn_windows, 4u);
  EXPECT_TRUE((*manifests)[0].slo->restart);
}

TEST(ManifestParser, EmptySloStanzaMeansDefaultsAndAbsenceMeansUnwatched) {
  auto manifests = parse_manifests("component x {\n  slo {\n  }\n}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].slo.has_value());
  EXPECT_EQ(*(*manifests)[0].slo, SloPolicy{});
  auto plain = parse_manifests("component y {\n}\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE((*plain)[0].slo.has_value());
}

TEST(ManifestParser, SloStanzaRoundTrips) {
  auto original = parse_manifests(
      "component svc {\n  restart {\n  }\n  slo {\n    p99 777\n"
      "    error_rate 10\n    window 4096\n    burn_windows 6\n"
      "    restart\n  }\n}\n");
  ASSERT_TRUE(original.ok());
  auto reparsed = parse_manifests(to_text(*original));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)[0].slo, (*original)[0].slo);
}

TEST(ManifestParser, RejectsMalformedSloStanza) {
  EXPECT_FALSE(parse_manifests("component x {\n slo {\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n slo\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n slo {\n bogus 1\n}\n}\n").ok());
  // error_rate is permille of offered load: 1001 cannot be an objective.
  EXPECT_FALSE(
      parse_manifests("component x {\n slo {\n error_rate 1001\n}\n}\n").ok());
  // `restart` inside slo is a bare flag, not a key-value.
  EXPECT_FALSE(
      parse_manifests("component x {\n slo {\n restart now\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n slo {\n}\n slo {\n}\n}\n").ok());
}

TEST(ManifestValidate, FlagsSloPolicyProblems) {
  const auto make = [] {
    auto manifests = parse_manifests(
        "component svc {\n  restart {\n  }\n  slo {\n    error_rate 50\n"
        "    window 10000\n    burn_windows 4\n    restart\n  }\n}\n");
    EXPECT_TRUE(manifests.ok());
    return (*manifests)[0];
  };
  EXPECT_TRUE(validate({make()}).empty());

  Manifest zero_window = make();
  zero_window.slo->window_cycles = 0;
  EXPECT_FALSE(validate({zero_window}).empty());

  Manifest zero_burn = make();
  zero_burn.slo->burn_windows = 0;
  EXPECT_FALSE(validate({zero_burn}).empty());

  // An slo stanza with every objective disabled checks nothing.
  Manifest no_objective = make();
  no_objective.slo->p99_cycles = 0;
  no_objective.slo->error_permille = 1000;
  const auto problems = validate({no_objective});
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("no objective"), std::string::npos);

  // The watchdog only pulls triggers the recovery plan owns.
  Manifest unsupervised = make();
  unsupervised.restart.reset();
  const auto restart_problems = validate({unsupervised});
  ASSERT_EQ(restart_problems.size(), 1u);
  EXPECT_NE(restart_problems[0].find("slo restart without restart stanza"),
            std::string::npos);
}

TEST(ManifestParser, ParsesFleetStanzaAndRoundTrips) {
  auto manifests = parse_manifests(
      "component utility {\n"
      "  fleet {\n"
      "    ticket_ttl 7000000\n"
      "    cache 128 9000000\n"
      "    admit 32 512\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].fleet.has_value());
  EXPECT_EQ((*manifests)[0].fleet->ticket_ttl, 7'000'000u);
  EXPECT_EQ((*manifests)[0].fleet->cache_capacity, 128u);
  EXPECT_EQ((*manifests)[0].fleet->cache_ttl, 9'000'000u);
  EXPECT_EQ((*manifests)[0].fleet->admit_rate, 32u);
  EXPECT_EQ((*manifests)[0].fleet->admit_burst, 512u);

  auto reparsed = parse_manifests(to_text(*manifests));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)[0].fleet, (*manifests)[0].fleet);

  // An empty stanza means "fleet frontend with defaults"; absence means
  // "not a fleet frontend" — different declarations.
  auto defaulted = parse_manifests("component x {\n  fleet {\n  }\n}\n");
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(*(*defaulted)[0].fleet, FleetPolicy{});
  auto plain = parse_manifests("component y {\n}\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE((*plain)[0].fleet.has_value());
}

TEST(ManifestParser, RejectsMalformedFleetStanza) {
  EXPECT_FALSE(parse_manifests("component x {\n fleet\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n fleet {\n bogus 1\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n fleet {\n cache 1\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n fleet {\n admit x y\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n fleet {\n}\n fleet {\n}\n}\n").ok());
  // Zero admission capacity is a validation problem, not a parse error.
  auto zero =
      parse_manifests("component x {\n fleet {\n admit 0 0\n}\n}\n");
  ASSERT_TRUE(zero.ok());
  const auto problems = validate(*zero);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("admission"), std::string::npos);
}

TEST(ManifestParser, ParsesRegionStanza) {
  auto manifests = parse_manifests(
      "component ui {\n"
      "  channel storage\n"
      "  region storage 65536\n"
      "  region render 4096 ro\n"
      "}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_EQ((*manifests)[0].regions.size(), 2u);
  EXPECT_EQ((*manifests)[0].regions[0],
            (RegionDecl{"storage", 65536, substrate::RegionPerms::read_write}));
  EXPECT_EQ((*manifests)[0].regions[1],
            (RegionDecl{"render", 4096, substrate::RegionPerms::read_only}));
}

TEST(ManifestParser, RegionStanzaRoundTrips) {
  auto original = parse_manifests(
      "component ui {\n  channel storage\n  region storage 8192\n"
      "  region render 512 ro\n}\ncomponent storage {\n}\n"
      "component render {\n}\n");
  ASSERT_TRUE(original.ok());
  auto reparsed = parse_manifests(to_text(*original));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)[0].regions, (*original)[0].regions);
}

TEST(ManifestParser, RejectsMalformedRegionStanza) {
  EXPECT_FALSE(parse_manifests("component x {\n region y\n}\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n region y 0\n}\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n region y 64 rw\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n region y 64 ro extra\n}\n").ok());
}

TEST(ManifestParser, ParsesTraceStanza) {
  auto manifests = parse_manifests(
      "component imap {\n"
      "  trace {\n"
      "    payload\n"
      "    observer ui\n"
      "    observer audit\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].trace.has_value());
  EXPECT_TRUE((*manifests)[0].trace->capture_payload);
  EXPECT_EQ((*manifests)[0].trace->observers,
            (std::vector<std::string>{"ui", "audit"}));
}

TEST(ManifestParser, EmptyTraceStanzaMeansRedactedDefaults) {
  auto manifests = parse_manifests("component x {\n  trace {\n  }\n}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].trace.has_value());
  EXPECT_EQ(*(*manifests)[0].trace, TracePolicy{});
  // Absence means no stanza at all — spans stay fully redacted either way,
  // but only the stanza can later grant observers.
  auto plain = parse_manifests("component y {\n}\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE((*plain)[0].trace.has_value());
}

TEST(ManifestParser, TraceStanzaRoundTrips) {
  auto original = parse_manifests(
      "component x {\n  trace {\n    payload\n    observer ui\n  }\n}\n");
  ASSERT_TRUE(original.ok());
  auto reparsed = parse_manifests(to_text(*original));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)[0].trace, (*original)[0].trace);
}

TEST(ManifestParser, RejectsMalformedTraceStanza) {
  EXPECT_FALSE(parse_manifests("component x {\n trace {\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n trace\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n trace {\n bogus\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n trace {\n payload extra\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n trace {\n observer\n}\n}\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n trace {\n}\n trace {\n}\n}\n")
                   .ok());  // one stanza per component
}

TEST(ManifestParser, ParsesUpdateStanzaAndRoundTrips) {
  auto manifests = parse_manifests(
      "component fw {\n"
      "  restart {\n"
      "  }\n"
      "  update {\n"
      "    key vendor\n"
      "    slots 3\n"
      "    probation 7\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].update.has_value());
  EXPECT_EQ((*manifests)[0].update->key, "vendor");
  EXPECT_EQ((*manifests)[0].update->slots, 3u);
  EXPECT_EQ((*manifests)[0].update->probation_ticks, 7u);
  auto reparsed = parse_manifests(to_text(*manifests));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)[0].update, (*manifests)[0].update);
}

TEST(ManifestParser, EmptyUpdateStanzaMeansDefaults) {
  auto manifests =
      parse_manifests("component fw {\n restart {\n}\n update {\n}\n}\n");
  ASSERT_TRUE(manifests.ok());
  ASSERT_TRUE((*manifests)[0].update.has_value());
  EXPECT_EQ(*(*manifests)[0].update, UpdatePolicy{});
}

TEST(ManifestParser, RejectsMalformedUpdateStanza) {
  EXPECT_FALSE(parse_manifests("component x {\n update {\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n update\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n update {\n bogus\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n update {\n slots\n}\n}\n").ok());
  EXPECT_FALSE(
      parse_manifests("component x {\n update {\n probation x\n}\n}\n").ok());
}

TEST(ManifestParser, DuplicateStanzasRejectedWithDiagnostics) {
  // Duplicate nested stanzas used to silently last-win; each one is now a
  // parse error whose diagnostic names the component and the stanza.
  const struct {
    const char* text;
    const char* expect;
  } cases[] = {
      {"component x {\n restart {\n}\n restart {\n}\n}\n",
       "duplicate restart"},
      {"component x {\n trace {\n}\n trace {\n}\n}\n", "duplicate trace"},
      {"component x {\n fleet {\n}\n fleet {\n}\n}\n", "duplicate fleet"},
      {"component x {\n update {\n}\n update {\n}\n}\n", "duplicate update"},
      {"component x {\n channel y\n region y 64\n region y 128\n}\n",
       "duplicate region y"},
  };
  for (const auto& c : cases) {
    std::string error;
    auto result = parse_manifests(c.text, &error);
    EXPECT_FALSE(result.ok()) << c.text;
    EXPECT_EQ(result.error(), Errc::invalid_argument);
    EXPECT_NE(error.find("component x"), std::string::npos) << error;
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
  }
}

TEST(ManifestValidate, FlagsUpdatePolicyProblems) {
  auto make = [] {
    std::vector<Manifest> bundle(1);
    bundle[0].name = "fw";
    bundle[0].restart.emplace();
    bundle[0].update.emplace();
    return bundle;
  };
  EXPECT_TRUE(validate(make()).empty());

  auto no_key = make();
  no_key[0].update->key.clear();
  EXPECT_FALSE(validate(no_key).empty());

  auto one_slot = make();
  one_slot[0].update->slots = 1;
  const auto slot_problems = validate(one_slot);
  ASSERT_EQ(slot_problems.size(), 1u);
  EXPECT_NE(slot_problems[0].find("fewer than 2 slots"), std::string::npos);

  auto zero_probation = make();
  zero_probation[0].update->probation_ticks = 0;
  EXPECT_FALSE(validate(zero_probation).empty());

  // An update policy on an unsupervised component can never commit (the
  // swap is a supervised restart), so validation refuses it up front.
  auto unsupervised = make();
  unsupervised[0].restart.reset();
  const auto problems = validate(unsupervised);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("without restart"), std::string::npos);
}

TEST(ManifestValidate, FlagsDuplicateRegionPeers) {
  std::vector<Manifest> bundle(2);
  bundle[0].name = "a";
  bundle[0].channels = {"b"};
  bundle[0].regions = {{"b", 4096, substrate::RegionPerms::read_write},
                       {"b", 512, substrate::RegionPerms::read_only}};
  bundle[1].name = "b";
  const auto problems = validate(bundle);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("duplicate region stanza to peer b"),
            std::string::npos);
}

TEST(ManifestValidate, AcceptsGoodBundle) {
  auto manifests = parse_manifests(kEmailManifest);
  ASSERT_TRUE(manifests.ok());
  EXPECT_TRUE(validate(*manifests).empty());
}

TEST(ManifestValidate, FlagsDuplicatesAndDanglingReferences) {
  std::vector<Manifest> bad(2);
  bad[0].name = "a";
  bad[0].channels = {"ghost"};
  bad[1].name = "a";
  const auto problems = validate(bad);
  EXPECT_GE(problems.size(), 2u);
}

TEST(ManifestValidate, FlagsTrustWithoutChannel) {
  std::vector<Manifest> bundle(2);
  bundle[0].name = "a";
  bundle[0].trusts = {"b"};  // no channel to b
  bundle[1].name = "b";
  EXPECT_FALSE(validate(bundle).empty());
}

TEST(ManifestValidate, FlagsSelfChannel) {
  std::vector<Manifest> bundle(1);
  bundle[0].name = "a";
  bundle[0].channels = {"a"};
  EXPECT_FALSE(validate(bundle).empty());
}

TEST(Policy, RequiredFeaturesEscalate) {
  const auto remote = required_features(AttackerModel::remote_network);
  const auto bus = required_features(AttackerModel::physical_bus);
  const auto intrusion = required_features(AttackerModel::physical_intrusion);
  EXPECT_TRUE(has_feature(remote, Feature::spatial_isolation));
  EXPECT_FALSE(has_feature(remote, Feature::memory_encryption));
  EXPECT_TRUE(has_feature(bus, Feature::memory_encryption));
  EXPECT_TRUE(has_feature(intrusion, Feature::attestation));
}

TEST(Policy, MicrokernelInsufficientForPhysicalBus) {
  // §III-C: "MMU-based isolation substrates are insufficient, because we
  // must assume the utility could access the server."
  auto machine = test::make_machine("policy");
  microkernel::Microkernel kernel(*machine, substrate::SubstrateConfig{});
  Manifest m;
  m.name = "anonymizer";
  m.attacker = AttackerModel::physical_bus;
  const PolicyVerdict verdict = check(m, kernel.info());
  EXPECT_FALSE(verdict.satisfied);
  EXPECT_FALSE(verdict.missing.empty());
}

TEST(Policy, SuitableSubstratesSortedByTcb) {
  auto machine = test::make_machine("policy2");
  auto& registry = test::shared_registry();
  std::vector<substrate::SubstrateInfo> infos;
  for (const std::string& name : registry.names()) {
    auto sub = registry.create(name, *machine);
    ASSERT_TRUE(sub.ok());
    infos.push_back((*sub)->info());
  }

  Manifest remote_only;
  remote_only.name = "x";
  remote_only.attacker = AttackerModel::remote_network;
  const auto fits_remote = suitable_substrates(remote_only, infos);
  EXPECT_GE(fits_remote.size(), 7u);
  // Cheapest-TCB first: NoC kernel (6 kLoC), CHERI (8 kLoC), microkernel.
  ASSERT_GE(fits_remote.size(), 3u);
  EXPECT_EQ(fits_remote[0], "noc");
  EXPECT_EQ(fits_remote[1], "cheri");
  EXPECT_EQ(fits_remote[2], "microkernel");

  Manifest bus;
  bus.name = "y";
  bus.attacker = AttackerModel::physical_bus;
  const auto fits_bus = suitable_substrates(bus, infos);
  for (const std::string& name : fits_bus) {
    EXPECT_NE(name, "microkernel");
    EXPECT_NE(name, "trustzone");
    EXPECT_NE(name, "cheri");
    EXPECT_NE(name, "ftpm");
  }
  EXPECT_FALSE(fits_bus.empty());
}

TEST(Policy, LegacyNeedsLegacyHosting) {
  auto machine = test::make_machine("policy3");
  auto tpm = test::shared_registry().create("tpm", *machine);
  ASSERT_TRUE(tpm.ok());
  Manifest legacy_os;
  legacy_os.name = "android";
  legacy_os.kind = DomainKind::legacy;
  EXPECT_FALSE(check(legacy_os, (*tpm)->info()).satisfied);
}

TEST(TrustGraph, MonolithicIsTotalLoss) {
  auto manifests = parse_manifests(kEmailManifest);
  ASSERT_TRUE(manifests.ok());
  const TrustGraph mono = TrustGraph::monolithic_counterfactual(*manifests);
  // Exploit anything, lose everything.
  EXPECT_DOUBLE_EQ(mono.containment(), 1.0);
  EXPECT_DOUBLE_EQ(*mono.compromised_value("render"), mono.total_value());
}

TEST(TrustGraph, DecompositionContains) {
  auto manifests = parse_manifests(kEmailManifest);
  ASSERT_TRUE(manifests.ok());
  const TrustGraph graph = TrustGraph::from_manifests(*manifests);
  // render trusts imap => compromising imap also takes render (value 2+1),
  // but tls (value 10) survives.
  auto from_imap = graph.compromised_set("imap");
  ASSERT_TRUE(from_imap.ok());
  EXPECT_TRUE(from_imap->contains("render"));
  EXPECT_FALSE(from_imap->contains("tls"));
  EXPECT_LT(graph.containment(),
            TrustGraph::monolithic_counterfactual(*manifests).containment());
}

TEST(TrustGraph, PropagationIsTransitive) {
  TrustGraph graph;
  for (const char* n : {"a", "b", "c", "d"}) ASSERT_TRUE(graph.add_node(n).ok());
  ASSERT_TRUE(graph.add_propagation_edge("a", "b").ok());
  ASSERT_TRUE(graph.add_propagation_edge("b", "c").ok());
  auto set = graph.compromised_set("a");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 3u);  // a, b, c — not d
  EXPECT_FALSE(set->contains("d"));
}

TEST(TrustGraph, EdgesRequireNodes) {
  TrustGraph graph;
  ASSERT_TRUE(graph.add_node("a").ok());
  EXPECT_FALSE(graph.add_propagation_edge("a", "ghost").ok());
  EXPECT_FALSE(graph.add_propagation_edge("ghost", "a").ok());
  EXPECT_FALSE(graph.compromised_set("ghost").ok());
}

TEST(TrustGraph, DotExportContainsStructure) {
  TrustGraph graph;
  ASSERT_TRUE(graph.add_node("alpha", 2.0).ok());
  ASSERT_TRUE(graph.add_node("beta").ok());
  ASSERT_TRUE(graph.add_propagation_edge("alpha", "beta").ok());
  const std::string dot = graph.to_dot();
  EXPECT_NE(dot.find("\"alpha\" -> \"beta\""), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Tcb, PerComponentClosure) {
  auto manifests = parse_manifests(kEmailManifest);
  ASSERT_TRUE(manifests.ok());
  const std::map<std::string, std::uint64_t> substrate_loc = {
      {"microkernel", 10'000}, {"sgx", 20'000}};
  const auto reports = tcb_of_manifests(*manifests, substrate_loc);
  ASSERT_EQ(reports.size(), 3u);

  // tls: own 4000 + sgx 20000, trusts nobody.
  EXPECT_EQ(reports[0].component, "tls");
  EXPECT_EQ(reports[0].total(), 4000u + 20'000u);
  // render trusts imap: own 30000 + microkernel 10000 + imap 8000.
  EXPECT_EQ(reports[2].component, "render");
  EXPECT_EQ(reports[2].trusted_peer_loc, 8000u);
  EXPECT_EQ(reports[2].total(), 30'000u + 10'000u + 8'000u);

  // Monolith: everything plus one substrate.
  EXPECT_EQ(monolithic_tcb(*manifests, 10'000),
            10'000u + 4'000u + 8'000u + 30'000u);
  // Every decomposed component beats the monolith.
  for (const auto& report : reports)
    EXPECT_LT(report.total(), monolithic_tcb(*manifests, 10'000));
}

TEST(Tcb, TrustCyclesTerminate) {
  std::vector<Manifest> cyclic(2);
  cyclic[0].name = "a";
  cyclic[0].loc = 100;
  cyclic[0].channels = {"b"};
  cyclic[0].trusts = {"b"};
  cyclic[1].name = "b";
  cyclic[1].loc = 200;
  cyclic[1].channels = {"a"};
  cyclic[1].trusts = {"a"};
  const auto reports = tcb_of_manifests(cyclic, {});
  EXPECT_EQ(reports[0].trusted_peer_loc, 200u);
  EXPECT_EQ(reports[1].trusted_peer_loc, 100u);
}

class ComposerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("composer");
    mk_ = std::make_unique<microkernel::Microkernel>(
        *machine_, substrate::SubstrateConfig{});
    composer_ = std::make_unique<SystemComposer>(
        std::map<std::string, substrate::IsolationSubstrate*>{
            {"microkernel", mk_.get()}});
  }

  static std::vector<Manifest> triangle() {
    // a <-> b declared; c is isolated (no channels).
    std::vector<Manifest> m(3);
    m[0].name = "a";
    m[0].channels = {"b"};
    m[1].name = "b";
    m[1].channels = {"a"};
    m[2].name = "c";
    return m;
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<microkernel::Microkernel> mk_;
  std::unique_ptr<SystemComposer> composer_;
};

TEST(ManifestValidate, FlagsUnknownTraceObserver) {
  std::vector<Manifest> bundle(2);
  bundle[0].name = "a";
  bundle[0].trace.emplace();
  bundle[0].trace->observers = {"b", "ghost"};
  bundle[1].name = "b";
  const auto problems = validate(bundle);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("ghost"), std::string::npos);
}

TEST(TraceExportPolicy, GrantsAndDeniesByManifestConsent) {
  auto parsed = parse_manifests(
      "component imap {\n"
      "  channel ui\n"
      "  channel tls\n"
      "  trusts tls\n"
      "  trace {\n"
      "    payload\n"
      "    observer ui\n"
      "  }\n"
      "}\n"
      "component ui {\n  channel imap\n}\n"
      "component tls {\n  channel imap\n}\n"
      "component render {\n}\n");
  ASSERT_TRUE(parsed.ok());
  const auto& manifests = *parsed;
  // A component may always see its own spans.
  EXPECT_TRUE(check_trace_export(manifests, "imap", "imap").ok());
  // Observers named by the trace stanza are authorized.
  EXPECT_TRUE(check_trace_export(manifests, "imap", "ui").ok());
  // A declared trust edge also authorizes — the boundary was already open.
  EXPECT_TRUE(check_trace_export(manifests, "imap", "tls").ok());
  // Anyone else is refused outright.
  EXPECT_EQ(check_trace_export(manifests, "imap", "render").error(),
            Errc::redaction_denied);
  // Unknown component or observer names are caller errors, not denials.
  EXPECT_EQ(check_trace_export(manifests, "ghost", "ui").error(),
            Errc::invalid_argument);
  EXPECT_EQ(check_trace_export(manifests, "imap", "ghost").error(),
            Errc::invalid_argument);
}

TEST(ManifestValidate, FlagsRegionProblems) {
  std::vector<Manifest> bundle(2);
  bundle[0].name = "a";
  bundle[0].channels = {"b"};
  bundle[0].regions = {{"ghost", 4096, substrate::RegionPerms::read_write},
                       {"a", 4096, substrate::RegionPerms::read_write}};
  bundle[1].name = "b";
  // Region to b is fine channel-wise, but c declares one without a channel.
  bundle[1].regions = {{"a", 4096, substrate::RegionPerms::read_write}};
  const auto problems = validate(bundle);
  // ghost peer + self region + b's region without a channel.
  EXPECT_GE(problems.size(), 3u);
}

TEST_F(ComposerTest, ComposesDeclaredSystem) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok()) << composer_->diagnostics().size();
  EXPECT_EQ((*assembly)->component_names().size(), 3u);
  ASSERT_TRUE((*assembly)
                  ->set_behavior("b",
                                 [](const substrate::Invocation& inv)
                                     -> Result<Bytes> {
                                   Bytes reply = to_bytes("b-saw:");
                                   reply.insert(reply.end(), inv.data.begin(),
                                                inv.data.end());
                                   return reply;
                                 })
                  .ok());
  auto reply = (*assembly)->invoke("a", "b", to_bytes("hello"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "b-saw:hello");
}

TEST_F(ComposerTest, PolaRefusesUndeclaredChannel) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  // a <-> c was never declared: the framework refuses before the substrate.
  EXPECT_EQ((*assembly)->invoke("a", "c", to_bytes("x")).error(),
            Errc::policy_violation);
  EXPECT_EQ((*assembly)->send("c", "b", to_bytes("x")).error(),
            Errc::policy_violation);
}

TEST_F(ComposerTest, SubstrateEnforcesEvenWithoutManifestCheck) {
  // Defence in depth (fig6 ablation): disable the framework check; the
  // substrate still refuses because no channel object exists.
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  (*assembly)->set_manifest_enforcement(false);
  EXPECT_EQ((*assembly)->invoke("a", "c", to_bytes("x")).error(),
            Errc::no_such_channel);
}

TEST_F(ComposerTest, AsyncSendReceive) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  ASSERT_TRUE((*assembly)->send("a", "b", to_bytes("async")).ok());
  auto msg = (*assembly)->receive("b", "a");
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(to_string(msg->data), "async");
  EXPECT_EQ(msg->badge, *(*assembly)->badge_of("a", "b"));
}

TEST_F(ComposerTest, RejectsPolicyViolations) {
  std::vector<Manifest> bad(1);
  bad[0].name = "needs-bus-defence";
  bad[0].attacker = AttackerModel::physical_bus;  // microkernel can't
  EXPECT_EQ(composer_->compose(bad).error(), Errc::policy_violation);
  EXPECT_FALSE(composer_->diagnostics().empty());
}

TEST_F(ComposerTest, FailedCompositionLeavesNoOrphanDomains) {
  // The fourth component exhausts SEP's two-environment limit mid-compose;
  // everything created before it must be torn down again.
  auto machine = test::make_machine("composer-unwind");
  auto sep = *test::shared_registry().create("sep", *machine);
  SystemComposer composer({{"sep", sep.get()}});
  std::vector<Manifest> bundle(2);
  bundle[0].name = "first";
  bundle[0].substrate_name = "sep";
  bundle[1].name = "second";  // second trusted component: SEP refuses
  bundle[1].substrate_name = "sep";
  EXPECT_EQ(composer.compose(bundle).error(), Errc::policy_violation);
  EXPECT_TRUE(sep->domains().empty());
  // The slot is genuinely free again.
  EXPECT_TRUE(sep->create_domain(test::tc_spec("later")).ok());
}

TEST_F(ComposerTest, RejectsUnknownSubstrate) {
  std::vector<Manifest> bad(1);
  bad[0].name = "x";
  bad[0].substrate_name = "quantum-isolator";
  EXPECT_EQ(composer_->compose(bad).error(), Errc::policy_violation);
}

TEST_F(ComposerTest, CompromiseMarksSubstrateDomain) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  ASSERT_TRUE((*assembly)->compromise("a").ok());
  auto component = (*assembly)->component("a");
  ASSERT_TRUE(component.ok());
  EXPECT_TRUE(mk_->is_compromised((*component)->domain));
}

TEST_F(ComposerTest, TrustGraphFromAssembly) {
  auto manifests = triangle();
  manifests[0].trusts = {"b"};
  auto assembly = composer_->compose(manifests);
  ASSERT_TRUE(assembly.ok());
  const TrustGraph graph = (*assembly)->trust_graph();
  auto set = graph.compromised_set("b");
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->contains("a"));
}

TEST_F(ComposerTest, HandleApiMatchesStringApi) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  auto a = (*assembly)->ref("a");
  auto b = (*assembly)->ref("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*assembly)->name_of(*a), "a");
  EXPECT_EQ((*assembly)->ref("ghost").error(), Errc::no_such_domain);
  EXPECT_EQ((*assembly)->name_of(ComponentRef{}), "");

  ASSERT_TRUE((*assembly)
                  ->set_behavior(*b,
                                 [](const substrate::Invocation&)
                                     -> Result<Bytes> { return to_bytes("r"); })
                  .ok());
  // The interned hot path and the string wrappers drive the same channel.
  auto via_ref = (*assembly)->invoke(*a, *b, to_bytes("x"));
  auto via_name = (*assembly)->invoke("a", "b", to_bytes("x"));
  ASSERT_TRUE(via_ref.ok());
  ASSERT_TRUE(via_name.ok());
  EXPECT_EQ(*via_ref, *via_name);
  // POLA holds identically on the handle path.
  auto c = (*assembly)->ref("c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*assembly)->invoke(*a, *c, to_bytes("x")).error(),
            Errc::policy_violation);
  EXPECT_EQ((*assembly)->invoke(ComponentRef{}, *b, to_bytes("x")).error(),
            Errc::no_such_domain);
}

TEST_F(ComposerTest, KillComponentIsVisibleAsDomainDead) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  ASSERT_TRUE((*assembly)->kill_component("b").ok());
  EXPECT_EQ((*assembly)->invoke("a", "b", to_bytes("x")).error(),
            Errc::domain_dead);
  EXPECT_EQ((*assembly)->send("a", "b", to_bytes("x")).error(),
            Errc::domain_dead);
  EXPECT_EQ((*assembly)->kill_component("ghost").error(), Errc::no_such_domain);
}

TEST_F(ComposerTest, RestartComponentRestoresService) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  ASSERT_TRUE((*assembly)
                  ->set_behavior("b",
                                 [](const substrate::Invocation&)
                                     -> Result<Bytes> {
                                   return to_bytes("serving");
                                 })
                  .ok());
  const std::uint64_t old_badge = *(*assembly)->badge_of("b", "a");
  // component() hands back a live view; capture the old identity by value.
  const auto old_domain = (*(*assembly)->component("b"))->domain;
  const auto old_measurement = mk_->measurement(old_domain);
  ASSERT_TRUE(old_measurement.ok());

  ASSERT_TRUE((*assembly)->kill_component("b").ok());
  EXPECT_EQ((*assembly)->invoke("a", "b", to_bytes("x")).error(),
            Errc::domain_dead);

  ASSERT_TRUE((*assembly)->restart_component("b").ok());
  // The recorded behaviour was reinstalled — no re-set_behavior needed —
  // and the declared wiring survived the restart.
  auto reply = (*assembly)->invoke("a", "b", to_bytes("x"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "serving");
  auto after = (*assembly)->component("b");
  EXPECT_EQ((*after)->incarnation, 1u);
  EXPECT_NE((*after)->domain, old_domain);  // ids are never reused
  // Same composer path, same deterministic image: identity is preserved...
  EXPECT_EQ(*mk_->measurement((*after)->domain), *old_measurement);
  // ...but the channel badge is fresh (the old life cannot be impersonated).
  EXPECT_NE(*(*assembly)->badge_of("b", "a"), old_badge);
  // The corpse was reaped.
  EXPECT_EQ(mk_->domains().size(), 3u);
}

TEST_F(ComposerTest, RestartUnknownComponentRefused) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  EXPECT_EQ((*assembly)->restart_component("ghost").error(),
            Errc::no_such_domain);
  EXPECT_EQ((*assembly)->restart_component(ComponentRef{}).error(),
            Errc::no_such_domain);
}

TEST_F(ComposerTest, EndpointGoesStaleAcrossRestart) {
  auto assembly = composer_->compose(triangle());
  ASSERT_TRUE(assembly.ok());
  ASSERT_TRUE((*assembly)
                  ->set_behavior("b",
                                 [](const substrate::Invocation&)
                                     -> Result<Bytes> { return to_bytes("ok"); })
                  .ok());
  auto ep = (*assembly)->endpoint("a", "b");
  ASSERT_TRUE(ep.ok());
  EXPECT_TRUE(ep->check().ok());
  EXPECT_TRUE(ep->call(to_bytes("x")).ok());
  // Undeclared pairs get no endpoint (the manifest check happens at mint).
  EXPECT_EQ((*assembly)->endpoint("a", "c").error(), Errc::policy_violation);

  ASSERT_TRUE((*assembly)->kill_component("b").ok());
  ASSERT_TRUE((*assembly)->restart_component("b").ok());
  // The endpoint was minted against the dead incarnation: every operation
  // now fails fast instead of silently driving the reincarnated channel.
  EXPECT_EQ(ep->check().error(), Errc::stale_epoch);
  EXPECT_EQ(ep->call(to_bytes("x")).error(), Errc::stale_epoch);
  EXPECT_EQ(ep->send(to_bytes("x")).error(), Errc::stale_epoch);
  EXPECT_EQ(ep->receive().error(), Errc::stale_epoch);
  // Re-minting picks up the new epoch and works.
  auto fresh = (*assembly)->endpoint("a", "b");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->call(to_bytes("x")).ok());
}

TEST_F(ComposerTest, ComposeWiresDeclaredRegionBothEndsMapped) {
  auto manifests = triangle();
  manifests[0].regions = {{"b", 4096, substrate::RegionPerms::read_write}};
  auto assembly = composer_->compose(manifests);
  ASSERT_TRUE(assembly.ok());
  auto region = (*assembly)->region_between("a", "b");
  ASSERT_TRUE(region.ok());
  // The lookup is direction-agnostic, like the declaration.
  EXPECT_EQ(*(*assembly)->region_between("b", "a"), *region);
  const auto a_dom = (*(*assembly)->component("a"))->domain;
  const auto b_dom = (*(*assembly)->component("b"))->domain;
  // Both endpoints were mapped at compose time: the caller goes straight
  // to the data plane, no map_region choreography.
  ASSERT_TRUE(mk_->region_write(a_dom, *region, 0, to_bytes("zero-copy")).ok());
  auto desc = mk_->make_descriptor(a_dom, *region, 0, 9);
  ASSERT_TRUE(desc.ok());
  auto view = mk_->region_view(b_dom, *desc);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(std::string(view->begin(), view->end()), "zero-copy");
}

TEST_F(ComposerTest, RegionBetweenRefusesUndeclaredPair) {
  auto manifests = triangle();
  manifests[0].regions = {{"b", 4096, substrate::RegionPerms::read_write}};
  auto assembly = composer_->compose(manifests);
  ASSERT_TRUE(assembly.ok());
  // POLA on the data plane: no declaration, no region — the composer never
  // created one, so there is nothing to leak.
  EXPECT_EQ((*assembly)->region_between("a", "c").error(),
            Errc::policy_violation);
  EXPECT_EQ((*assembly)->region_between("c", "b").error(),
            Errc::policy_violation);
  EXPECT_EQ((*assembly)->region_between("a", "ghost").error(),
            Errc::no_such_domain);
}

TEST_F(ComposerTest, RegionWithoutSubstrateSupportIsHonestAndNonFatal) {
  // TPM has no shared-memory plane. The declaration is recorded, compose
  // succeeds, the control plane works — and region_between names the exact
  // reason so callers take the copy path.
  auto machine = test::make_machine("composer-tpm");
  auto tpm = *test::shared_registry().create("tpm", *machine);
  SystemComposer composer({{"tpm", tpm.get()}});
  std::vector<Manifest> bundle(2);
  bundle[0].name = "a";
  bundle[0].substrate_name = "tpm";
  bundle[0].channels = {"b"};
  bundle[0].regions = {{"b", 4096, substrate::RegionPerms::read_write}};
  bundle[1].name = "b";
  bundle[1].substrate_name = "tpm";
  bundle[1].channels = {"a"};
  auto assembly = composer.compose(bundle);
  ASSERT_TRUE(assembly.ok());
  EXPECT_EQ((*assembly)->region_between("a", "b").error(),
            Errc::no_region_support);
  bool mentioned = false;
  for (const std::string& d : composer.diagnostics())
    if (d.find("no region support") != std::string::npos) mentioned = true;
  EXPECT_TRUE(mentioned);
  // The control plane is unaffected by the missing data plane.
  ASSERT_TRUE((*assembly)
                  ->set_behavior("b",
                                 [](const substrate::Invocation&)
                                     -> Result<Bytes> { return to_bytes("r"); })
                  .ok());
  EXPECT_TRUE((*assembly)->invoke("a", "b", to_bytes("x")).ok());
}

TEST_F(ComposerTest, RestartRebindsRegionAndFencesStaleDescriptors) {
  auto manifests = triangle();
  manifests[0].regions = {{"b", 4096, substrate::RegionPerms::read_write}};
  auto assembly = composer_->compose(manifests);
  ASSERT_TRUE(assembly.ok());
  const auto region = *(*assembly)->region_between("a", "b");
  const auto a_dom = (*(*assembly)->component("a"))->domain;
  ASSERT_TRUE(mk_->region_write(a_dom, region, 0, to_bytes("oldlife")).ok());
  const auto stale = *mk_->make_descriptor(a_dom, region, 0, 7);

  ASSERT_TRUE((*assembly)->kill_component("b").ok());
  ASSERT_TRUE((*assembly)->restart_component("b").ok());
  const auto b_dom = (*(*assembly)->component("b"))->domain;

  // The id survives the restart; descriptors minted against the dead
  // incarnation do not.
  EXPECT_EQ(*(*assembly)->region_between("a", "b"), region);
  EXPECT_EQ(mk_->check_descriptor(a_dom, stale).error(), Errc::stale_epoch);
  EXPECT_EQ(mk_->region_view(a_dom, stale).error(), Errc::stale_epoch);
  // The reincarnation must not inherit the old life's bytes...
  EXPECT_EQ(*mk_->region_read(b_dom, region, 0, 7), Bytes(7, 0));
  // ...and both sides were re-mapped, so the fast path resumes immediately.
  ASSERT_TRUE(mk_->region_write(a_dom, region, 0, to_bytes("newlife")).ok());
  auto fresh = mk_->make_descriptor(a_dom, region, 0, 7);
  ASSERT_TRUE(fresh.ok());
  auto view = mk_->region_view(b_dom, *fresh);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(std::string(view->begin(), view->end()), "newlife");
}

// ---------------------------------------------------------------------------
// Shard stanza + expansion (FIG13): `shard N` splits a hot component into
// one domain per core at compose time.

TEST(ManifestParser, ParsesShardStanzaAndRoundTrips) {
  auto manifests = parse_manifests(
      "component anonymizer {\n"
      "  channel meter\n"
      "  shard 4\n"
      "}\n"
      "component meter {\n  channel anonymizer\n}\n");
  ASSERT_TRUE(manifests.ok());
  EXPECT_EQ((*manifests)[0].shards, 4u);
  EXPECT_EQ((*manifests)[1].shards, 1u);  // default: an ordinary domain

  const std::string text = to_text(*manifests);
  EXPECT_NE(text.find("shard 4"), std::string::npos);
  auto reparsed = parse_manifests(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)[0].shards, 4u);
  // `shard 1` is the default and is not emitted — the round trip stays
  // textually stable for unsharded manifests.
  EXPECT_EQ(to_text(*reparsed), text);
}

TEST(ManifestParser, RejectsMalformedShardStanza) {
  EXPECT_FALSE(parse_manifests("component x {\n shard\n}\n").ok());
  EXPECT_FALSE(parse_manifests("component x {\n shard four\n}\n").ok());
}

TEST(ManifestValidate, FlagsShardProblems) {
  // '#' is the expansion's namespace separator — user manifests must not
  // squat on it, or expanded names could collide with declared ones.
  std::vector<Manifest> bundle(2);
  bundle[0].name = "worker#0";
  bundle[1].name = "front";
  bundle[1].channels = {"worker#0"};
  const auto reserved = validate(bundle);
  ASSERT_GE(reserved.size(), 1u);
  EXPECT_NE(reserved[0].find("#"), std::string::npos);

  std::vector<Manifest> zero(1);
  zero[0].name = "w";
  zero[0].shards = 0;
  const auto flagged = validate(zero);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_NE(flagged[0].find("shard"), std::string::npos);
}

TEST(ShardExpansion, FansOutEveryPeerReference) {
  std::vector<Manifest> m(2);
  m[0].name = "worker";
  m[0].shards = 3;
  m[0].channels = {"front"};
  m[1].name = "front";
  m[1].channels = {"worker"};
  m[1].trusts = {"worker"};
  m[1].regions = {{"worker", 4096, substrate::RegionPerms::read_write}};
  m[1].trace.emplace();
  m[1].trace->observers = {"worker"};

  const std::vector<Manifest> out = expand_shards(m);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].name, "worker#" + std::to_string(i));
    EXPECT_EQ(out[i].shards, 1u);  // expansion is not re-entrant
    EXPECT_EQ(out[i].channels, std::vector<std::string>{"front"});
  }
  // Every reference to the sharded name fans out to all N shards: the
  // unsharded peer can reach (and trust, and share regions with, and be
  // observed by) each one.
  const Manifest& front = out[3];
  const std::vector<std::string> fanned{"worker#0", "worker#1", "worker#2"};
  EXPECT_EQ(front.channels, fanned);
  EXPECT_EQ(front.trusts, fanned);
  ASSERT_EQ(front.regions.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(front.regions[i].peer, fanned[i]);
    EXPECT_EQ(front.regions[i].bytes, 4096u);
  }
  ASSERT_TRUE(front.trace.has_value());
  EXPECT_EQ(front.trace->observers, fanned);

  // No shard declarations -> byte-identical pass-through.
  std::vector<Manifest> plain(1);
  plain[0].name = "solo";
  plain[0].channels = {"solo-peer"};
  const auto untouched = expand_shards(plain);
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0].name, "solo");
  EXPECT_EQ(untouched[0].channels, plain[0].channels);
}

TEST_F(ComposerTest, ShardedComposeRoutesByKey) {
  std::vector<Manifest> m(2);
  m[0].name = "shardy";
  m[0].shards = 2;
  m[0].channels = {"gate"};
  m[1].name = "gate";
  m[1].channels = {"shardy"};
  auto assembly = composer_->compose(m);
  ASSERT_TRUE(assembly.ok()) << composer_->diagnostics().size();

  // The expansion made real domains: shardy#0, shardy#1, gate.
  EXPECT_EQ((*assembly)->component_names().size(), 3u);
  EXPECT_EQ((*assembly)->shard_count("shardy"), 2u);
  EXPECT_EQ((*assembly)->shard_count("gate"), 1u);
  EXPECT_EQ((*assembly)->shard_count("ghost"), 0u);

  // shard_ref routes a key to its shard (mod N) and falls back to ref()
  // for unsharded names — callers need not know which kind they hold.
  auto s0 = (*assembly)->shard_ref("shardy", 0);
  auto s1 = (*assembly)->shard_ref("shardy", 1);
  auto wrapped = (*assembly)->shard_ref("shardy", 2);
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ((*assembly)->name_of(*s0), "shardy#0");
  EXPECT_EQ((*assembly)->name_of(*s1), "shardy#1");
  EXPECT_EQ((*assembly)->name_of(*wrapped), "shardy#0");
  auto gate = (*assembly)->shard_ref("gate", 7);
  ASSERT_TRUE(gate.ok());
  EXPECT_EQ((*assembly)->name_of(*gate), "gate");
  EXPECT_EQ((*assembly)->shard_ref("ghost", 0).error(), Errc::no_such_domain);

  // Each shard is an independent domain on its own channel to the peer.
  for (const std::string name : {"shardy#0", "shardy#1"}) {
    ASSERT_TRUE((*assembly)
                    ->set_behavior(name,
                                   [name](const substrate::Invocation&)
                                       -> Result<Bytes> {
                                     return to_bytes("from-" + name);
                                   })
                    .ok());
  }
  auto r0 = (*assembly)->invoke("gate", "shardy#0", to_bytes("k"));
  auto r1 = (*assembly)->invoke("gate", "shardy#1", to_bytes("k"));
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(to_string(*r0), "from-shardy#0");
  EXPECT_EQ(to_string(*r1), "from-shardy#1");
  // POLA still holds between sibling shards: no channel was declared.
  EXPECT_EQ(
      (*assembly)->invoke("shardy#0", "shardy#1", to_bytes("x")).error(),
      Errc::policy_violation);
}

TEST(SessionDemux, BadgeKeyedSessionsAreIsolated) {
  SessionDemux<int> demux;
  substrate::Invocation alice{1, 0xA11CE, {}};
  substrate::Invocation bob{1, 0xB0B, {}};
  demux.session_for(alice) = 100;
  demux.session_for(bob) = 200;
  EXPECT_EQ(demux.session_for(alice), 100);
  EXPECT_EQ(demux.session_for(bob), 200);
  EXPECT_EQ(demux.session_count(), 2u);
}

TEST(SessionDemux, ConfusedDeputyAttackAndDefence) {
  // Deputy holds per-client balances. Mallory claims Alice's id in her
  // message payload.
  SessionDemux<int> accounts;
  const std::uint64_t alice_badge = 0xA11CE, mallory_badge = 0x3A770;
  accounts.session_by_badge(alice_badge) = 1000;   // Alice's balance
  accounts.session_by_badge(mallory_badge) = 1;    // Mallory's balance

  // VULNERABLE deputy: trusts the claimed id -> Mallory drains Alice.
  auto victim = accounts.unsafe_session_by_claimed_id(alice_badge);
  ASSERT_TRUE(victim.ok());
  **victim -= 1000;  // the deputy debits the WRONG session
  EXPECT_EQ(accounts.session_by_badge(alice_badge), 0);

  // SAFE deputy: keys on the kernel-minted badge of the invocation;
  // Mallory's claimed id is irrelevant.
  accounts.session_by_badge(alice_badge) = 1000;
  substrate::Invocation mallory_call{1, mallory_badge, {}};
  accounts.session_for(mallory_call) -= 1;  // only Mallory's own session
  EXPECT_EQ(accounts.session_by_badge(alice_badge), 1000);
  EXPECT_EQ(accounts.session_by_badge(mallory_badge), 0);
}

TEST(SessionDemux, EraseRemovesSession) {
  SessionDemux<int> demux;
  demux.session_by_badge(5) = 1;
  EXPECT_TRUE(demux.has_session(5));
  demux.erase(5);
  EXPECT_FALSE(demux.has_session(5));
  EXPECT_FALSE(demux.unsafe_session_by_claimed_id(5).ok());
}

class AttestationProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("attest");
    sgx_ = *test::shared_registry().create("sgx", *machine_);
    domain_ = *sgx_->create_domain(test::tc_spec("anonymizer"));
    verifier_ = std::make_unique<AttestationVerifier>(to_bytes("verifier"));
    verifier_->add_trusted_root(test::shared_vendor().root_public_key());
    verifier_->expect_measurement(
        "anonymizer", test::tc_spec("anonymizer").image.measurement());
  }
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> sgx_;
  substrate::DomainId domain_ = 0;
  std::unique_ptr<AttestationVerifier> verifier_;
};

TEST_F(AttestationProtocolTest, ChallengeResponseSucceeds) {
  const Bytes nonce = verifier_->make_challenge();
  auto quote = respond_to_challenge(*sgx_, domain_, nonce, to_bytes("ctx"));
  ASSERT_TRUE(quote.ok());
  EXPECT_TRUE(
      verifier_->verify("anonymizer", *quote, nonce, to_bytes("ctx")).ok());
}

TEST_F(AttestationProtocolTest, NonceCannotBeReplayed) {
  const Bytes nonce = verifier_->make_challenge();
  auto quote = respond_to_challenge(*sgx_, domain_, nonce, to_bytes("ctx"));
  ASSERT_TRUE(quote.ok());
  ASSERT_TRUE(
      verifier_->verify("anonymizer", *quote, nonce, to_bytes("ctx")).ok());
  // Second use of the same nonce: replay, refused.
  EXPECT_FALSE(
      verifier_->verify("anonymizer", *quote, nonce, to_bytes("ctx")).ok());
}

TEST_F(AttestationProtocolTest, UnissuedNonceRejected) {
  const Bytes fake_nonce(32, 0x42);
  auto quote =
      respond_to_challenge(*sgx_, domain_, fake_nonce, to_bytes("ctx"));
  ASSERT_TRUE(quote.ok());
  EXPECT_FALSE(
      verifier_->verify("anonymizer", *quote, fake_nonce, to_bytes("ctx"))
          .ok());
}

TEST_F(AttestationProtocolTest, ContextBindingEnforced) {
  const Bytes nonce = verifier_->make_challenge();
  auto quote =
      respond_to_challenge(*sgx_, domain_, nonce, to_bytes("session-1"));
  ASSERT_TRUE(quote.ok());
  // Relaying the quote into a different context fails.
  EXPECT_FALSE(
      verifier_->verify("anonymizer", *quote, nonce, to_bytes("session-2"))
          .ok());
}

TEST_F(AttestationProtocolTest, ManipulatedCodeRefused) {
  // The utility "opens the source code of the anonymizer for third-party
  // auditing"; a manipulated build has a different measurement.
  auto evil_spec = test::tc_spec("anonymizer");
  evil_spec.image.code = to_bytes("code-of-anonymizer-PLUS-TRACKING");
  auto evil = sgx_->create_domain(evil_spec);
  ASSERT_TRUE(evil.ok());

  const Bytes nonce = verifier_->make_challenge();
  auto quote = respond_to_challenge(*sgx_, *evil, nonce, to_bytes("ctx"));
  ASSERT_TRUE(quote.ok());
  EXPECT_FALSE(
      verifier_->verify("anonymizer", *quote, nonce, to_bytes("ctx")).ok());
}

TEST_F(AttestationProtocolTest, UnknownLogicalNameRejected) {
  const Bytes nonce = verifier_->make_challenge();
  auto quote = respond_to_challenge(*sgx_, domain_, nonce, to_bytes("ctx"));
  ASSERT_TRUE(quote.ok());
  EXPECT_FALSE(
      verifier_->verify("never-registered", *quote, nonce, to_bytes("ctx"))
          .ok());
}

TEST_F(AttestationProtocolTest, UntrustedVendorRejected) {
  AttestationVerifier paranoid(to_bytes("no-roots"));
  paranoid.expect_measurement(
      "anonymizer", test::tc_spec("anonymizer").image.measurement());
  const Bytes nonce = paranoid.make_challenge();
  auto quote = respond_to_challenge(*sgx_, domain_, nonce, to_bytes("ctx"));
  ASSERT_TRUE(quote.ok());
  // No trusted roots registered: nothing chains.
  EXPECT_FALSE(
      paranoid.verify("anonymizer", *quote, nonce, to_bytes("ctx")).ok());
}

TEST(StandardRegistry, ContainsAllBackends) {
  auto& registry = test::shared_registry();
  for (const char* name : {"microkernel", "trustzone", "sgx", "tpm", "ftpm",
                           "sep", "cheri", "noc"})
    EXPECT_TRUE(registry.contains(name)) << name;
  EXPECT_FALSE(registry.contains("nonexistent"));
}

}  // namespace
}  // namespace lateral::core
