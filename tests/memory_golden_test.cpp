// Golden memory behaviour: one fixed script of domain-memory operations per
// substrate, pinned to a recording. For every step the transcript holds the
// Errc, the machine clock after the step and, while the script's domains are
// live, the SHA-256 of the bytes stored in each domain's frames (the DRAM a
// physical attacker sees; on-chip SRAM for the TPM). Any change to an access
// rule, a charge or its order, a refusal order, the memory-encryption nonce,
// key or MAC, or the stored bytes changes the transcript.
//
// Each instance runs on its own seeded hw::Vendor, so its device keys (and
// every ciphertext byte derived from them) do not depend on how many
// machines earlier tests in the process made.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "crypto/sha256.h"
#include "microkernel/microkernel.h"
#include "test_support.h"
#include "trustzone/trustzone.h"
#include "util/hex.h"

namespace lateral::substrate {
namespace {

struct Golden {
  std::string config;
  /// Space-separated Errc names, one per step.
  std::string errcs;
  /// SHA-256 (hex) of the full transcript.
  std::string transcript;
};

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.config; }

class MemoryGoldenTest : public ::testing::TestWithParam<Golden> {
 protected:
  void SetUp() override {
    hw::MachineConfig config;
    config.name = "golden-" + GetParam().config;
    machine_ = std::make_unique<hw::Machine>(config, vendor_,
                                             to_bytes("boot-rom-v1"));
    if (GetParam().config == "trustzone+swmee") {
      substrate_ = std::make_unique<trustzone::TrustZone>(
          *machine_, SubstrateConfig{},
          trustzone::TrustZoneOptions{.software_memory_encryption = true});
    } else {
      auto created = test::shared_registry().create(GetParam().config,
                                                    *machine_);
      ASSERT_TRUE(created.ok());
      substrate_ = std::move(*created);
    }
  }

  void note(const std::string& step, Errc errc) {
    errcs_ += (errcs_.empty() ? "" : " ") + std::string(errc_name(errc));
    transcript_ << step << ' ' << errc_name(errc) << " now="
                << machine_->now() << '\n';
  }
  void note(const std::string& step, const Status& status) {
    note(step, status.error());
  }
  void note(const std::string& step, const Result<Bytes>& read) {
    note(step, read.error());
    if (read.ok())
      transcript_ << "  data=" << util::to_hex(*read) << '\n';
  }

  /// Hash the stored bytes of `pages` frames starting `first_page` frames
  /// into the region the substrate allocates from (first fit: the script's
  /// domains occupy the region's first frames in creation order).
  void note_frames(const std::string& what, std::size_t first_page,
                   std::size_t pages) {
    const hw::Range region = GetParam().config == "tpm" ? machine_->sram()
                                                        : machine_->dram();
    const Bytes stored = machine_->memory().dump(
        region.begin + first_page * hw::kPageSize, pages * hw::kPageSize);
    transcript_ << "  frames " << what << '='
                << util::to_hex(crypto::digest_view(crypto::Sha256::hash(stored)))
                << '\n';
  }

  hw::Vendor vendor_{/*seed=*/0x601de2, /*key_bits=*/512};
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<IsolationSubstrate> substrate_;
  std::string errcs_;
  std::ostringstream transcript_;
};

TEST_P(MemoryGoldenTest, ScriptMatchesRecording) {
  IsolationSubstrate& s = *substrate_;
  constexpr std::size_t kAlphaPages = 2;
  constexpr std::size_t kBetaPages = 3;
  constexpr DomainId kUnknown = 99;
  auto alpha_id = s.create_domain(test::tc_spec("alpha", kAlphaPages));
  ASSERT_TRUE(alpha_id.ok());
  const bool legacy =
      has_feature(s.info().features, Feature::legacy_hosting);
  auto beta_id = s.create_domain(legacy ? test::legacy_spec("beta", kBetaPages)
                                        : test::tc_spec("beta", kBetaPages));
  ASSERT_TRUE(beta_id.ok());
  const DomainId a = *alpha_id;
  const DomainId b = *beta_id;
  note("created", Errc::ok);
  note_frames("alpha", 0, kAlphaPages);
  note_frames("beta", kAlphaPages, kBetaPages);

  // Own memory, across a page boundary, and a zero-length read.
  note("write a a 4090", s.write_memory(a, a, 4090, to_bytes("0123456789AB")));
  note("read a a 4088", s.read_memory(a, a, 4088, 16));
  note("write b b 8190", s.write_memory(b, b, 8190, to_bytes("beta-data")));
  note("read b b 8186", s.read_memory(b, b, 8186, 16));
  note("read a a 0 len0", s.read_memory(a, a, 0, 0));
  note_frames("alpha", 0, kAlphaPages);
  note_frames("beta", kAlphaPages, kBetaPages);

  // Foreign accesses in both directions.
  note("read a b", s.read_memory(a, b, 0, 24));
  note("write a b", s.write_memory(a, b, 16, to_bytes("from-alpha")));
  note("read b a", s.read_memory(b, a, 0, 24));
  note("write b a", s.write_memory(b, a, 16, to_bytes("from-beta")));
  note_frames("alpha", 0, kAlphaPages);
  note_frames("beta", kAlphaPages, kBetaPages);

  // Unknown ids.
  note("read unknown a", s.read_memory(kUnknown, a, 0, 4));
  note("read a unknown", s.read_memory(a, kUnknown, 0, 4));
  note("write unknown unknown",
       s.write_memory(kUnknown, kUnknown, 0, to_bytes("z")));
  note("write b unknown", s.write_memory(b, kUnknown, 0, to_bytes("z")));

  // Out of bounds: past the end, straddling the end, wrapping around.
  note("read a a past end", s.read_memory(a, a, 8192, 1));
  note("write a a straddle", s.write_memory(a, a, 8190, to_bytes("over")));
  note("read a a wrap",
       s.read_memory(a, a, std::numeric_limits<std::uint64_t>::max() - 1, 4));
  note("read a b past end", s.read_memory(a, b, 3 * hw::kPageSize - 2, 4));

  if (auto* kernel = dynamic_cast<microkernel::Microkernel*>(&s)) {
    note("grant a->b page 1", kernel->grant_memory(a, b, 1, 1, true));
    note("write_granted b a",
         kernel->write_granted(b, a, 4096 + 5, to_bytes("granted")));
    note("read_granted b a", kernel->read_granted(b, a, 4096, 16));
    note("read_granted b a ungranted", kernel->read_granted(b, a, 0, 16));
    note("read_granted b a len0", kernel->read_granted(b, a, 0, 0));
    note("read_granted a b", kernel->read_granted(a, b, 0, 4));
    note("read_granted unknown a", kernel->read_granted(kUnknown, a, 4096, 4));
    note_frames("alpha", 0, kAlphaPages);
  }

  // A physical attacker flips one stored byte of alpha's first page.
  Bytes flipped;
  const hw::Range region =
      GetParam().config == "tpm" ? machine_->sram() : machine_->dram();
  const Status probe = machine_->memory().raw_read(region.begin, 1, flipped);
  note("attacker raw_read", probe);
  if (probe.ok()) {
    flipped[0] ^= 0x01;
    note("attacker raw_write", machine_->memory().raw_write(region.begin,
                                                           flipped));
  }
  note("read a a after tamper", s.read_memory(a, a, 0, 16));
  note("write a a after tamper", s.write_memory(a, a, 2, to_bytes("t")));
  note("read a a page 1", s.read_memory(a, a, 4096, 16));
  note_frames("alpha", 0, kAlphaPages);

  // Kill, then destroy; frames are not hashed once released.
  note("kill b", s.kill_domain(b));
  note("read b b dead", s.read_memory(b, b, 0, 4));
  note("read a b dead", s.read_memory(a, b, 0, 4));
  note("write b a dead", s.write_memory(b, a, 0, to_bytes("d")));
  note("read unknown b dead", s.read_memory(kUnknown, b, 0, 4));
  if (auto* kernel = dynamic_cast<microkernel::Microkernel*>(&s)) {
    note("grant a->b dead", kernel->grant_memory(a, b, 0, 1, false));
    note("read_granted b a dead", kernel->read_granted(b, a, 4096, 4));
    note("read_granted a b dead", kernel->read_granted(a, b, 0, 4));
  }
  note("destroy b", s.destroy_domain(b));
  note("read b b reaped", s.read_memory(b, b, 0, 4));
  note("read a b reaped", s.read_memory(a, b, 0, 4));
  note("kill a", s.kill_domain(a));
  note("read a a dead", s.read_memory(a, a, 0, 4));
  note("destroy a", s.destroy_domain(a));
  note("destroy a again", s.destroy_domain(a));

  const std::string transcript = transcript_.str();
  EXPECT_EQ(errcs_, GetParam().errcs);
  EXPECT_EQ(util::to_hex(crypto::digest_view(crypto::Sha256::hash(
                to_bytes(transcript)))),
            GetParam().transcript)
      << transcript;
}

INSTANTIATE_TEST_SUITE_P(
    AllSubstrates, MemoryGoldenTest,
    ::testing::Values(
        Golden{"microkernel",
               "ok ok ok ok ok ok access_denied access_denied access_denied "
               "access_denied access_denied access_denied no_such_domain "
               "access_denied access_denied access_denied access_denied "
               "access_denied ok ok ok access_denied ok access_denied "
               "no_such_domain ok ok ok ok ok ok domain_dead domain_dead "
               "domain_dead domain_dead domain_dead domain_dead "
               "domain_dead ok no_such_domain access_denied ok "
               "domain_dead ok no_such_domain",
               "ffb3324103483758e185968ce55d782f3726e0f530c9e2cce208b2dff1785ba0"},
        Golden{"trustzone",
               "ok ok ok ok ok ok ok ok access_denied access_denied "
               "no_such_domain no_such_domain no_such_domain no_such_domain "
               "access_denied access_denied access_denied access_denied ok "
               "ok ok ok ok ok domain_dead domain_dead domain_dead "
               "domain_dead ok no_such_domain no_such_domain ok domain_dead "
               "ok no_such_domain",
               "8b88c428b6ea33d84e7d9736881241abe4c43e04534c844bc1c022bfca3a71b4"},
        Golden{"trustzone+swmee",
               "ok ok ok ok ok ok ok ok access_denied access_denied "
               "no_such_domain no_such_domain no_such_domain no_such_domain "
               "access_denied access_denied access_denied access_denied ok "
               "ok tamper_detected tamper_detected ok ok domain_dead "
               "domain_dead domain_dead domain_dead ok no_such_domain "
               "no_such_domain ok domain_dead ok no_such_domain",
               "92adb0bce34042f92c1b4f907c8acaf394433afc4b9badd2a1fe6ab856dafee2"},
        Golden{"sgx",
               "ok ok ok ok ok ok ok ok access_denied access_denied "
               "no_such_domain no_such_domain no_such_domain no_such_domain "
               "access_denied access_denied access_denied access_denied ok "
               "ok tamper_detected tamper_detected ok ok domain_dead "
               "domain_dead domain_dead domain_dead ok no_such_domain "
               "no_such_domain ok domain_dead ok no_such_domain",
               "11bd4a4c502216db81e49e6352a23fdcd6446b2647fc9d8783737294a1c9a77f"},
        Golden{"tpm",
               "ok ok ok ok ok ok access_denied access_denied access_denied "
               "access_denied access_denied access_denied no_such_domain "
               "access_denied access_denied access_denied access_denied "
               "access_denied access_denied ok ok ok ok domain_dead "
               "domain_dead domain_dead domain_dead ok no_such_domain "
               "access_denied ok domain_dead ok no_such_domain",
               "3ce909b62abdcfeb79f19bf659c55813f7e02066069c6862b647b6a6b447c9d4"},
        Golden{"ftpm",
               "ok ok ok ok ok ok access_denied access_denied access_denied "
               "access_denied access_denied access_denied no_such_domain "
               "access_denied access_denied access_denied access_denied "
               "access_denied ok ok ok ok ok ok domain_dead domain_dead "
               "domain_dead domain_dead ok no_such_domain access_denied ok "
               "domain_dead ok no_such_domain",
               "9bc5490609136db9cb53fdd607c3febf414e30636e563a173bd54e736b1a35e8"},
        Golden{"sep",
               "ok ok ok ok ok ok access_denied access_denied access_denied "
               "access_denied no_such_domain no_such_domain no_such_domain "
               "no_such_domain access_denied access_denied access_denied "
               "access_denied ok ok tamper_detected tamper_detected ok ok "
               "domain_dead domain_dead domain_dead domain_dead ok "
               "no_such_domain no_such_domain ok domain_dead ok "
               "no_such_domain",
               "5805956a2d15f9af0f67752e981c33c77676b61a9f2dcd7bbbcb62b80818f4b6"},
        Golden{"cheri",
               "ok ok ok ok ok ok access_denied access_denied access_denied "
               "access_denied no_such_domain access_denied no_such_domain "
               "access_denied access_denied access_denied access_denied "
               "access_denied ok ok ok ok ok ok domain_dead domain_dead "
               "domain_dead domain_dead ok no_such_domain access_denied ok "
               "domain_dead ok no_such_domain",
               "f8922e5a7385b0bd38f11feaaa2a5e8b253ec7e9d277e6b1873fca1fa7cdf1ce"},
        Golden{"noc",
               "ok ok ok ok ok ok access_denied access_denied access_denied "
               "access_denied no_such_domain access_denied no_such_domain "
               "access_denied access_denied access_denied access_denied "
               "access_denied ok ok ok ok ok ok domain_dead domain_dead "
               "domain_dead domain_dead ok no_such_domain access_denied ok "
               "domain_dead ok no_such_domain",
               "f8922e5a7385b0bd38f11feaaa2a5e8b253ec7e9d277e6b1873fca1fa7cdf1ce"}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.config;
      for (char& c : name)
        if (c == '+') c = '_';
      return name;
    });

}  // namespace
}  // namespace lateral::substrate
