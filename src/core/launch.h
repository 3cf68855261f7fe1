// Boot-chain orchestration (paper §II-D "Secure Launch").
//
// "An unchangeable piece of software gets to execute as the first step
// after power is turned on. ... By successively validating signatures,
// once the system is fully brought up, we know for sure that all running
// software has been correctly signed."  — secure boot
//
// "At boot, it will calculate a hash sum of the boot loader code and store
// it in a TPM hardware register, before the boot loader is executed. ...
// The TPM registers merely form a cryptographic boot log."
//                                                      — authenticated boot
//
// The difference "is simply caused by different launch policies implemented
// by the trust anchor" — so BootChain implements both over the same stage
// list, and the tests demonstrate exactly that: same chain, one policy
// refuses, the other records.
#pragma once

#include <string>
#include <vector>

#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "substrate/isolation.h"
#include "tpm/pcr_bank.h"  // the PCR log callers pass
#include "util/result.h"

namespace lateral::core {

/// One stage of the boot chain (boot loader, kernel, system services...).
struct BootStage {
  std::string name;
  substrate::Image image;
  /// Signature over image.code by the platform owner (secure boot only).
  Bytes signature;
};

struct BootOutcome {
  bool booted = false;
  /// Stages that actually ran (all of them on success; a prefix when a
  /// secure-boot signature check refused a stage).
  std::size_t stages_run = 0;
  /// Measurement log, one digest per run stage (authenticated boot fills
  /// this; secure boot fills it for the stages it accepted).
  std::vector<crypto::Digest> log;
  /// Human-readable refusal reason, empty on success.
  std::string refusal;
};

/// Secure boot: verify each stage's signature before running it; refuse the
/// machine at the first invalid stage ("the machine will refuse to run
/// improperly signed software").
BootOutcome run_secure_boot(const crypto::RsaPublicKey& owner_key,
                            const std::vector<BootStage>& stages);

/// Authenticated boot: run everything, extend each stage's measurement into
/// `pcrs` at `pcr_index` — the cryptographic boot log that can later be
/// quoted. Users keep "the freedom to run arbitrary code". `pcrs` is the
/// TPM's PCR bank, or anything else with its `Status extend(index, digest)`.
template <typename Log>
BootOutcome run_authenticated_boot(Log& pcrs, std::size_t pcr_index,
                                   const std::vector<BootStage>& stages) {
  BootOutcome outcome;
  for (const BootStage& stage : stages) {
    const crypto::Digest measurement = stage.image.measurement();
    // Measure BEFORE execute: the stage cannot lie about itself because the
    // previous (already-measured) stage extends the PCR.
    if (const Status s = pcrs.extend(pcr_index, measurement); !s.ok()) {
      outcome.refusal = "PCR extend failed";
      return outcome;
    }
    outcome.log.push_back(measurement);
    outcome.stages_run++;
  }
  outcome.booted = true;  // nothing is ever refused, only recorded
  return outcome;
}

/// The PCR value a verifier expects after an authenticated boot of exactly
/// `stages` (starting from a zeroed PCR).
crypto::Digest expected_pcr_after_boot(const std::vector<BootStage>& stages);

}  // namespace lateral::core
