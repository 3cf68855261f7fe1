#include "core/launch.h"

namespace lateral::core {

BootOutcome run_secure_boot(const crypto::RsaPublicKey& owner_key,
                            const std::vector<BootStage>& stages) {
  BootOutcome outcome;
  for (const BootStage& stage : stages) {
    if (!crypto::rsa_verify(owner_key, stage.image.code, stage.signature)
             .ok()) {
      outcome.refusal = "stage '" + stage.name + "' is not correctly signed";
      return outcome;  // halt: nothing after this stage runs
    }
    outcome.log.push_back(stage.image.measurement());
    outcome.stages_run++;
  }
  outcome.booted = true;
  return outcome;
}

crypto::Digest expected_pcr_after_boot(const std::vector<BootStage>& stages) {
  crypto::Digest pcr{};
  for (const BootStage& stage : stages) {
    pcr = crypto::Sha256::hash2(
        crypto::digest_view(pcr),
        crypto::digest_view(stage.image.measurement()));
  }
  return pcr;
}

}  // namespace lateral::core
