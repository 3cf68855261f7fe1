// fTPM — TPM functionality as software in a TrustZone secure world
// (paper §II-C: "isolation technologies are partially interchangeable:
// Microsoft Surface tablets implement TPM functionality not using dedicated
// TPM security chips, but as software running within TrustZone"; Raj et
// al., USENIX Security'16).
//
// The command set is the discrete chip's own, tpm::CommandSet (PCR bank,
// quotes, PCR-bound sealing, NV counters, CRTM measurement of the boot ROM),
// and the interchangeability suite drives both through it.
// The trade-offs differ exactly as the paper argues:
//  * invocations cross the secure monitor, not a slow LPC bus: fTPM
//    commands are orders of magnitude faster (TAB1);
//  * state lives in secure-world DRAM — plaintext on the bus, so the fTPM
//    does NOT defend the physical attacker models the chip does;
//  * there is no DRTM late launch; components run concurrently under the
//    secure-world OS's secondary isolation.
#pragma once

#include "substrate/registry.h"
#include "tpm/command_set.h"

namespace lateral::ftpm {

// Memory: secure-world DRAM frames behind the TZASC, plaintext on the bus;
// a component touches only its own.
class Ftpm final : public tpm::CommandSet {
 public:
  Ftpm(hw::Machine& machine, substrate::SubstrateConfig config);

  const substrate::SubstrateInfo& info() const override;

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  hw::AccessContext domain_context(substrate::DomainId id,
                                   const substrate::DomainSpec& spec)
      const override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;

 private:
  /// Secure-world page tag (the TZASC programming the fTPM relies on).
  static constexpr std::uint64_t kSecureTag = 0xF79A'0001;

  substrate::SubstrateInfo info_;
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::ftpm
