// ARM TrustZone isolation substrate (paper §II-B "ARM TrustZone").
//
// Structure reproduced from the paper:
//  * exactly two worlds — the secure world "completely controls" the normal
//    world, never the reverse (asymmetric trust);
//  * the normal world hosts exactly ONE legacy codebase ("TrustZone itself
//    does not support multiplexing") — unless the `hypervisor` option is
//    set, which models "TrustZone can be combined with virtualization
//    techniques to host multiple normal world operating systems. The
//    hypervisor software is then part of the isolation substrate" (the
//    Simko3 / L4Android pattern: two Androids on one phone);
//  * multiple trusted components can share the secure world, but they rely
//    on *secondary* isolation by the secure-world OS — construct with
//    secure_world_isolation=false to model a secure OS that does not
//    isolate its trustlets, and watch compromise spread (tests/fig6);
//  * every cross-world invocation pays a secure monitor call (SMC);
//  * a per-device AES key is fused into the chip, readable only from the
//    secure world — this is what makes software attestation from ROM work
//    in the smart-meter example (Fig. 3);
//  * by default, secure-world memory is protected from normal-world
//    *software* by the NS-bit/TZASC but lies in off-chip DRAM as plaintext —
//    a physical bus attacker reads it. The `software_memory_encryption`
//    option implements §II-D's observation that "SGX-style memory
//    encryption could be implemented using for example ARM TrustZone":
//    secure-world pages are encrypted+MACed by software (slower than an
//    SGX MEE — sw crypto costs) before they reach DRAM, upgrading the
//    substrate to defend the physical_bus attacker model.
#pragma once

#include "hw/iommu.h"
#include "substrate/paged_memory.h"
#include "substrate/registry.h"

namespace lateral::trustzone {

struct TrustZoneOptions {
  /// Secure-world OS isolates its trustlets from one another.
  bool secure_world_isolation = true;
  /// Normal-world hypervisor: host multiple legacy OSes as VMs. Grows the
  /// TCB and adds a VM-exit toll to every normal-world message.
  bool hypervisor = false;
  /// Software MEE on scratchpad keys: secure-world pages encrypted in DRAM.
  bool software_memory_encryption = false;
};

// Memory: DRAM frames; secure-world pages carry the TZASC tag (and, with
// the software MEE, are encrypted). The secure world may touch the normal
// world, never the reverse.
class TrustZone final : public substrate::PagedSubstrate {
 public:
  TrustZone(hw::Machine& machine, substrate::SubstrateConfig config,
            TrustZoneOptions options = {});
  /// Back-compat convenience: toggle only the secondary-isolation knob.
  TrustZone(hw::Machine& machine, substrate::SubstrateConfig config,
            bool secure_world_isolation)
      : TrustZone(machine, std::move(config),
                  TrustZoneOptions{.secure_world_isolation =
                                       secure_world_isolation}) {}

  const substrate::SubstrateInfo& info() const override;
  const TrustZoneOptions& options() const { return options_; }

  /// Attestation is a secure-world service: normal-world (legacy) domains
  /// cannot produce quotes.
  Result<substrate::Quote> attest(substrate::DomainId actor,
                                  BytesView user_data) override;
  Result<Bytes> seal(substrate::DomainId actor, BytesView plaintext) override;
  Result<Bytes> unseal(substrate::DomainId actor, BytesView sealed) override;

  /// Knox-style integrity measurement: the secure world hashes a normal
  /// world's memory (paper: "integrity measurement of the running Android
  /// Linux kernel"). `actor` must be a secure-world domain.
  Result<crypto::Digest> measure_normal_world(substrate::DomainId actor);

  /// True when the domain runs in the secure world.
  Result<bool> is_secure_world(substrate::DomainId domain) const;

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  Status attach_memory(substrate::DomainId id, DomainRecord& record) override;
  void release_memory(substrate::DomainId id, DomainRecord& record) override;
  hw::AccessContext domain_context(substrate::DomainId id,
                                   const substrate::DomainSpec& spec)
      const override;
  Result<Spaces> check_access(substrate::DomainId actor,
                              substrate::DomainId target) const override;
  AccessCharge access_charge(const Space& actor, bool write) const override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;
  /// Regions are world-shared buffers in normal-world (NS) memory: the
  /// secure monitor programs the TZASC once; afterwards both worlds
  /// address the buffer without an SMC per access.
  Cycles region_map_cost(std::size_t pages) const override;

 private:
  /// TZASC page ownership tag for secure-world pages.
  static constexpr std::uint64_t kSecureTag = 0x5EC0'0001;

  substrate::SubstrateInfo info_;
  TrustZoneOptions options_;
  std::size_t legacy_count_ = 0;
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::trustzone
