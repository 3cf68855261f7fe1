// Apple SEP-style coprocessor substrate (paper §II-B "Apple Secure Enclave
// Processor").
//
// Reproduced structure:
//  * a separate security processor next to the application CPU — "strong
//    isolation with reduced side channel opportunities compared to
//    shared-hardware solutions", "essentially an on-device HSM";
//  * inflexible: exactly TWO separated execution environments — one legacy
//    domain (the application-processor world) and one trusted component
//    (the SEP firmware/services);
//  * the SEP "accesses DRAM with inline encryption": its memory is
//    AES-encrypted + MACed whenever resident off-chip, so the physical bus
//    attacker sees ciphertext;
//  * all interaction crosses a mailbox bus: invocation cost sits between
//    microkernel IPC and a TPM command;
//  * biometric/key material never crosses to the application processor.
#pragma once

#include "substrate/paged_memory.h"
#include "substrate/registry.h"

namespace lateral::sep {

// Memory: DRAM frames; the SEP side's pages carry its tag and pass the
// inline engine. Neither side touches the other's memory.
class Sep final : public substrate::PagedSubstrate {
 public:
  Sep(hw::Machine& machine, substrate::SubstrateConfig config);

  const substrate::SubstrateInfo& info() const override;

  /// Only the SEP side can attest/seal; the application processor has no
  /// access to the fused keys.
  Result<substrate::Quote> attest(substrate::DomainId actor,
                                  BytesView user_data) override;
  Result<Bytes> seal(substrate::DomainId actor, BytesView plaintext) override;
  Result<Bytes> unseal(substrate::DomainId actor, BytesView sealed) override;

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  Status attach_memory(substrate::DomainId id, DomainRecord& record) override;
  void release_memory(substrate::DomainId id, DomainRecord& record) override;
  hw::AccessContext domain_context(substrate::DomainId id,
                                   const substrate::DomainSpec& spec)
      const override;
  Result<Spaces> check_access(substrate::DomainId actor,
                              substrate::DomainId target) const override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;
  /// Regions are a DMA window between the application processor and the
  /// coprocessor: the mailbox programs the window once; the SEP's inline
  /// engine then moves bytes without a mailbox round trip per access.
  Cycles region_map_cost(std::size_t pages) const override;

 private:
  static constexpr std::uint64_t kSepTag = 0x5E90'0001;

  substrate::SubstrateInfo info_;
  std::size_t trusted_count_ = 0;
  std::size_t legacy_count_ = 0;
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::sep
