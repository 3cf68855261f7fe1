// Intel SGX isolation substrate (paper §II-B "Intel SGX").
//
// Reproduced structure:
//  * independent trusted components run *concurrently* in fully isolated
//    enclaves; the (untrusted) OS schedules them like threads;
//  * enclave memory is tagged EPC: software outside the enclave cannot
//    read or write it (the access check happens in the memory system);
//  * the memory-encryption engine (MEE) encrypts and integrity-protects
//    enclave pages whenever they are resident in off-chip DRAM — a physical
//    bus attacker sees only ciphertext, and tampering is detected on the
//    next read (per-page version counters + MAC, our stand-in for the MEE
//    integrity tree);
//  * enclaves may access the untrusted host's memory (how Haven-style
//    trusted reuse of the legacy OS works), but never other enclaves';
//  * remote attestation goes through a quoting-enclave round trip;
//  * ECALL/EENTER round trips are expensive relative to microkernel IPC.
//
// The paper's caveat that SGX "suffers from ... cache side-channel attacks"
// is modelled by side_channel_leak(): a co-resident local attacker can
// recover a fraction of enclave-internal state bits despite the isolation
// (used by the fig6 ablation).
#pragma once

#include "substrate/paged_memory.h"
#include "substrate/registry.h"

namespace lateral::sgx {

// Memory: DRAM frames behind the MEE; enclave pages carry their EPC tag
// and are encrypted. An enclave may touch its host, nothing touches an
// enclave from outside.
class Sgx final : public substrate::PagedSubstrate {
 public:
  Sgx(hw::Machine& machine, substrate::SubstrateConfig config);

  const substrate::SubstrateInfo& info() const override;

  /// Remote attestation via the quoting enclave (extra local-report and
  /// enclave-crossing costs); enclaves only.
  Result<substrate::Quote> attest(substrate::DomainId actor,
                                  BytesView user_data) override;

  // --- Local attestation (EREPORT/report keys) ------------------------------
  /// A MAC-authenticated report one enclave creates FOR another on the
  /// same machine. Only the target (whose report key the MAC uses) can
  /// verify it — no signatures, no quoting enclave, orders of magnitude
  /// cheaper than remote attestation.
  struct LocalReport {
    crypto::Digest source_measurement{};
    crypto::Digest target_measurement{};
    Bytes user_data;
    crypto::Digest mac{};
  };

  /// EREPORT: `source` attests itself to `target` (both enclaves here).
  Result<LocalReport> ereport(substrate::DomainId source,
                              substrate::DomainId target, BytesView user_data);

  /// The target enclave verifies a report addressed to it. Errc::
  /// verification_failed for forged/tampered/misaddressed reports.
  Status verify_report(substrate::DomainId verifier,
                       const LocalReport& report);

  /// Cache side channel: a local-software attacker observing an enclave
  /// recovers `leak_fraction` of the requested bytes (deterministic stride).
  /// Returns the partially-recovered buffer with unknown bytes zeroed.
  Result<Bytes> side_channel_leak(substrate::DomainId enclave,
                                  std::uint64_t offset, std::size_t len,
                                  double leak_fraction) const;

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  hw::AccessContext domain_context(substrate::DomainId id,
                                   const substrate::DomainSpec& spec)
      const override;
  Result<Spaces> check_access(substrate::DomainId actor,
                              substrate::DomainId target) const override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;
  /// Regions are untrusted buffers *outside* the EPC (the standard SGX
  /// zero-copy idiom): the enclave reaches them directly, so accesses pay
  /// no EENTER/EEXIT and no MEE crypt — establishing the mapping pays one
  /// enclave round trip.
  Cycles region_map_cost(std::size_t pages) const override;

 private:
  static constexpr std::uint64_t kEpcTagBase = 0xE9C0'0000'0000ULL;

  substrate::SubstrateInfo info_;
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::sgx
