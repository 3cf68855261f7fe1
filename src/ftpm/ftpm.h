// fTPM — TPM functionality as software in a TrustZone secure world
// (paper §II-C: "isolation technologies are partially interchangeable:
// Microsoft Surface tablets implement TPM functionality not using dedicated
// TPM security chips, but as software running within TrustZone"; Raj et
// al., USENIX Security'16).
//
// Same command set as the discrete chip (PCR bank, quotes, PCR-bound
// sealing, CRTM measurement of the boot ROM) — and the interchangeability
// test suite runs the identical BitLocker-style scenario against both.
// The trade-offs differ exactly as the paper argues:
//  * invocations cross the secure monitor, not a slow LPC bus: fTPM
//    commands are orders of magnitude faster (TAB1);
//  * state lives in secure-world DRAM — plaintext on the bus, so the fTPM
//    does NOT defend the physical attacker models the chip does;
//  * there is no DRTM late launch; components run concurrently under the
//    secure-world OS's secondary isolation.
#pragma once

#include "substrate/paged_memory.h"
#include "substrate/registry.h"
#include "tpm/nv_counter.h"
#include "tpm/pcr_bank.h"

namespace lateral::ftpm {

// Memory: secure-world DRAM frames behind the TZASC, plaintext on the bus;
// a component touches only its own.
class Ftpm final : public substrate::PagedSubstrate {
 public:
  Ftpm(hw::Machine& machine, substrate::SubstrateConfig config);

  const substrate::SubstrateInfo& info() const override;

  // --- TPM command set (same signatures as tpm::Tpm) ------------------------
  Status pcr_extend(std::size_t index, const crypto::Digest& digest);
  Result<crypto::Digest> pcr_read(std::size_t index) const;
  crypto::Digest pcr_composite(const std::vector<std::size_t>& selection) const;
  Result<substrate::Quote> quote_pcrs(const std::vector<std::size_t>& selection,
                                      BytesView nonce);
  Result<Bytes> seal_to_pcrs(const std::vector<std::size_t>& selection,
                             BytesView plaintext);
  Result<Bytes> unseal_pcrs(BytesView sealed);
  Status nv_define(const std::string& name);
  Result<std::uint64_t> nv_read(const std::string& name);
  Result<std::uint64_t> nv_increment(const std::string& name);

  /// The fTPM keeps the chip's interface contract, including its lack of a
  /// shared-memory plane: commands marshal through the secure monitor so
  /// the two implementations stay interchangeable (paper §II-C). Regions
  /// are refused; callers use the copy path.
  bool supports_regions() const override { return false; }

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  hw::AccessContext domain_context(substrate::DomainId id,
                                   const substrate::DomainSpec& spec)
      const override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;

 private:
  /// Secure-world page tag (the TZASC programming the fTPM relies on).
  static constexpr std::uint64_t kSecureTag = 0xF79A'0001;

  Cycles command_cost() const;

  substrate::SubstrateInfo info_;
  tpm::PcrBank pcrs_;
  tpm::NvCounterBank nv_;
  std::uint64_t seal_pcr_nonce_ = 1;
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::ftpm
