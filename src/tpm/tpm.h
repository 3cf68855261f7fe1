// TPM isolation substrate (paper §II-B "Trusted Platform Module").
//
// Models a discrete TPM chip plus the late-launch (DRTM) path:
//  * PCR bank with extend-only semantics; PCR0 holds the CRTM measurement
//    of the machine's boot ROM (authenticated boot, §II-D);
//  * quote = device-key signature over the PCR composite and caller nonce;
//  * sealing binds secrets to PCR state — change the boot chain and
//    unsealing fails;
//  * trusted components run via late launch, Flicker-style: they are
//    mutually isolated by distinct cryptographic identities but CANNOT run
//    concurrently — invoking a different component pays a full late-launch
//    context switch;
//  * component state lives on-chip: a physical bus attacker gets nothing;
//  * everything is slow: each interaction is a command over a slow bus to
//    chip firmware (the invocation-cost experiment's outlier, by design);
//  * no legacy hosting — legacy code runs on the main CPU, outside this
//    substrate.
#pragma once

#include "substrate/paged_memory.h"
#include "substrate/registry.h"
#include "tpm/nv_counter.h"
#include "tpm/pcr_bank.h"

namespace lateral::tpm {

// Memory: on-chip SRAM frames; a component touches only its own, each
// access one command over the bus.
class Tpm final : public substrate::PagedSubstrate {
 public:
  Tpm(hw::Machine& machine, substrate::SubstrateConfig config);

  const substrate::SubstrateInfo& info() const override;

  // --- PCR interface ------------------------------------------------------
  /// PCR_Extend: pcr = H(pcr || digest).
  Status pcr_extend(std::size_t index, const crypto::Digest& digest);
  Result<crypto::Digest> pcr_read(std::size_t index) const;
  /// Composite hash over a PCR selection (what quotes sign).
  crypto::Digest pcr_composite(const std::vector<std::size_t>& selection) const;

  /// TPM_Quote: sign (composite, nonce) with the endorsement key.
  Result<substrate::Quote> quote_pcrs(const std::vector<std::size_t>& selection,
                                      BytesView nonce);

  /// Seal data to the *current* value of the selected PCRs.
  Result<Bytes> seal_to_pcrs(const std::vector<std::size_t>& selection,
                             BytesView plaintext);
  /// Unseal succeeds only if the selected PCRs still match sealing time.
  Result<Bytes> unseal_pcrs(BytesView sealed);

  // --- Monotonic NV counters (rollback protection) ------------------------
  /// TPM2_NV_DefineSpace: allocate a named monotonic counter (idempotent).
  Status nv_define(const std::string& name);
  /// TPM2_NV_Read: current value.
  Result<std::uint64_t> nv_read(const std::string& name);
  /// TPM2_NV_Increment: bump and return the new value — the only mutator.
  Result<std::uint64_t> nv_increment(const std::string& name);

  /// Which component is currently late-launched (kInvalidDomain if none).
  substrate::DomainId active_component() const { return active_; }

  /// No shared grant regions: component state lives in on-chip SRAM and
  /// legacy code lives across a slow LPC bus — there is no memory both
  /// sides can address. Callers fall back to the (batched) copy path.
  bool supports_regions() const override { return false; }

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  void release_memory(substrate::DomainId id, DomainRecord& record) override;
  AccessCharge access_charge(const Space& actor, bool write) const override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;
  /// Flicker semantics: switching the invoked component performs a full
  /// late launch (stop everything, reset the DRTM PCR, measure, start).
  Status pre_call(substrate::DomainId actor,
                  substrate::DomainId callee) override;

 private:
  substrate::SubstrateInfo info_;
  PcrBank pcrs_;
  NvCounterBank nv_;
  substrate::DomainId active_ = substrate::kInvalidDomain;
  std::uint64_t seal_pcr_nonce_ = 1;
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::tpm
