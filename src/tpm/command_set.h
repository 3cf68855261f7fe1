// The TPM command set — one implementation of the nine commands behind the
// discrete chip (tpm::Tpm) and the TrustZone firmware TPM (ftpm::Ftpm).
//
// Paper §II-C: "Microsoft Surface tablets implement TPM functionality not
// using dedicated TPM security chips, but as software running within
// TrustZone". The interface is the same, so the commands are written once
// here, over one PCR bank, one NV counter bank and one sealing nonce. The
// two implementations differ only in what a command costs, where the state
// lives (and so which attackers it defends) and what a quote is labelled
// with (info().name, inside the signed body).
#pragma once

#include <string>
#include <vector>

#include "substrate/paged_memory.h"
#include "tpm/nv_counter.h"
#include "tpm/pcr_bank.h"

namespace lateral::tpm {

class CommandSet : public substrate::PagedSubstrate {
 public:
  /// What the commands cost on this implementation.
  struct Prices {
    /// Every command: bus and chip firmware, or an SMC round trip.
    Cycles command = 0;
    /// Added to a quote for the endorsement-key signature.
    Cycles quote_signature = 0;
  };

  const Prices& prices() const { return prices_; }

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

  /// No shared grant regions: the chip's state lives in on-chip SRAM across
  /// a slow bus, and the fTPM keeps that contract so the two stay
  /// interchangeable (paper §II-C). Callers use the (batched) copy path.
  bool supports_regions() const override { return false; }

 protected:
  /// Domain memory comes from `frames`. The CRTM — the unchangeable first
  /// boot step — measures the boot ROM into PCR0 here, uncharged.
  CommandSet(hw::Machine& machine, substrate::SubstrateConfig config,
             hw::Range frames, Prices prices);

  /// An attestation is one command; the generic attest adds the signature.
  Cycles attest_cost() const override;

  /// Late launch resets the DRTM PCR (only DRTM can).
  void reset_drtm_pcr() { (void)pcrs_.drtm_reset(); }

 private:
  Prices prices_;
  PcrBank pcrs_;
  NvCounterBank nv_;
  std::uint64_t seal_pcr_nonce_ = 1;
};

}  // namespace lateral::tpm
