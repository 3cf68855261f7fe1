// TPM isolation substrate (paper §II-B "Trusted Platform Module").
//
// Models a discrete TPM chip, running tpm::CommandSet's commands, plus the
// late-launch (DRTM) path:
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

#include "substrate/registry.h"
#include "tpm/command_set.h"

namespace lateral::tpm {

// Memory: on-chip SRAM frames; a component touches only its own, each
// access one command over the bus.
class Tpm final : public CommandSet {
 public:
  Tpm(hw::Machine& machine, substrate::SubstrateConfig config);

  const substrate::SubstrateInfo& info() const override;

  /// Which component is currently late-launched (kInvalidDomain if none).
  substrate::DomainId active_component() const { return active_; }

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  void release_memory(substrate::DomainId id, DomainRecord& record) override;
  AccessCharge access_charge(const Space& actor) const override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;
  /// Flicker semantics: switching the invoked component performs a full
  /// late launch (stop everything, reset the DRTM PCR, measure, start).
  Status pre_call(substrate::DomainId actor,
                  substrate::DomainId callee) override;

 private:
  substrate::SubstrateInfo info_;
  substrate::DomainId active_ = substrate::kInvalidDomain;
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::tpm
