#include "tpm/tpm.h"

namespace lateral::tpm {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

Tpm::Tpm(hw::Machine& machine, substrate::SubstrateConfig config)
    : CommandSet(machine, std::move(config), machine.sram(),
                 {.command = machine.costs().tpm_command_base,
                  .quote_signature = machine.costs().tpm_sign_extra}) {
  info_.name = "tpm";
  info_.features = Feature::spatial_isolation | Feature::sealed_storage |
                   Feature::attestation | Feature::late_launch;
  info_.tcb_loc = 15'000;  // chip firmware + DRTM microcode
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software,
                           AttackerModel::physical_bus,
                           AttackerModel::physical_intrusion};

  // The CRTM's extend of PCR0 is one command over the bus to the chip
  // (the fTPM's runs in the secure boot ROM and is not charged).
  machine_.advance(prices().command);
}

const substrate::SubstrateInfo& Tpm::info() const { return info_; }

Status Tpm::admit_domain(const substrate::DomainSpec& spec) const {
  // Fixed-function chip: no legacy hosting, and only small components fit
  // in chip memory.
  if (spec.kind == DomainKind::legacy) return Errc::not_supported;
  if (spec.memory_pages == 0 || spec.memory_pages > 8)
    return Errc::exhausted;
  return Status::success();
}

void Tpm::release_memory(DomainId id, DomainRecord& record) {
  PagedSubstrate::release_memory(id, record);
  if (active_ == id) active_ = substrate::kInvalidDomain;
}

substrate::PagedSubstrate::AccessCharge Tpm::access_charge(
    const Space&) const {
  return {.fixed = machine_.costs().tpm_command_base,
          .per_16_bytes = machine_.costs().tpm_per_byte * 16};
}

Status Tpm::pre_call(DomainId actor, DomainId callee) {
  (void)actor;
  if (!find_space(callee)) return Errc::no_such_domain;
  if (active_ != callee) {
    // Late launch: stop everything, reset the DRTM PCR, measure the new
    // component, transfer control. Mutual isolation between components
    // comes from their distinct measured identities, not concurrency.
    const DomainRecord* record = find_domain(callee);
    if (!record) return Errc::no_such_domain;
    machine_.advance(machine_.costs().tpm_command_base * 2);
    reset_drtm_pcr();
    if (const Status s = pcr_extend(kDrtmPcr, record->measurement); !s.ok())
      return s;
    active_ = callee;
  }
  return Status::success();
}

Cycles Tpm::message_cost(std::size_t len) const {
  return machine_.costs().tpm_command_base +
         machine_.costs().tpm_per_byte * len;
}

substrate::ConcurrencyLaw Tpm::concurrency_law() const {
  // A discrete chip on a slow bus executes one command at a time, end to
  // end; a second core's command waits for the bus and the firmware.
  return substrate::ConcurrencyLaw::device_serialized;
}

Cycles Tpm::attest_cost() const {
  // The chip signs inside itself, yet the generic attest adds a software
  // signature on top; kept so that the recorded clock values hold.
  return prices().command + prices().quote_signature;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "tpm", [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Tpm>(machine, config);
      });
}

}  // namespace lateral::tpm
