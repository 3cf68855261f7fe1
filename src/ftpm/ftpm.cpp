#include "ftpm/ftpm.h"

namespace lateral::ftpm {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

Ftpm::Ftpm(hw::Machine& machine, substrate::SubstrateConfig config)
    // A command is one SMC round trip plus secure-world dispatch; the fTPM
    // paper's headline result is exactly this gap to the LPC-bus chip. A
    // quote signs in software.
    : CommandSet(machine, std::move(config), machine.dram(),
                 {.command = 2 * machine.costs().smc_world_switch +
                             machine.costs().tz_secure_os_dispatch,
                  .quote_signature = machine.costs().sw_rsa_sign}) {
  info_.name = "ftpm";
  info_.features = Feature::spatial_isolation | Feature::concurrent_domains |
                   Feature::sealed_storage | Feature::attestation;
  // The fTPM firmware plus the TrustZone monitor and secure-world runtime
  // it inherits as TCB.
  info_.tcb_loc = 30'000;
  // Software in secure-world DRAM: defends software attackers only —
  // the central difference from the discrete chip.
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software};
  // The CRTM is the secure boot ROM measuring itself before handing over;
  // unlike the chip's, that extend is not charged.
}

const substrate::SubstrateInfo& Ftpm::info() const { return info_; }

Status Ftpm::admit_domain(const substrate::DomainSpec& spec) const {
  if (spec.kind == DomainKind::legacy) return Errc::not_supported;
  if (spec.memory_pages == 0 || spec.memory_pages > 16) return Errc::exhausted;
  return Status::success();
}

hw::AccessContext Ftpm::domain_context(DomainId,
                                       const substrate::DomainSpec&) const {
  return {hw::SecurityState::secure, kSecureTag};
}

Cycles Ftpm::message_cost(std::size_t len) const {
  return prices().command / 2 +
         machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
}

substrate::ConcurrencyLaw Ftpm::concurrency_law() const {
  // The fTPM is firmware inside the TrustZone secure world; commands
  // inherit the secure monitor funnel on top of their own single-session
  // command loop.
  return substrate::ConcurrencyLaw::monitor_serialized;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "ftpm",
      [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Ftpm>(machine, config);
      });
}

}  // namespace lateral::ftpm
