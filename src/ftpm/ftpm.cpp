#include "ftpm/ftpm.h"

namespace lateral::ftpm {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;
using tpm::kNumPcrs;

Ftpm::Ftpm(hw::Machine& machine, substrate::SubstrateConfig config)
    : PagedSubstrate(machine, std::move(config), machine.dram()) {
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

  // CRTM: the secure boot ROM measures itself before handing over.
  (void)pcrs_.extend(0, machine_.boot_rom().measurement());
}

const substrate::SubstrateInfo& Ftpm::info() const { return info_; }

Cycles Ftpm::command_cost() const {
  // A command = one SMC round trip plus secure-world dispatch; the fTPM
  // paper's headline result is exactly this gap to the LPC-bus chip.
  return 2 * machine_.costs().smc_world_switch +
         machine_.costs().tz_secure_os_dispatch;
}

Status Ftpm::admit_domain(const substrate::DomainSpec& spec) const {
  if (spec.kind == DomainKind::legacy) return Errc::not_supported;
  if (spec.memory_pages == 0 || spec.memory_pages > 16) return Errc::exhausted;
  return Status::success();
}

hw::AccessContext Ftpm::domain_context(DomainId,
                                       const substrate::DomainSpec&) const {
  return {hw::SecurityState::secure, kSecureTag};
}

Status Ftpm::pcr_extend(std::size_t index, const crypto::Digest& digest) {
  machine_.advance(command_cost());
  return pcrs_.extend(index, digest);
}

Result<crypto::Digest> Ftpm::pcr_read(std::size_t index) const {
  return pcrs_.read(index);
}

crypto::Digest Ftpm::pcr_composite(
    const std::vector<std::size_t>& selection) const {
  return pcrs_.composite(selection);
}

Result<substrate::Quote> Ftpm::quote_pcrs(
    const std::vector<std::size_t>& selection, BytesView nonce) {
  if (const Status s = tpm::PcrBank::check_selection(selection); !s.ok())
    return s.error();
  machine_.advance(command_cost() + machine_.costs().sw_rsa_sign);
  return substrate::make_quote("ftpm", pcrs_.composite(selection), nonce,
                               machine_.fuses().endorsement_key(),
                               machine_.fuses().endorsement_cert());
}

Result<Bytes> Ftpm::seal_to_pcrs(const std::vector<std::size_t>& selection,
                                 BytesView plaintext) {
  if (const Status s = tpm::PcrBank::check_selection(selection); !s.ok())
    return s.error();
  machine_.advance(command_cost());

  const crypto::Aead aead = sealing_aead(pcrs_.composite(selection));
  return tpm::encode_pcr_sealed(selection,
                                aead.seal(seal_pcr_nonce_++, {}, plaintext));
}

Result<Bytes> Ftpm::unseal_pcrs(BytesView sealed) {
  machine_.advance(command_cost());
  auto parsed = tpm::decode_pcr_sealed(sealed);
  if (!parsed) return parsed.error();
  const crypto::Aead aead = sealing_aead(pcrs_.composite(parsed->selection));
  auto plain = aead.open(parsed->box, {});
  if (!plain) return Errc::verification_failed;
  return std::move(*plain);
}

Status Ftpm::nv_define(const std::string& name) {
  machine_.advance(command_cost());
  return nv_.define(name);
}

Result<std::uint64_t> Ftpm::nv_read(const std::string& name) {
  machine_.advance(command_cost());
  return nv_.read(name);
}

Result<std::uint64_t> Ftpm::nv_increment(const std::string& name) {
  machine_.advance(command_cost());
  return nv_.increment(name);
}

Cycles Ftpm::message_cost(std::size_t len) const {
  return command_cost() / 2 +
         machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
}

substrate::ConcurrencyLaw Ftpm::concurrency_law() const {
  // The fTPM is firmware inside the TrustZone secure world; commands
  // inherit the secure monitor funnel on top of their own single-session
  // command loop.
  return substrate::ConcurrencyLaw::monitor_serialized;
}

Cycles Ftpm::attest_cost() const { return command_cost(); }

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "ftpm",
      [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Ftpm>(machine, config);
      });
}

}  // namespace lateral::ftpm
