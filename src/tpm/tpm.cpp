#include "tpm/tpm.h"

#include "crypto/hmac.h"

namespace lateral::tpm {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

Tpm::Tpm(hw::Machine& machine, substrate::SubstrateConfig config)
    : PagedSubstrate(machine, std::move(config), machine.sram()) {
  info_.name = "tpm";
  info_.features = Feature::spatial_isolation | Feature::sealed_storage |
                   Feature::attestation | Feature::late_launch;
  info_.tcb_loc = 15'000;  // chip firmware + DRTM microcode
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software,
                           AttackerModel::physical_bus,
                           AttackerModel::physical_intrusion};

  // CRTM: the unchangeable first boot step measures the boot ROM into PCR0
  // before anything else runs (authenticated boot).
  (void)pcr_extend(0, machine_.boot_rom().measurement());
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

substrate::PagedSubstrate::AccessCharge Tpm::access_charge(const Space&,
                                                           bool) const {
  return {.fixed = machine_.costs().tpm_command_base,
          .per_16_bytes = machine_.costs().tpm_per_byte * 16};
}

Status Tpm::pcr_extend(std::size_t index, const crypto::Digest& digest) {
  machine_.advance(machine_.costs().tpm_command_base);
  return pcrs_.extend(index, digest);
}

Result<crypto::Digest> Tpm::pcr_read(std::size_t index) const {
  return pcrs_.read(index);
}

crypto::Digest Tpm::pcr_composite(
    const std::vector<std::size_t>& selection) const {
  return pcrs_.composite(selection);
}

Result<substrate::Quote> Tpm::quote_pcrs(
    const std::vector<std::size_t>& selection, BytesView nonce) {
  for (const std::size_t index : selection)
    if (index >= kNumPcrs) return Errc::invalid_argument;
  machine_.advance(machine_.costs().tpm_command_base +
                   machine_.costs().tpm_sign_extra);
  return substrate::make_quote("tpm", pcr_composite(selection), nonce,
                               machine_.fuses().endorsement_key(),
                               machine_.fuses().endorsement_cert());
}

Result<Bytes> Tpm::seal_to_pcrs(const std::vector<std::size_t>& selection,
                                BytesView plaintext) {
  for (const std::size_t index : selection)
    if (index >= kNumPcrs) return Errc::invalid_argument;
  machine_.advance(machine_.costs().tpm_command_base);

  // Sealing key binds device key and current PCR composite.
  const crypto::Aead aead = sealing_aead(pcr_composite(selection));
  return encode_pcr_sealed(selection,
                           aead.seal(seal_pcr_nonce_++, {}, plaintext));
}

Result<Bytes> Tpm::unseal_pcrs(BytesView sealed) {
  machine_.advance(machine_.costs().tpm_command_base);
  auto parsed = decode_pcr_sealed(sealed);
  if (!parsed) return parsed.error();
  const crypto::Aead aead = sealing_aead(pcr_composite(parsed->selection));
  auto plain = aead.open(parsed->box, {});
  if (!plain) return Errc::verification_failed;  // PCR state changed
  return std::move(*plain);
}

Status Tpm::nv_define(const std::string& name) {
  machine_.advance(machine_.costs().tpm_command_base);
  return nv_.define(name);
}

Result<std::uint64_t> Tpm::nv_read(const std::string& name) {
  machine_.advance(machine_.costs().tpm_command_base);
  return nv_.read(name);
}

Result<std::uint64_t> Tpm::nv_increment(const std::string& name) {
  machine_.advance(machine_.costs().tpm_command_base);
  return nv_.increment(name);
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
    (void)pcrs_.drtm_reset();  // PCR reset (only DRTM can)
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
  return machine_.costs().tpm_command_base + machine_.costs().tpm_sign_extra;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "tpm", [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Tpm>(machine, config);
      });
}

}  // namespace lateral::tpm
