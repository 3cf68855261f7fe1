#include "sep/sep.h"

namespace lateral::sep {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

Sep::Sep(hw::Machine& machine, substrate::SubstrateConfig config)
    : PagedSubstrate(
          machine, std::move(config), machine.dram(),
          substrate::PageCipher::Spec{
              .label = "sep.inline.v1",
              .nonce_tag = 0x5E90ULL << 48,
              .per_16_bytes = machine.costs().sep_inline_crypt_per_16_bytes}) {
  info_.name = "sep";
  info_.features = Feature::spatial_isolation | Feature::legacy_hosting |
                   Feature::memory_encryption | Feature::sealed_storage |
                   Feature::attestation;
  // An L4-family kernel plus SEP services firmware.
  info_.tcb_loc = 25'000;
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software,
                           AttackerModel::physical_bus};
}

const substrate::SubstrateInfo& Sep::info() const { return info_; }

Status Sep::admit_domain(const substrate::DomainSpec& spec) const {
  // "Inflexible and offers only two separated execution environments."
  if (spec.kind == DomainKind::trusted_component && trusted_count_ >= 1)
    return Errc::exhausted;
  if (spec.kind == DomainKind::legacy && legacy_count_ >= 1)
    return Errc::exhausted;
  if (spec.memory_pages == 0) return Errc::invalid_argument;
  return Status::success();
}

Status Sep::attach_memory(DomainId id, DomainRecord& record) {
  if (const Status s = PagedSubstrate::attach_memory(id, record); !s.ok())
    return s;
  ++(record.spec.kind == DomainKind::trusted_component ? trusted_count_
                                                       : legacy_count_);
  return Status::success();
}

void Sep::release_memory(DomainId id, DomainRecord& record) {
  if (const Space* space = find_space(id)) {
    std::size_t& count = space->tagged() ? trusted_count_ : legacy_count_;
    if (count > 0) --count;
  }
  PagedSubstrate::release_memory(id, record);
}

hw::AccessContext Sep::domain_context(DomainId,
                                      const substrate::DomainSpec& spec) const {
  if (spec.kind != DomainKind::trusted_component) return {};
  return {hw::SecurityState::non_secure, kSepTag};
}

Result<Sep::Spaces> Sep::check_access(DomainId actor, DomainId target) const {
  auto spaces = spaces_of(actor, target);
  if (!spaces) return spaces.error();
  // Physically separate processors: neither side reaches the other's
  // memory directly; everything goes through the mailbox.
  if (actor != target) return Errc::access_denied;
  return spaces;
}

Result<substrate::Quote> Sep::attest(DomainId actor, BytesView user_data) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->tagged()) return Errc::access_denied;
  return IsolationSubstrate::attest(actor, user_data);
}

Result<Bytes> Sep::seal(DomainId actor, BytesView plaintext) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->tagged()) return Errc::access_denied;
  return IsolationSubstrate::seal(actor, plaintext);
}

Result<Bytes> Sep::unseal(DomainId actor, BytesView sealed) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->tagged()) return Errc::access_denied;
  return IsolationSubstrate::unseal(actor, sealed);
}

Cycles Sep::message_cost(std::size_t len) const {
  return machine_.costs().sep_mailbox_round_trip / 2 +
         machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
}

substrate::ConcurrencyLaw Sep::concurrency_law() const {
  // The SEP is a single coprocessor behind one mailbox; round trips from
  // any core queue on the same mailbox doorbell.
  return substrate::ConcurrencyLaw::device_serialized;
}

Cycles Sep::attest_cost() const {
  return machine_.costs().sep_mailbox_round_trip;
}

Cycles Sep::region_map_cost(std::size_t pages) const {
  // One mailbox round trip to negotiate the window, then DMA programming
  // per page. Accesses ride the inline crypto engine, not the mailbox.
  return machine_.costs().sep_mailbox_round_trip +
         machine_.costs().dma_setup + machine_.costs().dma_per_page * pages;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "sep", [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Sep>(machine, config);
      });
}

}  // namespace lateral::sep
