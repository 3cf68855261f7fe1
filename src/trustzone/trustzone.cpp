#include "trustzone/trustzone.h"

namespace lateral::trustzone {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

TrustZone::TrustZone(hw::Machine& machine, substrate::SubstrateConfig config,
                     TrustZoneOptions options)
    : PagedSubstrate(
          machine, std::move(config), machine.dram(),
          // Scratchpad-keyed software MEE: the §II-D construction. The keys
          // are derived from fuses and live on-die; DRAM only ever sees
          // ciphertext of secure-world pages.
          options.software_memory_encryption
              ? std::optional(substrate::PageCipher::Spec{
                    .label = "tz.swmee.v1",
                    .nonce_tag = 0x72ULL << 56,
                    .per_16_bytes = machine.costs().sw_aes_per_16_bytes})
              : std::nullopt),
      options_(options) {
  info_.name = "trustzone";
  info_.features = Feature::spatial_isolation | Feature::concurrent_domains |
                   Feature::legacy_hosting | Feature::sealed_storage |
                   Feature::attestation;
  // Monitor + secure-world OS (QSEE/Knox class systems are tens of kLoC).
  info_.tcb_loc = 35'000;
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software};

  if (options_.hypervisor) {
    // The hypervisor joins the isolation substrate (paper §II-B) — and
    // "because of complex hardware emulation, virtualization solutions
    // actually expose a larger attack surface" (§II-C).
    info_.tcb_loc += 15'000;
  }
  if (options_.software_memory_encryption) {
    info_.features = info_.features | Feature::memory_encryption;
    info_.defends_against.push_back(AttackerModel::physical_bus);
    info_.tcb_loc += 2'000;
  }
}

const substrate::SubstrateInfo& TrustZone::info() const { return info_; }

Status TrustZone::admit_domain(const substrate::DomainSpec& spec) const {
  // The normal world hosts exactly one legacy codebase; TrustZone itself
  // does not multiplex — a hypervisor does.
  if (spec.kind == DomainKind::legacy && legacy_count_ >= 1 &&
      !options_.hypervisor)
    return Errc::exhausted;
  if (spec.memory_pages == 0) return Errc::invalid_argument;
  return Status::success();
}

Status TrustZone::attach_memory(DomainId id, DomainRecord& record) {
  if (const Status s = PagedSubstrate::attach_memory(id, record); !s.ok())
    return s;
  if (record.spec.kind == DomainKind::legacy) ++legacy_count_;
  return Status::success();
}

void TrustZone::release_memory(DomainId id, DomainRecord& record) {
  if (const Space* space = find_space(id);
      space && !space->tagged() && legacy_count_ > 0)
    --legacy_count_;
  PagedSubstrate::release_memory(id, record);
}

hw::AccessContext TrustZone::domain_context(
    DomainId, const substrate::DomainSpec& spec) const {
  if (spec.kind != DomainKind::trusted_component) return {};
  // The TZASC marks every secure-world page secure-world-only.
  return {hw::SecurityState::secure, kSecureTag};
}

Result<TrustZone::Spaces> TrustZone::check_access(DomainId actor,
                                                  DomainId target) const {
  auto spaces = spaces_of(actor, target);
  if (!spaces) return spaces.error();
  const auto [from, to] = *spaces;
  if (actor == target) return spaces;
  // Asymmetry of the worlds: secure may inspect normal ("the secure world
  // completely controls the normal world"); normal may never touch secure.
  if (!from->tagged()) return Errc::access_denied;
  if (to->tagged() && options_.secure_world_isolation)
    return Errc::access_denied;  // secure OS isolates its trustlets
  return spaces;
}

substrate::PagedSubstrate::AccessCharge TrustZone::access_charge(
    const Space& actor) const {
  // A normal-world access, read or write, enters the monitor.
  return {.fixed = actor.tagged() ? 0 : machine_.costs().syscall,
          .per_16_bytes = machine_.costs().memcpy_per_16_bytes};
}

Result<substrate::Quote> TrustZone::attest(DomainId actor,
                                           BytesView user_data) {
  auto space = space_of(actor);
  if (!space) return space.error();
  // The fused key is secure-only.
  if (!(*space)->tagged()) return Errc::access_denied;
  return IsolationSubstrate::attest(actor, user_data);
}

Result<Bytes> TrustZone::seal(DomainId actor, BytesView plaintext) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->tagged()) return Errc::access_denied;
  return IsolationSubstrate::seal(actor, plaintext);
}

Result<Bytes> TrustZone::unseal(DomainId actor, BytesView sealed) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->tagged()) return Errc::access_denied;
  return IsolationSubstrate::unseal(actor, sealed);
}

Result<crypto::Digest> TrustZone::measure_normal_world(DomainId actor) {
  auto actor_space = space_of(actor);
  if (!actor_space) return actor_space.error();
  if (!(*actor_space)->tagged()) return Errc::access_denied;

  crypto::Sha256 ctx;
  bool found = false;
  for (const auto& [id, space] : spaces()) {
    if (space.tagged()) continue;
    found = true;
    auto content = read_span(space, (*actor_space)->ctx, 0,
                             space.frames.size() * hw::kPageSize);
    if (!content) return content.error();
    machine_.charge(0, machine_.costs().sw_sha_per_64_bytes / 4,
                    content->size());
    ctx.update(*content);
  }
  if (!found) return Errc::no_such_domain;
  return ctx.finish();
}

Result<bool> TrustZone::is_secure_world(DomainId domain) const {
  auto space = space_of(domain);
  if (!space) return space.error();
  return (*space)->tagged();
}

Cycles TrustZone::message_cost(std::size_t len) const {
  // Every cross-world message pays an SMC world switch plus the secure-world
  // OS dispatch; payload copy comes on top. Under a hypervisor, normal-world
  // traffic additionally traps into the VMM (one exit per message).
  Cycles cost = machine_.costs().smc_world_switch +
                machine_.costs().tz_secure_os_dispatch +
                machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
  if (options_.hypervisor) cost += machine_.costs().context_switch * 2;
  return cost;
}

substrate::ConcurrencyLaw TrustZone::concurrency_law() const {
  // There is ONE secure world: every SMC funnels through the single
  // monitor/secure-OS instance, which takes its big lock for the whole
  // dispatch (paper §II-B — the architecture, not the workload, caps
  // scaling). Whole crossings serialize.
  return substrate::ConcurrencyLaw::monitor_serialized;
}

Cycles TrustZone::attest_cost() const {
  return machine_.costs().smc_world_switch * 2;
}

Cycles TrustZone::region_map_cost(std::size_t pages) const {
  // One SMC to have the monitor carve the NS buffer and program the TZASC,
  // plus a page-table write per page on the mapping world's side. The
  // crossing toll is paid once here, never per access.
  return machine_.costs().smc_world_switch +
         machine_.costs().tz_secure_os_dispatch +
         machine_.costs().page_table_update * pages;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "trustzone",
      [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<TrustZone>(machine, config);
      });
}

}  // namespace lateral::trustzone
