#include "microkernel/microkernel.h"

namespace lateral::microkernel {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::Feature;

Microkernel::Microkernel(hw::Machine& machine,
                         substrate::SubstrateConfig config,
                         SchedulingPolicy policy)
    : PagedSubstrate(machine, std::move(config), machine.dram(),
                     std::nullopt, machine.costs().page_table_update),
      scheduler_(policy, machine.core_count()),
      iommu_(hw::Iommu::Mode::enforcing) {
  info_.name = "microkernel";
  info_.features = Feature::spatial_isolation | Feature::temporal_isolation |
                   Feature::concurrent_domains | Feature::legacy_hosting |
                   Feature::sealed_storage | Feature::attestation |
                   Feature::io_isolation;
  if (policy == SchedulingPolicy::fixed_partition)
    info_.features = info_.features | Feature::covert_channel_mitigation;
  // Formally verified kernels (seL4) are ~10 kLoC; add MMU/IOMMU hardware
  // complexity as a token amount.
  info_.tcb_loc = 10'000;
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software};
}

const substrate::SubstrateInfo& Microkernel::info() const { return info_; }

Status Microkernel::admit_domain(const substrate::DomainSpec& spec) const {
  if (spec.memory_pages == 0) return Errc::invalid_argument;
  return Status::success();
}

Status Microkernel::attach_memory(DomainId id, DomainRecord& record) {
  if (const Status s = PagedSubstrate::attach_memory(id, record); !s.ok())
    return s;
  (void)scheduler_.add_domain(id, record.spec.time_share_permille);
  return Status::success();
}

void Microkernel::release_memory(DomainId id, DomainRecord& record) {
  PagedSubstrate::release_memory(id, record);
  (void)scheduler_.remove_domain(id);
  // No dangling memory rights: drop every grant touching the domain.
  std::erase_if(grants_, [id](const auto& grant) {
    return grant.first.first == id || grant.first.second == id;
  });
}

substrate::PagedSubstrate::AccessCharge Microkernel::access_charge(
    const Space&) const {
  // The MMU only walks the actor's own page tables; reaching them is a
  // syscall.
  return {.fixed = machine_.costs().syscall,
          .per_16_bytes = machine_.costs().memcpy_per_16_bytes};
}

hw::Device Microkernel::make_device(const std::string& name) {
  return hw::Device(next_device_++, name, machine_, iommu_);
}

Status Microkernel::grant_dma(DomainId driver, const hw::Device& device,
                              bool writable) {
  const auto space = space_of(driver);
  if (!space) return space.error();
  for (const hw::PhysAddr frame : (*space)->frames) {
    if (const Status s = iommu_.map(device.id(), frame, 1, writable); !s.ok())
      return s;
  }
  return Status::success();
}

Status Microkernel::grant_memory(DomainId owner, DomainId grantee,
                                 std::size_t first_page, std::size_t pages,
                                 bool writable) {
  const auto spaces = spaces_of(owner, grantee);
  if (!spaces) return spaces.error();
  if (owner == grantee || pages == 0) return Errc::invalid_argument;
  if (first_page + pages > spaces->first->frames.size())
    return Errc::invalid_argument;
  machine_.advance(machine_.costs().syscall +
                   machine_.costs().page_table_update * pages);
  grants_[{owner, grantee}].push_back(
      MemoryGrant{first_page, pages, writable});
  return Status::success();
}

Status Microkernel::revoke_memory(DomainId owner, DomainId grantee) {
  const auto it = grants_.find({owner, grantee});
  if (it == grants_.end()) return Errc::invalid_argument;
  machine_.advance(machine_.costs().syscall +
                   machine_.costs().page_table_update);
  grants_.erase(it);
  return Status::success();
}

const Microkernel::MemoryGrant* Microkernel::find_grant(
    DomainId grantee, DomainId owner, std::uint64_t offset, std::size_t len,
    bool write) const {
  const auto it = grants_.find({owner, grantee});
  if (it == grants_.end()) return nullptr;
  const auto [first_page, last_page] = page_span(offset, len);
  for (const MemoryGrant& grant : it->second) {
    if (write && !grant.writable) continue;
    if (first_page >= grant.first_page &&
        last_page < grant.first_page + grant.pages)
      return &grant;
  }
  return nullptr;
}

Result<Bytes> Microkernel::read_granted(DomainId grantee, DomainId owner,
                                        std::uint64_t offset,
                                        std::size_t len) {
  const auto spaces = spaces_of(grantee, owner);
  if (!spaces) return spaces.error();
  const Space* space = spaces->second;
  if (len == 0) return Bytes{};
  if (!in_bounds(*space, offset, len) ||
      !find_grant(grantee, owner, offset, len, /*write=*/false))
    return Errc::access_denied;
  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, len);
  return read_span(*space, space->ctx, offset, len);
}

Status Microkernel::write_granted(DomainId grantee, DomainId owner,
                                  std::uint64_t offset, BytesView data) {
  const auto spaces = spaces_of(grantee, owner);
  if (!spaces) return spaces.error();
  const Space* space = spaces->second;
  if (data.empty()) return Status::success();
  if (!in_bounds(*space, offset, data.size()) ||
      !find_grant(grantee, owner, offset, data.size(), /*write=*/true))
    return Errc::access_denied;
  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, data.size());
  return write_span(*space, space->ctx, offset, data);
}

Cycles Microkernel::message_cost(std::size_t len) const {
  return machine_.costs().ipc_one_way +
         machine_.costs().ipc_per_16_bytes * ((len + 15) / 16);
}

substrate::ConcurrencyLaw Microkernel::concurrency_law() const {
  // seL4-class kernels run one kernel image on every core with per-core
  // run queues; IPC between domains scheduled on different cores proceeds
  // independently (a cross-core notify costs an IPI, charged by the
  // scheduler, not a shared lock on the IPC path).
  return substrate::ConcurrencyLaw::parallel;
}

Cycles Microkernel::attest_cost() const { return machine_.costs().syscall; }

Cycles Microkernel::region_map_cost(std::size_t pages) const {
  // An L4 map item: kernel entry plus one page-table write per page. After
  // that, access is plain loads/stores — the zero-copy path's entire
  // recurring cost is the cache traffic region_access models.
  return machine_.costs().syscall +
         machine_.costs().page_table_update * pages;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "microkernel",
      [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Microkernel>(machine, config);
      });
}

}  // namespace lateral::microkernel
