// Microkernel isolation substrate (seL4/L4Re class; paper §II-B
// "Operating-System-Based Separation").
//
// Spatial isolation by MMU-backed address spaces over DRAM frames; temporal
// isolation by a budgeted scheduler (optionally strictly partitioned);
// capability IPC with kernel-minted badges; IOMMU-filtered device DMA; and
// paravirtualized hosting of entire legacy OSes (DomainKind::legacy, the
// L4Android pattern).
//
// Defends remote and local-software attackers. Does NOT defend physical bus
// probing: domain memory lives in off-chip DRAM as plaintext — exactly the
// limitation §II-D attributes to plain MMU isolation.
#pragma once

#include <map>
#include <vector>

#include "hw/iommu.h"
#include "microkernel/scheduler.h"
#include "substrate/paged_memory.h"
#include "substrate/registry.h"

namespace lateral::microkernel {

// Memory: plaintext DRAM frames, one page-table write per frame mapped; a
// domain touches only its own address space (each access a syscall plus
// the copy) unless granted pages of another.
class Microkernel final : public substrate::PagedSubstrate {
 public:
  Microkernel(hw::Machine& machine, substrate::SubstrateConfig config,
              SchedulingPolicy policy = SchedulingPolicy::work_conserving);

  const substrate::SubstrateInfo& info() const override;

  Scheduler& scheduler() { return scheduler_; }
  hw::Iommu& iommu() { return iommu_; }

  /// Create a DMA-capable device on this machine's bus.
  hw::Device make_device(const std::string& name);

  /// Grant a driver domain the right to DMA into its *own* frames only:
  /// the kernel programs the IOMMU with the domain's frame list.
  Status grant_dma(substrate::DomainId driver, const hw::Device& device,
                   bool writable);

  // --- Memory grants (L4-style map/grant of pages between tasks) ----------
  /// Map `pages` pages of `owner`'s address space starting at page index
  /// `first_page` into `grantee`'s rights (read, optionally write). The
  /// grantee then accesses them via read_granted/write_granted. Explicit,
  /// inspectable, revocable — capability semantics, not ambient sharing.
  Status grant_memory(substrate::DomainId owner, substrate::DomainId grantee,
                      std::size_t first_page, std::size_t pages,
                      bool writable);
  /// Revoke every grant from `owner` to `grantee`.
  Status revoke_memory(substrate::DomainId owner,
                       substrate::DomainId grantee);
  /// Granted access paths; access_denied without a covering grant.
  /// These and grant_dma/grant_memory read a killed domain as domain_dead
  /// and an unknown id as no_such_domain, as every other operation does.
  Result<Bytes> read_granted(substrate::DomainId grantee,
                             substrate::DomainId owner, std::uint64_t offset,
                             std::size_t len);
  Status write_granted(substrate::DomainId grantee,
                       substrate::DomainId owner, std::uint64_t offset,
                       BytesView data);

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  Status attach_memory(substrate::DomainId id, DomainRecord& record) override;
  void release_memory(substrate::DomainId id, DomainRecord& record) override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;
  /// Grant regions are L4 map items: one syscall establishes the mapping,
  /// then both tasks address the same frames directly.
  Cycles region_map_cost(std::size_t pages) const override;
  AccessCharge access_charge(const Space& actor) const override;

 private:
  struct MemoryGrant {
    std::size_t first_page = 0;
    std::size_t pages = 0;
    bool writable = false;
  };

  /// Covering grant lookup; nullptr when the range is not fully granted.
  const MemoryGrant* find_grant(substrate::DomainId grantee,
                                substrate::DomainId owner,
                                std::uint64_t offset, std::size_t len,
                                bool write) const;

  substrate::SubstrateInfo info_;
  /// (owner, grantee) -> grants.
  std::map<std::pair<substrate::DomainId, substrate::DomainId>,
           std::vector<MemoryGrant>>
      grants_;
  Scheduler scheduler_;
  hw::Iommu iommu_;
  hw::DeviceId next_device_ = 1;
};

/// Register the "microkernel" factory.
Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::microkernel
