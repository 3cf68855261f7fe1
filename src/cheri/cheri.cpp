#include "cheri/cheri.h"

namespace lateral::cheri {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::Feature;

Cheri::Cheri(hw::Machine& machine, substrate::SubstrateConfig config)
    : IsolationSubstrate(machine, std::move(config)), frames_(machine.dram()) {
  info_.name = "cheri";
  info_.features = Feature::spatial_isolation | Feature::concurrent_domains;
  // A modified CPU pipeline plus the capability-aware toolchain runtime.
  info_.tcb_loc = 8'000;
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software};
}

const substrate::SubstrateInfo& Cheri::info() const { return info_; }

Status Cheri::admit_domain(const substrate::DomainSpec& spec) const {
  // One shared address space of compartments; entire legacy OSes need
  // their own paging and do not fit this model.
  if (spec.kind == substrate::DomainKind::legacy) return Errc::not_supported;
  if (spec.memory_pages == 0) return Errc::invalid_argument;
  return Status::success();
}

Status Cheri::attach_memory(DomainId id, DomainRecord& record) {
  auto base = frames_.allocate(record.spec.memory_pages);
  if (!base) return base.error();
  Allocation allocation{*base, record.spec.memory_pages};
  BytesView code = record.spec.image.code;
  const std::size_t n =
      std::min(code.size(), allocation.pages * hw::kPageSize);
  machine_.memory().load(allocation.base, code.subspan(0, n));
  allocations_.emplace(id, allocation);
  return Status::success();
}

void Cheri::release_memory(DomainId id, DomainRecord& record) {
  (void)record;
  const auto it = allocations_.find(id);
  if (it == allocations_.end()) return;
  // Scrub: the next compartment on these frames must not read our bytes.
  (void)machine_.memory().discard(it->second.base, it->second.pages);
  (void)frames_.free(it->second.base, it->second.pages);
  allocations_.erase(it);
}

Result<Capability> Cheri::root_capability(DomainId domain) const {
  const auto it = allocations_.find(domain);
  if (it == allocations_.end()) return Errc::no_such_domain;
  Capability cap;
  cap.base = it->second.base;
  cap.length = it->second.pages * hw::kPageSize;
  cap.read = cap.write = true;
  cap.tag = true;
  return cap;
}

Result<Capability> Cheri::derive(const Capability& parent,
                                 std::uint64_t offset, std::uint64_t length,
                                 bool read, bool write) const {
  if (!parent.tag) return Errc::access_denied;  // forged parent
  // Monotonicity: bounds must narrow, permissions must not grow.
  if (offset + length > parent.length || offset + length < offset)
    return Errc::access_denied;
  if ((read && !parent.read) || (write && !parent.write))
    return Errc::access_denied;
  Capability cap;
  cap.base = parent.base + offset;
  cap.length = length;
  cap.read = read;
  cap.write = write;
  cap.tag = true;
  return cap;
}

Result<Bytes> Cheri::cap_load(const Capability& cap, std::uint64_t offset,
                              std::size_t len) {
  if (!cap.tag || !cap.read) return Errc::access_denied;
  if (offset + len > cap.length || offset + len < offset)
    return Errc::access_denied;  // bounds fault
  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, len);
  Bytes out;
  if (const Status s =
          machine_.memory().raw_read(cap.base + offset, len, out);
      !s.ok())
    return s.error();
  return out;
}

Status Cheri::cap_store(const Capability& cap, std::uint64_t offset,
                        BytesView data) {
  if (!cap.tag || !cap.write) return Errc::access_denied;
  if (offset + data.size() > cap.length || offset + data.size() < offset)
    return Errc::access_denied;
  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, data.size());
  return machine_.memory().raw_write(cap.base + offset, data);
}

Result<Bytes> Cheri::read_memory(DomainId actor, DomainId target,
                                 std::uint64_t offset, std::size_t len) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  if (!allocations_.contains(actor)) return Errc::no_such_domain;
  if (actor != target) return Errc::access_denied;  // no capability held
  auto root = root_capability(target);
  if (!root) return root.error();
  return cap_load(*root, offset, len);
}

Status Cheri::write_memory(DomainId actor, DomainId target,
                           std::uint64_t offset, BytesView data) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  if (!allocations_.contains(actor)) return Errc::no_such_domain;
  if (actor != target) return Errc::access_denied;
  auto root = root_capability(target);
  if (!root) return root.error();
  return cap_store(*root, offset, data);
}

Cycles Cheri::message_cost(std::size_t len) const {
  // A protected call gate within one address space: no TLB/context switch,
  // just the jump and the copy.
  return machine_.costs().syscall / 2 +
         machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
}

substrate::ConcurrencyLaw Cheri::concurrency_law() const {
  // Domain transitions are in-address-space capability jumps (CInvoke);
  // each core switches compartments with its own register file. Nothing
  // is shared but the memory the capabilities already bound.
  return substrate::ConcurrencyLaw::parallel;
}

Cycles Cheri::attest_cost() const { return 0; }  // feature absent anyway

Cycles Cheri::region_map_cost(std::size_t pages) const {
  // Deriving a bounded capability is a register-to-register CPU operation;
  // there is nothing per page to set up.
  (void)pages;
  return machine_.costs().cheri_cap_derive;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "cheri",
      [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Cheri>(machine, config);
      });
}

}  // namespace lateral::cheri
