#include "noc/noc.h"

#include <cmath>

namespace lateral::noc {

using substrate::AttackerModel;
using substrate::ChannelId;
using substrate::ChannelSpec;
using substrate::DomainId;
using substrate::Feature;

NocFabric::NocFabric(hw::Machine& machine, substrate::SubstrateConfig config)
    : IsolationSubstrate(machine, std::move(config)), frames_(machine.dram()) {
  info_.name = "noc";
  info_.features = Feature::spatial_isolation | Feature::temporal_isolation |
                   Feature::covert_channel_mitigation |
                   Feature::concurrent_domains | Feature::sealed_storage |
                   Feature::attestation;
  // The M3 kernel runs on its own tile and is tiny; the DTU is simple
  // hardware. Temporal isolation is structural: every domain owns a whole
  // core, so there is no scheduler to leak through.
  info_.tcb_loc = 6'000;
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software};
}

const substrate::SubstrateInfo& NocFabric::info() const { return info_; }

Status NocFabric::admit_domain(const substrate::DomainSpec& spec) const {
  // Legacy OSes expect an MMU and paging; application tiles have neither.
  if (spec.kind == substrate::DomainKind::legacy) return Errc::not_supported;
  if (spec.memory_pages == 0) return Errc::invalid_argument;
  return Status::success();
}

Status NocFabric::attach_memory(DomainId id, DomainRecord& record) {
  auto base = frames_.allocate(record.spec.memory_pages);
  if (!base) return base.error();
  Tile tile;
  tile.grid_x = next_tile_index_ % kGridWidth;
  tile.grid_y = next_tile_index_ / kGridWidth;
  ++next_tile_index_;
  tile.memory_base = *base;
  tile.pages = record.spec.memory_pages;

  BytesView code = record.spec.image.code;
  const std::size_t n = std::min(code.size(), tile.pages * hw::kPageSize);
  machine_.memory().load(tile.memory_base, code.subspan(0, n));
  tiles_.emplace(id, tile);
  return Status::success();
}

void NocFabric::release_memory(DomainId id, DomainRecord& record) {
  (void)record;
  const auto it = tiles_.find(id);
  if (it == tiles_.end()) return;
  // Scrub: the next tile on this memory must not read our bytes.
  (void)machine_.memory().discard(it->second.memory_base, it->second.pages);
  (void)frames_.free(it->second.memory_base, it->second.pages);
  tiles_.erase(it);
}

Result<Bytes> NocFabric::read_memory(DomainId actor, DomainId target,
                                     std::uint64_t offset, std::size_t len) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  const auto actor_it = tiles_.find(actor);
  if (actor_it == tiles_.end()) return Errc::no_such_domain;
  // There is no load/store path between tiles at all.
  if (actor != target) return Errc::access_denied;
  const Tile& tile = actor_it->second;
  if (offset + len > tile.pages * hw::kPageSize || offset + len < offset)
    return Errc::access_denied;
  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, len);
  Bytes out;
  if (const Status s =
          machine_.memory().raw_read(tile.memory_base + offset, len, out);
      !s.ok())
    return s.error();
  return out;
}

Status NocFabric::write_memory(DomainId actor, DomainId target,
                               std::uint64_t offset, BytesView data) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  const auto actor_it = tiles_.find(actor);
  if (actor_it == tiles_.end()) return Errc::no_such_domain;
  if (actor != target) return Errc::access_denied;
  const Tile& tile = actor_it->second;
  if (offset + data.size() > tile.pages * hw::kPageSize ||
      offset + data.size() < offset)
    return Errc::access_denied;
  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, data.size());
  return machine_.memory().raw_write(tile.memory_base + offset, data);
}

Result<ChannelId> NocFabric::create_channel(DomainId a, DomainId b,
                                            const ChannelSpec& spec) {
  const auto a_it = tiles_.find(a);
  const auto b_it = tiles_.find(b);
  // A corpse's tile was released at kill time but its record remains:
  // report domain_dead, not a claim the domain never existed.
  if (a_it == tiles_.end() || b_it == tiles_.end())
    return (is_dead(a) || is_dead(b)) ? Errc::domain_dead
                                      : Errc::no_such_domain;
  // The kernel tile programs one DTU endpoint per side; the tables are
  // small and fixed.
  if (a_it->second.endpoints_used >= kEndpointsPerTile ||
      b_it->second.endpoints_used >= kEndpointsPerTile)
    return Errc::exhausted;
  auto channel = IsolationSubstrate::create_channel(a, b, spec);
  if (!channel) return channel;
  a_it->second.endpoints_used++;
  b_it->second.endpoints_used++;
  return channel;
}

Result<std::size_t> NocFabric::endpoints_used(DomainId domain) const {
  const auto it = tiles_.find(domain);
  if (it == tiles_.end()) return Errc::no_such_domain;
  return it->second.endpoints_used;
}

Result<std::size_t> NocFabric::hop_distance(DomainId a, DomainId b) const {
  const auto a_it = tiles_.find(a);
  const auto b_it = tiles_.find(b);
  if (a_it == tiles_.end() || b_it == tiles_.end())
    return Errc::no_such_domain;
  const auto dx = (a_it->second.grid_x > b_it->second.grid_x)
                      ? a_it->second.grid_x - b_it->second.grid_x
                      : b_it->second.grid_x - a_it->second.grid_x;
  const auto dy = (a_it->second.grid_y > b_it->second.grid_y)
                      ? a_it->second.grid_y - b_it->second.grid_y
                      : b_it->second.grid_y - a_it->second.grid_y;
  return dx + dy;
}

Cycles NocFabric::message_cost(std::size_t len) const {
  // DTU setup + average route latency + per-flit transfer. No kernel entry
  // on either side: the DTU does the work, which is why M3 messaging beats
  // syscall-based IPC on small messages.
  constexpr Cycles kDtuSetup = 80;
  constexpr Cycles kAvgRoute = 6 * 4;  // ~4 hops x 6 cycles
  return kDtuSetup + kAvgRoute + 4 * ((len + 15) / 16);
}

substrate::ConcurrencyLaw NocFabric::concurrency_law() const {
  // Every domain owns a tile and its DTU; messages are routed by the mesh
  // with no shared software on the path at all. Parallelism is structural.
  return substrate::ConcurrencyLaw::parallel;
}

Cycles NocFabric::attest_cost() const {
  return message_cost(64);  // a message to the kernel tile
}

Status NocFabric::attach_region(substrate::RegionId id, RegionRecord& record) {
  (void)id;
  const auto a_it = tiles_.find(record.a);
  const auto b_it = tiles_.find(record.b);
  if (a_it == tiles_.end() || b_it == tiles_.end())
    return Errc::no_such_domain;
  if (a_it->second.endpoints_used >= kEndpointsPerTile ||
      b_it->second.endpoints_used >= kEndpointsPerTile)
    return Errc::exhausted;
  a_it->second.endpoints_used++;
  b_it->second.endpoints_used++;
  // Tile-aware placement: the backing lives in the grantee's tile-local
  // memory (there is no "shared" memory on a mesh — some tile hosts the
  // bytes). Consumer-sided placement makes region_view O(1)+local for the
  // descriptor-consuming side; the producer's region_write streams over
  // the mesh, which is the DTU transfer that copy pays anyway.
  record.backend_cookie = record.b;
  return Status::success();
}

Result<DomainId> NocFabric::region_host(substrate::RegionId id) const {
  const RegionRecord* record = find_region(id);
  if (!record) return Errc::invalid_argument;
  return static_cast<DomainId>(record->backend_cookie);
}

Cycles NocFabric::region_copy_cost(const RegionRecord& record, DomainId actor,
                                   std::size_t len) const {
  const Cycles flits = Cycles((len + 15) / 16);
  const DomainId host = static_cast<DomainId>(record.backend_cookie);
  if (actor == host)
    return machine_.costs().memcpy_per_16_bytes * flits;  // tile-local SRAM
  // Remote: DTU memory-endpoint transfer — hop latency once (the transfer
  // is pipelined behind the first flit) plus per-flit mesh bandwidth.
  const auto hops = hop_distance(actor, host);
  return 6 * Cycles(hops ? *hops : 4) + 4 * flits;
}

Cycles NocFabric::region_access_cost(const RegionRecord& record,
                                     DomainId actor) const {
  const DomainId host = static_cast<DomainId>(record.backend_cookie);
  if (actor == host) return IsolationSubstrate::region_access_cost();
  const auto hops = hop_distance(actor, host);
  return IsolationSubstrate::region_access_cost() +
         6 * Cycles(hops ? *hops : 4);
}

void NocFabric::release_region(substrate::RegionId id, RegionRecord& record) {
  (void)id;
  const auto a_it = tiles_.find(record.a);
  const auto b_it = tiles_.find(record.b);
  if (a_it != tiles_.end() && a_it->second.endpoints_used > 0)
    a_it->second.endpoints_used--;
  if (b_it != tiles_.end() && b_it->second.endpoints_used > 0)
    b_it->second.endpoints_used--;
}

Cycles NocFabric::region_map_cost(std::size_t pages) const {
  // The kernel tile configures a memory endpoint: one message to the
  // kernel plus DTU programming per page window.
  return message_cost(32) + machine_.costs().dma_setup +
         machine_.costs().dma_per_page * pages;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "noc", [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<NocFabric>(machine, config);
      });
}

}  // namespace lateral::noc
