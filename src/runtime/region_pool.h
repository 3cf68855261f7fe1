// RegionPool — a region-backed staging buffer pool for the zero-copy path.
//
// The zero-copy contract (IsolationSubstrate::call_sg) needs payload bytes
// resident in a shared grant region before the descriptor crosses. A
// producer could region_write at ad-hoc offsets, but serving code wants the
// allocator question answered once: RegionPool carves one region into
// fixed-size slots, hands them out O(1) from a free list, and stages
// payloads with a single region_write (the path's one copy). Slots are
// returned either explicitly or by the CompletionQueue's terminal path when
// the matching completion is formed — by then the consumer's handler has
// read the bytes in place, so reuse is safe.
//
// Sharding (FIG13): a pool serving a component sharded across cores is
// partitioned into per-shard arenas, each with its own free list and lock,
// so concurrent producers never bounce one free-list head between cores.
// On a multi-core machine slot offsets are additionally padded to a
// cache-line stride in the simulated cost model: two shards' slots never
// share a line, so the machine's contention penalty measures true sharing
// (two cores touching the same bytes), not allocator-induced false sharing.
// Single-core machines keep the dense pre-FIG13 layout, offset for offset.
//
// Crash recovery: the pool holds no epoch state of its own. Every stage()
// goes through the substrate's reference monitor, so after a revoke or a
// supervised restart (epoch bump) staging fails with Errc::stale_epoch and
// the owner re-wires through Assembly::region_between, exactly like a
// CompletionQueue holder re-attaches after a fence.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "substrate/substrate.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::runtime {

class RegionPool {
 public:
  /// A lease on `bytes` bytes of the pool's region at `offset`. Only
  /// meaningful to the pool that issued it.
  struct Slot {
    std::uint64_t offset = 0;
    std::size_t bytes = 0;
  };

  /// Carve `region` (created and mapped beforehand — normally by the
  /// composer) into `shards` arenas of fixed-size slots. `region_size` is
  /// the region's total size. With one shard on a single-core machine the
  /// layout is dense: slot count = region_size / slot_bytes. On a
  /// multi-core machine slots are padded to the cost model's cache-line
  /// stride, so an arena too small for one padded slot yields no slots.
  RegionPool(substrate::IsolationSubstrate& substrate,
             substrate::DomainId actor, substrate::RegionId region,
             std::size_t region_size, std::size_t slot_bytes,
             std::size_t shards = 1);

  /// Lease a free slot; Errc::exhausted when every slot is in flight —
  /// the pool's backpressure, analogous to a full submission ring. Scans
  /// shards in order, so unsharded callers see the pre-FIG13 behaviour.
  Result<Slot> acquire();
  /// Lease from one shard only — the allocator half of shard routing (a
  /// producer pinned to core i leases from arena i and never touches
  /// another core's free list). Errc::exhausted when that arena is empty.
  Result<Slot> acquire(std::size_t shard);
  /// Return a slot to the free list of the shard that owns its offset.
  /// Releasing a slot that is already free (or was never issued by this
  /// pool) is ignored — a double release must not put the same offset in
  /// flight twice.
  void release(const Slot& slot);

  /// Stage `payload` into `slot` (one region_write) and mint a descriptor
  /// for exactly the staged bytes. Errc::invalid_argument when the payload
  /// exceeds the slot; substrate errors (stale_epoch after a restart,
  /// access_denied after a revoke) propagate untouched.
  Result<substrate::RegionDescriptor> stage(const Slot& slot,
                                            BytesView payload);

  substrate::RegionId region() const { return region_; }
  std::size_t slot_bytes() const { return slot_bytes_; }
  /// Slot offsets advance by this much: slot_bytes, padded to the cache
  /// line on multi-core machines (the false-sharing fix, see file header).
  std::size_t slot_stride() const { return stride_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t slots_total() const { return slots_total_; }
  std::size_t slots_free() const;
  std::size_t slots_free(std::size_t shard) const;

 private:
  /// One arena: a contiguous, cache-line-aligned span of the region with
  /// its own free list and lock (no cross-shard free-list bouncing).
  struct Shard {
    std::uint64_t base = 0;
    std::size_t slots = 0;
    // Each shard's bookkeeping has its own lock; deferred Executor tasks
    // run on worker threads, so lease bookkeeping cannot ride the substrate
    // stripe lock (which only covers stage()).
    mutable std::mutex mu;
    std::vector<std::uint64_t> free;  // free slot offsets (LIFO for locality)
    std::vector<bool> leased;         // per-slot lease bit (double-free guard)
  };

  substrate::IsolationSubstrate& substrate_;
  substrate::DomainId actor_;
  substrate::RegionId region_;
  std::size_t slot_bytes_;
  std::size_t stride_;
  std::uint64_t arena_span_ = 0;
  std::size_t slots_total_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lateral::runtime
