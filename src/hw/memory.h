// Simulated physical memory.
//
// Memory is divided into named regions with hardware attributes. The two
// that matter for the paper's attacker models:
//   * on_chip  — SRAM/caches/fuses: invisible to a physical bus attacker.
//   * secure_only — TrustZone-style: accessible only when the access carries
//     the secure security state (the "NS bit" of the bus transaction).
// EPC-style enclave protection is layered on top by the SGX substrate via
// `owner_tag`: a region slice claimed for an enclave is readable/writable
// only by accesses carrying that tag.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/types.h"

namespace lateral::hw {

constexpr std::size_t kPageSize = 4096;

using PhysAddr = std::uint64_t;

/// Security state carried by a bus access (TrustZone NS bit analogue).
enum class SecurityState : std::uint8_t { non_secure, secure };

/// Who is performing an access, as seen by the memory system.
struct AccessContext {
  SecurityState state = SecurityState::non_secure;
  /// EPC owner tag carried by the access; 0 = no enclave context.
  std::uint64_t owner_tag = 0;
};

struct RegionAttributes {
  bool on_chip = false;      // shielded from physical bus probing
  bool secure_only = false;  // requires SecurityState::secure
  bool read_only = false;    // boot ROM
};

/// A half-open physical address range.
struct Range {
  PhysAddr begin = 0;
  PhysAddr end = 0;
  bool contains(PhysAddr addr, std::size_t len) const {
    return addr >= begin && addr + len <= end && addr + len >= addr;
  }
  std::size_t size() const { return end - begin; }
};

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::size_t total_bytes);

  std::size_t size() const { return size_; }

  /// Define a named region with attributes. Regions must not overlap.
  /// Returns the range. Errc::invalid_argument on overlap/misalignment.
  Result<Range> add_region(const std::string& name, PhysAddr begin,
                           std::size_t length, RegionAttributes attrs);

  Result<Range> region(const std::string& name) const;
  Result<RegionAttributes> attributes_at(PhysAddr addr) const;

  /// Claim/release an owner tag on a page (EPC semantics). A tagged page is
  /// only accessible by accesses carrying the identical tag.
  Status set_page_owner(PhysAddr page_addr, std::uint64_t owner_tag);
  std::uint64_t page_owner(PhysAddr page_addr) const;

  /// Checked access paths: enforce secure_only / owner_tag / read_only.
  Status read(const AccessContext& ctx, PhysAddr addr, std::size_t len,
              Bytes& out) const;
  Status write(const AccessContext& ctx, PhysAddr addr, BytesView data);

  /// Raw paths used by the physical bus attacker and by loaders. These see
  /// exactly what is stored in DRAM cells (ciphertext if a substrate
  /// encrypted the data before storing). They fail on on-chip memory —
  /// that is the one thing tamper-resistant packaging actually guarantees.
  Status raw_read(PhysAddr addr, std::size_t len, Bytes& out) const;
  Status raw_write(PhysAddr addr, BytesView data);

  /// Scrub `pages` pages from the page-aligned `addr`: their storage is
  /// dropped and they read as zeros again, like pages never written. What
  /// releases a frame calls this so the next owner cannot read the last
  /// one's bytes. Errc::invalid_argument when misaligned or out of range.
  Status discard(PhysAddr addr, std::size_t pages);

  /// Loader path: ignores all protection. Only boot ROM setup and test
  /// fixtures use it.
  void load(PhysAddr addr, BytesView data);
  Bytes dump(PhysAddr addr, std::size_t len) const;

 private:
  struct NamedRegion {
    std::string name;
    Range range;
    RegionAttributes attrs;
  };

  const NamedRegion* find_region(PhysAddr addr) const;
  Status check(const AccessContext& ctx, PhysAddr addr, std::size_t len,
               bool is_write) const;
  /// Unchecked copies; the range must lie within size().
  void copy_out(PhysAddr addr, std::size_t len, Bytes& out) const;
  void copy_in(PhysAddr addr, BytesView data);

  // A page's storage is allocated by the first write to it; a page never
  // written reads as zeros. Simulated memory a workload never touches thus
  // costs the host neither resident memory nor zero-filling.
  using Page = std::array<std::uint8_t, kPageSize>;
  std::size_t size_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<NamedRegion> regions_;
  std::map<PhysAddr, std::uint64_t> page_owner_;  // page addr -> tag
};

/// Simple first-fit page-frame allocator over a range.
class FrameAllocator {
 public:
  FrameAllocator() = default;
  explicit FrameAllocator(Range range);

  /// Allocate `pages` contiguous pages. Errc::exhausted when full.
  Result<PhysAddr> allocate(std::size_t pages);
  Status free(PhysAddr addr, std::size_t pages);

  std::size_t pages_free() const;

 private:
  Range range_{};
  std::vector<bool> used_;  // one bit per page
};

}  // namespace lateral::hw
