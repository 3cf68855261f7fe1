#include "hw/memory.h"

#include <algorithm>
#include <cstring>

namespace lateral::hw {

PhysicalMemory::PhysicalMemory(std::size_t total_bytes)
    : size_(total_bytes), pages_((total_bytes + kPageSize - 1) / kPageSize) {}

void PhysicalMemory::copy_out(PhysAddr addr, std::size_t len,
                              Bytes& out) const {
  out.assign(len, 0);
  for (std::size_t done = 0; done < len;) {
    const PhysAddr at = addr + done;
    const std::size_t offset = at % kPageSize;
    const std::size_t n = std::min(len - done, kPageSize - offset);
    if (const Page* page = pages_[at / kPageSize].get())
      std::copy_n(page->data() + offset, n, out.data() + done);
    done += n;
  }
}

void PhysicalMemory::copy_in(PhysAddr addr, BytesView data) {
  for (std::size_t done = 0; done < data.size();) {
    const PhysAddr at = addr + done;
    const std::size_t offset = at % kPageSize;
    const std::size_t n = std::min(data.size() - done, kPageSize - offset);
    std::unique_ptr<Page>& page = pages_[at / kPageSize];
    if (!page) page = std::make_unique<Page>();  // value-initialized: zeros
    std::copy_n(data.data() + done, n, page->data() + offset);
    done += n;
  }
}

Result<Range> PhysicalMemory::add_region(const std::string& name,
                                         PhysAddr begin, std::size_t length,
                                         RegionAttributes attrs) {
  if (begin % kPageSize != 0 || length % kPageSize != 0)
    return Errc::invalid_argument;
  if (begin + length > size_ || begin + length < begin)
    return Errc::invalid_argument;
  const Range range{begin, begin + length};
  for (const auto& existing : regions_) {
    if (existing.name == name) return Errc::invalid_argument;
    if (range.begin < existing.range.end && existing.range.begin < range.end)
      return Errc::invalid_argument;  // overlap
  }
  regions_.push_back(NamedRegion{name, range, attrs});
  return range;
}

Result<Range> PhysicalMemory::region(const std::string& name) const {
  for (const auto& r : regions_)
    if (r.name == name) return r.range;
  return Errc::invalid_argument;
}

const PhysicalMemory::NamedRegion* PhysicalMemory::find_region(
    PhysAddr addr) const {
  for (const auto& r : regions_)
    if (addr >= r.range.begin && addr < r.range.end) return &r;
  return nullptr;
}

Result<RegionAttributes> PhysicalMemory::attributes_at(PhysAddr addr) const {
  const NamedRegion* r = find_region(addr);
  if (!r) return Errc::invalid_argument;
  return r->attrs;
}

Status PhysicalMemory::set_page_owner(PhysAddr page_addr,
                                      std::uint64_t owner_tag) {
  if (page_addr % kPageSize != 0 || page_addr >= size_)
    return Errc::invalid_argument;
  if (owner_tag == 0)
    page_owner_.erase(page_addr);
  else
    page_owner_[page_addr] = owner_tag;
  return Status::success();
}

std::uint64_t PhysicalMemory::page_owner(PhysAddr page_addr) const {
  const auto it = page_owner_.find(page_addr & ~(kPageSize - 1));
  return it == page_owner_.end() ? 0 : it->second;
}

Status PhysicalMemory::check(const AccessContext& ctx, PhysAddr addr,
                             std::size_t len, bool is_write) const {
  if (addr + len > size_ || addr + len < addr)
    return Errc::invalid_argument;
  // Walk the access page by page: attributes and owner tags are
  // page-granular.
  PhysAddr cursor = addr & ~(std::uint64_t(kPageSize) - 1);
  const PhysAddr last = addr + len;
  for (; cursor < last; cursor += kPageSize) {
    const NamedRegion* r = find_region(cursor);
    if (r) {
      if (r->attrs.secure_only && ctx.state != SecurityState::secure)
        return Errc::access_denied;
      if (r->attrs.read_only && is_write) return Errc::access_denied;
    }
    const std::uint64_t owner = page_owner(cursor);
    if (owner != 0 && owner != ctx.owner_tag) return Errc::access_denied;
  }
  return Status::success();
}

Status PhysicalMemory::read(const AccessContext& ctx, PhysAddr addr,
                            std::size_t len, Bytes& out) const {
  if (const Status s = check(ctx, addr, len, /*is_write=*/false); !s.ok())
    return s;
  copy_out(addr, len, out);
  return Status::success();
}

Status PhysicalMemory::write(const AccessContext& ctx, PhysAddr addr,
                             BytesView data) {
  if (const Status s = check(ctx, addr, data.size(), /*is_write=*/true);
      !s.ok())
    return s;
  copy_in(addr, data);
  return Status::success();
}

Status PhysicalMemory::raw_read(PhysAddr addr, std::size_t len,
                                Bytes& out) const {
  if (addr + len > size_ || addr + len < addr)
    return Errc::invalid_argument;
  // Physical probing cannot reach on-chip memory.
  for (PhysAddr cursor = addr & ~(std::uint64_t(kPageSize) - 1);
       cursor < addr + len; cursor += kPageSize) {
    const NamedRegion* r = find_region(cursor);
    if (r && r->attrs.on_chip) return Errc::access_denied;
  }
  copy_out(addr, len, out);
  return Status::success();
}

Status PhysicalMemory::raw_write(PhysAddr addr, BytesView data) {
  if (addr + data.size() > size_ || addr + data.size() < addr)
    return Errc::invalid_argument;
  for (PhysAddr cursor = addr & ~(std::uint64_t(kPageSize) - 1);
       cursor < addr + data.size(); cursor += kPageSize) {
    const NamedRegion* r = find_region(cursor);
    if (r && r->attrs.on_chip) return Errc::access_denied;
  }
  copy_in(addr, data);
  return Status::success();
}

Status PhysicalMemory::discard(PhysAddr addr, std::size_t pages) {
  const std::size_t first = addr / kPageSize;
  if (addr % kPageSize != 0 || first > pages_.size() ||
      pages > pages_.size() - first)
    return Errc::invalid_argument;
  for (std::size_t i = first; i < first + pages; ++i) pages_[i].reset();
  return Status::success();
}

void PhysicalMemory::load(PhysAddr addr, BytesView data) {
  if (addr + data.size() > size_)
    throw Error("PhysicalMemory::load out of bounds");
  copy_in(addr, data);
}

Bytes PhysicalMemory::dump(PhysAddr addr, std::size_t len) const {
  if (addr + len > size_)
    throw Error("PhysicalMemory::dump out of bounds");
  Bytes out;
  copy_out(addr, len, out);
  return out;
}

FrameAllocator::FrameAllocator(Range range)
    : range_(range), used_(range.size() / kPageSize, false) {
  if (range.begin % kPageSize != 0 || range.size() % kPageSize != 0)
    throw Error("FrameAllocator: unaligned range");
}

Result<PhysAddr> FrameAllocator::allocate(std::size_t pages) {
  if (pages == 0) return Errc::invalid_argument;
  std::size_t run = 0;
  for (std::size_t i = 0; i < used_.size(); ++i) {
    run = used_[i] ? 0 : run + 1;
    if (run == pages) {
      const std::size_t first = i + 1 - pages;
      for (std::size_t j = first; j <= i; ++j) used_[j] = true;
      return range_.begin + first * kPageSize;
    }
  }
  return Errc::exhausted;
}

Status FrameAllocator::free(PhysAddr addr, std::size_t pages) {
  if (addr < range_.begin || addr % kPageSize != 0)
    return Errc::invalid_argument;
  const std::size_t first = (addr - range_.begin) / kPageSize;
  if (first + pages > used_.size()) return Errc::invalid_argument;
  for (std::size_t j = first; j < first + pages; ++j) {
    if (!used_[j]) return Errc::invalid_argument;  // double free
    used_[j] = false;
  }
  return Status::success();
}

std::size_t FrameAllocator::pages_free() const {
  return static_cast<std::size_t>(
      std::count(used_.begin(), used_.end(), false));
}

}  // namespace lateral::hw
