#include "substrate/paged_memory.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "util/wire.h"

namespace lateral::substrate {

// ---------------------------------------------------------------------------
// PageCipher

PageCipher::PageCipher(hw::Machine& machine, const Spec& spec)
    : machine_(machine),
      keys_(crypto::hkdf(to_bytes(spec.label), machine.fuses().device_key(),
                         to_bytes("enc+mac"), 48)),
      nonce_tag_(spec.nonce_tag),
      per_16_bytes_(spec.per_16_bytes) {}

std::uint64_t PageCipher::nonce(hw::PhysAddr page,
                                std::uint64_t version) const {
  return page ^ (version << 20) ^ nonce_tag_;
}

crypto::Digest PageCipher::mac(hw::PhysAddr page, std::uint64_t version,
                               BytesView ciphertext) const {
  std::uint8_t header[16];
  wire::store_be64(header, page);
  wire::store_be64(header + 8, version);
  return keys_.mac.mac({BytesView(header, sizeof(header)), ciphertext});
}

Bytes PageCipher::seal(hw::PhysAddr page, BytesView plaintext) {
  PageSeal& seal = pages_[page];
  ++seal.version;
  Bytes ciphertext =
      crypto::aes128_ctr(keys_.cipher, nonce(page, seal.version), plaintext);
  seal.mac = mac(page, seal.version, ciphertext);
  machine_.charge(0, per_16_bytes_, plaintext.size());
  return ciphertext;
}

Result<Bytes> PageCipher::open(hw::PhysAddr page,
                               BytesView ciphertext) const {
  const auto it = pages_.find(page);
  if (it == pages_.end() ||
      !ct_equal(crypto::digest_view(mac(page, it->second.version, ciphertext)),
                crypto::digest_view(it->second.mac)))
    return Errc::tamper_detected;
  machine_.charge(0, per_16_bytes_, ciphertext.size());
  return crypto::aes128_ctr(keys_.cipher, nonce(page, it->second.version),
                            ciphertext);
}

// ---------------------------------------------------------------------------
// PagedSubstrate

PagedSubstrate::PagedSubstrate(hw::Machine& machine, SubstrateConfig config,
                               hw::Range frames,
                               std::optional<PageCipher::Spec> cipher,
                               Cycles map_cost_per_page)
    : IsolationSubstrate(machine, std::move(config)),
      frames_(frames),
      map_cost_per_page_(map_cost_per_page) {
  if (cipher) cipher_.emplace(machine, *cipher);
}

hw::AccessContext PagedSubstrate::domain_context(DomainId,
                                                 const DomainSpec&) const {
  return {};
}

Result<PagedSubstrate::Spaces> PagedSubstrate::check_access(
    DomainId actor, DomainId target) const {
  if (actor != target) return Errc::access_denied;
  auto space = space_of(actor);
  if (!space) return space.error();
  return Spaces{*space, *space};
}

PagedSubstrate::AccessCharge PagedSubstrate::access_charge(const Space&,
                                                           bool) const {
  return {.per_16_bytes = machine_.costs().memcpy_per_16_bytes};
}

Status PagedSubstrate::attach_memory(DomainId id, DomainRecord& record) {
  Space space;
  space.ctx = domain_context(id, record.spec);
  space.encrypted = cipher_.has_value() && space.tagged();
  space.frames.reserve(record.spec.memory_pages);
  for (std::size_t i = 0; i < record.spec.memory_pages; ++i) {
    auto frame = frames_.allocate(1);
    if (!frame) {
      free_frames(space.frames);
      return frame.error();
    }
    space.frames.push_back(*frame);
    if (space.tagged()) {
      if (const Status s =
              machine_.memory().set_page_owner(*frame, space.ctx.owner_tag);
          !s.ok()) {
        free_frames(space.frames);
        return s;
      }
    }
    machine_.advance(map_cost_per_page_);
  }

  // Load the image into the first pages. Plain pages take only the image
  // bytes; encrypted pages are sealed whole, since the MAC covers the page.
  BytesView code = record.spec.image.code;
  Bytes page(space.encrypted ? hw::kPageSize : 0);
  for (const hw::PhysAddr frame : space.frames) {
    const std::size_t n = std::min(code.size(), hw::kPageSize);
    if (space.encrypted) {
      std::fill(std::copy_n(code.begin(), n, page.begin()), page.end(), 0);
      machine_.memory().load(frame, cipher_->seal(frame, page));
    } else if (n != 0) {
      machine_.memory().load(frame, code.subspan(0, n));
    }
    code = code.subspan(n);
  }
  spaces_.emplace(id, std::move(space));
  return Status::success();
}

void PagedSubstrate::release_memory(DomainId id, DomainRecord& record) {
  (void)record;
  const auto it = spaces_.find(id);
  if (it == spaces_.end()) return;
  free_frames(it->second.frames);
  spaces_.erase(it);
}

void PagedSubstrate::free_frames(const std::vector<hw::PhysAddr>& frames) {
  for (const hw::PhysAddr frame : frames) {
    (void)machine_.memory().set_page_owner(frame, 0);
    if (cipher_) cipher_->forget(frame);
    // The next domain on this frame must not read the old one's bytes.
    (void)machine_.memory().discard(frame, 1);
    (void)frames_.free(frame, 1);
  }
}

const PagedSubstrate::Space* PagedSubstrate::find_space(DomainId id) const {
  const auto it = spaces_.find(id);
  return it == spaces_.end() ? nullptr : &it->second;
}

Result<const PagedSubstrate::Space*> PagedSubstrate::space_of(
    DomainId id) const {
  // A corpse has no space (kill released its memory) but still has a record:
  // callers must see domain_dead, not a claim the domain never existed.
  if (const Space* space = find_space(id)) return space;
  return is_dead(id) ? Errc::domain_dead : Errc::no_such_domain;
}

Result<PagedSubstrate::Spaces> PagedSubstrate::spaces_of(
    DomainId actor, DomainId target) const {
  auto from = space_of(actor);
  if (!from) return from.error();
  auto to = space_of(target);
  if (!to) return to.error();
  return Spaces{*from, *to};
}

Result<std::vector<hw::PhysAddr>> PagedSubstrate::domain_frames(
    DomainId domain) const {
  auto space = space_of(domain);
  if (!space) return space.error();
  return (*space)->frames;
}

bool PagedSubstrate::in_bounds(const Space& space, std::uint64_t offset,
                               std::size_t len) {
  return offset + len <= space.frames.size() * hw::kPageSize &&
         offset + len >= offset;
}

std::pair<std::size_t, std::size_t> PagedSubstrate::page_span(
    std::uint64_t offset, std::size_t len) {
  return {offset / hw::kPageSize, (offset + len - 1) / hw::kPageSize};
}

template <typename Fn>
Status PagedSubstrate::walk(const Space& space, std::uint64_t offset,
                            std::size_t len, Fn&& fn) {
  if (!in_bounds(space, offset, len)) return Errc::access_denied;
  for (std::size_t done = 0; done < len;) {
    const std::uint64_t at = offset + done;
    const std::size_t in_page = at % hw::kPageSize;
    const std::size_t n = std::min(len - done, hw::kPageSize - in_page);
    if (const Status s = fn(space.frames[at / hw::kPageSize], in_page, done, n);
        !s.ok())
      return s;
    done += n;
  }
  return Status::success();
}

Result<Bytes> PagedSubstrate::read_span(const Space& space,
                                        const hw::AccessContext& ctx,
                                        std::uint64_t offset,
                                        std::size_t len) const {
  const hw::PhysicalMemory& memory = machine_.memory();
  Bytes out(len);
  Bytes stored;
  const Status s = walk(
      space, offset, len,
      [&](hw::PhysAddr frame, std::size_t in_page, std::size_t done,
          std::size_t n) -> Status {
        if (!space.encrypted) {
          if (const Status r = memory.read(ctx, frame + in_page, n, stored);
              !r.ok())
            return r;
          std::copy_n(stored.begin(), n, out.begin() + done);
          return Status::success();
        }
        if (const Status r = memory.read(ctx, frame, hw::kPageSize, stored);
            !r.ok())
          return r;
        auto plain = cipher_->open(frame, stored);
        if (!plain) return plain.error();
        std::copy_n(plain->begin() + in_page, n, out.begin() + done);
        return Status::success();
      });
  if (!s.ok()) return s.error();
  return out;
}

Status PagedSubstrate::write_span(const Space& space,
                                  const hw::AccessContext& ctx,
                                  std::uint64_t offset, BytesView data) {
  hw::PhysicalMemory& memory = machine_.memory();
  Bytes stored;
  return walk(space, offset, data.size(),
              [&](hw::PhysAddr frame, std::size_t in_page, std::size_t done,
                  std::size_t n) -> Status {
                const BytesView part = data.subspan(done, n);
                if (!space.encrypted)
                  return memory.write(ctx, frame + in_page, part);
                // Read-modify-write: the engine works on whole pages.
                if (const Status r =
                        memory.read(ctx, frame, hw::kPageSize, stored);
                    !r.ok())
                  return r;
                auto plain = cipher_->open(frame, stored);
                if (!plain) return plain.error();
                std::copy(part.begin(), part.end(), plain->begin() + in_page);
                return memory.write(ctx, frame, cipher_->seal(frame, *plain));
              });
}

Result<PagedSubstrate::Access> PagedSubstrate::admit(DomainId actor,
                                                     DomainId target,
                                                     bool write,
                                                     std::uint64_t offset,
                                                     std::size_t len) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  auto spaces = check_access(actor, target);
  if (!spaces) return spaces.error();
  const auto [from, to] = *spaces;
  const AccessCharge charge = access_charge(*from, write);
  if (charge.before_bounds)
    machine_.charge(charge.fixed, charge.per_16_bytes, len);
  if (!in_bounds(*to, offset, len)) return Errc::access_denied;  // page fault
  if (!charge.before_bounds)
    machine_.charge(charge.fixed, charge.per_16_bytes, len);
  return Access{to, from->ctx};
}

Result<Bytes> PagedSubstrate::read_memory(DomainId actor, DomainId target,
                                          std::uint64_t offset,
                                          std::size_t len) {
  auto access = admit(actor, target, /*write=*/false, offset, len);
  if (!access) return access.error();
  return read_span(*access->target, access->ctx, offset, len);
}

Status PagedSubstrate::write_memory(DomainId actor, DomainId target,
                                    std::uint64_t offset, BytesView data) {
  auto access = admit(actor, target, /*write=*/true, offset, data.size());
  if (!access) return access.error();
  return write_span(*access->target, access->ctx, offset, data);
}

}  // namespace lateral::substrate
