// Paged domain memory — the one implementation behind the six frame-list
// backends (microkernel, tpm, ftpm, trustzone, sep, sgx).
//
// Each of those technologies backs a domain with a list of 4 KiB frames and
// differs from the others only in who may touch whom, which bus context
// an access carries, what it costs, and whether pages are encrypted on
// their way to DRAM. PagedSubstrate owns everything else once: frame
// allocation with rollback, the image load, the release path that scrubs
// what it frees, the space lookup, the bounds-checked page walk and the
// per-page memory-encryption engine (PageCipher). A backend states its
// differences as constructor data and three short hooks:
//
//   domain_context   the bus context a domain's accesses carry; a nonzero
//                    owner tag also tags the domain's pages (TZASC, EPC,
//                    SEP) and, with a cipher, routes them through it;
//   check_access     the access rule, including the order in which unknown
//                    ids and foreign accesses are refused;
//   access_charge    what an access by a given actor costs: one price
//                    for a read and a write alike, charged only once the
//                    access has passed the rule and the bounds check.
//
// CHERI and the NoC keep their own contiguous memory (capabilities, tiles)
// and derive from IsolationSubstrate directly.
#pragma once

#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/aes.h"
#include "hw/machine.h"
#include "substrate/substrate.h"

namespace lateral::substrate {

/// Per-page AES-128-CTR + HMAC-SHA256 memory encryption: SGX's MEE,
/// TrustZone's software MEE (§II-D) and the SEP's inline engine. Keys
/// derive from the device fuses and never leave the die; so do the per-page
/// version counters (freshness) and MACs (integrity), our stand-in for an
/// integrity tree. The nonce binds page address and version, so ciphertext
/// can be replayed neither across locations nor across time.
class PageCipher {
 public:
  struct Spec {
    std::string_view label;        // HKDF salt, e.g. "sgx.mee.v1"
    std::uint64_t nonce_tag = 0;   // XORed into every page nonce
    Cycles per_16_bytes = 0;       // engine cost per 16-byte block
  };

  PageCipher(hw::Machine& machine, const Spec& spec);

  /// Encrypt-then-MAC `plaintext` (one whole page) as the page's next
  /// version and charge the engine; returns the ciphertext to store.
  Bytes seal(hw::PhysAddr page, BytesView plaintext);
  /// Verify-then-decrypt the stored page: Errc::tamper_detected (and no
  /// charge) when the MAC does not match, else charge and decrypt.
  Result<Bytes> open(hw::PhysAddr page, BytesView ciphertext) const;
  /// A released page's version and MAC are gone; its next seal is version 1.
  void forget(hw::PhysAddr page) { pages_.erase(page); }

 private:
  struct PageSeal {
    std::uint64_t version = 0;
    crypto::Digest mac{};
  };

  std::uint64_t nonce(hw::PhysAddr page, std::uint64_t version) const;
  crypto::Digest mac(hw::PhysAddr page, std::uint64_t version,
                     BytesView ciphertext) const;

  hw::Machine& machine_;
  crypto::EncMacKeys keys_;
  std::uint64_t nonce_tag_;
  Cycles per_16_bytes_;
  std::unordered_map<hw::PhysAddr, PageSeal> pages_;
};

class PagedSubstrate : public IsolationSubstrate {
 public:
  Result<Bytes> read_memory(DomainId actor, DomainId target,
                            std::uint64_t offset, std::size_t len) final;
  Status write_memory(DomainId actor, DomainId target, std::uint64_t offset,
                      BytesView data) final;

  /// Physical frames backing a domain (what a physical attacker probes):
  /// domain_dead for a corpse, no_such_domain for an unknown id.
  Result<std::vector<hw::PhysAddr>> domain_frames(DomainId domain) const;

 protected:
  /// One domain's memory.
  struct Space {
    /// What this domain's accesses carry; a nonzero owner tag is also the
    /// tag on every one of its pages.
    hw::AccessContext ctx;
    std::vector<hw::PhysAddr> frames;  // virtual page i -> frames[i]
    bool encrypted = false;            // pages pass through the cipher
    /// Runs on the protected side: secure world, enclave, SEP.
    bool tagged() const { return ctx.owner_tag != 0; }
  };
  /// The actor's and the target's space, as check_access resolved them.
  using Spaces = std::pair<const Space*, const Space*>;

  /// What read_memory / write_memory charge for an access by `actor`.
  struct AccessCharge {
    Cycles fixed = 0;
    Cycles per_16_bytes = 0;
  };

  /// Frames come from `frames`, one page at a time, each charged
  /// `map_cost_per_page` (page-table writes). With a `cipher`, tagged
  /// domains' pages are encrypted in memory.
  PagedSubstrate(hw::Machine& machine, SubstrateConfig config,
                 hw::Range frames,
                 std::optional<PageCipher::Spec> cipher = std::nullopt,
                 Cycles map_cost_per_page = 0);

  // Backend hooks -----------------------------------------------------------
  /// Default: an untagged, non-secure context.
  virtual hw::AccessContext domain_context(DomainId id,
                                           const DomainSpec& spec) const;
  /// Called after the corpse check; refuses a foreign access the rule
  /// forbids and an unknown actor or target (space_of / spaces_of), in the
  /// technology's own order, and returns the two spaces it looked up.
  /// Default: a domain touches only its own memory; a foreign access is
  /// refused before either id is looked up.
  virtual Result<Spaces> check_access(DomainId actor, DomainId target) const;
  /// The price of a read or a write by `actor`, charged after the bounds
  /// check. Default: a memcpy.
  virtual AccessCharge access_charge(const Space& actor) const;

  /// Allocate, tag and load; backends with structural state extend these
  /// and call them first (attach) / anywhere (release).
  Status attach_memory(DomainId id, DomainRecord& record) override;
  void release_memory(DomainId id, DomainRecord& record) override;

  /// The live space of `id`, or nullptr.
  const Space* find_space(DomainId id) const;
  /// domain_dead for a corpse, no_such_domain for an unknown id.
  Result<const Space*> space_of(DomainId id) const;
  /// space_of(actor), then space_of(target): for rules that look both up
  /// before judging a foreign access.
  Result<Spaces> spaces_of(DomainId actor, DomainId target) const;
  const std::map<DomainId, Space>& spaces() const { return spaces_; }

  /// Whether [offset, offset + len) lies inside the space (no wraparound).
  static bool in_bounds(const Space& space, std::uint64_t offset,
                        std::size_t len);
  /// Index of the first and last page [offset, offset + len) touches;
  /// `len` must be nonzero.
  static std::pair<std::size_t, std::size_t> page_span(std::uint64_t offset,
                                                       std::size_t len);
  /// Read / write [offset, offset + len) of `space` with bus context `ctx`
  /// (the NS bit and owner tags are checked on every page):
  /// the one page walk. Plain pages are copied directly; encrypted pages
  /// are opened (and, for a write, resealed) whole. No access charge;
  /// access_denied when the range is out of bounds.
  Result<Bytes> read_span(const Space& space, const hw::AccessContext& ctx,
                          std::uint64_t offset, std::size_t len) const;
  Status write_span(const Space& space, const hw::AccessContext& ctx,
                    std::uint64_t offset, BytesView data);

 private:
  /// Visit [offset, offset + len) page by page: fn(frame, in_page, done, n)
  /// with `n` bytes at `in_page` of `frame` being bytes [done, done + n).
  template <typename Fn>
  static Status walk(const Space& space, std::uint64_t offset,
                     std::size_t len, Fn&& fn);
  struct Access {
    const Space* target = nullptr;
    hw::AccessContext ctx;  // the actor's
  };
  /// The corpse check, the access rule, the lookups, the bounds check and
  /// the charge every read_memory / write_memory passes.
  Result<Access> admit(DomainId actor, DomainId target, std::uint64_t offset,
                       std::size_t len);
  /// Scrub and free `frames` (drop tags, cipher state and stored bytes).
  void free_frames(const std::vector<hw::PhysAddr>& frames);

  hw::FrameAllocator frames_;
  std::optional<PageCipher> cipher_;
  Cycles map_cost_per_page_;
  std::map<DomainId, Space> spaces_;
};

}  // namespace lateral::substrate
