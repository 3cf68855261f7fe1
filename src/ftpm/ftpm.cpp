#include "ftpm/ftpm.h"

namespace lateral::ftpm {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;
using tpm::kNumPcrs;

Ftpm::Ftpm(hw::Machine& machine, substrate::SubstrateConfig config)
    : IsolationSubstrate(machine, std::move(config)), frames_(machine.dram()) {
  info_.name = "ftpm";
  info_.features = Feature::spatial_isolation | Feature::concurrent_domains |
                   Feature::sealed_storage | Feature::attestation;
  // The fTPM firmware plus the TrustZone monitor and secure-world runtime
  // it inherits as TCB.
  info_.tcb_loc = 30'000;
  // Software in secure-world DRAM: defends software attackers only —
  // the central difference from the discrete chip.
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software};

  // CRTM: the secure boot ROM measures itself before handing over.
  (void)pcrs_.extend(0, machine_.boot_rom().measurement());
}

const substrate::SubstrateInfo& Ftpm::info() const { return info_; }

Cycles Ftpm::command_cost() const {
  // A command = one SMC round trip plus secure-world dispatch; the fTPM
  // paper's headline result is exactly this gap to the LPC-bus chip.
  return 2 * machine_.costs().smc_world_switch +
         machine_.costs().tz_secure_os_dispatch;
}

Status Ftpm::admit_domain(const substrate::DomainSpec& spec) const {
  if (spec.kind == DomainKind::legacy) return Errc::not_supported;
  if (spec.memory_pages == 0 || spec.memory_pages > 16) return Errc::exhausted;
  return Status::success();
}

Status Ftpm::attach_memory(DomainId id, DomainRecord& record) {
  SecureSpace space;
  space.frames.reserve(record.spec.memory_pages);
  for (std::size_t i = 0; i < record.spec.memory_pages; ++i) {
    auto frame = frames_.allocate(1);
    if (!frame) {
      for (const hw::PhysAddr f : space.frames) {
        (void)machine_.memory().set_page_owner(f, 0);
        (void)frames_.free(f, 1);
      }
      return frame.error();
    }
    if (const Status s = machine_.memory().set_page_owner(*frame, kSecureTag);
        !s.ok())
      return s;
    space.frames.push_back(*frame);
  }
  BytesView code = record.spec.image.code;
  for (std::size_t i = 0; i < space.frames.size() && !code.empty(); ++i) {
    const std::size_t n = std::min<std::size_t>(hw::kPageSize, code.size());
    machine_.memory().load(space.frames[i], code.subspan(0, n));
    code = code.subspan(n);
  }
  spaces_.emplace(id, std::move(space));
  return Status::success();
}

void Ftpm::release_memory(DomainId id, DomainRecord& record) {
  (void)record;
  const auto it = spaces_.find(id);
  if (it == spaces_.end()) return;
  for (const hw::PhysAddr frame : it->second.frames) {
    (void)machine_.memory().set_page_owner(frame, 0);
    (void)frames_.free(frame, 1);
  }
  spaces_.erase(it);
}

Result<Bytes> Ftpm::read_memory(DomainId actor, DomainId target,
                                std::uint64_t offset, std::size_t len) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  if (actor != target) return Errc::access_denied;
  const auto it = spaces_.find(target);
  if (it == spaces_.end()) return Errc::no_such_domain;
  const SecureSpace& space = it->second;
  if (offset + len > space.frames.size() * hw::kPageSize ||
      offset + len < offset)
    return Errc::access_denied;

  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, len);
  const hw::AccessContext ctx{hw::SecurityState::secure, kSecureTag};
  Bytes out;
  out.reserve(len);
  while (len > 0) {
    const std::size_t page = offset / hw::kPageSize;
    const std::size_t in_page = offset % hw::kPageSize;
    const std::size_t n = std::min(len, hw::kPageSize - in_page);
    Bytes chunk;
    if (const Status s = machine_.memory().read(
            ctx, space.frames[page] + in_page, n, chunk);
        !s.ok())
      return s.error();
    out.insert(out.end(), chunk.begin(), chunk.end());
    offset += n;
    len -= n;
  }
  return out;
}

Status Ftpm::write_memory(DomainId actor, DomainId target,
                          std::uint64_t offset, BytesView data) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  if (actor != target) return Errc::access_denied;
  const auto it = spaces_.find(target);
  if (it == spaces_.end()) return Errc::no_such_domain;
  const SecureSpace& space = it->second;
  if (offset + data.size() > space.frames.size() * hw::kPageSize ||
      offset + data.size() < offset)
    return Errc::access_denied;

  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, data.size());
  const hw::AccessContext ctx{hw::SecurityState::secure, kSecureTag};
  std::uint64_t cursor = offset;
  while (!data.empty()) {
    const std::size_t page = cursor / hw::kPageSize;
    const std::size_t in_page = cursor % hw::kPageSize;
    const std::size_t n = std::min(data.size(), hw::kPageSize - in_page);
    if (const Status s = machine_.memory().write(
            ctx, space.frames[page] + in_page, data.subspan(0, n));
        !s.ok())
      return s;
    data = data.subspan(n);
    cursor += n;
  }
  return Status::success();
}

Status Ftpm::pcr_extend(std::size_t index, const crypto::Digest& digest) {
  machine_.advance(command_cost());
  return pcrs_.extend(index, digest);
}

Result<crypto::Digest> Ftpm::pcr_read(std::size_t index) const {
  return pcrs_.read(index);
}

crypto::Digest Ftpm::pcr_composite(
    const std::vector<std::size_t>& selection) const {
  return pcrs_.composite(selection);
}

Result<substrate::Quote> Ftpm::quote_pcrs(
    const std::vector<std::size_t>& selection, BytesView nonce) {
  if (const Status s = tpm::PcrBank::check_selection(selection); !s.ok())
    return s.error();
  machine_.advance(command_cost() + machine_.costs().sw_rsa_sign);
  return substrate::make_quote("ftpm", pcrs_.composite(selection), nonce,
                               machine_.fuses().endorsement_key(),
                               machine_.fuses().endorsement_cert());
}

Result<Bytes> Ftpm::seal_to_pcrs(const std::vector<std::size_t>& selection,
                                 BytesView plaintext) {
  if (const Status s = tpm::PcrBank::check_selection(selection); !s.ok())
    return s.error();
  machine_.advance(command_cost());

  const crypto::Aead aead = sealing_aead(pcrs_.composite(selection));
  return tpm::encode_pcr_sealed(selection,
                                aead.seal(seal_pcr_nonce_++, {}, plaintext));
}

Result<Bytes> Ftpm::unseal_pcrs(BytesView sealed) {
  machine_.advance(command_cost());
  auto parsed = tpm::decode_pcr_sealed(sealed);
  if (!parsed) return parsed.error();
  const crypto::Aead aead = sealing_aead(pcrs_.composite(parsed->selection));
  auto plain = aead.open(parsed->box, {});
  if (!plain) return Errc::verification_failed;
  return std::move(*plain);
}

Status Ftpm::nv_define(const std::string& name) {
  machine_.advance(command_cost());
  return nv_.define(name);
}

Result<std::uint64_t> Ftpm::nv_read(const std::string& name) {
  machine_.advance(command_cost());
  return nv_.read(name);
}

Result<std::uint64_t> Ftpm::nv_increment(const std::string& name) {
  machine_.advance(command_cost());
  return nv_.increment(name);
}

Cycles Ftpm::message_cost(std::size_t len) const {
  return command_cost() / 2 +
         machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
}

substrate::ConcurrencyLaw Ftpm::concurrency_law() const {
  // The fTPM is firmware inside the TrustZone secure world; commands
  // inherit the secure monitor funnel on top of their own single-session
  // command loop.
  return substrate::ConcurrencyLaw::monitor_serialized;
}

Cycles Ftpm::attest_cost() const { return command_cost(); }

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "ftpm",
      [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Ftpm>(machine, config);
      });
}

}  // namespace lateral::ftpm
