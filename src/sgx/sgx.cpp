#include "sgx/sgx.h"

#include "crypto/hmac.h"
#include "util/wire.h"

namespace lateral::sgx {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

Sgx::Sgx(hw::Machine& machine, substrate::SubstrateConfig config)
    : IsolationSubstrate(machine, std::move(config)),
      frames_(machine.dram()),
      // MEE keys derive from the device fuses; they never leave the die.
      mee_(crypto::hkdf(to_bytes("sgx.mee.v1"), machine.fuses().device_key(),
                        to_bytes("enc+mac"), 48)) {
  info_.name = "sgx";
  info_.features = Feature::spatial_isolation | Feature::concurrent_domains |
                   Feature::legacy_hosting | Feature::memory_encryption |
                   Feature::sealed_storage | Feature::attestation |
                   Feature::late_launch;
  // "An SGX-CPU therefore adds the equivalent of likely many thousands of
  // lines of code to the TCB" (§II-C) — microcode + architectural enclaves.
  info_.tcb_loc = 20'000;
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software,
                           AttackerModel::physical_bus};
}

const substrate::SubstrateInfo& Sgx::info() const { return info_; }

Status Sgx::admit_domain(const substrate::DomainSpec& spec) const {
  if (spec.memory_pages == 0) return Errc::invalid_argument;
  return Status::success();
}

Bytes Sgx::mee_encrypt(hw::PhysAddr page_addr, std::uint64_t version,
                       BytesView plaintext) const {
  // Nonce binds page address and version so ciphertext cannot be replayed
  // across locations or points in time.
  const std::uint64_t nonce = page_addr ^ (version << 20);
  return crypto::aes128_ctr(mee_.cipher, nonce, plaintext);
}

Bytes Sgx::mee_decrypt(hw::PhysAddr page_addr, std::uint64_t version,
                       BytesView ciphertext) const {
  return mee_encrypt(page_addr, version, ciphertext);  // CTR is symmetric
}

crypto::Digest Sgx::mee_mac(hw::PhysAddr page_addr, std::uint64_t version,
                            BytesView ciphertext) const {
  crypto::Hmac mac = mee_.mac;
  std::uint8_t header[16];
  wire::store_be64(header, page_addr);
  wire::store_be64(header + 8, version);
  mac.update(BytesView(header, sizeof(header)));
  mac.update(ciphertext);
  return mac.finish();
}

Status Sgx::attach_memory(DomainId id, DomainRecord& record) {
  EnclaveSpace space;
  space.enclave = record.spec.kind == DomainKind::trusted_component;
  space.frames.reserve(record.spec.memory_pages);
  const std::uint64_t tag = kEpcTagBase + id;
  for (std::size_t i = 0; i < record.spec.memory_pages; ++i) {
    auto frame = frames_.allocate(1);
    if (!frame) {
      for (const hw::PhysAddr f : space.frames) {
        (void)machine_.memory().set_page_owner(f, 0);
        (void)frames_.free(f, 1);
      }
      return frame.error();
    }
    if (space.enclave) {
      if (const Status s = machine_.memory().set_page_owner(*frame, tag);
          !s.ok())
        return s;
    }
    space.frames.push_back(*frame);
  }
  space.page_versions.assign(space.frames.size(), 0);
  space.page_macs.resize(space.frames.size());

  // EADD: copy + measure the image page by page, encrypting EPC content.
  Bytes code(record.spec.image.code);
  code.resize(space.frames.size() * hw::kPageSize, 0);
  for (std::size_t i = 0; i < space.frames.size(); ++i) {
    const BytesView page(code.data() + i * hw::kPageSize, hw::kPageSize);
    if (space.enclave) {
      space.page_versions[i] = 1;
      const Bytes ct = mee_encrypt(space.frames[i], 1, page);
      space.page_macs[i] = mee_mac(space.frames[i], 1, ct);
      machine_.memory().load(space.frames[i], ct);
      machine_.charge(0, machine_.costs().epc_crypt_per_16_bytes,
                      hw::kPageSize);
    } else {
      machine_.memory().load(space.frames[i], page);
    }
  }
  spaces_.emplace(id, std::move(space));
  return Status::success();
}

void Sgx::release_memory(DomainId id, DomainRecord& record) {
  (void)record;
  const auto it = spaces_.find(id);
  if (it == spaces_.end()) return;
  for (const hw::PhysAddr frame : it->second.frames) {
    (void)machine_.memory().set_page_owner(frame, 0);
    (void)frames_.free(frame, 1);
  }
  spaces_.erase(it);
}

Result<const Sgx::EnclaveSpace*> Sgx::space_of(DomainId id) const {
  const auto it = spaces_.find(id);
  // A corpse has no space (kill released its memory) but still has a record:
  // callers must see domain_dead, not a claim the domain never existed.
  if (it == spaces_.end())
    return is_dead(id) ? Errc::domain_dead : Errc::no_such_domain;
  return &it->second;
}

Result<Sgx::EnclaveSpace*> Sgx::space_of(DomainId id) {
  const auto it = spaces_.find(id);
  // A corpse has no space (kill released its memory) but still has a record:
  // callers must see domain_dead, not a claim the domain never existed.
  if (it == spaces_.end())
    return is_dead(id) ? Errc::domain_dead : Errc::no_such_domain;
  return &it->second;
}

Result<Bytes> Sgx::read_page(const EnclaveSpace& space,
                             std::size_t page) const {
  Bytes raw;
  if (const Status s = machine_.memory().raw_read(space.frames[page],
                                                  hw::kPageSize, raw);
      !s.ok())
    return s.error();
  if (!space.enclave) return raw;

  // MEE read path: verify integrity + freshness, then decrypt.
  const crypto::Digest expected =
      mee_mac(space.frames[page], space.page_versions[page], raw);
  if (!ct_equal(crypto::digest_view(expected),
                crypto::digest_view(space.page_macs[page])))
    return Errc::tamper_detected;
  machine_.charge(0, machine_.costs().epc_crypt_per_16_bytes, hw::kPageSize);
  return mee_decrypt(space.frames[page], space.page_versions[page], raw);
}

Status Sgx::write_page(EnclaveSpace& space, std::size_t page,
                       BytesView content) {
  if (!space.enclave)
    return machine_.memory().raw_write(space.frames[page], content);
  const std::uint64_t version = ++space.page_versions[page];
  const Bytes ct = mee_encrypt(space.frames[page], version, content);
  space.page_macs[page] = mee_mac(space.frames[page], version, ct);
  machine_.charge(0, machine_.costs().epc_crypt_per_16_bytes, hw::kPageSize);
  return machine_.memory().raw_write(space.frames[page], ct);
}

Result<Bytes> Sgx::read_memory(DomainId actor, DomainId target,
                               std::uint64_t offset, std::size_t len) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  auto actor_space = space_of(actor);
  if (!actor_space) return actor_space.error();
  auto target_space = space_of(target);
  if (!target_space) return target_space.error();

  if (actor != target) {
    // An enclave may read its untrusted host's memory; nothing may read an
    // enclave's memory from outside.
    if ((*target_space)->enclave) return Errc::access_denied;
    if (!(*actor_space)->enclave) return Errc::access_denied;
  }
  const EnclaveSpace& space = **target_space;
  if (offset + len > space.frames.size() * hw::kPageSize ||
      offset + len < offset)
    return Errc::access_denied;

  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, len);
  Bytes out;
  out.reserve(len);
  while (len > 0) {
    const std::size_t page = offset / hw::kPageSize;
    const std::size_t in_page = offset % hw::kPageSize;
    const std::size_t n = std::min(len, hw::kPageSize - in_page);
    auto content = read_page(space, page);
    if (!content) return content.error();
    out.insert(out.end(), content->begin() + static_cast<long>(in_page),
               content->begin() + static_cast<long>(in_page + n));
    offset += n;
    len -= n;
  }
  return out;
}

Status Sgx::write_memory(DomainId actor, DomainId target, std::uint64_t offset,
                         BytesView data) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  auto actor_space = space_of(actor);
  if (!actor_space) return actor_space.error();
  auto target_space = space_of(target);
  if (!target_space) return target_space.error();
  if (actor != target) {
    if ((*target_space)->enclave) return Errc::access_denied;
    if (!(*actor_space)->enclave) return Errc::access_denied;
  }
  EnclaveSpace& space = **target_space;
  if (offset + data.size() > space.frames.size() * hw::kPageSize ||
      offset + data.size() < offset)
    return Errc::access_denied;

  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, data.size());
  while (!data.empty()) {
    const std::size_t page = offset / hw::kPageSize;
    const std::size_t in_page = offset % hw::kPageSize;
    const std::size_t n = std::min(data.size(), hw::kPageSize - in_page);
    // Read-modify-write at page granularity (the MEE works on full lines).
    auto content = read_page(space, page);
    if (!content) return content.error();
    std::copy(data.begin(), data.begin() + static_cast<long>(n),
              content->begin() + static_cast<long>(in_page));
    if (const Status s = write_page(space, page, *content); !s.ok()) return s;
    data = data.subspan(n);
    offset += n;
  }
  return Status::success();
}

namespace {

/// Report key for a target measurement: derivable only on this CPU (fuse
/// key) and released only to the enclave with that measurement.
Bytes report_key(const crypto::Aes128Key& device_key,
                 const crypto::Digest& target_measurement) {
  Bytes fuse(device_key.begin(), device_key.end());
  return crypto::hkdf(crypto::digest_bytes(target_measurement), fuse,
                      to_bytes("sgx.reportkey.v1"), 32);
}

crypto::Digest report_mac(BytesView key, const crypto::Digest& source,
                          const crypto::Digest& target, BytesView user_data) {
  crypto::Hmac mac(key);
  mac.update(crypto::digest_view(source));
  mac.update(crypto::digest_view(target));
  mac.update(user_data);
  return mac.finish();
}

}  // namespace

Result<Sgx::LocalReport> Sgx::ereport(DomainId source, DomainId target,
                                      BytesView user_data) {
  auto source_space = space_of(source);
  if (!source_space) return source_space.error();
  if (!(*source_space)->enclave) return Errc::access_denied;
  auto target_space = space_of(target);
  if (!target_space) return target_space.error();
  if (!(*target_space)->enclave) return Errc::invalid_argument;

  const DomainRecord* source_record = find_domain(source);
  const DomainRecord* target_record = find_domain(target);
  machine_.advance(machine_.costs().sgx_ereport);

  LocalReport report;
  report.source_measurement = source_record->measurement;
  report.target_measurement = target_record->measurement;
  report.user_data.assign(user_data.begin(), user_data.end());
  report.mac = report_mac(
      report_key(machine_.fuses().device_key(), report.target_measurement),
      report.source_measurement, report.target_measurement, user_data);
  return report;
}

Status Sgx::verify_report(DomainId verifier, const LocalReport& report) {
  auto space = space_of(verifier);
  if (!space) return space.error();
  if (!(*space)->enclave) return Errc::access_denied;
  const DomainRecord* record = find_domain(verifier);
  machine_.charge(0, machine_.costs().sw_sha_per_64_bytes, 128);

  // The CPU releases only the verifier's OWN report key: a report
  // addressed to someone else cannot be checked here (and one addressed
  // here but MACed for someone else fails).
  if (!ct_equal(crypto::digest_view(report.target_measurement),
                crypto::digest_view(record->measurement)))
    return Errc::verification_failed;
  const crypto::Digest expected = report_mac(
      report_key(machine_.fuses().device_key(), record->measurement),
      report.source_measurement, report.target_measurement, report.user_data);
  if (!ct_equal(crypto::digest_view(expected),
                crypto::digest_view(report.mac)))
    return Errc::verification_failed;
  return Status::success();
}

Result<substrate::Quote> Sgx::attest(DomainId actor, BytesView user_data) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->enclave) return Errc::access_denied;
  // EREPORT to the quoting enclave plus two enclave crossings.
  machine_.advance(machine_.costs().sgx_ereport +
                   2 * (machine_.costs().sgx_eenter + machine_.costs().sgx_eexit));
  return IsolationSubstrate::attest(actor, user_data);
}

Result<std::vector<hw::PhysAddr>> Sgx::domain_frames(DomainId domain) const {
  auto space = space_of(domain);
  if (!space) return space.error();
  return (*space)->frames;
}

Result<Bytes> Sgx::side_channel_leak(DomainId enclave, std::uint64_t offset,
                                     std::size_t len,
                                     double leak_fraction) const {
  auto space = space_of(enclave);
  if (!space) return space.error();
  if (!(*space)->enclave) return Errc::invalid_argument;
  if (leak_fraction < 0.0 || leak_fraction > 1.0)
    return Errc::invalid_argument;
  if (offset + len > (*space)->frames.size() * hw::kPageSize)
    return Errc::invalid_argument;

  // A cache-timing attacker recovers bytes at a deterministic stride; the
  // rest stay unknown. This bypasses the EPC check entirely — that is the
  // point of the paper's "hardware is leaky" argument.
  Bytes out(len, 0);
  if (leak_fraction == 0.0) return out;
  const std::size_t stride =
      std::max<std::size_t>(1, static_cast<std::size_t>(1.0 / leak_fraction));
  for (std::size_t i = 0; i < len; i += stride) {
    const std::size_t page = (offset + i) / hw::kPageSize;
    const std::size_t in_page = (offset + i) % hw::kPageSize;
    auto content = read_page(**space, page);
    if (!content) return content.error();
    out[i] = (*content)[in_page];
  }
  return out;
}

Cycles Sgx::message_cost(std::size_t len) const {
  // One enclave crossing per message direction.
  return machine_.costs().sgx_eenter + machine_.costs().sgx_eexit +
         machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
}

substrate::ConcurrencyLaw Sgx::concurrency_law() const {
  // EENTER/EEXIT update shared enclave bookkeeping (EPCM/TCS state walks,
  // the measured-launch serialization the SGX microbenchmark literature
  // reports); the data-dependent EPC crypt work runs on the entering
  // core's MEE pipeline. So the fixed transition serializes, the per-byte
  // share scales.
  return substrate::ConcurrencyLaw::transition_serialized;
}

Cycles Sgx::attest_cost() const { return machine_.costs().sgx_ereport; }

Cycles Sgx::region_map_cost(std::size_t pages) const {
  // One ECALL round trip to agree on the untrusted buffer, plus host-side
  // page-table setup. Data in the region is deliberately outside the EPC:
  // the enclave treats it as untrusted input, and in exchange accesses are
  // plain loads — no MEE, no crossing.
  return machine_.costs().sgx_eenter + machine_.costs().sgx_eexit +
         machine_.costs().page_table_update * pages;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "sgx", [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Sgx>(machine, config);
      });
}

}  // namespace lateral::sgx
