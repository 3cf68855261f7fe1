#include "sgx/sgx.h"

#include "crypto/hmac.h"

namespace lateral::sgx {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

Sgx::Sgx(hw::Machine& machine, substrate::SubstrateConfig config)
    : PagedSubstrate(
          machine, std::move(config), machine.dram(),
          substrate::PageCipher::Spec{
              .label = "sgx.mee.v1",
              .per_16_bytes = machine.costs().epc_crypt_per_16_bytes}) {
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

hw::AccessContext Sgx::domain_context(DomainId id,
                                      const substrate::DomainSpec& spec) const {
  if (spec.kind != DomainKind::trusted_component) return {};  // the host
  return {hw::SecurityState::non_secure, kEpcTagBase + id};
}

Result<Sgx::Spaces> Sgx::check_access(DomainId actor, DomainId target) const {
  auto spaces = spaces_of(actor, target);
  if (!spaces) return spaces.error();
  const auto [from, to] = *spaces;
  // An enclave may touch its untrusted host's memory; nothing may touch an
  // enclave's memory from outside.
  if (actor != target && (to->tagged() || !from->tagged()))
    return Errc::access_denied;
  return spaces;
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
  return crypto::Hmac(key).mac({crypto::digest_view(source),
                                crypto::digest_view(target), user_data});
}

}  // namespace

Result<Sgx::LocalReport> Sgx::ereport(DomainId source, DomainId target,
                                      BytesView user_data) {
  auto source_space = space_of(source);
  if (!source_space) return source_space.error();
  if (!(*source_space)->tagged()) return Errc::access_denied;
  auto target_space = space_of(target);
  if (!target_space) return target_space.error();
  if (!(*target_space)->tagged()) return Errc::invalid_argument;

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
  if (!(*space)->tagged()) return Errc::access_denied;
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
  if (!(*space)->tagged()) return Errc::access_denied;
  // EREPORT to the quoting enclave plus two enclave crossings.
  machine_.advance(machine_.costs().sgx_ereport +
                   2 * (machine_.costs().sgx_eenter + machine_.costs().sgx_eexit));
  return IsolationSubstrate::attest(actor, user_data);
}

Result<Bytes> Sgx::side_channel_leak(DomainId enclave, std::uint64_t offset,
                                     std::size_t len,
                                     double leak_fraction) const {
  auto space = space_of(enclave);
  if (!space) return space.error();
  if (!(*space)->tagged()) return Errc::invalid_argument;
  if (leak_fraction < 0.0 || leak_fraction > 1.0)
    return Errc::invalid_argument;
  if (!in_bounds(**space, offset, len)) return Errc::invalid_argument;

  // A cache-timing attacker recovers bytes at a deterministic stride; the
  // rest stay unknown. This bypasses the EPC check entirely — that is the
  // point of the paper's "hardware is leaky" argument.
  Bytes out(len, 0);
  if (leak_fraction == 0.0) return out;
  const std::size_t stride =
      std::max<std::size_t>(1, static_cast<std::size_t>(1.0 / leak_fraction));
  for (std::size_t i = 0; i < len; i += stride) {
    auto byte = read_span(**space, (*space)->ctx, offset + i, 1);
    if (!byte) return byte.error();
    out[i] = (*byte)[0];
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
