#include "update/update.h"

#include <algorithm>

#include "runtime/region_pool.h"
#include "util/wire.h"

namespace lateral::update {

namespace {

/// Chunk header on the transfer channel: magic + destination offset. The
/// target's handler acks the write; the bytes themselves travel by
/// descriptor on the zero-copy path and inline on the copy fallback.
Bytes chunk_header(std::uint64_t offset) {
  Bytes header = to_bytes("UPST");
  wire::ByteWriter(header).u64(offset);
  return header;
}

}  // namespace

Bytes signing_bytes(const UpdateManifest& manifest) {
  Bytes out = to_bytes("lateral.update.manifest");
  wire::ByteWriter w(out);
  w.u8(0);
  w.bytes(wire::as_bytes(manifest.component));
  w.u8(0);
  w.u64(manifest.version);
  w.u64(manifest.image_size);
  w.bytes(manifest.image_hash);
  w.bytes(manifest.new_measurement);
  return out;
}

void sign_manifest(UpdateManifest& manifest, const crypto::RsaKeyPair& vendor) {
  manifest.signature = crypto::rsa_sign(vendor, signing_bytes(manifest));
}

Status verify_manifest(const UpdateManifest& manifest,
                       const crypto::RsaPublicKey& vendor) {
  return crypto::rsa_verify(vendor, signing_bytes(manifest),
                            manifest.signature);
}

UpdateManifest make_manifest(const std::string& component,
                             std::uint64_t version, BytesView image) {
  UpdateManifest manifest;
  manifest.component = component;
  manifest.version = version;
  manifest.image_size = image.size();
  manifest.image_hash = crypto::Sha256::hash(image);
  // In this simulation a domain's measurement IS the hash of its code.
  manifest.new_measurement = manifest.image_hash;
  return manifest;
}

// --- SlotBank ---------------------------------------------------------------

SlotBank::SlotBank(std::uint32_t slot_count, Bytes factory_image,
                   std::uint64_t factory_version)
    : slots_(std::max<std::uint32_t>(slot_count, 2)) {
  slots_[0].image = std::move(factory_image);
  slots_[0].version = factory_version;
  slots_[0].valid = true;
  staging_ = 1;
}

Status SlotBank::begin_staging(std::uint64_t version) {
  staging_ = (active_ + 1) % slots_.size();
  slots_[staging_].image.clear();
  slots_[staging_].version = version;
  slots_[staging_].valid = false;
  staging_open_ = true;
  return Status::success();
}

Status SlotBank::append(BytesView chunk) {
  if (!staging_open_) return Errc::invalid_argument;
  slots_[staging_].image.insert(slots_[staging_].image.end(), chunk.begin(),
                                chunk.end());
  return Status::success();
}

crypto::Digest SlotBank::staged_hash() const {
  return crypto::Sha256::hash(slots_[staging_].image);
}

Status SlotBank::finish_staging() {
  if (!staging_open_) return Errc::invalid_argument;
  staging_open_ = false;
  slots_[staging_].valid = true;
  return Status::success();
}

void SlotBank::abort_staging() {
  slots_[staging_].image.clear();
  slots_[staging_].valid = false;
  staging_open_ = false;
}

Status SlotBank::swap() {
  if (staging_open_ || !slots_[staging_].valid) return Errc::invalid_argument;
  previous_ = active_;
  active_ = staging_;
  staging_ = (active_ + 1) % slots_.size();
  return Status::success();
}

Status SlotBank::rollback() {
  if (previous_ == active_) return Errc::invalid_argument;
  // The failed image stays in its slot (forensics); staging will reuse it
  // on the next update because it is once again the slot after active.
  staging_ = active_;
  active_ = previous_;
  return Status::success();
}

// --- UpdateOrchestrator -----------------------------------------------------

UpdateOrchestrator::UpdateOrchestrator(core::Assembly& assembly,
                                       supervisor::Supervisor& supervisor,
                                       RollbackCounters& counters,
                                       crypto::RsaPublicKey vendor_key,
                                       UpdateOrchestratorConfig config)
    : assembly_(assembly),
      supervisor_(supervisor),
      counters_(counters),
      vendor_key_(std::move(vendor_key)),
      config_(std::move(config)),
      stats_(config_.hub ? config_.hub->update(config_.label)
                         : runtime::MetricsHub::UpdateRef(&own_stats_)) {
  if (config_.chunk_bytes == 0) config_.chunk_bytes = 4096;
  if (config_.restart_spins == 0) config_.restart_spins = 1;
}

std::size_t UpdateOrchestrator::reports_for(
    const std::string& component) const {
  std::size_t count = 0;
  for (const supervisor::RecoveryReport& report : supervisor_.reports())
    if (report.name == component) ++count;
  return count;
}

void UpdateOrchestrator::stamp(const std::string& component,
                               trace::SpanPhase phase, std::uint64_t size) {
  auto comp = assembly_.component(component);
  if (!comp) return;
  substrate::IsolationSubstrate* sub = (*comp)->substrate;
  if (trace::Tracer* tracer = sub->tracer())
    sub->stamp_span((*comp)->domain, trace::current_context(),
                    tracer->next_span(), phase, {}, size);
}

Status UpdateOrchestrator::transfer(const UpdateManifest& manifest,
                                    BytesView image, SlotBank& bank) {
  auto endpoint = assembly_.endpoint(config_.updater, manifest.component);
  if (!endpoint) return endpoint.error();

  auto updater = assembly_.component(config_.updater);
  if (!updater) return updater.error();
  substrate::IsolationSubstrate* sub = (*updater)->substrate;
  const substrate::DomainId updater_domain = (*updater)->domain;

  // Zero-copy block plane when the manifests declared a region and the
  // substrate can realize it; the TPM/fTPM targets fall back to inline
  // chunks over the same channel (the data still arrives, it just pays
  // per-byte crossing costs — exactly the paper's §II-C trade-off).
  auto region = assembly_.region_between(config_.updater, manifest.component);
  std::optional<runtime::RegionPool> pool;
  if (region) {
    auto region_size = sub->region_size(*region);
    if (!region_size) return region_size.error();
    pool.emplace(*sub, updater_domain, *region, *region_size,
                 config_.chunk_bytes);
  } else if (region.error() != Errc::no_region_support &&
             region.error() != Errc::policy_violation) {
    return region.error();
  }

  for (std::size_t offset = 0; offset < image.size();
       offset += config_.chunk_bytes) {
    const std::size_t n =
        std::min(config_.chunk_bytes, image.size() - offset);
    const BytesView chunk = image.subspan(offset, n);
    const Bytes header = chunk_header(offset);

    if (pool) {
      auto slot = pool->acquire();
      if (!slot) return slot.error();
      auto descriptor = pool->stage(*slot, chunk);
      if (!descriptor) {
        pool->release(*slot);
        return descriptor.error();
      }
      auto reply = endpoint->call_sg(
          header, std::span<const substrate::RegionDescriptor>(
                      &*descriptor, 1));
      // The slot is returned on every path — including a target killed
      // mid-transfer (domain_dead) — so an aborted update never leaks a
      // staging lease.
      pool->release(*slot);
      if (!reply) return reply.error();
    } else {
      Bytes payload = header;
      payload.insert(payload.end(), chunk.begin(), chunk.end());
      auto reply = endpoint->call(payload);
      if (!reply) return reply.error();
    }
    if (const Status s = bank.append(chunk); !s.ok()) return s;
    stats_->bytes_streamed += n;
  }
  return Status::success();
}

Status UpdateOrchestrator::stage(const UpdateManifest& manifest,
                                 BytesView image) {
  auto ref = assembly_.ref(manifest.component);
  if (!ref) return ref.error();
  auto comp = assembly_.component(*ref);
  if (!comp) return comp.error();
  const std::optional<core::UpdatePolicy>& policy =
      (*comp)->manifest.update;
  // No `update` stanza, no field updates: the manifest is the consent.
  if (!policy) return Errc::policy_violation;

  // 1. Signature, before anything else touches the payload.
  if (const Status s = verify_manifest(manifest, vendor_key_); !s.ok()) {
    ++stats_->signature_refused;
    if (config_.audit)
      config_.audit->append(health::AuditKind::update_refused,
                            manifest.component, s.error(), "signature");
    return s;
  }
  // A signed manifest whose measurement does not match its own image hash
  // can never attest after the swap; refuse it as malformed.
  if (manifest.new_measurement != manifest.image_hash) {
    ++stats_->image_refused;
    if (config_.audit)
      config_.audit->append(health::AuditKind::update_refused,
                            manifest.component, Errc::invalid_argument,
                            "measurement/image mismatch");
    return Errc::invalid_argument;
  }

  // 2. Rollback protection at the root of trust: the version must be
  // strictly newer than the monotonic NV counter. A replayed old manifest
  // is validly signed — only the counter stops it.
  const std::string counter = counter_name(manifest.component);
  if (const Status s = counters_.define(counter); !s.ok()) return s;
  auto current = counters_.read(counter);
  if (!current) return current.error();
  if (manifest.version <= *current) {
    ++stats_->rollback_refused;
    if (config_.audit)
      config_.audit->append(health::AuditKind::rollback_refused,
                            manifest.component, Errc::rollback_refused,
                            "version " + std::to_string(manifest.version) +
                                " <= nv " + std::to_string(*current));
    return Errc::rollback_refused;
  }

  // 3. Record what to revert to while the component is still the old one.
  auto previous_image = assembly_.component_image(*ref);
  if (!previous_image) return previous_image.error();
  auto previous_measurement =
      (*comp)->substrate->measurement((*comp)->domain);
  if (!previous_measurement) return previous_measurement.error();

  auto [bank_it, created] = banks_.try_emplace(
      manifest.component, policy->slots, *previous_image, *current);
  SlotBank& bank = bank_it->second;

  Pending pending;
  pending.manifest = manifest;
  pending.state = UpdateState::staging;
  pending.previous_image = std::move(*previous_image);
  pending.previous_measurement = *previous_measurement;
  pending.accepted_at = (*comp)->substrate->machine().now();

  // 4. Stream into the inactive slot while the active one keeps serving.
  if (const Status s = bank.begin_staging(manifest.version); !s.ok())
    return s;
  if (const Status s = transfer(manifest, image, bank); !s.ok()) {
    bank.abort_staging();
    return s;
  }

  // 5. Verify what actually arrived in the slot — not what the caller
  // handed us — against the signed hash. A corrupted transfer is tamper,
  // and the active slot never noticed any of this.
  if (bank.staged_hash() != manifest.image_hash ||
      bank.staged_image().size() != manifest.image_size) {
    bank.abort_staging();
    ++stats_->image_refused;
    if (config_.audit)
      config_.audit->append(health::AuditKind::update_refused,
                            manifest.component, Errc::tamper_detected,
                            "staged bytes != signed hash");
    return Errc::tamper_detected;
  }
  if (const Status s = bank.finish_staging(); !s.ok()) return s;

  ++stats_->staged;
  ++stats_->verified;
  pending.state = UpdateState::verified;
  stamp(manifest.component, trace::SpanPhase::update_stage, image.size());
  pending_[manifest.component] = std::move(pending);
  return Status::success();
}

Status UpdateOrchestrator::arm(const std::string& component) {
  const auto it = pending_.find(component);
  if (it == pending_.end()) return Errc::invalid_argument;
  Pending& pending = it->second;
  if (pending.state != UpdateState::verified) return Errc::invalid_argument;
  const SlotBank& bank = banks_.at(component);
  if (const Status s =
          assembly_.set_component_image(component, bank.staged_image());
      !s.ok())
    return s;
  pending.state = UpdateState::armed;
  return Status::success();
}

Status UpdateOrchestrator::commit(const std::string& component) {
  const auto it = pending_.find(component);
  if (it == pending_.end()) return Errc::invalid_argument;
  Pending& pending = it->second;
  if (pending.state != UpdateState::armed) return Errc::invalid_argument;

  // Flap damping: once the supervisor escalated this component, new swap
  // attempts are refused instead of burning a revert loop forever.
  auto health = supervisor_.health(component);
  if (!health) return health.error();  // commit is supervised by contract
  if (*health == supervisor::Health::degraded ||
      *health == supervisor::Health::halted)
    return Errc::exhausted;

  auto comp = assembly_.component(component);
  if (!comp) return comp.error();
  hw::Machine& machine = (*comp)->substrate->machine();
  const core::RestartPolicy policy =
      (*comp)->manifest.restart.value_or(core::RestartPolicy{});

  // The relaunch must attest to the *new* identity; remember the old
  // expectation for revert.
  if (core::AttestationVerifier* verifier = supervisor_.verifier()) {
    pending.previous_expectation = verifier->expectation(component);
    verifier->expect_measurement(component, pending.manifest.new_measurement);
  }

  // Reboot into the staged slot: kill, then let the supervisor do what it
  // does — confirm the death, relaunch (the assembly's image override now
  // points at the new slot), rebind channels under fresh badges and
  // epochs, and run challenge-response attestation against the manifest's
  // measurement.
  if (const Status s = assembly_.kill_component(component); !s.ok()) return s;
  bool running = false;
  for (std::uint32_t spin = 0; spin < config_.restart_spins; ++spin) {
    (void)supervisor_.tick();
    auto h = supervisor_.health(component);
    if (h && *h == supervisor::Health::running) {
      running = true;
      break;
    }
    if (h && (*h == supervisor::Health::degraded ||
              *h == supervisor::Health::halted))
      break;
    machine.advance(policy.backoff_cycles);
  }
  if (!running) {
    // The swap never came up; restore the old slot immediately. When the
    // supervisor escalated mid-commit (flap damping caught the relaunch
    // itself), surface that as the budget refusal it is.
    do_revert(component, pending);
    auto after = supervisor_.health(component);
    return after && (*after == supervisor::Health::degraded ||
                     *after == supervisor::Health::halted)
               ? Errc::exhausted
               : Errc::timed_out;
  }

  (void)banks_.at(component).swap();
  // Baseline the incident count only now: the intentional kill above opened
  // (and the relaunch closed) a report of its own, which is not a probation
  // failure. Anything past this count is.
  pending.reports_baseline = reports_for(component);
  pending.state = UpdateState::probation;
  pending.probation_left =
      std::max<std::uint32_t>((*comp)->manifest.update->probation_ticks, 1);
  stamp(component, trace::SpanPhase::update_commit,
        pending.manifest.image_size);
  return Status::success();
}

Result<UpdateState> UpdateOrchestrator::probation_tick(
    const std::string& component) {
  const auto it = pending_.find(component);
  if (it == pending_.end()) return Errc::invalid_argument;
  Pending& pending = it->second;
  if (pending.state != UpdateState::probation) return Errc::invalid_argument;

  (void)supervisor_.tick();

  // Probation fails the moment the new incarnation died (a new incident
  // report appeared) or stopped serving (health left `running`).
  auto health = supervisor_.health(component);
  const bool died = reports_for(component) > pending.reports_baseline;
  const bool unhealthy =
      !health || *health != supervisor::Health::running;
  if (died || unhealthy) {
    do_revert(component, pending);
    return pending.state;
  }

  if (--pending.probation_left > 0) return pending.state;

  // Survived probation: the update commits, and only now does the
  // monotonic counter move — this is the point of no rollback.
  auto bumped = counters_.increment(counter_name(component));
  if (!bumped) return bumped.error();
  auto comp = assembly_.component(component);
  const Cycles now =
      comp ? (*comp)->substrate->machine().now() : pending.accepted_at;
  stats_->record_commit(now - pending.accepted_at);
  pending.state = UpdateState::committed;
  pending.previous_expectation.reset();
  return pending.state;
}

void UpdateOrchestrator::do_revert(const std::string& component,
                                   Pending& pending) {
  auto comp = assembly_.component(component);
  const Cycles detected =
      comp ? (*comp)->substrate->machine().now() : pending.accepted_at;

  // Restore identity first: the relaunch below must attest as the OLD
  // component again.
  if (core::AttestationVerifier* verifier = supervisor_.verifier())
    verifier->expect_measurement(component,
                                 pending.previous_expectation.value_or(
                                     pending.previous_measurement));
  (void)assembly_.set_component_image(component, pending.previous_image);
  if (pending.state == UpdateState::probation)
    (void)banks_.at(component).rollback();

  // Direct relaunch into the old slot: revert must work even after the
  // supervisor exhausted its budget on the failing new image.
  (void)assembly_.restart_component(component);

  const Cycles serving =
      comp ? (*comp)->substrate->machine().now() : detected;
  stats_->record_revert(serving - detected);
  if (config_.hub)
    ++config_.hub->recovery(config_.recovery_label)->update_reverts;
  stamp(component, trace::SpanPhase::update_revert,
        pending.manifest.image_size);
  pending.state = UpdateState::reverted;
  pending.previous_expectation.reset();
}

Status UpdateOrchestrator::revert(const std::string& component) {
  const auto it = pending_.find(component);
  if (it == pending_.end()) return Errc::invalid_argument;
  Pending& pending = it->second;
  if (pending.state != UpdateState::armed &&
      pending.state != UpdateState::probation)
    return Errc::invalid_argument;
  do_revert(component, pending);
  return Status::success();
}

std::size_t UpdateOrchestrator::recover() {
  std::size_t reverted = 0;
  for (auto& [component, pending] : pending_) {
    if (pending.state != UpdateState::armed &&
        pending.state != UpdateState::probation)
      continue;
    // The counter never advanced for these, so the old slot is still the
    // newest committed image: fall back to it.
    do_revert(component, pending);
    ++reverted;
  }
  return reverted;
}

UpdateState UpdateOrchestrator::state(const std::string& component) const {
  const auto it = pending_.find(component);
  return it == pending_.end() ? UpdateState::idle : it->second.state;
}

const SlotBank* UpdateOrchestrator::slots(const std::string& component) const {
  const auto it = banks_.find(component);
  return it == banks_.end() ? nullptr : &it->second;
}

}  // namespace lateral::update
