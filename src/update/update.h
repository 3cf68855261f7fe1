// lateral::update — attested over-the-air updates with rollback protection
// and automatic revert (FIG15).
//
// The paper's trust story is static: a component's measurement is fixed at
// launch. Real fleets re-flash components while they serve traffic, and the
// rollback gap is the weakest link of most deployed TEE designs. This
// subsystem closes the loop with the primitives the toolbox already has:
//
//  * a signed UpdateManifest — target component, version, image hash, new
//    measurement — verified against the vendor key from the device trust
//    chain (crypto::rsa_verify) before any byte is accepted;
//  * mcuboot-style A/B image slots (SlotBank): the new image streams into
//    the inactive slot over the zero-copy block plane (RegionPool staging,
//    chunked call_sg; copy fallback on TPM/fTPM targets) while the active
//    slot keeps serving;
//  * a monotonic NV counter in the platform TPM/fTPM (tpm::CommandSet's
//    nv_* commands, reached through RollbackCounters) bumped only on
//    commit: any manifest
//    whose version is not strictly newer is refused with
//    Errc::rollback_refused — rollback protection at the root of trust,
//    not in policy;
//  * a supervisor-orchestrated commit: kill the component, let the
//    Supervisor relaunch it into the staged image (fresh badges, channel
//    epochs, full challenge-response attestation against the manifest's
//    new measurement), then hold it in heartbeat probation;
//  * automatic revert: if the new incarnation dies or fails its heartbeat
//    during probation, the previous slot is restored, the attestation
//    expectation rolled back, and the component restarted — the NV counter
//    never moved, so the aborted version can be retried but an older one
//    still cannot be replayed.
//
// State machine (UpdateState):
//
//   idle -> staging -> verified -> armed -> probation -> committed
//                                    |          |
//                                    +----------+--> reverted
//
// stage() drives idle->verified (transfer + hash check), arm() installs
// the image override (verified->armed), commit() swaps and enters
// probation, probation_tick() ends in committed or reverted. recover()
// reverts anything armed-but-uncommitted — the power-loss-between-arm-and-
// commit path: the counter never advanced, so boot code falls back to the
// old slot.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/attestation.h"
#include "core/composer.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "runtime/metrics.h"
#include "supervisor/supervisor.h"
#include "trace/trace.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::update {

/// A signed update descriptor. The signature covers every field via
/// signing_bytes(); the vendor signs with the same root key the device's
/// endorsement chain anchors to, so the verifier needs no extra PKI.
struct UpdateManifest {
  std::string component;            // target component (manifest name)
  std::uint64_t version = 0;        // strictly increasing per component
  std::uint64_t image_size = 0;     // bytes of the new image
  crypto::Digest image_hash{};      // SHA-256 of the image bytes
  /// Measurement the relaunched domain must attest to. In this simulation
  /// a domain's measurement is SHA-256 of its code, so this must equal
  /// image_hash; both travel (and are signed) so a manifest corrupted in
  /// either field fails closed.
  crypto::Digest new_measurement{};
  Bytes signature;                  // rsa_sign(vendor, signing_bytes(*this))
};

/// The byte string the vendor signs (everything but the signature).
Bytes signing_bytes(const UpdateManifest& manifest);
/// Fill in the signature with the vendor key.
void sign_manifest(UpdateManifest& manifest, const crypto::RsaKeyPair& vendor);
/// Signature check only (field-consistency checks live in the orchestrator).
Status verify_manifest(const UpdateManifest& manifest,
                       const crypto::RsaPublicKey& vendor);
/// Build a consistent, unsigned manifest for `image`.
UpdateManifest make_manifest(const std::string& component,
                             std::uint64_t version, BytesView image);

/// Monotonic NV counter access for the orchestrator — the seam between the
/// update logic and whichever root of trust the platform has. Adapt any
/// tpm::CommandSet (the chip tpm::Tpm or the firmware ftpm::Ftpm, which run
/// the same NV commands at their own price) with DeviceRollbackCounters.
class RollbackCounters {
 public:
  virtual ~RollbackCounters() = default;
  virtual Status define(const std::string& name) = 0;
  virtual Result<std::uint64_t> read(const std::string& name) = 0;
  virtual Result<std::uint64_t> increment(const std::string& name) = 0;
};

/// Adapter over a device exposing the TPM NV commands (nv_define / nv_read
/// / nv_increment): any tpm::CommandSet.
template <typename Device>
class DeviceRollbackCounters final : public RollbackCounters {
 public:
  explicit DeviceRollbackCounters(Device& device) : device_(device) {}
  Status define(const std::string& name) override {
    return device_.nv_define(name);
  }
  Result<std::uint64_t> read(const std::string& name) override {
    return device_.nv_read(name);
  }
  Result<std::uint64_t> increment(const std::string& name) override {
    return device_.nv_increment(name);
  }

 private:
  Device& device_;
};

/// mcuboot-style image slot bank for one component. The active slot is
/// what the component runs; staging always targets the next slot round-
/// robin, so with the default two slots this is classic A/B: stage into B
/// while A serves, swap on commit, rollback by swapping back.
class SlotBank {
 public:
  /// Slot 0 starts active holding the factory image.
  SlotBank(std::uint32_t slot_count, Bytes factory_image,
           std::uint64_t factory_version = 0);

  std::size_t slot_count() const { return slots_.size(); }
  std::size_t active_slot() const { return active_; }
  std::size_t staging_slot() const { return staging_; }
  const Bytes& active_image() const { return slots_[active_].image; }
  std::uint64_t active_version() const { return slots_[active_].version; }
  const Bytes& staged_image() const { return slots_[staging_].image; }
  bool staged_valid() const { return slots_[staging_].valid; }

  /// Open the inactive slot for a new image (clears any previous staging).
  Status begin_staging(std::uint64_t version);
  /// Append transferred bytes to the staging slot.
  Status append(BytesView chunk);
  crypto::Digest staged_hash() const;
  /// Close staging (after the orchestrator's hash check passed).
  Status finish_staging();
  /// Drop a partial or refused staging.
  void abort_staging();

  /// Staging slot becomes active (commit path). Errc::invalid_argument
  /// unless a finished staging is present.
  Status swap();
  /// Return to the previously active slot (revert path).
  Status rollback();

 private:
  struct ImageSlot {
    Bytes image;
    std::uint64_t version = 0;
    bool valid = false;
  };

  std::vector<ImageSlot> slots_;
  std::size_t active_ = 0;
  std::size_t staging_ = 1;
  std::size_t previous_ = 0;
  bool staging_open_ = false;
};

enum class UpdateState : std::uint8_t {
  idle,       // no update in flight for the component
  staging,    // transfer in progress
  verified,   // staged bytes match the signed manifest
  armed,      // image override installed; next restart boots the new slot
  probation,  // running the new image under heartbeat probation
  committed,  // probation survived; NV counter advanced
  reverted,   // probation (or recovery) failed; old slot restored
};

constexpr std::string_view update_state_name(UpdateState s) {
  switch (s) {
    case UpdateState::idle: return "idle";
    case UpdateState::staging: return "staging";
    case UpdateState::verified: return "verified";
    case UpdateState::armed: return "armed";
    case UpdateState::probation: return "probation";
    case UpdateState::committed: return "committed";
    case UpdateState::reverted: return "reverted";
  }
  return "unknown";
}

struct UpdateOrchestratorConfig {
  /// Component that streams images to targets (needs a manifest channel —
  /// and ideally a region — to every updatable component).
  std::string updater = "updater";
  /// Transfer chunk size; also the RegionPool slot size on the zero-copy
  /// path.
  std::size_t chunk_bytes = 4096;
  /// Optional shared metrics sink; falls back to orchestrator-local stats.
  runtime::MetricsHub* hub = nullptr;
  std::string label = "update";
  /// Recovery label whose RecoveryStats::update_reverts the orchestrator
  /// bumps (give it the supervisor's label so reverts are auditable next
  /// to restarts). Only used when `hub` is set.
  std::string recovery_label = "supervisor";
  /// Bound on the supervisor-driving loop at commit (ticks + backoff
  /// advances before the swap restart is declared failed).
  std::uint32_t restart_spins = 64;
  /// Optional tamper-evident audit sink: refused updates (bad signature,
  /// image mismatch, rollback attempt) are exactly the events a post-
  /// compromise investigation needs sealed evidence of.
  health::AuditLog* audit = nullptr;
};

/// Drives the update state machine for every updatable component of one
/// assembly. The supervisor must already watch() each target (validate()
/// enforces `update` => `restart` in the manifest), because commit and
/// revert are supervised restarts with attestation.
class UpdateOrchestrator {
 public:
  UpdateOrchestrator(core::Assembly& assembly,
                     supervisor::Supervisor& supervisor,
                     RollbackCounters& counters,
                     crypto::RsaPublicKey vendor_key,
                     UpdateOrchestratorConfig config = {});

  /// idle -> verified: verify the manifest signature, refuse stale
  /// versions against the NV counter, stream `image` into the inactive
  /// slot over the zero-copy plane (copy fallback where unsupported), and
  /// check the *staged* bytes against the signed hash. Any refusal or
  /// mid-transfer death leaves the active slot untouched and the pool
  /// drained (no leaked leases).
  Status stage(const UpdateManifest& manifest, BytesView image);

  /// verified -> armed: install the staged image as the component's next
  /// boot image. The running domain is untouched.
  Status arm(const std::string& component);

  /// armed -> probation: re-point the attestation expectation at the new
  /// measurement, kill the component, and drive the supervisor until the
  /// relaunch (into the staged slot, freshly attested) is running again.
  /// Refused with Errc::exhausted once the component escalated to
  /// degraded/halted — the flap-damping endpoint.
  Status commit(const std::string& component);

  /// One probation heartbeat: drives supervisor::tick() and checks the
  /// new incarnation survived. Ends in `committed` (NV counter bumped)
  /// after the policy's probation ticks, or `reverted` the moment the
  /// incarnation dies or stops heartbeating.
  Result<UpdateState> probation_tick(const std::string& component);

  /// Manual revert of an in-flight update (armed or probation).
  Status revert(const std::string& component);

  /// Boot-time recovery: revert every update that armed but never
  /// committed (power loss between arm and commit). Returns how many
  /// updates were rolled back.
  std::size_t recover();

  /// Current state for a component (idle when nothing is pending).
  UpdateState state(const std::string& component) const;

  /// The slot bank of a component (nullptr before its first stage()).
  const SlotBank* slots(const std::string& component) const;

  runtime::UpdateStats stats() const { return stats_.snapshot(); }

 private:
  struct Pending {
    UpdateManifest manifest;
    UpdateState state = UpdateState::idle;
    Bytes previous_image;                 // revert target
    crypto::Digest previous_measurement;  // expectation restore fallback
    std::optional<crypto::Digest> previous_expectation;
    Cycles accepted_at = 0;
    /// Supervisor incident reports for this component at commit time; any
    /// growth during probation means the new incarnation died.
    std::size_t reports_baseline = 0;
    std::uint32_t probation_left = 0;
  };

  static std::string counter_name(const std::string& component) {
    return "update." + component;
  }
  Status transfer(const UpdateManifest& manifest, BytesView image,
                  SlotBank& bank);
  void do_revert(const std::string& component, Pending& pending);
  std::size_t reports_for(const std::string& component) const;
  void stamp(const std::string& component, trace::SpanPhase phase,
             std::uint64_t size);

  core::Assembly& assembly_;
  supervisor::Supervisor& supervisor_;
  RollbackCounters& counters_;
  crypto::RsaPublicKey vendor_key_;
  UpdateOrchestratorConfig config_;
  runtime::MetricsHub::UpdateSlot own_stats_;
  runtime::MetricsHub::UpdateRef stats_;
  std::map<std::string, SlotBank> banks_;
  std::map<std::string, Pending> pending_;
};

}  // namespace lateral::update
