// Tamper-evident attested audit log (lateral::health, FIG16).
//
// The codebase already refuses the right things — undeclared channels
// (policy_violation), unauthorized trace exports (redaction_denied),
// replayed tickets, rolled-back updates, failed re-attestations — but each
// refusal was a counter bump and a returned Errc: evidence that evaporates.
// This log makes the refusals *evidence*: an append-only hash chain
//
//     head_0 = 0^32,   head_i = SHA256(head_{i-1} || encode(record_i))
//
// sealed per epoch into an AuditSeal (epoch, seq range, chain head) that the
// device binds into an attestation quote (seal bytes = quote user_data). A
// verifier who trusts only the hardware vendor's root key can then detect
// truncation, reordering or mutation of the records — the device's own
// software cannot rewrite history without breaking the chain, and cannot
// re-seal a rewritten chain without the endorsement key it never holds.
// Epochs are drawn from the machine's monotonic NV counter when a machine
// is bound, so replaying an entire older (validly sealed) log is caught by
// arithmetic, exactly like update rollback protection.
//
// Operators fetch AuditSegments over the fleet's sealed sessions
// (FleetServer's audit-pull method) and check them with verify_segment():
// typed rejection — Errc::tamper_detected for chain/sequence damage,
// Errc::verification_failed for a forged or mis-bound seal.
//
// Layering: crypto + substrate (Quote) + hw; everything from core upward
// can hold an AuditLog* without cycles.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.h"
#include "hw/machine.h"
#include "substrate/quote.h"
#include "substrate/substrate.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::health {

/// What class of security-relevant event a record witnesses. The Errc
/// carried alongside preserves the precise refusal (ticket_expired vs
/// ticket_replayed both land in ticket_rejected, distinguished by errc).
enum class AuditKind : std::uint8_t {
  attestation_failed,  // challenge-response / quote verification failed
  policy_violation,    // manifest/POLA check refused an operation
  redaction_denied,    // trace export refused for an unauthorized observer
  ticket_rejected,     // fleet resumption ticket refused
  session_tamper,      // sealed-record authentication failed mid-session
  rollback_refused,    // update version not newer than the NV counter
  update_refused,      // update manifest/image refused (signature, hash)
  slo_breach,          // health watchdog confirmed an SLO breach
  escalation,          // a breach or budget exhaustion escalated
};

constexpr std::string_view audit_kind_name(AuditKind k) {
  switch (k) {
    case AuditKind::attestation_failed: return "attestation_failed";
    case AuditKind::policy_violation: return "policy_violation";
    case AuditKind::redaction_denied: return "redaction_denied";
    case AuditKind::ticket_rejected: return "ticket_rejected";
    case AuditKind::session_tamper: return "session_tamper";
    case AuditKind::rollback_refused: return "rollback_refused";
    case AuditKind::update_refused: return "update_refused";
    case AuditKind::slo_breach: return "slo_breach";
    case AuditKind::escalation: return "escalation";
  }
  return "unknown";
}

/// The last AuditKind: a wire byte past it names no kind.
inline constexpr AuditKind kLastAuditKind = AuditKind::escalation;
static_assert(audit_kind_name(static_cast<AuditKind>(
                  static_cast<int>(kLastAuditKind) + 1)) == "unknown",
              "AuditKind grew: move kLastAuditKind to its new last kind");

/// One audit record. `encode()` is the canonical byte form the hash chain
/// and the wire format both use — any representational drift would be a
/// self-inflicted tamper alarm, so there is exactly one encoding.
struct AuditRecord {
  std::uint64_t seq = 0;    // position in the log, dense from 0
  Cycles at = 0;            // simulated clock when the event was appended
  AuditKind kind = AuditKind::policy_violation;
  Errc errc = Errc::ok;     // the precise refusal, when one exists
  std::string component;    // principal the event is about
  std::string detail;       // free-form context ("ui->storage", peer name)

  Bytes encode() const;
  /// Decode one record from `wire` starting at `*offset`; advances
  /// `*offset` past it. Errc::invalid_argument on malformed input.
  static Result<AuditRecord> decode(BytesView wire, std::size_t* offset);

  friend bool operator==(const AuditRecord&, const AuditRecord&) = default;
};

/// Seal over records [first_seq, last_seq]: the chain head after the last
/// one, stamped with a monotonic epoch. This is the 56-byte-plus-head value
/// a quote binds (user_data = encode()).
struct AuditSeal {
  std::uint64_t epoch = 0;
  std::uint64_t first_seq = 0;  // first record this epoch covers
  std::uint64_t last_seq = 0;   // inclusive; last_seq+1 == log size at seal
  crypto::Digest head{};        // chain head after record last_seq

  Bytes encode() const;
  static Result<AuditSeal> decode(BytesView wire);

  friend bool operator==(const AuditSeal&, const AuditSeal&) = default;
};

/// What an operator pulls: a run of records, the chain state just before
/// them, the covering seal and the quote that binds it to the device.
struct AuditSegment {
  /// Chain head before records.front() (the all-zero genesis for seq 0) —
  /// what lets a verifier resume checking from its last verified head.
  crypto::Digest prev_head{};
  std::vector<AuditRecord> records;
  AuditSeal seal;
  substrate::Quote quote;

  Bytes serialize() const;
  static Result<AuditSegment> deserialize(BytesView wire);
};

/// Verifier-side policy for one segment.
struct AuditVerifyConfig {
  /// Root of the attestation chain (hw::Vendor::root_public_key()).
  crypto::RsaPublicKey vendor_root;
  /// When set, the quote's measurement must match (the attesting domain's
  /// expected code identity).
  std::optional<crypto::Digest> expected_measurement;
  /// Where this segment must start: the next unseen sequence number and the
  /// chain head the verifier recorded last time (genesis defaults for a
  /// first pull).
  std::uint64_t expected_first_seq = 0;
  crypto::Digest expected_prev_head{};
  /// Seal epochs at or below this are replays of history already verified
  /// (0 = no floor). Epochs come from a monotonic counter, so a stale
  /// sealed log cannot satisfy a verifier that tracks the high-water mark.
  std::uint64_t min_epoch = 0;
};

/// Full tamper check of one pulled segment:
///   Errc::verification_failed — quote chain invalid, wrong measurement, or
///     the seal is not the one the quote binds (forged/re-sealed log);
///   Errc::tamper_detected — sequence gap/reorder, chain-head mismatch
///     (mutation), seal range not matching the records (truncation), or a
///     replayed epoch.
Status verify_segment(const AuditSegment& segment,
                      const AuditVerifyConfig& config);

/// The device-side log. Thread-safe; every subsystem that refuses something
/// security-relevant holds an optional AuditLog* and appends through it.
class AuditLog {
 public:
  /// `machine` (optional) supplies append timestamps and monotonic seal
  /// epochs from its NV counter; without one, epochs fall back to a local
  /// counter (still strictly increasing within this log's lifetime).
  explicit AuditLog(hw::Machine* machine = nullptr) : machine_(machine) {}

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Append one record; assigns seq, stamps the clock, extends the chain.
  /// Returns the assigned sequence number.
  std::uint64_t append(AuditKind kind, std::string_view component,
                       Errc errc = Errc::ok, std::string_view detail = {});

  std::size_t size() const;
  /// Copy of the records from `from_seq` on.
  std::vector<AuditRecord> records(std::uint64_t from_seq = 0) const;
  /// Current chain head (genesis zero digest while empty).
  crypto::Digest head() const;
  const std::vector<AuditSeal>& seals() const { return seals_; }

  /// Seal everything appended since the last seal under a fresh monotonic
  /// epoch. Errc::would_block when nothing new to seal.
  Result<AuditSeal> seal_epoch();

  /// One operator pull: records from `from_seq` on, sealed through the end
  /// (reusing the last seal when nothing new arrived) and bound into a
  /// quote by `domain` on `substrate`. Errc::invalid_argument when from_seq
  /// is beyond the log; Errc::would_block when the log is empty.
  Result<AuditSegment> segment(std::uint64_t from_seq,
                               substrate::IsolationSubstrate& substrate,
                               substrate::DomainId domain);

 private:
  std::uint64_t next_epoch_locked();

  hw::Machine* machine_ = nullptr;
  mutable std::mutex mu_;
  std::vector<AuditRecord> records_;
  /// heads_[i] = chain head after records_[i] (so a segment starting at any
  /// seq can state its prev_head without re-hashing the prefix).
  std::vector<crypto::Digest> heads_;
  std::vector<AuditSeal> seals_;
  std::uint64_t sealed_through_ = 0;  // seqs below this are covered by seals_
  std::uint64_t local_epoch_ = 0;     // fallback when no machine is bound
};

}  // namespace lateral::health
