#include "health/audit.h"

#include <utility>

#include "util/wire.h"

namespace lateral::health {
namespace {

constexpr crypto::Digest kGenesis{};  // head before the first record

}  // namespace

// --- Wire formats ---------------------------------------------------------

Bytes AuditRecord::encode() const {
  Bytes out;
  out.reserve(22 + component.size() + detail.size());
  wire::ByteWriter w(out);
  w.u64(seq);
  w.u64(at);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(errc));
  w.blob16(wire::as_bytes(component));
  w.blob16(wire::as_bytes(detail));
  return out;
}

Result<AuditRecord> AuditRecord::decode(BytesView in, std::size_t* offset) {
  if (*offset > in.size()) return Errc::invalid_argument;
  wire::ByteReader r(in.subspan(*offset));
  auto seq = r.u64();
  auto at = r.u64();
  auto kind = r.u8();
  auto errc = r.u8();
  auto component = r.blob16();
  auto detail = r.blob16();
  if (!seq || !at || !kind || !errc || !component || !detail)
    return Errc::invalid_argument;
  // A byte naming no enumerator is malformed, not a value to carry on.
  const auto known_kind = wire::enum8(*kind, kLastAuditKind);
  const auto known_errc = wire::enum8(*errc, wire::kLastErrc);
  if (!known_kind || !known_errc) return Errc::invalid_argument;
  *offset += r.offset();
  return AuditRecord{.seq = *seq,
                     .at = *at,
                     .kind = *known_kind,
                     .errc = *known_errc,
                     .component = std::string(wire::as_text(*component)),
                     .detail = std::string(wire::as_text(*detail))};
}

Bytes AuditSeal::encode() const {
  Bytes out;
  out.reserve(24 + head.size());
  wire::ByteWriter w(out);
  w.u64(epoch);
  w.u64(first_seq);
  w.u64(last_seq);
  w.bytes(head);
  return out;
}

Result<AuditSeal> AuditSeal::decode(BytesView in) {
  wire::ByteReader r(in);
  auto epoch = r.u64();
  auto first_seq = r.u64();
  auto last_seq = r.u64();
  auto head = r.bytes(crypto::Digest{}.size());
  if (!epoch || !first_seq || !last_seq || !head || !r.finish().ok())
    return Errc::invalid_argument;
  AuditSeal seal{.epoch = *epoch, .first_seq = *first_seq,
                 .last_seq = *last_seq};
  std::copy(head->begin(), head->end(), seal.head.begin());
  return seal;
}

Bytes AuditSegment::serialize() const {
  Bytes out;
  wire::ByteWriter w(out);
  w.bytes(prev_head);
  w.u64(records.size());
  for (const AuditRecord& rec : records) w.bytes(rec.encode());
  w.blob64(seal.encode());
  w.blob64(quote.serialize());
  return out;
}

Result<AuditSegment> AuditSegment::deserialize(BytesView in) {
  wire::ByteReader r(in);
  AuditSegment seg;
  auto prev_head = r.bytes(seg.prev_head.size());
  auto count = r.u64();
  if (!prev_head || !count) return Errc::invalid_argument;
  if (*count > r.remaining()) return Errc::invalid_argument;  // length bomb
  std::copy(prev_head->begin(), prev_head->end(), seg.prev_head.begin());
  std::size_t offset = r.offset();
  seg.records.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto rec = AuditRecord::decode(in, &offset);
    if (!rec) return rec.error();
    seg.records.push_back(*std::move(rec));
  }
  wire::ByteReader tail(in.subspan(offset));
  auto seal_wire = tail.blob64();
  if (!seal_wire) return seal_wire.error();
  auto seal = AuditSeal::decode(*seal_wire);
  if (!seal) return seal.error();
  seg.seal = *seal;
  auto quote_wire = tail.blob64();
  if (!quote_wire) return quote_wire.error();
  auto quote = substrate::Quote::deserialize(*quote_wire);
  if (!quote) return quote.error();
  seg.quote = *std::move(quote);
  if (const Status s = tail.finish(); !s.ok()) return s.error();
  return seg;
}

// --- Verification ---------------------------------------------------------

Status verify_segment(const AuditSegment& segment,
                      const AuditVerifyConfig& config) {
  // 1. Authenticity: the quote chain must hold, name the expected code
  // identity, and bind exactly this seal. Any failure here means the seal
  // was forged, re-signed, or detached from the device — verification_failed,
  // not tamper, because nothing trustworthy was ever established.
  if (Status s = segment.quote.verify(config.vendor_root); !s)
    return Errc::verification_failed;
  if (config.expected_measurement &&
      segment.quote.measurement != *config.expected_measurement)
    return Errc::verification_failed;
  if (segment.quote.user_data != segment.seal.encode())
    return Errc::verification_failed;

  // 2. Freshness: a validly sealed but older log is a replay.
  if (config.min_epoch != 0 && segment.seal.epoch <= config.min_epoch)
    return Errc::tamper_detected;

  // 3. Integrity: the records must continue the verifier's chain densely and
  // hash to exactly the sealed head. Every tamper primitive lands here —
  // truncating the tail moves the recomputed head off the seal, dropping the
  // front breaks expected_first_seq, reordering breaks seq density, and
  // mutating any byte of any record breaks the chain recomputation.
  if (segment.records.empty()) return Errc::tamper_detected;
  if (segment.prev_head != config.expected_prev_head)
    return Errc::tamper_detected;
  if (segment.records.front().seq != config.expected_first_seq)
    return Errc::tamper_detected;
  crypto::Digest head = segment.prev_head;
  for (std::size_t i = 0; i < segment.records.size(); ++i) {
    const AuditRecord& rec = segment.records[i];
    if (rec.seq != config.expected_first_seq + i) return Errc::tamper_detected;
    head = crypto::Sha256::hash2(crypto::digest_view(head), rec.encode());
  }
  if (segment.seal.last_seq != segment.records.back().seq)
    return Errc::tamper_detected;
  if (segment.seal.first_seq > segment.seal.last_seq)
    return Errc::tamper_detected;
  if (head != segment.seal.head) return Errc::tamper_detected;
  return Status::success();
}

// --- Device-side log ------------------------------------------------------

std::uint64_t AuditLog::append(AuditKind kind, std::string_view component,
                               Errc errc, std::string_view detail) {
  std::lock_guard<std::mutex> lock(mu_);
  AuditRecord rec;
  rec.seq = records_.size();
  rec.at = machine_ ? machine_->now() : Cycles{0};
  rec.kind = kind;
  rec.errc = errc;
  rec.component = std::string(component);
  rec.detail = std::string(detail);
  const crypto::Digest& prev = heads_.empty() ? kGenesis : heads_.back();
  heads_.push_back(
      crypto::Sha256::hash2(crypto::digest_view(prev), rec.encode()));
  records_.push_back(std::move(rec));
  return records_.back().seq;
}

std::size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<AuditRecord> AuditLog::records(std::uint64_t from_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from_seq >= records_.size()) return {};
  return std::vector<AuditRecord>(
      records_.begin() + static_cast<std::ptrdiff_t>(from_seq),
      records_.end());
}

crypto::Digest AuditLog::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heads_.empty() ? kGenesis : heads_.back();
}

std::uint64_t AuditLog::next_epoch_locked() {
  return machine_ ? machine_->nv_counter_increment() : ++local_epoch_;
}

Result<AuditSeal> AuditLog::seal_epoch() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_through_ >= records_.size()) return Errc::would_block;
  AuditSeal seal;
  seal.epoch = next_epoch_locked();
  seal.first_seq = sealed_through_;
  seal.last_seq = records_.size() - 1;
  seal.head = heads_.back();
  sealed_through_ = records_.size();
  seals_.push_back(seal);
  return seal;
}

Result<AuditSegment> AuditLog::segment(
    std::uint64_t from_seq, substrate::IsolationSubstrate& substrate,
    substrate::DomainId domain) {
  AuditSegment seg;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (records_.empty() || from_seq >= records_.size())
      return records_.empty() || from_seq == records_.size()
                 ? Errc::would_block
                 : Errc::invalid_argument;
    // Seal anything unsealed so the pulled range ends on a sealed head.
    if (sealed_through_ < records_.size()) {
      AuditSeal seal;
      seal.epoch = next_epoch_locked();
      seal.first_seq = sealed_through_;
      seal.last_seq = records_.size() - 1;
      seal.head = heads_.back();
      sealed_through_ = records_.size();
      seals_.push_back(seal);
    }
    seg.prev_head = from_seq == 0 ? kGenesis : heads_[from_seq - 1];
    seg.records.assign(
        records_.begin() + static_cast<std::ptrdiff_t>(from_seq),
        records_.end());
    seg.seal = seals_.back();
  }
  // Attest outside the lock: the quote costs simulated cycles and must not
  // serialize against concurrent appends.
  auto quote = substrate.attest(domain, seg.seal.encode());
  if (!quote) return quote.error();
  seg.quote = *std::move(quote);
  return seg;
}

}  // namespace lateral::health
