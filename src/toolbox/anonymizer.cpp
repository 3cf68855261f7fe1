#include "toolbox/anonymizer.h"

#include "util/wire.h"

namespace lateral::toolbox {

Bytes encode_reading(const Reading& reading) {
  Bytes out;
  out.reserve(kReadingWireBytes);
  wire::ByteWriter w(out);
  w.u64(reading.household);
  w.u64(reading.bucket);
  // Milli-kWh resolution: enough for any meter, and integer on the wire so
  // the codec round-trips bit-exactly across platforms.
  w.u64(static_cast<std::uint64_t>(reading.kwh * 1000.0 + 0.5));
  return out;
}

Result<Reading> decode_reading(BytesView in) {
  wire::ByteReader r(in);
  auto household = r.u64();
  auto bucket = r.u64();
  auto milli_kwh = r.u64();
  if (!household || !bucket || !milli_kwh || !r.finish().ok())
    return Errc::invalid_argument;
  return Reading{.household = *household,
                 .bucket = *bucket,
                 .kwh = static_cast<double>(*milli_kwh) / 1000.0};
}

Anonymizer::Anonymizer(std::size_t k) : k_(k) {
  if (k == 0) throw Error("Anonymizer: k must be at least 1");
}

Status Anonymizer::ingest(const Reading& reading) {
  if (reading.kwh < 0) return Errc::invalid_argument;
  per_household_[reading.household] += reading.kwh;
  Bucket& bucket = buckets_[reading.bucket];
  bucket.households.insert(reading.household);
  bucket.total_kwh += reading.kwh;
  ++ingested_;
  return Status::success();
}

Result<double> Anonymizer::billing_total(std::uint64_t household) const {
  const auto it = per_household_.find(household);
  if (it == per_household_.end()) return Errc::invalid_argument;
  return it->second;
}

Result<Aggregate> Anonymizer::aggregate(std::uint64_t bucket_id) const {
  const auto it = buckets_.find(bucket_id);
  if (it == buckets_.end()) return Errc::invalid_argument;
  const Bucket& bucket = it->second;
  // The k-anonymity gate: with fewer than k contributors the aggregate
  // would identify households; the component refuses by construction.
  if (bucket.households.size() < k_) return Errc::access_denied;
  Aggregate out;
  out.bucket = bucket_id;
  out.contributors = bucket.households.size();
  out.total_kwh = bucket.total_kwh;
  out.mean_kwh = bucket.total_kwh / static_cast<double>(out.contributors);
  return out;
}

std::vector<Aggregate> Anonymizer::releasable_aggregates() const {
  std::vector<Aggregate> out;
  for (const auto& [id, bucket] : buckets_) {
    if (bucket.households.size() < k_) continue;
    auto agg = aggregate(id);
    if (agg) out.push_back(*agg);
  }
  return out;
}

Status Anonymizer::analyst_query_household_curve(std::uint64_t) const {
  // No code path exists that returns per-household time series; POLA at
  // the API level. (Billing is totals-only and is the declared purpose.)
  return Errc::access_denied;
}

void Anonymizer::retain_only_aggregates() {
  retained_ = releasable_aggregates();
  per_household_.clear();
  buckets_.clear();
}

}  // namespace lateral::toolbox
