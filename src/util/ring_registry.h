// RingRegistry — one ring per (owner, domain) that outlives its domain.
//
// trace::Tracer (flight recorders) and health::CycleProfiler (sample rings)
// both keep one ring per (substrate instance, domain id), labelled with the
// domain's name, created on first use and kept until scrubbed. The registry,
// not the substrate's domain record, owns the ring storage: kill_domain
// releases the domain but its ring stays readable, which is what lets a
// supervisor reconstruct a corpse's final cycles.
//
// `Ring` must synchronize itself and provide snapshot() and clear(). The
// registry's lock guards only the map; a ring is never destroyed before the
// registry, so ring operations run outside it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lateral::util {

template <typename Ring>
class RingRegistry {
 public:
  /// One ring as an exporter sees it.
  struct Ref {
    const void* owner = nullptr;
    std::uint64_t domain = 0;
    std::string label;
    const Ring* ring = nullptr;
  };

  /// The ring of (owner, domain), made by `make()` on first use. `label`
  /// names it when it has no name yet (at creation, or after a scrub). The
  /// reference stays valid for the registry's lifetime.
  template <typename Make>
  Ring& find_or_create(const void* owner, std::uint64_t domain,
                       std::string_view label, Make&& make) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = rings_[{owner, domain}];
    if (!entry.ring) entry.ring = make();
    if (entry.label.empty() && !label.empty()) entry.label = label;
    return *entry.ring;
  }

  /// Snapshot of one ring; empty when (owner, domain) never made one.
  auto snapshot(const void* owner, std::uint64_t domain) const {
    const Ring* ring = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = rings_.find({owner, domain});
      if (it != rings_.end()) ring = it->second.ring.get();
    }
    return ring ? ring->snapshot() : decltype(ring->snapshot()){};
  }

  /// Forget one ring's contents and label (after a supervisor snapshotted
  /// or reaped the corpse). The ring object survives: a relaunched
  /// incarnation under the same domain id reuses it.
  void scrub(const void* owner, std::uint64_t domain) {
    Ring* ring = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = rings_.find({owner, domain});
      if (it == rings_.end()) return;
      ring = it->second.ring.get();
      it->second.label.clear();
    }
    ring->clear();
  }

  /// Every ring, ordered by (owner, domain).
  std::vector<Ref> rings() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Ref> out;
    out.reserve(rings_.size());
    for (const auto& [key, entry] : rings_)
      out.push_back(Ref{key.first, key.second, entry.label, entry.ring.get()});
    return out;
  }

 private:
  struct Entry {
    std::string label;
    std::unique_ptr<Ring> ring;
  };

  mutable std::mutex mu_;  // guards rings_ (the map, not the rings)
  std::map<std::pair<const void*, std::uint64_t>, Entry> rings_;
};

}  // namespace lateral::util
