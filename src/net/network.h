// Simulated untrusted network.
//
// The paper (§II-D): "communication busses within a system must be
// considered untrusted networks as well, the difference merely is the
// length of the wires." SimNetwork is that untrusted medium: datagram
// delivery between named endpoints with an optional man-in-the-middle that
// can observe, drop, modify, reorder or replay every message. SecureChannel
// is built to survive exactly this adversary.
//
// A datagram is one buffer from sender to receiver: send(Bytes&&) moves
// the payload into the receiver's queue and receive() moves it out, so the
// network itself copies nothing (the view overload copies once, up front).
// The man in the middle sits between the two moves and sees every payload
// exactly as sent, whichever overload sent it.
//
// Endpoints are named once: register_endpoint hands out a dense
// EndpointId, and the id overloads of send/receive index a vector. The
// name overloads resolve the name first (one hash lookup per name, counted
// in NetStats::name_resolutions) and are meant for set-up and tests; a
// per-message loop keeps the ids. A source name that inject() claims
// without registering gets an id too, so a receiver keys forged sources
// by id like any other; only a registered id sends or receives.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/types.h"

namespace lateral::net {

/// Index of a named endpoint: ids are handed out 0, 1, 2, ... in the order
/// names are first registered or claimed by inject(), and never reused.
using EndpointId = std::uint32_t;
/// No endpoint: never handed out.
inline constexpr EndpointId kNoEndpoint =
    std::numeric_limits<EndpointId>::max();

struct NetStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t modified = 0;
  /// Endpoint names looked up (every name overload and resolve() call).
  std::uint64_t name_resolutions = 0;
};

class SimNetwork {
 public:
  /// The man in the middle. Return the (possibly modified) payload to
  /// deliver, or nullopt to drop. The tamperer may also stash copies and
  /// inject them later via inject().
  using Tamperer = std::function<std::optional<Bytes>(
      const std::string& from, const std::string& to, BytesView payload)>;

  /// Register `name` and return its id (the one inject() gave it, if it
  /// was claimed before); invalid_argument for an empty or already
  /// registered name.
  Result<EndpointId> register_endpoint(const std::string& name);
  /// The id of a registered name; invalid_argument when there is none.
  Result<EndpointId> resolve(const std::string& name);

  /// Send a datagram, moving `payload` into the receiver's queue: the
  /// network makes no copy of its own. With a tamperer installed, the
  /// tamperer sees the payload exactly as sent (and both endpoints' names)
  /// and what it returns is delivered instead; `modified` counts a returned
  /// payload whose bytes differ from the sent ones, `dropped` a nullopt.
  /// Stats count every accepted send, delivered or not. Both endpoints must
  /// be registered: an unknown id is invalid_argument.
  Status send(EndpointId from, EndpointId to, Bytes&& payload);

  /// The same send, by name.
  Status send(const std::string& from, const std::string& to, Bytes&& payload);

  /// Send a copy of `payload`; the same datagram, stats and tamperer
  /// semantics as the moving send.
  Status send(const std::string& from, const std::string& to,
              BytesView payload);

  /// Inject a raw datagram as the attacker (forgery / replay). The claimed
  /// source need not be registered; it is delivered all the same, and a
  /// name first seen here gets an id that cannot send or receive until the
  /// name is registered.
  Status inject(const std::string& claimed_from, const std::string& to,
                BytesView payload);

  /// Dequeue the next datagram for `endpoint`; would_block when none,
  /// invalid_argument for an unknown endpoint.
  struct Datagram {
    std::string from;  // claimed source — NOT authenticated
    Bytes payload;
    /// The claimed source's id, registered or not (only inject() can claim
    /// an unregistered name).
    EndpointId from_id = kNoEndpoint;
  };
  Result<Datagram> receive(EndpointId endpoint);
  Result<Datagram> receive(const std::string& endpoint);

  void set_tamperer(Tamperer tamperer) { tamperer_ = std::move(tamperer); }
  void clear_tamperer() { tamperer_ = nullptr; }

  const NetStats& stats() const { return stats_; }

 private:
  struct Endpoint {
    std::string name;
    std::deque<Datagram> queue;
    bool registered = false;  // false: a name only inject() has claimed
  };
  /// The id of a registered name, else kNoEndpoint; counted.
  EndpointId find(const std::string& name);
  /// Whether `id` is a registered endpoint.
  bool registered(EndpointId id) const {
    return id < endpoints_.size() && endpoints_[id].registered;
  }
  /// The id of `name`, registered or not, handed out on first sight
  /// (not counted).
  EndpointId intern(const std::string& name);

  std::vector<Endpoint> endpoints_;  // indexed by EndpointId
  std::unordered_map<std::string, EndpointId> ids_;
  Tamperer tamperer_;
  NetStats stats_;
};

}  // namespace lateral::net
