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
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/result.h"
#include "util/types.h"

namespace lateral::net {

struct NetStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t modified = 0;
};

class SimNetwork {
 public:
  /// The man in the middle. Return the (possibly modified) payload to
  /// deliver, or nullopt to drop. The tamperer may also stash copies and
  /// inject them later via inject().
  using Tamperer = std::function<std::optional<Bytes>(
      const std::string& from, const std::string& to, BytesView payload)>;

  Status register_endpoint(const std::string& name);

  /// Send a datagram, moving `payload` into the receiver's queue: the
  /// network makes no copy of its own. With a tamperer installed, the
  /// tamperer sees the payload exactly as sent and what it returns is
  /// delivered instead; `modified` counts a returned payload whose bytes
  /// differ from the sent ones, `dropped` a nullopt. Stats count every
  /// accepted send, delivered or not. Both endpoints must be registered.
  Status send(const std::string& from, const std::string& to, Bytes&& payload);

  /// Send a copy of `payload`; the same datagram, stats and tamperer
  /// semantics as the moving send.
  Status send(const std::string& from, const std::string& to,
              BytesView payload);

  /// Inject a raw datagram as the attacker (forgery / replay).
  Status inject(const std::string& claimed_from, const std::string& to,
                BytesView payload);

  /// Dequeue the next datagram for `endpoint`; would_block when none.
  struct Datagram {
    std::string from;  // claimed source — NOT authenticated
    Bytes payload;
  };
  Result<Datagram> receive(const std::string& endpoint);

  void set_tamperer(Tamperer tamperer) { tamperer_ = std::move(tamperer); }
  void clear_tamperer() { tamperer_ = nullptr; }

  const NetStats& stats() const { return stats_; }

 private:
  /// Endpoint queues by name, hashed: every send and receive is a lookup.
  std::unordered_map<std::string, std::deque<Datagram>> queues_;
  Tamperer tamperer_;
  NetStats stats_;
};

}  // namespace lateral::net
