// Pipelined remote invocation over a SecureChannel — the network face of
// the batching runtime.
//
// net::RemoteProxy pays one network round trip per call. At serving scale
// the round trip dominates, so AsyncRemoteProxy pipelines: submit() queues
// invocations locally, flush() seals them into consecutive records (the
// channel's strict sequence ordering is why sealing happens at flush time:
// a sealed-but-withdrawn record would punch a hole in the peer's sequence
// window) and ships the whole burst in one transport exchange.
// AsyncRemoteDispatcher opens each record, dispatches, and returns one
// sealed reply record per request. Replies are matched to submissions by
// an explicit request id carried inside the authenticated plaintext, so
// completion order never depends on transport framing.
//
// Everything the channel guarantees — peer code identity, confidentiality,
// integrity, ordering, replay protection — covers the whole pipeline, and
// the usual runtime contract (bounded depth, Errc-surfaced backpressure,
// cancellation before flush, lossless accounting) applies.
//
// Wire formats (inside AEAD records): the synchronous RPC codec
// (net/remote.h) behind the async prefix —
//   request: [u32 request_id | 16B trace ctx | u16 method_len | method |
//             payload]
//   reply:   [u32 request_id | u8 errc | payload (on success)]
// Both sides seal a record from two parts (the head, then the payload)
// into one buffer, and the dispatcher runs the same net::MethodTable step
// as the synchronous one behind the prefix.
//
// The 16-byte TraceContext travels inside the authenticated plaintext —
// a remote trace id is integrity-protected exactly like the request id —
// and is re-installed (as a TraceScope) around the dispatcher's method, so
// crossings the method makes on the server chain under the client's trace.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/remote.h"
#include "net/secure_channel.h"
#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "trace/trace.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::runtime {

using RequestId = std::uint32_t;

/// Server side: unseals a burst of request records, dispatches each to the
/// registered method, and seals one reply record per request.
class AsyncRemoteDispatcher {
 public:
  using Method = net::MethodTable::Method;

  explicit AsyncRemoteDispatcher(net::SecureChannelEndpoint& channel);

  Status register_method(const std::string& name, Method handler) {
    return methods_.register_method(name, std::move(handler));
  }

  /// Process one pipelined burst. A record that fails channel
  /// authentication fails the whole burst with verification_failed (the
  /// sequence window is broken; the caller should drop the connection).
  /// Method-level problems (unknown method, malformed request, handler
  /// refusal) travel back inside the matching reply record.
  Result<std::vector<Bytes>> handle_burst(
      const std::vector<Bytes>& request_records);

 private:
  net::SecureChannelEndpoint& channel_;
  net::MethodTable methods_;
};

struct AsyncProxyConfig {
  std::size_t depth = 64;  // max in-flight submissions per flush
  MetricsHub* hub = nullptr;
  std::string label;
  /// Optional simulated clock. When set, completions carry submit->flush
  /// cycles (CqEvent::cycles), the latency histogram fills, and the
  /// adaptive controller below has something to feed on.
  const hw::Machine* clock = nullptr;
  /// Burst sizing. With adaptive.adaptive = true, submit() rings an
  /// implicit flush whenever the pending burst reaches the controller's
  /// current depth target — the same histogram-driven policy as
  /// CompletionQueue, at transport granularity. Off by default: explicit
  /// flush() keeps full control of burst boundaries.
  AdaptiveConfig adaptive{.adaptive = false};
};

/// Client side.
class AsyncRemoteProxy {
 public:
  /// Delivers a burst of sealed request records and returns the sealed
  /// reply records (e.g. SimNetwork datagrams + AsyncRemoteDispatcher).
  using Transport =
      std::function<Result<std::vector<Bytes>>(const std::vector<Bytes>&)>;

  AsyncRemoteProxy(net::SecureChannelEndpoint& channel, Transport transport,
                   AsyncProxyConfig config = {});

  /// Queue an invocation; nothing touches the wire yet.
  /// Errc::exhausted when `depth` submissions are already queued.
  Result<RequestId> submit(const std::string& method, BytesView payload);

  /// Withdraw a queued (not yet flushed) submission.
  Status cancel(RequestId id);

  /// Seal every queued submission and run one transport exchange.
  /// Replies become retrievable via take()/wait()/reap(). Once sealed,
  /// every submission ends in exactly one event and is never re-sealed:
  /// its reply's outcome, the transport's error, verification_failed when
  /// a reply record fails authentication, or io_error when the peer's
  /// replies skip or garble it. Only a channel that cannot seal (not
  /// established) refuses, leaving the submissions queued.
  Status flush();

  /// Drain up to `max` completed events (0 = all), oldest request id
  /// first — the CqEvent batch-drain face of the proxy. Never touches the
  /// wire; pair with flush() (or adaptive auto-flush).
  std::vector<CqEvent> reap(std::size_t max = 0);
  /// Apply `fn` to every completed event and return how many were drained.
  std::size_t for_each_completion(const std::function<void(CqEvent&)>& fn);

  /// Retrieve the reply for `id`; Errc::would_block while still queued or
  /// in flight, Errc::invalid_argument for unknown ids. Remote refusals
  /// come back as their original error codes. (Future-style shim over the
  /// CqEvent store — batch consumers use reap/for_each_completion.)
  Result<Bytes> take(RequestId id);

  /// flush() if needed, then take(id).
  Result<Bytes> wait(RequestId id);

  /// Single-call convenience — a thin shim over the batched path
  /// (submit + the same flush every pipelined burst uses + take). There is
  /// no separate single-call wire path: anything else queued rides the
  /// same transport exchange. Prefer submit()/flush()/reap() in new code;
  /// see docs/runtime.md for the migration table.
  Result<Bytes> call(const std::string& method, BytesView payload);

  std::size_t pending() const { return pending_.size(); }
  /// The adaptive controller's current burst target.
  std::size_t batch_depth() const { return controller_.depth(); }
  InvocationCounters metrics() const { return counters_.snapshot(); }

 private:
  struct PendingCall {
    RequestId id = 0;
    std::string method;
    Bytes payload;
    /// Submitting thread's trace context, sealed into the request record
    /// at flush time.
    trace::TraceContext ctx;
    /// Simulated clock at submit (0 without a configured clock).
    Cycles submitted_at = 0;
  };

  Cycles clock_now() const;

  net::SecureChannelEndpoint& channel_;
  Transport transport_;
  AsyncProxyConfig config_;
  AdaptiveBatchController controller_;
  std::vector<PendingCall> pending_;
  std::map<RequestId, CqEvent> completions_;
  RequestId next_id_ = 1;
  MetricsHub::CounterSlot own_counters_;
  MetricsHub::CounterRef counters_;
};

}  // namespace lateral::runtime
