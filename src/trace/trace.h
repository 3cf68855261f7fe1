// lateral::trace — cross-domain distributed tracing primitives.
//
// The horizontal paradigm makes end-to-end behaviour invisible to any single
// component: one user action fans out into channel crossings across several
// isolation domains, and no domain sees more than its own slice. This
// subsystem restores the end-to-end view without widening any trust
// boundary:
//
//   - A 16-byte TraceContext (trace id, parent span id, flags) rides every
//     crossing — sync call, call_batch, call_sg, pipelined proxy bursts —
//     in the substrate's metadata, exactly like a badge. Propagation inside
//     one domain is a thread-local (TraceScope), so nested invocations from
//     a handler chain automatically.
//   - Span events are stamped in *simulated cycles* at submit / flush /
//     dispatch / complete, so batching amortization is visible per request,
//     not just in aggregate counters.
//   - Each domain owns a fixed-size lock-free FlightRecorder ring holding
//     its last N span events. The ring is owned by the Tracer, NOT the
//     domain's memory, so it survives kill_domain: the supervisor snapshots
//     the corpse's ring into its recovery report before scrubbing — an MTTR
//     number with an explainable timeline attached.
//   - Redaction is the default: a span carries sizes, opcodes and cycle
//     stamps. Payload capture is opt-in per component (manifest `trace`
//     stanza) and exporting captured payloads is policy-checked against the
//     trust graph (core::check_trace_export) — trace data crossing a trust
//     boundary is itself a security decision.
//
// Layering: this header depends only on util (no substrate/core), so every
// layer — substrate, runtime, core, supervisor — can carry trace types
// without dependency cycles. The exporter (trace/exporter.h) sits above
// core and runtime.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/ring_registry.h"
#include "util/types.h"
#include "util/wire.h"

namespace lateral::trace {

/// Wire footprint of a TraceContext on a crossing: 8 bytes trace id,
/// 4 bytes parent span id, 4 bytes flags. This is what a traced crossing
/// is charged for (substrate trace_crossing_cost), once per crossing, on
/// the request direction only — replies carry no context.
constexpr std::size_t kTraceContextWireBytes = 16;

/// Propagated per-request identity. trace_id == 0 means "no trace": the
/// zero context is what untraced code paths carry, and every trace hook
/// short-circuits on it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t parent_span = 0;
  std::uint32_t flags = 0;

  static constexpr std::uint32_t kSampled = 1u << 0;

  bool sampled() const { return trace_id != 0 && (flags & kSampled) != 0; }

  /// Append the 16-byte wire form [u64 trace_id | u32 parent_span |
  /// u32 flags] to `out`.
  void encode(Bytes& out) const {
    wire::ByteWriter w(out);
    w.u64(trace_id);
    w.u32(parent_span);
    w.u32(flags);
  }

  /// Decode from a buffer of at least kTraceContextWireBytes; a shorter
  /// one decodes to the zero ("no trace") context.
  static TraceContext decode(BytesView in) {
    if (in.size() < kTraceContextWireBytes) return {};
    return TraceContext{.trace_id = wire::load_be64(in.data()),
                        .parent_span = wire::load_be32(in.data() + 8),
                        .flags = wire::load_be32(in.data() + 12)};
  }

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Lifecycle point a span event marks. The first four are the per-request
/// hot path (caller side: submit/flush; callee side: dispatch/complete);
/// the rest are supervision-flow markers so a recovery report reads as a
/// timeline.
enum class SpanPhase : std::uint8_t {
  submit,     // request accepted into a submission queue (caller domain)
  flush,      // batch crossed the boundary (caller domain)
  dispatch,   // request delivered to the handler (callee domain)
  complete,   // handler returned; reply crossed back (callee domain)
  cancelled,  // withdrawn before running
  timed_out,  // deadline expired before running
  killed,     // the domain died (kill_domain) — last ring entry of a corpse
  detected,   // supervisor confirmed the death
  relaunch,   // supervisor created the replacement domain
  attested,   // relaunch passed re-measurement / challenge-response
  recovered,  // component serving again (MTTR endpoint)
  // Fleet connection establishment (lateral::fleet). Two distinct phases so
  // exported flame views separate the expensive full quote exchange from the
  // one-RTT ticket path — a resumed connection should never be mistaken for
  // (or hide behind) a cold one.
  handshake_full,     // full three-message attested handshake completed
  handshake_resumed,  // one-RTT ticket resumption completed
  // Over-the-air update lifecycle (lateral::update). Three phases so an
  // exported timeline shows how long an image staged, when the swap
  // happened, and — on failure — when the automatic revert restored the
  // previous slot (the revert MTTR endpoint).
  update_stage,   // update image chunk staged/verified into the inactive slot
  update_commit,  // component restarted into the new measurement and held
  update_revert,  // probation failed; previous slot restored and serving
  // Completion-queue runtime (lateral::cq). One doorbell = one coalesced
  // crossing that flushes the submission ring and forms every completion;
  // the span's size field carries the adaptive controller's current batch
  // depth so an exported timeline shows the depth trajectory.
  doorbell,  // submission-ring flush crossing (caller domain)
};

constexpr std::string_view span_phase_name(SpanPhase p) {
  switch (p) {
    case SpanPhase::submit: return "submit";
    case SpanPhase::flush: return "flush";
    case SpanPhase::dispatch: return "dispatch";
    case SpanPhase::complete: return "complete";
    case SpanPhase::cancelled: return "cancelled";
    case SpanPhase::timed_out: return "timed_out";
    case SpanPhase::killed: return "killed";
    case SpanPhase::detected: return "detected";
    case SpanPhase::relaunch: return "relaunch";
    case SpanPhase::attested: return "attested";
    case SpanPhase::recovered: return "recovered";
    case SpanPhase::handshake_full: return "handshake_full";
    case SpanPhase::handshake_resumed: return "handshake_resumed";
    case SpanPhase::update_stage: return "update_stage";
    case SpanPhase::update_commit: return "update_commit";
    case SpanPhase::update_revert: return "update_revert";
    case SpanPhase::doorbell: return "doorbell";
  }
  return "unknown";
}

/// One flight-recorder entry. Fixed-size by construction (it must fit a
/// lock-free ring slot): payload capture keeps at most kCaptureBytes of the
/// message, and only when the component's manifest opted in — the default
/// span is sizes/opcodes/cycle stamps only (redaction by default).
struct SpanEvent {
  static constexpr std::size_t kCaptureBytes = 16;

  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_span = 0;
  SpanPhase phase = SpanPhase::submit;
  std::uint8_t payload_len = 0;  // captured bytes (<= kCaptureBytes)
  std::uint16_t reserved = 0;
  /// First 4 message bytes, big-endian — the protocol verb ("FETC", "STOR")
  /// as an integer, readable without any payload capture.
  std::uint32_t opcode = 0;
  Cycles at = 0;          // simulated machine clock at the stamp
  std::uint64_t size = 0; // full message size in bytes
  /// Monotonic write ticket of the owning ring (total order of events).
  std::uint64_t ticket = 0;
  std::array<std::uint8_t, kCaptureBytes> payload{};

  /// Record the opcode (always) and, when `capture` says the component
  /// opted in, the leading payload bytes.
  void note_payload(BytesView data, bool capture) {
    std::uint8_t head[4] = {};  // short payloads are zero-padded on the right
    std::copy_n(data.begin(), std::min<std::size_t>(4, data.size()), head);
    opcode = wire::load_be32(head);
    if (!capture) return;
    payload_len = static_cast<std::uint8_t>(
        data.size() < kCaptureBytes ? data.size() : kCaptureBytes);
    for (std::size_t i = 0; i < payload_len; ++i) payload[i] = data[i];
  }
};

/// Fixed-size lock-free ring of the last N span events of one domain.
//
// Writer protocol (seqlock per slot): claim a ticket (fetch_add), CAS the
// slot's sequence from "stable for the previous lap" to odd (writing), store
// the event as relaxed word stores, publish with a release store of the new
// even sequence. A CAS failure means another writer is mid-flight on the
// same slot (tickets a full lap apart) — the event is dropped and counted,
// never blocked on: a flight recorder is lossy by design, the *recent* tail
// is what matters. Readers are wait-free: acquire the sequence, copy the
// words, re-check the sequence; a torn slot is skipped.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  static constexpr std::size_t kDefaultCapacity = 256;

  /// Record one event; never blocks. Returns false when the slot was
  /// contended and the event dropped (counted in dropped()).
  bool record(SpanEvent event);

  /// Consistent copy of the retained events, oldest first. Safe to call
  /// concurrently with writers.
  std::vector<SpanEvent> snapshot() const;

  /// Forget everything (scrub after a supervisor snapshotted a corpse).
  void clear();

  std::size_t capacity() const { return slots_.size(); }
  /// Total events ever recorded (monotonic, survives clear()).
  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kWords = 8;

  struct Slot {
    /// 0 = never written; odd = write in progress; 2*(ticket+1) = stable.
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  static std::array<std::uint64_t, kWords> pack(const SpanEvent& event);
  static SpanEvent unpack(const std::array<std::uint64_t, kWords>& words);

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Owns the per-domain flight recorders and mints trace / span ids.
//
// Rings are keyed by (substrate instance, domain id) and labelled with the
// domain's name, so an exporter can present them per component. Crucially
// the Tracer — not the substrate's domain record — owns the ring storage:
// kill_domain releases the domain's memory but the ring stays readable
// until scrub(), which is what lets a supervisor reconstruct the corpse's
// final cycles.
class Tracer {
 public:
  explicit Tracer(std::size_t ring_capacity = FlightRecorder::kDefaultCapacity)
      : ring_capacity_(ring_capacity ? ring_capacity : 1) {}

  /// Master switch. Attaching a Tracer to a substrate is the compile-in;
  /// this is the runtime off-switch benchmarks use to show the disabled
  /// cost is near zero.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Start a new trace: fresh id, sampled, no parent. Install it with a
  /// TraceScope to have it ride every crossing the calling thread makes.
  TraceContext begin_trace() {
    TraceContext ctx;
    ctx.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
    ctx.flags = TraceContext::kSampled;
    return ctx;
  }

  /// Mint a span id (unique within this tracer).
  std::uint32_t next_span() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The ring of (owner, domain), created on first use with `label` (the
  /// domain's name). The reference stays valid for the Tracer's lifetime.
  FlightRecorder& recorder(const void* owner, std::uint64_t domain,
                           std::string_view label) {
    return rings_.find_or_create(owner, domain, label, [this] {
      return std::make_unique<FlightRecorder>(ring_capacity_);
    });
  }

  /// Snapshot of one domain's ring; empty when the domain never recorded.
  std::vector<SpanEvent> snapshot(const void* owner,
                                  std::uint64_t domain) const {
    return rings_.snapshot(owner, domain);
  }

  /// Scrub one domain's ring (after snapshotting a corpse). The ring object
  /// survives — a relaunched incarnation under the same domain id would
  /// reuse it — but its contents and label-to-events association are gone.
  void scrub(const void* owner, std::uint64_t domain) {
    rings_.scrub(owner, domain);
  }

  /// Every ring this tracer owns (label + recorder), for exporters.
  using RingRef = util::RingRegistry<FlightRecorder>::Ref;
  std::vector<RingRef> rings() const { return rings_.rings(); }

  std::uint64_t traces_started() const {
    return next_trace_.load(std::memory_order_relaxed) - 1;
  }

 private:
  std::size_t ring_capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint32_t> next_span_{1};
  util::RingRegistry<FlightRecorder> rings_;
};

/// The calling thread's current trace context (zero context when none).
/// Substrates read this at every crossing; handlers run under a TraceScope
/// carrying the delivered context, so nested crossings chain automatically.
const TraceContext& current_context();

/// RAII: install `ctx` as the thread's current context, restore on exit.
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& ctx);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace lateral::trace
