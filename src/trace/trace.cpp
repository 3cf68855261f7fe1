#include "trace/trace.h"

#include <algorithm>

namespace lateral::trace {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

thread_local TraceContext g_current_context;

}  // namespace

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(round_up_pow2(capacity ? capacity : 1)) {
  mask_ = slots_.size() - 1;
}

std::array<std::uint64_t, FlightRecorder::kWords> FlightRecorder::pack(
    const SpanEvent& e) {
  std::array<std::uint64_t, kWords> w{};
  w[0] = e.trace_id;
  w[1] = (static_cast<std::uint64_t>(e.span_id) << 32) | e.parent_span;
  w[2] = (static_cast<std::uint64_t>(e.phase) << 56) |
         (static_cast<std::uint64_t>(e.payload_len) << 48) |
         (static_cast<std::uint64_t>(e.reserved) << 32) | e.opcode;
  w[3] = static_cast<std::uint64_t>(e.at);
  w[4] = e.size;
  std::uint64_t lo = 0, hi = 0;
  for (int i = 0; i < 8; ++i) lo |= static_cast<std::uint64_t>(e.payload[i]) << (8 * i);
  for (int i = 0; i < 8; ++i)
    hi |= static_cast<std::uint64_t>(e.payload[8 + i]) << (8 * i);
  w[5] = lo;
  w[6] = hi;
  w[7] = e.ticket;
  return w;
}

SpanEvent FlightRecorder::unpack(const std::array<std::uint64_t, kWords>& w) {
  SpanEvent e;
  e.trace_id = w[0];
  e.span_id = static_cast<std::uint32_t>(w[1] >> 32);
  e.parent_span = static_cast<std::uint32_t>(w[1]);
  e.phase = static_cast<SpanPhase>(w[2] >> 56);
  e.payload_len = static_cast<std::uint8_t>(w[2] >> 48);
  e.reserved = static_cast<std::uint16_t>(w[2] >> 32);
  e.opcode = static_cast<std::uint32_t>(w[2]);
  e.at = static_cast<Cycles>(w[3]);
  e.size = w[4];
  for (int i = 0; i < 8; ++i)
    e.payload[i] = static_cast<std::uint8_t>(w[5] >> (8 * i));
  for (int i = 0; i < 8; ++i)
    e.payload[8 + i] = static_cast<std::uint8_t>(w[6] >> (8 * i));
  e.ticket = w[7];
  return e;
}

bool FlightRecorder::record(SpanEvent event) {
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  event.ticket = ticket;
  Slot& slot = slots_[ticket & mask_];

  // The slot last held ticket - capacity (previous lap) with stable sequence
  // 2 * (ticket - capacity + 1) — or 0 if this is the first lap. A writer a
  // full lap ahead may already be in the slot; in that lossy case we drop
  // rather than spin (a flight recorder must never stall the data plane).
  std::uint64_t expected =
      ticket >= slots_.size() ? 2 * (ticket - slots_.size() + 1) : 0;
  if (!slot.seq.compare_exchange_strong(expected, expected + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const auto words = pack(event);
  for (std::size_t i = 0; i < kWords; ++i)
    slot.words[i].store(words[i], std::memory_order_relaxed);
  slot.seq.store(2 * (ticket + 1), std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<SpanEvent> FlightRecorder::snapshot() const {
  std::vector<SpanEvent> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == 0 || (seq & 1)) continue;  // never written, or mid-write
    std::array<std::uint64_t, kWords> words;
    for (std::size_t i = 0; i < kWords; ++i)
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;  // torn
    out.push_back(unpack(words));
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.ticket < b.ticket;
            });
  return out;
}

void FlightRecorder::clear() {
  // Contract: no concurrent record() on this ring — clear() scrubs a dead
  // domain's recorder, and a corpse has no running writer. The write cursor
  // resets too, so the per-lap sequence arithmetic starts fresh.
  for (Slot& slot : slots_) {
    for (std::size_t i = 0; i < kWords; ++i)
      slot.words[i].store(0, std::memory_order_relaxed);
    slot.seq.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Tracer

// ---------------------------------------------------------------------------
// Thread-local context

const TraceContext& current_context() { return g_current_context; }

TraceScope::TraceScope(const TraceContext& ctx) : saved_(g_current_context) {
  g_current_context = ctx;
}

TraceScope::~TraceScope() { g_current_context = saved_; }

}  // namespace lateral::trace
