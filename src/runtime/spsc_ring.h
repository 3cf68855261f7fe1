// Single-producer single-consumer ring queue — the submission/completion
// queue shape of io_uring, shrunk to this simulation's needs.
//
// CompletionQueue keeps its submission ring in one of these: the client
// (producer) enqueues invocations without crossing the isolation boundary,
// then the doorbell pops the whole ring and crosses ONCE per batch.
// Head and tail are monotonically increasing 64-bit counters; the index is
// `counter & mask`, so wraparound is free and full/empty are `tail-head`
// comparisons, never an ambiguous head==tail. The counters double as
// sequence numbers: the element pushed as the n-th (0-based) ever sits in
// slot `n & mask` and is queued exactly while head() <= n < tail().
//
// Progress is wait-free for both sides: the producer only writes `tail`,
// the consumer only writes `head`. That makes the ring safe for the
// executor's worker threads as well as the (single-threaded) batching
// path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace lateral::runtime {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2) so indexing is a
  /// mask, exactly like the kernel ring buffers this models.
  explicit SpscRing(std::size_t capacity) {
    std::size_t rounded = 2;
    while (rounded < capacity) rounded <<= 1;
    slots_.resize(rounded);
  }

  std::size_t capacity() const { return slots_.size(); }

  std::size_t size() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }

  /// Count of elements ever popped / ever pushed.
  std::uint64_t head() const { return head_.load(std::memory_order_acquire); }
  std::uint64_t tail() const { return tail_.load(std::memory_order_acquire); }

  bool empty() const { return size() == 0; }
  bool full() const { return size() == capacity(); }

  /// Producer side. False when the ring is full (backpressure — the caller
  /// must surface this, never drop).
  bool push(T value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head == capacity()) return false;
    slots_[tail & (capacity() - 1)] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. nullopt when empty.
  std::optional<T> pop() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return std::nullopt;
    std::optional<T>& slot = slots_[head & (capacity() - 1)];
    std::optional<T> out = std::move(slot);
    slot.reset();
    head_.store(head + 1, std::memory_order_release);
    return out;
  }

 private:
  std::vector<std::optional<T>> slots_;
  std::atomic<std::uint64_t> head_{0};  // consumer cursor
  std::atomic<std::uint64_t> tail_{0};  // producer cursor
};

}  // namespace lateral::runtime
