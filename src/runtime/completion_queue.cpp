#include "runtime/completion_queue.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace lateral::runtime {

// --- AdaptiveBatchController ------------------------------------------------

AdaptiveBatchController::AdaptiveBatchController(AdaptiveConfig config)
    : config_(config) {
  if (config_.min_batch == 0) config_.min_batch = 1;
  if (config_.max_batch < config_.min_batch)
    config_.max_batch = config_.min_batch;
  depth_ = config_.initial == 0
               ? config_.min_batch
               : std::clamp(config_.initial, config_.min_batch,
                            config_.max_batch);
}

void AdaptiveBatchController::observe(std::size_t occupancy, Cycles window_p50,
                                      Cycles window_p99) {
  if (!config_.adaptive) return;
  // The latency floor is what the smallest batches cost on this substrate;
  // it only ever ratchets down. An empty window (p50 == 0: cold start, or
  // nothing in the window actually crossed) leaves it untouched.
  if (window_p50 > 0 && (floor_p50_ == 0 || window_p50 < floor_p50_))
    floor_p50_ = window_p50;
  const Cycles bound = floor_p50_ * config_.tail_factor;

  // Tail damper first: a window whose p99 already blew the bound means the
  // current depth is buying throughput with latency we promised not to
  // spend — back off regardless of occupancy.
  if (window_p99 > 0 && bound > 0 && window_p99 > bound) {
    if (depth_ / 2 >= config_.min_batch) {
      depth_ /= 2;
      ++shrinks_;
    }
    return;
  }

  if (occupancy >= depth_) {
    // Saturated: deepen for throughput, but only with tail headroom —
    // doubling the batch can as much as double the per-entry latency on a
    // byte-dominated crossing, so require the doubled p99 to still fit.
    const bool headroom = window_p99 == 0 || bound == 0 ||
                          window_p99 * 2 <= bound;
    if (headroom && depth_ * 2 <= config_.max_batch) {
      depth_ *= 2;
      ++grows_;
    }
  } else if (occupancy * 4 <= depth_ && depth_ / 2 >= config_.min_batch) {
    // Shallow: shrink for latency. The 4x hysteresis keeps a queue
    // hovering just under target from oscillating.
    depth_ /= 2;
    ++shrinks_;
  }
}

// --- CompletionQueue --------------------------------------------------------

CompletionQueue::CompletionQueue(substrate::IsolationSubstrate& substrate,
                                 substrate::DomainId actor,
                                 substrate::ChannelId channel,
                                 CompletionQueueConfig config)
    : substrate_(substrate),
      actor_(actor),
      channel_(channel),
      epoch_(substrate.channel_epoch(channel).value_or(0)),
      ring_(std::max<std::size_t>(
          {config.depth, config.adaptive.max_batch, 1})),
      cancel_marks_(ring_.capacity()),
      controller_(config.adaptive),
      flush_age_(config.adaptive.flush_age),
      counters_(config.hub ? config.hub->counters(config.label)
                           : MetricsHub::CounterRef(&own_counters_)) {}

CompletionQueue::CompletionQueue(const core::Endpoint& endpoint,
                                 CompletionQueueConfig config)
    : CompletionQueue(*endpoint.substrate(), endpoint.actor(),
                      endpoint.channel(), std::move(config)) {
  epoch_ = endpoint.epoch();  // the endpoint's incarnation, not today's
}

Result<SubmissionId> CompletionQueue::enqueue(
    Bytes& request, std::vector<substrate::RegionDescriptor> segments,
    SubmitOptions opts, RegionPool* pool, RegionPool::Slot slot) {
  if (ring_.full()) {
    ++counters_->rejected;
    return Errc::exhausted;
  }
  Pending pending{ring_.tail() + 1, {std::move(request), std::move(segments)},
                  0, opts.deadline, pool, slot, {},
                  substrate_.machine().now()};
  for (const substrate::RegionDescriptor& seg : pending.request.segments)
    pending.payload += seg.length;
  if (const trace::TraceContext& cur = trace::current_context();
      substrate_.tracing_active() && cur.sampled()) {
    const std::uint32_t span = substrate_.tracer()->next_span();
    substrate_.stamp_span(actor_, cur, span, trace::SpanPhase::submit,
                          pending.request.header,
                          pending.request.header.size() + pending.payload);
    pending.ctx = {cur.trace_id, span, cur.flags};
  }
  // The flush_age bound needs the age of the *oldest* queued entry; that
  // entry is the one that found the ring empty.
  if (ring_.empty()) oldest_submitted_at_ = pending.submitted_at;
  const SubmissionId id = pending.id;
  (void)ring_.push(std::move(pending));  // space checked above
  {
    auto locked = counters_.operator->();
    ++locked->submitted;
    locked->record_depth(ring_.size());
  }
  return id;
}

Result<SubmissionId> CompletionQueue::submit(BytesView request,
                                             SubmitOptions opts) {
  Bytes copy(request.begin(), request.end());
  return enqueue(copy, {}, opts);
}

Result<SubmissionId> CompletionQueue::submit(Bytes&& request,
                                             SubmitOptions opts) {
  return enqueue(request, {}, opts);
}

Result<SubmissionId> CompletionQueue::submit_sg(
    BytesView header, std::vector<substrate::RegionDescriptor> segments,
    SubmitOptions opts) {
  if (segments.empty()) return Errc::invalid_argument;
  Bytes copy(header.begin(), header.end());
  return enqueue(copy, std::move(segments), opts);
}

Result<SubmissionId> CompletionQueue::submit_staged(RegionPool& pool,
                                                    BytesView header,
                                                    BytesView payload,
                                                    SubmitOptions opts) {
  auto slot = pool.acquire();
  if (!slot) return slot.error();
  auto desc = pool.stage(*slot, payload);
  Bytes copy(header.begin(), header.end());
  auto id = desc ? enqueue(copy, {*desc}, opts, &pool, *slot)
                 : Result<SubmissionId>(desc.error());
  if (!id) pool.release(*slot);  // the lease must not leak
  return id;
}

Status CompletionQueue::cancel(SubmissionId id) {
  if (!queued(id)) return Errc::invalid_argument;
  cancel_marks_[(id - 1) & (ring_.capacity() - 1)] = true;
  return Status::success();
}

void CompletionQueue::finish_pending(
    Pending& pending, InvocationCounters& delta,
    std::uint64_t InvocationCounters::* counter,
    std::optional<trace::SpanPhase> phase, Result<Bytes> result,
    Cycles latency) {
  ++(delta.*counter);
  if (latency > 0) delta.record_latency(latency);
  // Terminal without running: close the submit span in place (same span
  // id), so the ring shows submit -> cancelled/timed_out, never a dangling
  // submit. Invocations that ran get their dispatch/complete spans from the
  // substrate instead.
  if (phase && pending.ctx.sampled())
    substrate_.stamp_span(actor_, pending.ctx, pending.ctx.parent_span,
                          *phase, {}, 0);
  if (pending.pool) pending.pool->release(pending.slot);
  ready_.push_back({pending.id, result ? Errc::ok : result.error(),
                    result ? std::move(*result) : Bytes{}, latency});
}

void CompletionQueue::flush(InvocationCounters& delta) {
  if (ring_.empty()) return;
  const Cycles now = substrate_.machine().now();
  // The scratch vectors are taken out of the members for the flush and
  // handed back, emptied, at its end, so their capacity is reused.
  std::vector<Pending> batch = std::move(batch_scratch_);
  // Every flush rides the scatter-gather call: an inline entry is an
  // SgRequest with no segments, which crosses at exactly the cost it would
  // on call_batch, and its buffer is moved, not copied, so the payload is
  // still copied exactly once (by the substrate's delivery).
  std::vector<substrate::SgRequest> requests = std::move(requests_scratch_);
  batch.reserve(ring_.size());
  requests.reserve(ring_.size());
  while (auto pending = ring_.pop()) {
    std::vector<bool>::reference cancelled =
        cancel_marks_[(pending->id - 1) & (ring_.capacity() - 1)];
    if (cancelled) {
      cancelled = false;
      finish_pending(*pending, delta, &InvocationCounters::cancelled,
                     trace::SpanPhase::cancelled, Errc::cancelled);
    } else if (pending->deadline != 0 && now > pending->deadline) {
      finish_pending(*pending, delta, &InvocationCounters::timed_out,
                     trace::SpanPhase::timed_out, Errc::timed_out);
    } else {
      requests.push_back(std::move(pending->request));
      batch.push_back(std::move(*pending));
    }
  }
  if (!batch.empty()) cross(batch, requests, delta);
  batch.clear();
  requests.clear();
  batch_scratch_ = std::move(batch);
  requests_scratch_ = std::move(requests);
}

void CompletionQueue::cross(std::vector<Pending>& batch,
                            std::vector<substrate::SgRequest>& requests,
                            InvocationCounters& delta) {
  // Delivered, not lost: a batch that cannot cross completes every entry
  // with the reason.
  const auto fail_all = [&](Errc error) {
    for (Pending& pending : batch)
      finish_pending(pending, delta, &InvocationCounters::completed,
                     std::nullopt, error);
  };

  // Epoch fence: a supervised restart of the peer re-epochs the channel,
  // and everything queued here was addressed to the old incarnation, so
  // the whole batch fails fast with stale_epoch and the holder re-attaches.
  const auto epoch = substrate_.channel_epoch(channel_);
  if (!epoch) return fail_all(epoch.error());
  if (*epoch != epoch_) return fail_all(Errc::stale_epoch);

  // One TraceContext represents the whole flush (the crossing is singular
  // even when the batch is not): the first traced submission's. Installing
  // it as the thread's context is what hands it to the substrate, which
  // then mints per-request dispatch/complete spans under it.
  const auto traced =
      std::find_if(batch.begin(), batch.end(),
                   [](const Pending& p) { return p.ctx.sampled(); });
  std::optional<trace::TraceScope> trace_scope;
  if (substrate_.tracing_active() && traced != batch.end()) {
    substrate_.stamp_span(actor_, traced->ctx,
                          substrate_.tracer()->next_span(),
                          trace::SpanPhase::flush, {}, batch.size());
    trace_scope.emplace(traced->ctx);
  }

  for (const Pending& pending : batch) delta.zero_copy_bytes += pending.payload;
  Result<substrate::BatchReply> reply =
      substrate_.call_batch_sg(actor_, channel_, requests);
  delta.record_batch(batch.size());
  if (!reply) return fail_all(reply.error());  // no handler, revoked, ...

  // Cycle accounting: what would the same calls have cost one-at-a-time,
  // with every payload byte copied (inline bytes, or header + the payload
  // the descriptors name)? The honest baseline the amortization and
  // zero-copy savings are measured against.
  Cycles sync_equivalent = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Result<Bytes>& r = reply->replies[i];
    sync_equivalent +=
        substrate_.message_cost(requests[i].header.size() + batch[i].payload) +
        substrate_.message_cost(r.ok() ? r->size() : 0);
  }
  delta.sync_equivalent_cycles += sync_equivalent;
  delta.crossing_cycles += reply->crossing_cycles;

  const Cycles after = substrate_.machine().now();
  for (std::size_t i = 0; i < batch.size(); ++i)
    finish_pending(batch[i], delta, &InvocationCounters::completed,
                   std::nullopt, std::move(reply->replies[i]),
                   after - batch[i].submitted_at);
}

void publish_doorbell(const MetricsHub::CounterRef& counters,
                      const InvocationCounters& delta,
                      const AdaptiveBatchController* controller) {
  const auto locked = counters.operator->();
  locked->add(delta);
  ++locked->doorbells;
  if (!controller) return;
  locked->adaptive_depth = controller->depth();
  locked->adaptive_grows = controller->grows();
  locked->adaptive_shrinks = controller->shrinks();
}

Status CompletionQueue::doorbell() {
  const std::size_t occupancy = ring_.size();
  if (occupancy == 0) return Status::success();

  // One span represents the coalesced crossing; its size field carries the
  // controller's depth target so an exported timeline shows the depth
  // trajectory alongside the flush/dispatch spans the flush mints.
  if (const trace::TraceContext& cur = trace::current_context();
      substrate_.tracing_active() && cur.sampled())
    substrate_.stamp_span(actor_, cur, substrate_.tracer()->next_span(),
                          trace::SpanPhase::doorbell, {},
                          controller_.depth());

  const std::size_t first = ready_.size();
  InvocationCounters delta;
  flush(delta);
  // This window's latency histogram, over the events the flush just formed
  // (the same log2 histogram the cumulative counters keep — but windowed,
  // so a long sparse phase cannot poison the controller's view of what the
  // current depth costs).
  InvocationCounters window;
  for (auto it = ready_.begin() + static_cast<std::ptrdiff_t>(first);
       it != ready_.end(); ++it)
    if (it->cycles > 0) window.record_latency(it->cycles);
  controller_.observe(occupancy, window.latency_percentile(0.50),
                      window.latency_percentile(0.99));
  publish_doorbell(counters_, delta, &controller_);
  return Status::success();
}

Status CompletionQueue::maybe_doorbell() {
  const std::size_t queued = ring_.size();
  if (queued > 0 &&
      (queued >= controller_.depth() ||
       (flush_age_ > 0 &&
        substrate_.machine().now() - oldest_submitted_at_ >= flush_age_)))
    return doorbell();
  return Status::success();
}

Result<std::vector<CqEvent>> CompletionQueue::reap(std::size_t max,
                                                   Cycles deadline) {
  if (ready_.empty() &&
      (deadline == 0 || substrate_.machine().now() <= deadline))
    (void)doorbell();
  const auto n = static_cast<std::ptrdiff_t>(
      max == 0 ? ready_.size() : std::min(max, ready_.size()));
  std::vector<CqEvent> out(std::make_move_iterator(ready_.begin()),
                           std::make_move_iterator(ready_.begin() + n));
  ready_.erase(ready_.begin(), ready_.begin() + n);
  return out;
}

std::size_t CompletionQueue::for_each_completion(
    const std::function<void(CqEvent&)>& fn) {
  std::size_t n = 0;
  for (; !ready_.empty(); ++n) {
    CqEvent event = std::move(ready_.front());
    ready_.pop_front();
    fn(event);
  }
  return n;
}

Result<Bytes> CompletionQueue::take(SubmissionId id) {
  const auto it = std::find_if(ready_.begin(), ready_.end(),
                               [id](const CqEvent& e) { return e.id == id; });
  if (it == ready_.end()) return Errc::invalid_argument;
  CqEvent event = std::move(*it);
  ready_.erase(it);
  if (!event.ok()) return event.status;
  return std::move(event.payload);
}

Result<Bytes> CompletionQueue::wait(SubmissionId id) {
  if (queued(id)) (void)doorbell();
  return take(id);
}

}  // namespace lateral::runtime
