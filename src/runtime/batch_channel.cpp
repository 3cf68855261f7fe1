#include "runtime/batch_channel.h"

#include <optional>
#include <vector>

namespace lateral::runtime {

BatchChannel::BatchChannel(substrate::IsolationSubstrate& substrate,
                           substrate::DomainId actor,
                           substrate::ChannelId channel,
                           BatchChannelConfig config)
    : substrate_(substrate),
      actor_(actor),
      channel_(channel),
      epoch_(substrate.channel_epoch(channel).value_or(0)),
      submissions_(config.depth),
      completions_(config.depth),
      counters_(config.hub ? config.hub->counters(config.label)
                           : MetricsHub::CounterRef(&own_counters_)) {}

BatchChannel::BatchChannel(const core::Endpoint& endpoint,
                           BatchChannelConfig config)
    : substrate_(*endpoint.substrate()),
      actor_(endpoint.actor()),
      channel_(endpoint.channel()),
      epoch_(endpoint.epoch()),
      submissions_(config.depth),
      completions_(config.depth),
      counters_(config.hub ? config.hub->counters(config.label)
                           : MetricsHub::CounterRef(&own_counters_)) {}

Result<SubmissionId> BatchChannel::enqueue(Pending pending) {
  pending.id = next_id_++;
  pending.submitted_at = substrate_.machine().now();
  if (const trace::TraceContext& cur = trace::current_context();
      substrate_.tracing_active() && cur.sampled()) {
    std::uint64_t total = pending.request.size();
    for (const substrate::RegionDescriptor& seg : pending.segments)
      total += seg.length;
    const std::uint32_t span = substrate_.tracer()->next_span();
    substrate_.stamp_span(actor_, cur, span, trace::SpanPhase::submit,
                          pending.request, total);
    pending.ctx = {cur.trace_id, span, cur.flags};
  }
  const SubmissionId id = pending.id;
  if (!submissions_.push(std::move(pending))) {
    ++counters_->rejected;
    // next_id_ already advanced; ids are opaque, gaps are fine.
    return Errc::exhausted;
  }
  live_.insert(id);
  ++counters_->submitted;
  counters_->record_depth(submissions_.size());
  return id;
}

Result<SubmissionId> BatchChannel::submit(BytesView request,
                                          SubmitOptions opts) {
  return submit(Bytes(request.begin(), request.end()), opts);
}

Result<SubmissionId> BatchChannel::submit(Bytes&& request, SubmitOptions opts) {
  Pending pending;
  pending.request = std::move(request);
  pending.deadline = opts.deadline;
  return enqueue(std::move(pending));
}

Result<SubmissionId> BatchChannel::submit_sg(
    BytesView header, std::vector<substrate::RegionDescriptor> segments,
    SubmitOptions opts) {
  if (segments.empty()) return Errc::invalid_argument;
  Pending pending;
  pending.request.assign(header.begin(), header.end());
  pending.segments = std::move(segments);
  pending.deadline = opts.deadline;
  return enqueue(std::move(pending));
}

Result<SubmissionId> BatchChannel::submit_staged(RegionPool& pool,
                                                 BytesView header,
                                                 BytesView payload,
                                                 SubmitOptions opts) {
  auto slot = pool.acquire();
  if (!slot) return slot.error();
  auto desc = pool.stage(*slot, payload);
  if (!desc) {
    pool.release(*slot);
    return desc.error();
  }
  Pending pending;
  pending.request.assign(header.begin(), header.end());
  pending.segments.push_back(*desc);
  pending.deadline = opts.deadline;
  pending.pool = &pool;
  pending.slot = *slot;
  auto id = enqueue(std::move(pending));
  if (!id) pool.release(*slot);  // ring full: the lease must not leak
  return id;
}

void BatchChannel::release_slot(Pending& pending) {
  if (!pending.pool) return;
  pending.pool->release(pending.slot);
  pending.pool = nullptr;
}

Status BatchChannel::cancel(SubmissionId id) {
  if (!live_.contains(id)) return Errc::invalid_argument;
  cancelled_.insert(id);
  return Status::success();
}

void BatchChannel::complete(Completion completion) {
  // Space was reserved up front in flush(), so this never fails.
  (void)completions_.push(std::move(completion));
}

void BatchChannel::finish_pending(Pending& pending,
                                  std::uint64_t InvocationCounters::* counter,
                                  std::optional<trace::SpanPhase> phase,
                                  Result<Bytes> result, Cycles latency) {
  {
    // One locked statement covers both counter updates.
    auto locked = counters_.operator->();
    InvocationCounters* c = locked.operator->();
    ++(c->*counter);
    if (latency > 0) c->record_latency(latency);
  }
  // Terminal without running: close the submit span in place (same span
  // id), so the ring shows submit -> cancelled/timed_out, never a dangling
  // submit. Invocations that ran get their dispatch/complete spans from the
  // substrate instead.
  if (phase && pending.ctx.sampled())
    substrate_.stamp_span(actor_, pending.ctx, pending.ctx.parent_span,
                          *phase, {}, 0);
  release_slot(pending);
  complete({pending.id, std::move(result), latency});
}

Status BatchChannel::flush() {
  const std::size_t queued = submissions_.size();
  if (queued == 0) return Status::success();
  // Reserve completion space for every queued invocation BEFORE popping
  // anything: refusing up front is what keeps backpressure lossless.
  if (completions_.capacity() - completions_.size() < queued)
    return Errc::exhausted;

  const Cycles now = substrate_.machine().now();
  std::vector<Pending> batch;
  batch.reserve(queued);
  while (auto pending = submissions_.pop()) {
    live_.erase(pending->id);
    if (cancelled_.erase(pending->id) > 0) {
      finish_pending(*pending, &InvocationCounters::cancelled,
                     trace::SpanPhase::cancelled, Errc::cancelled);
    } else if (pending->deadline != 0 && now > pending->deadline) {
      finish_pending(*pending, &InvocationCounters::timed_out,
                     trace::SpanPhase::timed_out, Errc::timed_out);
    } else {
      batch.push_back(std::move(*pending));
    }
  }
  if (batch.empty()) return Status::success();

  // Epoch fence: a supervised restart of the peer re-epochs the channel,
  // and everything queued here was addressed to the old incarnation. Fail
  // the whole batch fast with stale_epoch (lossless — every invocation
  // still gets its completion) so the holder re-attaches.
  Errc fence = Errc::ok;
  if (const auto epoch_now = substrate_.channel_epoch(channel_); !epoch_now)
    fence = epoch_now.error();
  else if (*epoch_now != epoch_)
    fence = Errc::stale_epoch;
  if (fence != Errc::ok) {
    for (Pending& pending : batch)
      finish_pending(pending, &InvocationCounters::completed, std::nullopt,
                     fence);
    return Status::success();
  }

  // One TraceContext represents the whole flush (the crossing is singular
  // even when the batch is not): the first traced submission's. Installing
  // it as the thread's context is what hands it to the substrate, which
  // then mints per-request dispatch/complete spans under it.
  const Pending* first_traced = nullptr;
  for (const Pending& pending : batch)
    if (pending.ctx.sampled()) {
      first_traced = &pending;
      break;
    }
  std::optional<trace::TraceScope> trace_scope;
  if (substrate_.tracing_active() && first_traced) {
    substrate_.stamp_span(actor_, first_traced->ctx,
                          substrate_.tracer()->next_span(),
                          trace::SpanPhase::flush, {}, batch.size());
    trace_scope.emplace(first_traced->ctx);
  }

  // Every flush rides the scatter-gather call: an inline entry becomes an
  // SgRequest with no segments, which crosses at exactly the cost it would
  // on call_batch, and its buffer is moved in, not copied, so the payload is
  // still copied exactly once (by the substrate's delivery).
  std::vector<substrate::SgRequest> requests;
  requests.reserve(batch.size());
  // Per-entry size of the sync-equivalent *copy* message: inline bytes, or
  // header + the payload bytes the descriptors name. This is the honest
  // baseline the amortization/zero-copy savings are measured against.
  std::vector<std::size_t> sync_sizes(batch.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& pending = batch[i];
    std::size_t payload = 0;
    for (const substrate::RegionDescriptor& seg : pending.segments)
      payload += seg.length;
    sync_sizes[i] = pending.request.size() + payload;
    counters_->zero_copy_bytes += payload;
    substrate::SgRequest request;
    request.header = std::move(pending.request);
    request.segments = std::move(pending.segments);
    requests.push_back(std::move(request));
  }
  Result<substrate::BatchReply> reply =
      substrate_.call_batch_sg(actor_, channel_, requests);
  counters_->record_batch(batch.size());
  if (!reply) {
    // Batch-level refusal (no handler, revoked channel, ...): every
    // invocation gets the refusal as its completion — delivered, not lost.
    for (Pending& pending : batch)
      finish_pending(pending, &InvocationCounters::completed, std::nullopt,
                     reply.error());
    return Status::success();
  }

  // Cycle accounting: what would the same calls have cost one-at-a-time,
  // with every payload byte copied?
  Cycles sync_equivalent = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Result<Bytes>& r = reply->replies[i];
    sync_equivalent += substrate_.message_cost(sync_sizes[i]) +
                       substrate_.message_cost(r.ok() ? r->size() : 0);
  }
  counters_->sync_equivalent_cycles += sync_equivalent;
  counters_->crossing_cycles += reply->crossing_cycles;

  const Cycles after = substrate_.machine().now();
  for (std::size_t i = 0; i < batch.size(); ++i)
    finish_pending(batch[i], &InvocationCounters::completed, std::nullopt,
                   std::move(reply->replies[i]), after - batch[i].submitted_at);
  return Status::success();
}

Result<Completion> BatchChannel::next_completion() {
  if (!stashed_.empty()) {
    auto it = stashed_.begin();
    Completion out{it->first, std::move(it->second)};
    stashed_.erase(it);
    return out;
  }
  if (auto completion = completions_.pop()) return std::move(*completion);
  return Errc::would_block;
}

Result<Bytes> BatchChannel::wait(SubmissionId id) {
  if (const auto it = stashed_.find(id); it != stashed_.end()) {
    Result<Bytes> out = std::move(it->second);
    stashed_.erase(it);
    return out;
  }
  if (live_.contains(id)) {
    if (const Status s = flush(); !s.ok()) return s.error();
  }
  while (auto completion = completions_.pop()) {
    if (completion->id == id) return std::move(completion->result);
    stashed_.emplace(completion->id, std::move(completion->result));
  }
  return Errc::invalid_argument;  // id never submitted here or already taken
}

}  // namespace lateral::runtime
