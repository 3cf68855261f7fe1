#include "runtime/batch_channel.h"

#include <utility>

namespace lateral::runtime {
namespace {

// Fixed depth: the ring is exactly `depth` deep and the controller never
// moves (BatchChannel never rings the doorbell, so it is never fed).
CompletionQueueConfig fixed_depth(BatchChannelConfig config) {
  CompletionQueueConfig out;
  out.depth = config.depth;
  out.adaptive.max_batch = 1;
  out.adaptive.adaptive = false;
  out.hub = config.hub;
  out.label = std::move(config.label);
  return out;
}

}  // namespace

BatchChannel::BatchChannel(substrate::IsolationSubstrate& substrate,
                           substrate::DomainId actor,
                           substrate::ChannelId channel,
                           BatchChannelConfig config)
    : CompletionQueue(substrate, actor, channel,
                      fixed_depth(std::move(config))) {}

BatchChannel::BatchChannel(const core::Endpoint& endpoint,
                           BatchChannelConfig config)
    : CompletionQueue(endpoint, fixed_depth(std::move(config))) {}

Status BatchChannel::flush() {
  // Refusing up front, before anything is popped, is what keeps the
  // completion-space bound lossless: the queued entries survive untouched.
  if (ready() + pending() > ring_.capacity()) return Errc::exhausted;
  InvocationCounters delta;
  CompletionQueue::flush(delta);
  counters_->add(delta);
  return Status::success();
}

Result<CqEvent> BatchChannel::next_completion() {
  if (ready_.empty()) return Errc::would_block;
  CqEvent event = std::move(ready_.front());
  ready_.pop_front();
  return event;
}

Result<Bytes> BatchChannel::wait(SubmissionId id) {
  if (queued(id)) {
    if (const Status s = flush(); !s.ok()) return s.error();
  }
  return take(id);
}

}  // namespace lateral::runtime
