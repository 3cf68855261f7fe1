#include "runtime/async_proxy.h"

#include <algorithm>
#include <utility>

#include "util/wire.h"

namespace lateral::runtime {
AsyncRemoteDispatcher::AsyncRemoteDispatcher(net::SecureChannelEndpoint& channel)
    : channel_(channel) {
  if (!channel.established())
    throw Error("AsyncRemoteDispatcher needs an established channel");
}

Result<std::vector<Bytes>> AsyncRemoteDispatcher::handle_burst(
    const std::vector<Bytes>& request_records) {
  std::vector<Bytes> reply_records;
  reply_records.reserve(request_records.size());
  Bytes head;
  for (const Bytes& record : request_records) {
    auto plain = channel_.open_record(record);
    if (!plain) return plain.error();  // unauthentic: do not even reply

    // A malformed-but-authentic request still has a slot in the burst;
    // answer it (salvaging the id when the prefix survived) so the
    // client's matcher surfaces the problem instead of hanging.
    wire::ByteReader r(*plain);
    const RequestId id = r.u32().value_or(0);
    const auto ctx = r.bytes(trace::kTraceContextWireBytes);
    Result<Bytes> result = Errc::invalid_argument;
    if (ctx) {
      // Run the method under the client's trace context: substrate
      // crossings it makes chain under the remote caller's span.
      trace::TraceScope scope(trace::TraceContext::decode(*ctx));
      result = methods_.dispatch(r.rest());
    }
    head.clear();
    wire::ByteWriter w(head);
    w.u32(id);
    w.u8(net::rpc_reply_head(result));
    auto sealed =
        channel_.seal_record_parts({}, head, net::rpc_reply_body(result));
    if (!sealed) return sealed.error();
    reply_records.push_back(std::move(*sealed));
  }
  return reply_records;
}

AsyncRemoteProxy::AsyncRemoteProxy(net::SecureChannelEndpoint& channel,
                                   Transport transport,
                                   AsyncProxyConfig config)
    : channel_(channel),
      transport_(std::move(transport)),
      config_(std::move(config)),
      controller_(config_.adaptive),
      counters_(config_.hub ? config_.hub->counters(config_.label)
                            : MetricsHub::CounterRef(&own_counters_)) {
  if (!transport_) throw Error("AsyncRemoteProxy needs a transport");
  if (config_.depth == 0) config_.depth = 1;
}

Cycles AsyncRemoteProxy::clock_now() const {
  return config_.clock ? config_.clock->now() : 0;
}

Result<RequestId> AsyncRemoteProxy::submit(const std::string& method,
                                           BytesView payload) {
  if (method.empty()) return Errc::invalid_argument;
  if (pending_.size() >= config_.depth) {
    ++counters_->rejected;
    return Errc::exhausted;
  }
  PendingCall call;
  call.id = next_id_++;
  call.method = method;
  call.payload.assign(payload.begin(), payload.end());
  call.ctx = trace::current_context();
  call.submitted_at = clock_now();
  pending_.push_back(std::move(call));
  ++counters_->submitted;
  counters_->record_depth(pending_.size());
  const RequestId id = pending_.back().id;
  // Adaptive auto-flush: the burst reached the controller's target, so ring
  // now rather than letting the tail of a deep queue age. A flush failure
  // here leaves the submission queued (or completed with the transport's
  // error) — either way the caller's id stays valid and the outcome
  // surfaces through take()/reap().
  if (config_.adaptive.adaptive && pending_.size() >= controller_.depth())
    (void)flush();
  return id;
}

Status AsyncRemoteProxy::cancel(RequestId id) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->id == id) {
      // Not sealed yet, so withdrawing leaves no hole in the channel's
      // sequence space; the completion is materialized immediately.
      completions_.emplace(id, CqEvent{id, Errc::cancelled, {}, 0});
      pending_.erase(it);
      ++counters_->cancelled;
      return Status::success();
    }
  }
  return Errc::invalid_argument;
}

Status AsyncRemoteProxy::flush() {
  if (pending_.empty()) return Status::success();

  // Seal in submission order, each record from its two parts: the head
  // [u32 id | 16 B ctx | u16 method_len | method] and the payload. Sealing
  // fails only on a channel that is not established — on the first record,
  // before anything is committed — so a refusal here leaves the calls
  // queued for a safe retry.
  std::vector<Bytes> records;
  records.reserve(pending_.size());
  Bytes head;
  for (const PendingCall& call : pending_) {
    head.clear();
    wire::ByteWriter(head).u32(call.id);
    call.ctx.encode(head);
    net::append_rpc_request_head(head, call.method);
    auto record = channel_.seal_record_parts({}, head, call.payload);
    if (!record) return record.error();
    records.push_back(std::move(*record));
  }

  // Sealed: the burst is committed (the channel's send sequence advanced),
  // so the calls leave the queue now and each ends in exactly one event
  // below — a later flush never re-seals, so the server never re-runs them.
  const std::vector<PendingCall> sent = std::move(pending_);
  pending_.clear();
  const std::size_t burst = sent.size();
  auto reply_records = transport_(records);
  // This exchange's counter updates, published under one lock at the end.
  InvocationCounters delta;
  delta.record_batch(burst);

  // Ids the replies leave unanswered complete with `unanswered`: the
  // transport's error when the burst never came back, verification_failed
  // when a reply record fails authentication (the sequence window is
  // broken, so nothing after it can be opened), io_error when an authentic
  // peer skipped or garbled a reply.
  Errc unanswered = Errc::io_error;
  std::vector<bool> answered(burst, false);
  const Cycles now = clock_now();
  // Windowed latency histogram for this exchange alone — the controller
  // judges the current burst depth by what *this* burst cost, not by the
  // cumulative history the exported counters keep.
  InvocationCounters window;
  if (!reply_records) unanswered = reply_records.error();
  const std::vector<Bytes> no_replies;
  for (const Bytes& record : reply_records ? *reply_records : no_replies) {
    auto plain = channel_.open_record(record);
    if (!plain) {
      unanswered = Errc::verification_failed;
      break;
    }
    wire::ByteReader r(*plain);
    const auto id = r.u32();
    if (!id || r.remaining() == 0) continue;
    // `sent` is in ascending id order; a reply naming an id outside this
    // burst, or one already answered, is dropped.
    const auto call = std::lower_bound(
        sent.begin(), sent.end(), *id,
        [](const PendingCall& c, RequestId v) { return c.id < v; });
    const auto index = static_cast<std::size_t>(call - sent.begin());
    if (call == sent.end() || call->id != *id || answered[index]) continue;
    answered[index] = true;
    // The reply follows the id; its payload keeps the plaintext's buffer.
    auto reply = net::decode_rpc_reply(std::move(*plain), sizeof(RequestId));
    CqEvent event{*id, reply.error(), {}, 0};
    if (reply) event.payload = std::move(*reply);
    if (config_.clock) {
      event.cycles = now - call->submitted_at;
      if (event.cycles > 0) {
        window.record_latency(event.cycles);
        delta.record_latency(event.cycles);
      }
    }
    ++delta.completed;
    completions_.emplace(*id, std::move(event));
  }
  for (std::size_t i = 0; i < burst; ++i) {
    if (answered[i]) continue;
    ++delta.completed;
    completions_.emplace(sent[i].id, CqEvent{sent[i].id, unanswered, {}, 0});
  }
  // A burst that never came back feeds the controller nothing.
  if (reply_records)
    controller_.observe(burst, window.latency_percentile(0.50),
                        window.latency_percentile(0.99));
  publish_doorbell(counters_, delta, reply_records ? &controller_ : nullptr);
  return Status::success();
}

std::vector<CqEvent> AsyncRemoteProxy::reap(std::size_t max) {
  std::vector<CqEvent> out;
  const std::size_t n =
      max == 0 ? completions_.size() : std::min(max, completions_.size());
  out.reserve(n);
  while (out.size() < n) {
    auto it = completions_.begin();
    out.push_back(std::move(it->second));
    completions_.erase(it);
  }
  return out;
}

std::size_t AsyncRemoteProxy::for_each_completion(
    const std::function<void(CqEvent&)>& fn) {
  std::size_t n = 0;
  while (!completions_.empty()) {
    auto it = completions_.begin();
    CqEvent event = std::move(it->second);
    completions_.erase(it);
    fn(event);
    ++n;
  }
  return n;
}

Result<Bytes> AsyncRemoteProxy::take(RequestId id) {
  if (const auto it = completions_.find(id); it != completions_.end()) {
    CqEvent event = std::move(it->second);
    completions_.erase(it);
    if (event.status != Errc::ok) return event.status;
    return std::move(event.payload);
  }
  for (const PendingCall& call : pending_)
    if (call.id == id) return Errc::would_block;
  return Errc::invalid_argument;
}

Result<Bytes> AsyncRemoteProxy::wait(RequestId id) {
  auto first = take(id);
  if (first || first.error() != Errc::would_block) return first;
  if (const Status s = flush(); !s.ok()) return s.error();
  return take(id);
}

Result<Bytes> AsyncRemoteProxy::call(const std::string& method,
                                     BytesView payload) {
  auto id = submit(method, payload);
  if (!id) return id.error();
  return wait(*id);
}

}  // namespace lateral::runtime
