#include "substrate/substrate.h"

#include <algorithm>

#include "crypto/hmac.h"

namespace lateral::substrate {

IsolationSubstrate::IsolationSubstrate(hw::Machine& machine,
                                       SubstrateConfig config)
    : machine_(machine), config_(std::move(config)) {
  if (config_.launch_policy == LaunchPolicy::secure_boot && !config_.owner_key)
    throw Error("secure_boot requires an owner code-signing key");
}

Cycles IsolationSubstrate::serialized_share(Cycles direction) const {
  switch (concurrency_law()) {
    case ConcurrencyLaw::parallel:
      return 0;
    case ConcurrencyLaw::transition_serialized:
      // The fixed transition (EENTER/EEXIT world state) holds the gate;
      // data-dependent EPC work proceeds on the entering core.
      return std::min(direction, message_cost(0));
    case ConcurrencyLaw::monitor_serialized:
    case ConcurrencyLaw::device_serialized:
      return direction;
  }
  return direction;
}

void IsolationSubstrate::charge_crossing(Cycles direction) {
  // Single core: bit-exact with the old single-clock machine — the gate
  // logic must not perturb committed FIG9/11/12 numbers.
  if (machine_.core_count() < 2) {
    machine_.advance(direction);
    return;
  }
  const Cycles serial = serialized_share(direction);
  if (serial == 0) {
    machine_.advance(direction);
    return;
  }
  const Cycles arrive = machine_.core(machine_.active_core());
  if (arrive < serial_free_) {
    ++serial_stalls_;
    serial_stall_cycles_ += serial_free_ - arrive;
    machine_.stall_until(serial_free_);
  }
  machine_.advance(serial);
  serial_free_ = machine_.core(machine_.active_core());
  machine_.advance(direction - serial);
}

namespace {
// Disjoint key spaces for the machine's shared-access contention tracker.
constexpr std::uint64_t kChannelKeyTag = 0x8000'0000'0000'0000ull;
constexpr std::uint64_t kRegionKeyTag = 0x4000'0000'0000'0000ull;
}  // namespace

void IsolationSubstrate::note_channel_touch(ChannelId id) {
  machine_.note_shared_access(kChannelKeyTag | id);
}

void IsolationSubstrate::note_region_touch(RegionId id, std::uint64_t offset) {
  const std::uint64_t line = offset / machine_.costs().cache_line_bytes;
  machine_.note_shared_access(kRegionKeyTag | (id << 24) | (line & 0xFFFFFF));
}

IsolationSubstrate::DomainRecord* IsolationSubstrate::find_domain(DomainId id) {
  const auto it = domains_.find(id);
  return it == domains_.end() ? nullptr : &it->second;
}

const IsolationSubstrate::DomainRecord* IsolationSubstrate::find_domain(
    DomainId id) const {
  const auto it = domains_.find(id);
  return it == domains_.end() ? nullptr : &it->second;
}

IsolationSubstrate::ChannelRecord* IsolationSubstrate::find_channel(
    ChannelId id) {
  const auto it = channels_.find(id);
  return it == channels_.end() ? nullptr : &it->second;
}

const IsolationSubstrate::ChannelRecord* IsolationSubstrate::find_channel(
    ChannelId id) const {
  const auto it = channels_.find(id);
  return it == channels_.end() ? nullptr : &it->second;
}

IsolationSubstrate::RegionRecord* IsolationSubstrate::find_region(RegionId id) {
  const auto it = regions_.find(id);
  return it == regions_.end() ? nullptr : &it->second;
}

const IsolationSubstrate::RegionRecord* IsolationSubstrate::find_region(
    RegionId id) const {
  const auto it = regions_.find(id);
  return it == regions_.end() ? nullptr : &it->second;
}

Status IsolationSubstrate::check_live(DomainId id) const {
  const DomainRecord* record = find_domain(id);
  if (!record) return Errc::no_such_domain;
  if (record->dead) return Errc::domain_dead;
  return Status::success();
}

Status IsolationSubstrate::set_trace_capture(DomainId domain, bool capture) {
  if (const Status s = check_live(domain); !s.ok()) return s;
  find_domain(domain)->trace_capture = capture;
  return Status::success();
}

bool IsolationSubstrate::trace_capture(DomainId domain) const {
  const DomainRecord* record = find_domain(domain);
  return record && record->trace_capture;
}

Cycles IsolationSubstrate::trace_crossing_cost() const {
  // The context's 16 wire bytes at this substrate's own marginal rate, plus
  // the recorder stamp. Deliberately *excludes* the fixed crossing cost:
  // the context piggybacks on a crossing that happens anyway.
  return message_cost(trace::kTraceContextWireBytes) - message_cost(0) +
         machine_.costs().trace_stamp;
}

void IsolationSubstrate::stamp_span(DomainId domain,
                                    const trace::TraceContext& ctx,
                                    std::uint32_t span_id,
                                    trace::SpanPhase phase, BytesView data,
                                    std::uint64_t size) {
  if (!tracing_active()) return;
  const DomainRecord* record = find_domain(domain);
  trace::SpanEvent event;
  event.trace_id = ctx.trace_id;
  event.span_id = span_id;
  event.parent_span = ctx.parent_span;
  event.phase = phase;
  event.at = machine_.now();
  event.size = size;
  event.note_payload(data, record && record->trace_capture);
  tracer_->recorder(this, domain, record ? record->spec.name : "")
      .record(event);
}

bool IsolationSubstrate::fault_fires(DomainId callee, std::string_view op) {
  if (!fault_hook_) return false;
  if (!fault_hook_(callee, op)) return false;
  (void)kill_domain(callee);
  return true;
}

Result<DomainId> IsolationSubstrate::create_domain(const DomainSpec& spec) {
  if (spec.name.empty() || spec.image.code.empty())
    return Errc::invalid_argument;

  // Launch policy first: the trust anchor refuses unsigned code (secure
  // boot) before any resources are committed, or records what it launches
  // (authenticated boot).
  if (config_.launch_policy == LaunchPolicy::secure_boot) {
    if (const Status s = crypto::rsa_verify(*config_.owner_key,
                                            spec.image.code,
                                            spec.image_signature);
        !s.ok())
      return Errc::verification_failed;
  }
  if (const Status s = admit_domain(spec); !s.ok()) return s.error();

  const DomainId id = next_domain_++;
  DomainRecord record;
  record.spec = spec;
  record.measurement = spec.image.measurement();
  if (const Status s = attach_memory(id, record); !s.ok()) return s.error();

  if (config_.launch_policy == LaunchPolicy::authenticated_boot)
    boot_log_.push_back(record.measurement);

  domains_.emplace(id, std::move(record));
  return id;
}

Status IsolationSubstrate::destroy_domain(DomainId domain) {
  const auto it = domains_.find(domain);
  if (it == domains_.end()) return Errc::no_such_domain;
  // A corpse's memory was already released at kill time; destroying it is
  // the reap step and must not release twice.
  if (!it->second.dead) release_memory(domain, it->second);
  // Tear down every channel the domain participates in; POLA means no
  // dangling rights survive the domain.
  for (auto chan_it = channels_.begin(); chan_it != channels_.end();) {
    if (chan_it->second.a == domain || chan_it->second.b == domain)
      chan_it = channels_.erase(chan_it);
    else
      ++chan_it;
  }
  // Same for grant regions: the reap removes the shared memory entirely.
  for (auto reg_it = regions_.begin(); reg_it != regions_.end();) {
    if (reg_it->second.a == domain || reg_it->second.b == domain) {
      if (!reg_it->second.revoked)
        release_region(reg_it->first, reg_it->second);
      reg_it = regions_.erase(reg_it);
    } else {
      ++reg_it;
    }
  }
  domains_.erase(it);
  return Status::success();
}

Status IsolationSubstrate::kill_domain(DomainId domain) {
  DomainRecord* record = find_domain(domain);
  if (!record) return Errc::no_such_domain;
  if (record->dead) return Errc::domain_dead;  // cannot die twice
  // The crash is the flight recorder's reason to exist: stamp it as the
  // corpse's final ring entry (under the active trace if one is running,
  // else trace id 0 — the timeline matters even without a sampled trace).
  if (tracing_active())
    stamp_span(domain, trace::current_context(), tracer_->next_span(),
               trace::SpanPhase::killed, {}, 0);
  release_memory(domain, *record);
  record->handler = nullptr;
  record->dead = true;
  // In-flight messages of the old life are gone with the crash: both
  // directions, on every channel the corpse participates in. The channels
  // themselves survive (as does their identity) so a supervisor can rebind
  // them to a reincarnation with a bumped epoch.
  for (auto& [id, chan] : channels_) {
    if (chan.a != domain && chan.b != domain) continue;
    chan.to_a.clear();
    chan.to_b.clear();
  }
  // Grant regions touching the corpse are revoked immediately: mappings
  // drop, the epoch bumps (fencing every outstanding descriptor), and the
  // shared bytes are scrubbed — a crash must not leak the old life's data
  // through memory the survivor can still read. The record survives for
  // rebind_region, mirroring channel corpse semantics.
  for (auto& [id, region] : regions_) {
    if (region.a != domain && region.b != domain) continue;
    region.mapped_a = false;
    region.mapped_b = false;
    ++region.epoch;
    std::fill(region.backing.begin(), region.backing.end(), std::uint8_t{0});
  }
  return Status::success();
}

bool IsolationSubstrate::is_dead(DomainId domain) const {
  const DomainRecord* record = find_domain(domain);
  return record && record->dead;
}

std::vector<DomainId> IsolationSubstrate::domains() const {
  std::vector<DomainId> out;
  out.reserve(domains_.size());
  for (const auto& [id, record] : domains_)
    if (!record.dead) out.push_back(id);
  return out;
}

Result<DomainSpec> IsolationSubstrate::domain_spec(DomainId domain) const {
  if (const Status s = check_live(domain); !s.ok()) return s.error();
  return find_domain(domain)->spec;
}

Result<ChannelId> IsolationSubstrate::create_channel(DomainId a, DomainId b,
                                                     const ChannelSpec& spec) {
  if (const Status s = check_live(a); !s.ok()) return s.error();
  if (const Status s = check_live(b); !s.ok()) return s.error();
  if (a == b) return Errc::invalid_argument;
  const ChannelId id = next_channel_++;
  ChannelRecord record;
  record.a = a;
  record.b = b;
  record.badge_a = next_badge_++;
  record.badge_b = next_badge_++;
  record.spec = spec;
  channels_.emplace(id, std::move(record));
  return id;
}

Result<std::uint64_t> IsolationSubstrate::endpoint_badge(
    ChannelId channel, DomainId endpoint) const {
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return Errc::no_such_channel;
  if (endpoint == it->second.a) return it->second.badge_a;
  if (endpoint == it->second.b) return it->second.badge_b;
  return Errc::access_denied;
}

Result<std::uint64_t> IsolationSubstrate::channel_epoch(
    ChannelId channel) const {
  const ChannelRecord* chan = find_channel(channel);
  if (!chan) return Errc::no_such_channel;
  return chan->epoch;
}

Status IsolationSubstrate::bump_channel_epoch(ChannelId channel) {
  ChannelRecord* chan = find_channel(channel);
  if (!chan) return Errc::no_such_channel;
  ++chan->epoch;
  chan->to_a.clear();
  chan->to_b.clear();
  return Status::success();
}

Status IsolationSubstrate::rebind_channel(ChannelId channel, DomainId from,
                                          DomainId to) {
  ChannelRecord* chan = find_channel(channel);
  if (!chan) return Errc::no_such_channel;
  if (chan->a != from && chan->b != from) return Errc::access_denied;
  if (const Status s = check_live(to); !s.ok()) return s.error();
  const DomainId other = (chan->a == from) ? chan->b : chan->a;
  if (to == other) return Errc::invalid_argument;  // both ends one domain
  // Fresh badge for the rebound side: the reincarnation is a new principal
  // on this channel; nobody who recorded the old badge may confuse the two.
  if (chan->a == from) {
    chan->a = to;
    chan->badge_a = next_badge_++;
  } else {
    chan->b = to;
    chan->badge_b = next_badge_++;
  }
  ++chan->epoch;
  chan->to_a.clear();
  chan->to_b.clear();
  return Status::success();
}

Status IsolationSubstrate::set_handler(DomainId domain, Handler handler) {
  if (const Status s = check_live(domain); !s.ok()) return s;
  find_domain(domain)->handler = std::move(handler);
  return Status::success();
}

Status IsolationSubstrate::send(DomainId actor, ChannelId channel,
                                BytesView data) {
  // The view cannot be adopted; this is the path's one unavoidable copy.
  return send(actor, channel, Bytes(data.begin(), data.end()));
}

Status IsolationSubstrate::send(DomainId actor, ChannelId channel,
                                Bytes&& data) {
  ChannelRecord* chan = find_channel(channel);
  if (!chan) return Errc::no_such_channel;
  if (actor != chan->a && actor != chan->b) return Errc::access_denied;
  if (const Status s = check_live(actor); !s.ok()) return s;
  if (const Status s = check_live(actor == chan->a ? chan->b : chan->a);
      !s.ok())
    return s;
  if (data.size() > chan->spec.max_message_bytes)
    return Errc::invalid_argument;

  note_channel_touch(channel);
  const bool profiled = profiling_active() && profiler_->should_sample();
  const Cycles cost = message_cost(data.size()) +
                      (profiled ? machine_.costs().profile_stamp : Cycles{0});
  charge_crossing(cost);
  const bool from_a = (actor == chan->a);
  if (profiled) {
    // Attribute the enqueue to the destination: that is whose inbound load
    // the flamegraph should show.
    const DomainId peer = from_a ? chan->b : chan->a;
    profiler_->sample(this, peer, find_domain(peer)->spec.name,
                      health::ProfilePhase::send, cost, machine_.now());
  }
  Message msg;
  msg.badge = from_a ? chan->badge_a : chan->badge_b;
  msg.data = std::move(data);
  (from_a ? chan->to_b : chan->to_a).push_back(std::move(msg));
  return Status::success();
}

Result<Message> IsolationSubstrate::receive(DomainId actor, ChannelId channel) {
  ChannelRecord* chan = find_channel(channel);
  if (!chan) return Errc::no_such_channel;
  if (actor != chan->a && actor != chan->b) return Errc::access_denied;
  if (const Status s = check_live(actor); !s.ok()) return s.error();
  // A dead peer can never send again, and its queued messages died with it:
  // fail fast instead of reporting would_block forever.
  if (const Status s = check_live(actor == chan->a ? chan->b : chan->a);
      !s.ok())
    return s.error();
  auto& queue = (actor == chan->a) ? chan->to_a : chan->to_b;
  if (queue.empty()) return Errc::would_block;
  Message msg = std::move(queue.front());
  queue.pop_front();  // O(1) on the deque; erase() on a vector was O(n)
  note_channel_touch(channel);
  const bool profiled = profiling_active() && profiler_->should_sample();
  const Cycles cost = message_cost(msg.data.size()) +
                      (profiled ? machine_.costs().profile_stamp : Cycles{0});
  charge_crossing(cost);
  if (profiled)
    profiler_->sample(this, actor, find_domain(actor)->spec.name,
                      health::ProfilePhase::receive, cost, machine_.now());
  return msg;
}

Result<Bytes> IsolationSubstrate::call(DomainId actor, ChannelId channel,
                                       BytesView data) {
  return deliver_one(actor, channel, {data, {}}, "call");
}

Result<BatchReply> IsolationSubstrate::call_batch(
    DomainId actor, ChannelId channel, const std::vector<Bytes>& requests) {
  std::vector<RequestView> views;
  views.reserve(requests.size());
  for (const Bytes& request : requests) views.push_back({request, {}});
  return deliver_batch(actor, channel, views, "call_batch");
}

Result<Bytes> IsolationSubstrate::call_sg(
    DomainId actor, ChannelId channel, BytesView header,
    std::span<const RegionDescriptor> segments) {
  return deliver_one(actor, channel, {header, segments}, "call_sg");
}

Result<BatchReply> IsolationSubstrate::call_batch_sg(
    DomainId actor, ChannelId channel, const std::vector<SgRequest>& requests) {
  std::vector<RequestView> views;
  views.reserve(requests.size());
  for (const SgRequest& request : requests)
    views.push_back({request.header, request.segments});
  return deliver_batch(actor, channel, views, "call_batch_sg");
}

Result<Bytes> IsolationSubstrate::deliver_one(DomainId actor,
                                              ChannelId channel,
                                              const RequestView& request,
                                              std::string_view op) {
  Result<Bytes> reply = Errc::would_block;  // placeholder, always overwritten
  if (const auto crossed = deliver(actor, channel, {&request, 1}, {&reply, 1},
                                   op);
      !crossed.ok())
    return crossed.error();
  return reply;
}

Result<BatchReply> IsolationSubstrate::deliver_batch(
    DomainId actor, ChannelId channel, std::span<const RequestView> requests,
    std::string_view op) {
  BatchReply out;
  out.replies.assign(requests.size(), Errc::would_block);
  const auto crossed = deliver(actor, channel, requests, out.replies, op);
  if (!crossed.ok()) return crossed.error();
  out.crossing_cycles = *crossed;
  return out;
}

Result<Cycles> IsolationSubstrate::deliver(
    DomainId actor, ChannelId channel, std::span<const RequestView> requests,
    std::span<Result<Bytes>> replies, std::string_view op) {
  // The crossing carries each header plus 16 bytes per descriptor — never
  // the payload. This is the whole economics of the zero-copy plane.
  const auto wire_bytes = [](const RequestView& request) {
    return request.header.size() +
           kDescriptorWireBytes * request.segments.size();
  };
  ChannelRecord* chan = find_channel(channel);
  if (!chan) return Errc::no_such_channel;
  if (actor != chan->a && actor != chan->b) return Errc::access_denied;
  if (const Status s = check_live(actor); !s.ok()) return s.error();
  for (const RequestView& request : requests)
    if (wire_bytes(request) > chan->spec.max_message_bytes)
      return Errc::invalid_argument;
  const DomainId callee = (actor == chan->a) ? chan->b : chan->a;
  if (const Status s = check_live(callee); !s.ok()) return s.error();

  // Every descriptor must pass the reference monitor *before* anything
  // crosses: endpoints, mapping, bounds, and epoch. Crucially the region's
  // endpoints must be exactly {actor, callee} — a descriptor naming a region
  // the caller shares with some third domain is a confused-deputy attempt
  // and is refused, not forwarded. A refused request fails alone (its error
  // travels in its reply slot) without sinking the batch, and is charged no
  // crossing share. From here on a reply slot holding an error marks a
  // vetoed request; a deliverable one holds a placeholder value.
  std::size_t deliverable = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Status veto;
    for (const RegionDescriptor& desc : requests[i].segments) {
      veto = check_descriptor(actor, desc);
      if (veto.ok()) {
        const RegionRecord* region = find_region(desc.region);
        if (!(region->a == actor && region->b == callee) &&
            !(region->a == callee && region->b == actor))
          veto = Errc::access_denied;
      }
      if (!veto.ok()) break;
    }
    if (veto.ok()) {
      replies[i] = Bytes{};
      ++deliverable;
    } else {
      replies[i] = veto.error();
    }
  }
  // Nothing to deliver: nothing crosses, so no crash can land mid-delivery,
  // no session switch happens and no cycle is charged.
  if (deliverable == 0) return Cycles{0};

  if (fault_fires(callee, op)) return Errc::domain_dead;
  DomainRecord* callee_record = find_domain(callee);
  if (!callee_record->handler) return Errc::would_block;
  // One serialization gate for the whole batch: a batch is a single
  // session with the callee (the TPM's late-launch switch happens once).
  if (const Status s = pre_call(actor, callee); !s.ok()) return s.error();

  // One TraceContext rides the whole batch (the request direction is a
  // single crossing); each delivered request still gets its own
  // dispatch/complete span, which is precisely how batching amortization
  // becomes visible per request.
  const trace::TraceContext& ctx = trace::current_context();
  const bool traced = tracing_active() && ctx.sampled();
  const Cycles trace_cost = traced ? trace_crossing_cost() : Cycles{0};

  // One sampling decision covers both directions of the crossing, so a
  // sampled delivery records exactly one request/reply pair — which is also
  // why profiling (like tracing) amortizes with batching.
  const bool profiled = profiling_active() && profiler_->should_sample();
  const Cycles profile_cost =
      profiled ? machine_.costs().profile_stamp : Cycles{0};
  // The handler may destroy the callee; keep the label for the reply sample.
  const std::string profile_label =
      profiled ? callee_record->spec.name : std::string();

  // Request direction: one fixed boundary crossing, then per-byte copy
  // cost for every delivered request. message_cost(0) is exactly the fixed
  // part of a substrate's message cost, so the marginal cost of the 2nd..
  // Nth request is copy-only, and a batch of one costs message_cost(n).
  // A traced crossing additionally carries the 16-byte context; the reply
  // carries nothing extra (the caller correlates by span id), so only the
  // request direction pays trace_cost (and a sampled one the profiler's
  // ring store).
  const Cycles fixed = message_cost(0);
  Cycles crossing = fixed + trace_cost + profile_cost;
  for (std::size_t i = 0; i < requests.size(); ++i)
    if (replies[i].ok())
      crossing += message_cost(wire_bytes(requests[i])) - fixed;
  note_channel_touch(channel);
  charge_crossing(crossing);
  if (profiled)
    profiler_->sample(this, callee, profile_label,
                      health::ProfilePhase::request, crossing,
                      machine_.now());

  const std::uint64_t badge =
      (actor == chan->a) ? chan->badge_a : chan->badge_b;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!replies[i].ok()) continue;
    const RequestView& request = requests[i];
    Invocation invocation;
    invocation.channel = channel;
    invocation.badge = badge;
    invocation.data = request.header;
    invocation.segments = request.segments;
    if (traced) {
      const std::uint32_t span = tracer_->next_span();
      std::uint64_t bulk = request.header.size();
      for (const RegionDescriptor& desc : request.segments) bulk += desc.length;
      stamp_span(callee, ctx, span, trace::SpanPhase::dispatch, request.header,
                 bulk);
      invocation.trace = {ctx.trace_id, span, ctx.flags};
      // The handler runs under the dispatch span, so crossings it makes in
      // turn (imap -> tls) chain under this one automatically.
      trace::TraceScope scope(invocation.trace);
      replies[i] = callee_record->handler(invocation);
      const Result<Bytes>& reply = replies[i];
      stamp_span(callee, ctx, span, trace::SpanPhase::complete,
                 reply.ok() ? BytesView(reply.value()) : BytesView{},
                 reply.ok() ? reply.value().size() : 0);
    } else {
      replies[i] = callee_record->handler(invocation);
    }
  }

  // Reply direction: same amortization; no trace charge (the context
  // travels caller -> callee only).
  Cycles reply_crossing = fixed;
  for (const Result<Bytes>& reply : replies)
    reply_crossing += message_cost(reply.ok() ? reply->size() : 0) - fixed;
  charge_crossing(reply_crossing);
  if (profiled)
    profiler_->sample(this, callee, profile_label,
                      health::ProfilePhase::reply, reply_crossing,
                      machine_.now());
  return crossing + reply_crossing;
}

// --- Grant regions ----------------------------------------------------------

namespace {
constexpr std::size_t kRegionPageBytes = 4096;

std::size_t region_pages(std::size_t size) {
  return (size + kRegionPageBytes - 1) / kRegionPageBytes;
}
}  // namespace

Result<RegionId> IsolationSubstrate::create_region(DomainId a, DomainId b,
                                                   std::size_t size,
                                                   RegionPerms perms) {
  if (!supports_regions()) return Errc::no_region_support;
  if (const Status s = check_live(a); !s.ok()) return s.error();
  if (const Status s = check_live(b); !s.ok()) return s.error();
  if (a == b || size == 0) return Errc::invalid_argument;
  const RegionId id = next_region_++;
  RegionRecord record;
  record.a = a;
  record.b = b;
  record.perms = perms;
  record.backing.resize(size, 0);
  if (const Status s = attach_region(id, record); !s.ok()) return s.error();
  regions_.emplace(id, std::move(record));
  return id;
}

Status IsolationSubstrate::map_region(DomainId actor, RegionId region) {
  RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  // POLA: only the two granted endpoints may ever map. This is the check
  // the conformance suite drives with a third, undeclared domain.
  if (actor != record->a && actor != record->b) return Errc::access_denied;
  if (const Status s = check_live(actor); !s.ok()) return s;
  if (record->revoked) return Errc::stale_epoch;
  bool& mapped = (actor == record->a) ? record->mapped_a : record->mapped_b;
  if (mapped) return Status::success();  // idempotent; no double charge
  machine_.advance(region_map_cost(region_pages(record->backing.size())));
  mapped = true;
  return Status::success();
}

Status IsolationSubstrate::unmap_region(DomainId actor, RegionId region) {
  RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  if (actor != record->a && actor != record->b) return Errc::access_denied;
  bool& mapped = (actor == record->a) ? record->mapped_a : record->mapped_b;
  if (!mapped) return Errc::invalid_argument;
  machine_.advance(machine_.costs().page_table_update *
                   region_pages(record->backing.size()));
  mapped = false;
  return Status::success();
}

Status IsolationSubstrate::revoke_region(RegionId region) {
  RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  if (record->revoked) return Errc::stale_epoch;
  record->mapped_a = false;
  record->mapped_b = false;
  ++record->epoch;
  record->revoked = true;
  std::fill(record->backing.begin(), record->backing.end(), std::uint8_t{0});
  release_region(region, *record);
  machine_.advance(machine_.costs().page_table_update *
                   region_pages(record->backing.size()));
  return Status::success();
}

Status IsolationSubstrate::rebind_region(RegionId region, DomainId from,
                                         DomainId to) {
  RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  if (record->revoked) return Errc::stale_epoch;
  if (record->a != from && record->b != from) return Errc::access_denied;
  if (const Status s = check_live(to); !s.ok()) return s;
  const DomainId other = (record->a == from) ? record->b : record->a;
  if (to == other) return Errc::invalid_argument;
  if (record->a == from)
    record->a = to;
  else
    record->b = to;
  // Fresh life: both sides must re-map, every old descriptor is fenced,
  // and the reincarnation must not inherit the predecessor's bytes.
  record->mapped_a = false;
  record->mapped_b = false;
  ++record->epoch;
  std::fill(record->backing.begin(), record->backing.end(), std::uint8_t{0});
  return Status::success();
}

Result<std::uint64_t> IsolationSubstrate::region_epoch(RegionId region) const {
  const RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  return record->epoch;
}

Result<std::size_t> IsolationSubstrate::region_size(RegionId region) const {
  const RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  if (record->revoked) return Errc::stale_epoch;
  return record->backing.size();
}

std::vector<RegionId> IsolationSubstrate::regions() const {
  std::vector<RegionId> out;
  out.reserve(regions_.size());
  for (const auto& [id, record] : regions_)
    if (!record.revoked) out.push_back(id);
  return out;
}

Result<RegionDescriptor> IsolationSubstrate::make_descriptor(
    DomainId actor, RegionId region, std::uint64_t offset,
    std::uint64_t len) const {
  const RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  if (actor != record->a && actor != record->b) return Errc::access_denied;
  if (const Status s = check_live(actor); !s.ok()) return s.error();
  if (record->revoked) return Errc::stale_epoch;
  const bool mapped = (actor == record->a) ? record->mapped_a
                                           : record->mapped_b;
  if (!mapped) return Errc::access_denied;
  // Overflow-safe bounds check: `offset + len` would wrap for offsets near
  // 2^64 and let a forged range pass, so compare against the remainder.
  if (len == 0 || len > record->backing.size() ||
      offset > record->backing.size() - len)
    return Errc::invalid_argument;
  RegionDescriptor desc;
  desc.region = region;
  desc.offset = offset;
  desc.length = len;
  desc.epoch = record->epoch;
  return desc;
}

Status IsolationSubstrate::check_descriptor(
    DomainId actor, const RegionDescriptor& desc) const {
  const RegionRecord* record = find_region(desc.region);
  if (!record) return Errc::invalid_argument;
  if (actor != record->a && actor != record->b) return Errc::access_denied;
  // A dead endpoint is reported as such before the epoch check: "your peer
  // crashed" is more diagnosable than "your descriptor is stale".
  if (const Status s = check_live(record->a); !s.ok()) return s;
  if (const Status s = check_live(record->b); !s.ok()) return s;
  if (record->revoked || desc.epoch != record->epoch)
    return Errc::stale_epoch;
  const bool mapped = (actor == record->a) ? record->mapped_a
                                           : record->mapped_b;
  if (!mapped) return Errc::access_denied;
  if (desc.length == 0 || desc.length > record->backing.size() ||
      desc.offset > record->backing.size() - desc.length)
    return Errc::invalid_argument;
  return Status::success();
}

Status IsolationSubstrate::region_write(DomainId actor, RegionId region,
                                        std::uint64_t offset, BytesView data) {
  RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  if (actor != record->a && actor != record->b) return Errc::access_denied;
  if (const Status s = check_live(actor); !s.ok()) return s;
  if (record->revoked) return Errc::stale_epoch;
  const bool mapped = (actor == record->a) ? record->mapped_a
                                           : record->mapped_b;
  if (!mapped) return Errc::access_denied;
  if (record->perms == RegionPerms::read_only && actor != record->a)
    return Errc::access_denied;
  if (data.size() > record->backing.size() ||
      offset > record->backing.size() - data.size())
    return Errc::invalid_argument;
  // The producer's single copy — no crossing. What one byte costs depends
  // on where the backing lives relative to the actor (region_copy_cost);
  // every other stage of the zero-copy path is O(1).
  note_region_touch(region, offset);
  machine_.advance(region_copy_cost(*record, actor, data.size()));
  std::copy(data.begin(), data.end(), record->backing.begin() + offset);
  return Status::success();
}

Result<Bytes> IsolationSubstrate::region_read(DomainId actor, RegionId region,
                                              std::uint64_t offset,
                                              std::size_t len) {
  RegionRecord* record = find_region(region);
  if (!record) return Errc::invalid_argument;
  if (actor != record->a && actor != record->b) return Errc::access_denied;
  if (const Status s = check_live(actor); !s.ok()) return s.error();
  if (record->revoked) return Errc::stale_epoch;
  const bool mapped = (actor == record->a) ? record->mapped_a
                                           : record->mapped_b;
  if (!mapped) return Errc::access_denied;
  if (len > record->backing.size() || offset > record->backing.size() - len)
    return Errc::invalid_argument;
  note_region_touch(region, offset);
  machine_.advance(region_copy_cost(*record, actor, len));
  return Bytes(record->backing.begin() + offset,
               record->backing.begin() + offset + len);
}

Result<BytesView> IsolationSubstrate::region_view(
    DomainId actor, const RegionDescriptor& desc) {
  if (const Status s = check_descriptor(actor, desc); !s.ok())
    return s.error();
  const RegionRecord* record = find_region(desc.region);
  // In-place access: constant cost per descriptor, zero bytes moved.
  note_region_touch(desc.region, desc.offset);
  machine_.advance(region_access_cost(*record, actor));
  return BytesView(record->backing.data() + desc.offset, desc.length);
}

Cycles IsolationSubstrate::region_map_cost(std::size_t pages) const {
  const hw::CostModel& c = machine_.costs();
  return c.syscall + c.page_table_update * pages;
}

Cycles IsolationSubstrate::region_access_cost() const {
  return machine_.costs().region_access;
}

Cycles IsolationSubstrate::region_copy_cost(const RegionRecord& record,
                                            DomainId actor,
                                            std::size_t len) const {
  // Flat model: shared memory is equally close to both endpoints.
  (void)record;
  (void)actor;
  return machine_.costs().memcpy_per_16_bytes * Cycles((len + 15) / 16);
}

Cycles IsolationSubstrate::region_access_cost(const RegionRecord& record,
                                              DomainId actor) const {
  (void)record;
  (void)actor;
  return region_access_cost();
}

Status IsolationSubstrate::attach_region(RegionId id, RegionRecord& record) {
  (void)id;
  (void)record;
  return Status::success();
}

void IsolationSubstrate::release_region(RegionId id, RegionRecord& record) {
  (void)id;
  (void)record;
}

Status IsolationSubstrate::pre_call(DomainId actor, DomainId callee) {
  (void)actor;
  (void)callee;
  return Status::success();
}

Result<crypto::Digest> IsolationSubstrate::measurement(DomainId domain) const {
  if (const Status s = check_live(domain); !s.ok()) return s.error();
  return find_domain(domain)->measurement;
}

Result<Quote> IsolationSubstrate::attest(DomainId actor, BytesView user_data) {
  if (const Status s = check_live(actor); !s.ok()) return s.error();
  const DomainRecord* record = find_domain(actor);
  if (!has_feature(info().features, Feature::attestation))
    return Errc::not_supported;
  machine_.advance(attest_cost() + machine_.costs().sw_rsa_sign);
  return make_quote(info().name, record->measurement, user_data,
                    machine_.fuses().endorsement_key(),
                    machine_.fuses().endorsement_cert());
}

crypto::Aead IsolationSubstrate::sealing_aead(
    const crypto::Digest& measurement) const {
  // Sealing key = HKDF(device fuse key, code measurement). Same code on the
  // same device derives the same key; anything else cannot.
  Bytes ikm(machine_.fuses().device_key().begin(),
            machine_.fuses().device_key().end());
  const Bytes key_material =
      crypto::hkdf(crypto::digest_bytes(measurement), ikm,
                   to_bytes("lateral.seal.v1"), 32);
  return crypto::Aead(key_material);
}

Result<Bytes> IsolationSubstrate::seal(DomainId actor, BytesView plaintext) {
  if (const Status s = check_live(actor); !s.ok()) return s.error();
  const DomainRecord* record = find_domain(actor);
  if (!has_feature(info().features, Feature::sealed_storage))
    return Errc::not_supported;
  machine_.charge(0, machine_.costs().sw_aes_per_16_bytes, plaintext.size());

  const crypto::Aead aead = sealing_aead(record->measurement);
  Bytes out;
  crypto::append_sealed_box(out, aead.seal(seal_nonce_++, {}, plaintext));
  return out;
}

Result<Bytes> IsolationSubstrate::unseal(DomainId actor, BytesView sealed) {
  if (const Status s = check_live(actor); !s.ok()) return s.error();
  const DomainRecord* record = find_domain(actor);
  if (!has_feature(info().features, Feature::sealed_storage))
    return Errc::not_supported;
  auto box = crypto::parse_sealed_box(sealed);
  if (!box) return box.error();
  machine_.charge(0, machine_.costs().sw_aes_per_16_bytes, sealed.size());

  const crypto::Aead aead = sealing_aead(record->measurement);
  auto plain = aead.open(*box, {});
  if (!plain) return Errc::verification_failed;
  return std::move(*plain);
}

Status IsolationSubstrate::mark_compromised(DomainId domain) {
  if (const Status s = check_live(domain); !s.ok()) return s;
  find_domain(domain)->compromised = true;
  return Status::success();
}

bool IsolationSubstrate::is_compromised(DomainId domain) const {
  const DomainRecord* record = find_domain(domain);
  return record && record->compromised;
}

std::string features_to_string(Features set) {
  struct Named {
    Feature f;
    const char* name;
  };
  static constexpr Named kNames[] = {
      {Feature::spatial_isolation, "spatial"},
      {Feature::temporal_isolation, "temporal"},
      {Feature::covert_channel_mitigation, "covert-mitig"},
      {Feature::concurrent_domains, "concurrent"},
      {Feature::legacy_hosting, "legacy-os"},
      {Feature::memory_encryption, "mem-enc"},
      {Feature::sealed_storage, "seal"},
      {Feature::attestation, "attest"},
      {Feature::late_launch, "late-launch"},
      {Feature::io_isolation, "iommu"},
  };
  std::string out;
  for (const auto& [f, name] : kNames) {
    if (!has_feature(set, f)) continue;
    if (!out.empty()) out += ",";
    out += name;
  }
  return out.empty() ? "none" : out;
}

}  // namespace lateral::substrate
