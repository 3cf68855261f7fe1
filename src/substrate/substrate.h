// IsolationSubstrate — the unified interface to isolation technologies.
//
// This is the paper's §III-A proposal made concrete: "This interface should
// do for isolation mechanisms what POSIX did for the UNIX system call
// interface: allow application code to be independent of the underlying
// implementation." Application code (core::SystemComposer, the examples)
// programs against this interface; the eight backends (microkernel,
// trustzone, sgx, tpm, ftpm, sep, cheri, noc) implement it with their
// technology's capabilities, costs and restrictions.
//
// Every operation names the *acting* domain. The substrate is the reference
// monitor: it verifies that the actor holds the right to perform the
// operation, which is exactly what keeps a compromised component confined.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/aes.h"
#include "crypto/rsa.h"
#include "health/profiler.h"
#include "hw/machine.h"
#include "substrate/isolation.h"
#include "substrate/quote.h"
#include "trace/trace.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::substrate {

/// Result of a batched synchronous invocation (call_batch, call_batch_sg).
/// `replies[i]` corresponds to `requests[i]`; `crossing_cycles` is what the
/// substrate charged for moving the whole batch across the boundary (both
/// directions), so callers can account amortization honestly.
struct BatchReply {
  std::vector<Result<Bytes>> replies;
  Cycles crossing_cycles = 0;
};

/// Configuration common to all substrate instances.
struct SubstrateConfig {
  LaunchPolicy launch_policy = LaunchPolicy::none;
  /// Platform-owner code-signing key; required when launch_policy is
  /// secure_boot (images must carry a signature by this key).
  std::optional<crypto::RsaPublicKey> owner_key;
};

class IsolationSubstrate {
 public:
  /// The behaviour of a domain when synchronously invoked. Handlers model
  /// the component's code; returning an Errc models a refused request.
  using Handler = std::function<Result<Bytes>(const Invocation&)>;

  virtual ~IsolationSubstrate() = default;

  IsolationSubstrate(const IsolationSubstrate&) = delete;
  IsolationSubstrate& operator=(const IsolationSubstrate&) = delete;

  virtual const SubstrateInfo& info() const = 0;
  hw::Machine& machine() { return machine_; }
  const hw::Machine& machine() const { return machine_; }
  LaunchPolicy launch_policy() const { return config_.launch_policy; }

  // --- Domain lifecycle -------------------------------------------------
  virtual Result<DomainId> create_domain(const DomainSpec& spec);
  virtual Status destroy_domain(DomainId domain);
  /// Abrupt death, distinct from destroy_domain: the domain's memory and
  /// handler are gone immediately (a crash reclaims nothing gracefully),
  /// but the record stays behind as a corpse so that every later operation
  /// naming the domain fails with Errc::domain_dead — a diagnosable crash,
  /// not a recycled id. destroy_domain() on the corpse reaps it (and any
  /// channels still referencing it) once a supervisor has rewired around it.
  Status kill_domain(DomainId domain);
  /// True only for a known corpse (killed, not yet reaped).
  bool is_dead(DomainId domain) const;
  std::vector<DomainId> domains() const;
  Result<DomainSpec> domain_spec(DomainId domain) const;

  // --- Tracing (lateral::trace) -------------------------------------------
  /// Attach a tracer: every crossing on this substrate reads the calling
  /// thread's TraceContext (trace::current_context()) and, when sampled,
  /// stamps span events into the acting domains' flight recorders. The
  /// tracer outlives domains — a corpse's ring stays readable after
  /// kill_domain until the supervisor scrubs it. Pass nullptr to detach.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }
  /// Opt `domain` into span payload capture (manifest `trace` stanza with
  /// `payload`). Off by default: redaction-by-default means spans carry only
  /// sizes, opcodes and cycle stamps unless the component consented.
  Status set_trace_capture(DomainId domain, bool capture);
  bool trace_capture(DomainId domain) const;
  /// Marginal cycle cost a traced crossing is charged: the 16-byte
  /// TraceContext at this substrate's own per-byte rate, plus the recorder
  /// stamp. Charged once per crossing, on the request direction only (the
  /// reply carries no context — correlation is by span id) — batched
  /// requests share it, so tracing amortizes exactly like the crossing.
  Cycles trace_crossing_cost() const;
  /// True when a tracer is attached and enabled (the disabled path must be
  /// a couple of loads — bench_fig12's near-zero column).
  bool tracing_active() const { return tracer_ && tracer_->enabled(); }
  /// Stamp one span event into `domain`'s flight recorder (no-op without an
  /// enabled tracer). Payload capture obeys the domain's trace_capture
  /// consent; `data` supplies the opcode (first 4 bytes) either way. Public
  /// because the layers above the crossing stamp their own lifecycle points
  /// into the same rings: CompletionQueue (submit/flush), the supervisor
  /// (detected/relaunch/attested/recovered).
  void stamp_span(DomainId domain, const trace::TraceContext& ctx,
                  std::uint32_t span_id, trace::SpanPhase phase,
                  BytesView data, std::uint64_t size);

  // --- Cycle profiling (lateral::health) ----------------------------------
  /// Attach a sampling cycle-profiler: every crossing makes one sampling
  /// decision (1 in sample_every) and, when sampled, attributes its cycle
  /// charge to the *callee* domain per crossing phase. Like the tracer, the
  /// profiler owns the rings, so a profile survives kill_domain. Pass
  /// nullptr to detach. A sampled crossing is charged
  /// CostModel::profile_stamp, folded into the request-direction crossing
  /// charge like the trace stamp; disabled costs exactly zero cycles
  /// (conformance-pinned, bench_fig16's zero-when-off column).
  void set_profiler(health::CycleProfiler* profiler) { profiler_ = profiler; }
  health::CycleProfiler* profiler() const { return profiler_; }
  bool profiling_active() const { return profiler_ && profiler_->enabled(); }

  // --- Fault injection (experiment hook) ---------------------------------
  /// Consulted once per synchronous delivery with the callee and the
  /// operation name ("call", "call_batch", "call_sg" or "call_batch_sg").
  /// Returning true crashes the callee at that instant — kill_domain() runs
  /// and the invocation fails with Errc::domain_dead, exactly what a caller
  /// of a component that died mid-request observes. Descriptors are vetoed
  /// before the hook: a delivery with nothing left to deliver never
  /// consults it. Supervision tests and bench_fig10 script crashes through
  /// this without reaching into substrate internals.
  using FaultHook = std::function<bool(DomainId callee, std::string_view op)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  // --- Communication (POLA: only explicitly created channels exist) ------
  virtual Result<ChannelId> create_channel(DomainId a, DomainId b,
                                           const ChannelSpec& spec = {});
  Status set_handler(DomainId domain, Handler handler);
  /// Asynchronous message to the peer endpoint.
  Status send(DomainId actor, ChannelId channel, BytesView data);
  /// Move-in overload: the payload buffer is adopted into the queued
  /// Message instead of being copied (satellite of the zero-copy work —
  /// even the copy path should copy at most once).
  Status send(DomainId actor, ChannelId channel, Bytes&& data);
  /// Dequeue the next message for `actor` on `channel`; would_block if none.
  Result<Message> receive(DomainId actor, ChannelId channel);
  // The four synchronous calls below share one delivery path and one
  // refusal rule. A batch-level refusal (bad channel, non-endpoint actor,
  // dead endpoint, oversized request, scripted crash, no handler, pre_call
  // veto) fails the whole call. A request whose descriptors the reference
  // monitor refuses fails alone, with nothing crossed on its behalf; when
  // no request is left to deliver, the call crosses nothing at all — no
  // fault hook, no pre_call, no cycles.

  /// Synchronous invocation of the peer's handler (service invocation in the
  /// structural template of Fig. 2).
  Result<Bytes> call(DomainId actor, ChannelId channel, BytesView data);
  /// Batched invocation: deliver every request to the peer's handler while
  /// crossing the isolation boundary once per direction for the whole
  /// batch. The fixed crossing cost (message_cost(0)) is charged once; only
  /// the per-byte copy cost scales with the batch, so a batch of one costs
  /// exactly what call() does. Handler failures come back inside
  /// BatchReply::replies; an empty batch crosses nothing.
  Result<BatchReply> call_batch(DomainId actor, ChannelId channel,
                                const std::vector<Bytes>& requests);
  /// Scatter-gather invocation: `header` crosses inline, `segments` name
  /// payload bytes already resident in a shared grant region. The crossing
  /// is charged for header + kDescriptorWireBytes per segment — O(1) in the
  /// payload size. Descriptors are validated against the region table
  /// (endpoints, bounds, epoch) before anything crosses; a stale descriptor
  /// fails the call with Errc::stale_epoch, a foreign one with
  /// access_denied, in either case without consulting the fault hook.
  Result<Bytes> call_sg(DomainId actor, ChannelId channel, BytesView header,
                        std::span<const RegionDescriptor> segments);
  /// Batched scatter-gather: one crossing per direction for the whole
  /// batch, each request O(descriptors) on the wire. A refused descriptor
  /// fails only its own request, inside BatchReply::replies; a batch whose
  /// every request is refused crosses nothing.
  Result<BatchReply> call_batch_sg(DomainId actor, ChannelId channel,
                                   const std::vector<SgRequest>& requests);
  /// The badge minted for `endpoint`'s end of the channel — what the peer
  /// sees when `endpoint` sends. Composition code uses this to configure
  /// badge-based access-control lists (SessionDemux).
  Result<std::uint64_t> endpoint_badge(ChannelId channel,
                                       DomainId endpoint) const;

  // --- Channel epochs (crash recovery) -----------------------------------
  /// Every channel carries an epoch, starting at 1. A restart bumps it;
  /// endpoint objects minted against an older epoch must fail fast with
  /// Errc::stale_epoch instead of silently driving the reincarnated
  /// channel (core::Endpoint performs that check).
  Result<std::uint64_t> channel_epoch(ChannelId channel) const;
  /// Invalidate every outstanding endpoint of the channel: epoch++, queued
  /// messages of both directions dropped (they belong to the old life).
  Status bump_channel_epoch(ChannelId channel);
  /// Replace endpoint `from` (live or corpse) with live domain `to`: the
  /// relaunched component inherits its predecessor's channel under a fresh
  /// badge and a bumped epoch. This is the substrate half of a supervised
  /// restart — the channel id stays stable so composition-level wiring
  /// survives, while stale holders are fenced off by the epoch.
  Status rebind_channel(ChannelId channel, DomainId from, DomainId to);

  // --- Grant regions (zero-copy data plane) ------------------------------
  /// Whether this substrate can realize shared grant regions at all. The
  /// discrete/firmware TPMs cannot — there is no memory both sides can
  /// address — so they report false and callers fall back to the copy path
  /// (create_region returns Errc::no_region_support).
  virtual bool supports_regions() const { return true; }
  /// Establish a shared region of `size` bytes between domains `a` (owner)
  /// and `b` (grantee). Like channels, regions exist only by explicit
  /// creation (POLA); SystemComposer is the only caller in composed systems,
  /// driven by the manifest `region` stanza. The region starts unmapped:
  /// each endpoint must map_region before any access.
  virtual Result<RegionId> create_region(DomainId a, DomainId b,
                                         std::size_t size,
                                         RegionPerms perms =
                                             RegionPerms::read_write);
  /// Map the region into `actor`'s address space. Reference-monitor check:
  /// any domain that is not one of the region's two endpoints is refused
  /// with Errc::access_denied. Charges the backend's one-time map cost
  /// (page-table writes, SMC, EENTER/EEXIT, DMA window programming, ...).
  Status map_region(DomainId actor, RegionId region);
  /// Drop `actor`'s mapping without tearing the region down.
  Status unmap_region(DomainId actor, RegionId region);
  /// Tear the region down: both mappings are removed and the epoch is
  /// bumped so every outstanding descriptor fails with stale_epoch. The
  /// record stays (like a channel) so the id remains diagnosable.
  Status revoke_region(RegionId region);
  /// Replace endpoint `from` (live or corpse) with live domain `to` —
  /// the region half of a supervised restart. Epoch++, both mappings
  /// dropped, backing bytes cleared (the new life must not inherit the old
  /// life's data).
  Status rebind_region(RegionId region, DomainId from, DomainId to);
  Result<std::uint64_t> region_epoch(RegionId region) const;
  /// Size in bytes of a live region — the single source of truth for pool
  /// sizing, so callers never restate the manifest's `region` byte count.
  Result<std::size_t> region_size(RegionId region) const;
  std::vector<RegionId> regions() const;

  /// Mint a descriptor naming [offset, offset+len) of the region, stamped
  /// with the current epoch. `actor` must be a mapped endpoint.
  Result<RegionDescriptor> make_descriptor(DomainId actor, RegionId region,
                                           std::uint64_t offset,
                                           std::uint64_t len) const;
  /// Produce bytes into the region (the producer's single copy; charged
  /// per byte like any memcpy). Write permission required.
  Status region_write(DomainId actor, RegionId region, std::uint64_t offset,
                      BytesView data);
  /// Copy bytes out of the region (per-byte; for consumers that genuinely
  /// need an owned buffer). Prefer region_view.
  Result<Bytes> region_read(DomainId actor, RegionId region,
                            std::uint64_t offset, std::size_t len);
  /// Access descriptor bytes *in place*: no copy, constant per-access cost
  /// (hw::CostModel::region_access). This is what makes the zero-copy path
  /// O(1) in payload size. The view is invalidated by revoke/rebind — but
  /// those bump the epoch first, so validation fails closed before any
  /// dangling access.
  Result<BytesView> region_view(DomainId actor, const RegionDescriptor& desc);
  /// Validate a descriptor on behalf of `actor` (endpoint? mapped? bounds?
  /// epoch current? peer alive?). Exposed so composition layers can
  /// pre-flight descriptors with the same reference-monitor logic the
  /// delivery path uses.
  Status check_descriptor(DomainId actor, const RegionDescriptor& desc) const;

  // --- Memory -----------------------------------------------------------
  /// Access target memory as `actor`. The reference-monitor check is the
  /// heart of spatial isolation: actor != target is denied on every
  /// substrate (unless the substrate's model permits it, e.g. TrustZone's
  /// secure world reading the normal world).
  virtual Result<Bytes> read_memory(DomainId actor, DomainId target,
                                    std::uint64_t offset, std::size_t len) = 0;
  virtual Status write_memory(DomainId actor, DomainId target,
                              std::uint64_t offset, BytesView data) = 0;

  // --- Code identity, attestation, sealing -------------------------------
  Result<crypto::Digest> measurement(DomainId domain) const;
  /// Quote binding (measurement, user_data) to the device endorsement key.
  virtual Result<Quote> attest(DomainId actor, BytesView user_data);
  /// Encrypt data such that only the same code identity on the same device
  /// can recover it.
  virtual Result<Bytes> seal(DomainId actor, BytesView plaintext);
  virtual Result<Bytes> unseal(DomainId actor, BytesView sealed);

  // --- Authenticated-boot log --------------------------------------------
  /// Measurement log of every domain launched (authenticated_boot policy).
  const std::vector<crypto::Digest>& boot_log() const { return boot_log_; }

  /// Cycle cost of a one-way message of `len` bytes on this substrate
  /// (public so composition layers can charge bridged channels honestly).
  virtual Cycles message_cost(std::size_t len) const = 0;

  // --- Concurrency law (multi-core composition, FIG13) --------------------
  /// How crossings on *different cores* compose: independently, or queued
  /// behind a shared serialization point (enclave transition hardware, the
  /// secure-world monitor, a single-threaded device). Pinned per backend by
  /// the conformance suite; measured by bench_fig13_scaling.
  virtual ConcurrencyLaw concurrency_law() const {
    return ConcurrencyLaw::parallel;
  }
  /// The cycles of a `direction`-cost crossing that must hold the shared
  /// serialization point: none (parallel), the fixed transition
  /// (transition_serialized — per-byte EPC work proceeds per-core), or the
  /// whole direction (monitor/device serialized).
  Cycles serialized_share(Cycles direction) const;
  /// Cross-core crossings that arrived while the serialization point was
  /// held, and the total cycles they spent stalled on it. Always zero on a
  /// single-core machine.
  std::uint64_t serial_stalls() const { return serial_stalls_; }
  Cycles serial_stall_cycles() const { return serial_stall_cycles_; }

  // --- Experiment hooks ---------------------------------------------------
  /// Flag a domain as attacker-controlled. The substrate keeps enforcing
  /// its isolation; the flag drives containment analysis and lets tests
  /// swap in attacker behaviour.
  Status mark_compromised(DomainId domain);
  bool is_compromised(DomainId domain) const;

 protected:
  IsolationSubstrate(hw::Machine& machine, SubstrateConfig config);

  struct DomainRecord {
    DomainSpec spec;
    crypto::Digest measurement{};
    Handler handler;
    bool compromised = false;
    /// Corpse flag: killed, memory released, awaiting reap. Every operation
    /// naming a dead domain returns Errc::domain_dead.
    bool dead = false;
    /// Manifest-granted consent to span payload capture (redaction is the
    /// default; see set_trace_capture).
    bool trace_capture = false;
    /// Backend-specific memory handle (frame base, enclave tag, ...).
    std::uint64_t backend_cookie = 0;
  };

  struct ChannelRecord {
    DomainId a = kInvalidDomain;
    DomainId b = kInvalidDomain;
    std::uint64_t badge_a = 0;  // identifies endpoint a when it sends
    std::uint64_t badge_b = 0;
    /// Bumped on every restart/rebind; stale endpoints fail fast.
    std::uint64_t epoch = 1;
    ChannelSpec spec;
    // std::deque: receive() pops from the front in O(1). (A vector here
    // made every dequeue O(n) — measured as a real hotspot under bursts.)
    std::deque<Message> to_a;  // queue of messages awaiting a
    std::deque<Message> to_b;
  };

  struct RegionRecord {
    DomainId a = kInvalidDomain;  // owner
    DomainId b = kInvalidDomain;  // grantee
    RegionPerms perms = RegionPerms::read_write;
    /// Bumped by revoke_region / rebind_region / kill_domain so that every
    /// descriptor minted against an earlier life fails with stale_epoch.
    std::uint64_t epoch = 1;
    bool mapped_a = false;
    bool mapped_b = false;
    bool revoked = false;
    Bytes backing;  // the shared bytes themselves
    /// Backend-specific handle (grant list index, DTU slot, NS-buffer tag).
    std::uint64_t backend_cookie = 0;
  };

  // Backend hooks -----------------------------------------------------------
  /// Validate substrate-specific restrictions (e.g. TrustZone hosts exactly
  /// one legacy world; the TPM never hosts a legacy OS).
  virtual Status admit_domain(const DomainSpec& spec) const = 0;
  /// Allocate backing memory; set record.backend_cookie. Called after
  /// admit_domain and launch-policy checks passed.
  virtual Status attach_memory(DomainId id, DomainRecord& record) = 0;
  virtual void release_memory(DomainId id, DomainRecord& record) = 0;
  /// Extra cost charged by attest() on top of the signature itself.
  virtual Cycles attest_cost() const = 0;
  /// Invoked before a synchronous call is delivered; lets a backend impose
  /// serialization semantics (the TPM's Flicker-style late launch switches
  /// the single active session here). Default: allow.
  virtual Status pre_call(DomainId actor, DomainId callee);
  /// One-time cost of mapping `pages` 4 KiB pages of shared memory into an
  /// endpoint (charged by map_region). Backends price their own mechanism:
  /// page-table grants, world-shared buffer setup, EADD of untrusted pages,
  /// DMA window programming, capability derivation, DTU endpoint config.
  virtual Cycles region_map_cost(std::size_t pages) const;
  /// Constant cost of one in-place descriptor access (region_view).
  virtual Cycles region_access_cost() const;
  /// Per-actor data-plane pricing. The flat costs above assume the backing
  /// is equally close to both endpoints — true for MMU-style substrates,
  /// where a shared mapping is just memory. Tiled substrates override:
  /// the backing physically lives on ONE endpoint's tile (the host, chosen
  /// at attach_region) and the peer pays the interconnect per copy/view.
  /// Defaults delegate to the flat model above.
  virtual Cycles region_copy_cost(const RegionRecord& record, DomainId actor,
                                  std::size_t len) const;
  virtual Cycles region_access_cost(const RegionRecord& record,
                                    DomainId actor) const;
  /// Backend admission/teardown hooks for regions (e.g. the NoC DTU has a
  /// bounded endpoint table; it accounts slots here). Defaults: allow/no-op.
  virtual Status attach_region(RegionId id, RegionRecord& record);
  virtual void release_region(RegionId id, RegionRecord& record);

  // Shared helpers ------------------------------------------------------------
  DomainRecord* find_domain(DomainId id);
  const DomainRecord* find_domain(DomainId id) const;
  ChannelRecord* find_channel(ChannelId id);
  const ChannelRecord* find_channel(ChannelId id) const;
  RegionRecord* find_region(RegionId id);
  const RegionRecord* find_region(RegionId id) const;
  /// Errc::domain_dead for a corpse, Errc::no_such_domain for an unknown
  /// id; success for a live domain. Backends call this at the top of their
  /// memory paths so a dead domain is reported as dead, not merely unknown.
  Status check_live(DomainId id) const;
  /// Consult the fault hook for `callee`; on a scripted crash, kill the
  /// domain and report true (the caller must then fail with domain_dead).
  bool fault_fires(DomainId callee, std::string_view op);
  /// Charge one crossing direction on the machine's active core, applying
  /// this substrate's concurrency law: the serialized share of the cost
  /// queues behind the shared gate (stalling the core until the gate frees),
  /// the rest proceeds per-core. Exactly machine_.advance(direction) on a
  /// single-core machine. Every crossing site must use this, never a bare
  /// advance, or the conformance suite's law pins fail.
  void charge_crossing(Cycles direction);
  /// Contention-model touch of a channel / a region cache line (see
  /// hw::Machine::note_shared_access). Key spaces are disjoint.
  void note_channel_touch(ChannelId id);
  void note_region_touch(RegionId id, std::uint64_t offset);
  /// Sealing key bound to device + code identity.
  crypto::Aead sealing_aead(const crypto::Digest& measurement) const;

  hw::Machine& machine_;
  SubstrateConfig config_;
  std::map<DomainId, DomainRecord> domains_;
  std::map<ChannelId, ChannelRecord> channels_;
  std::map<RegionId, RegionRecord> regions_;
  std::vector<crypto::Digest> boot_log_;
  DomainId next_domain_ = 1;
  ChannelId next_channel_ = 1;
  RegionId next_region_ = 1;
  std::uint64_t next_badge_ = 0x1000;
  std::uint64_t seal_nonce_ = 1;
  FaultHook fault_hook_;
  trace::Tracer* tracer_ = nullptr;
  health::CycleProfiler* profiler_ = nullptr;
  /// Cycle stamp at which the shared serialization point frees (the gate a
  /// serialized crossing's core must stall to before holding it).
  Cycles serial_free_ = 0;
  std::uint64_t serial_stalls_ = 0;
  Cycles serial_stall_cycles_ = 0;

 private:
  /// One request as the delivery core sees it: the inline bytes and the
  /// descriptors (empty off the zero-copy path) that ride with them.
  struct RequestView {
    BytesView header;
    std::span<const RegionDescriptor> segments;
  };
  /// The one synchronous delivery path behind call, call_batch, call_sg and
  /// call_batch_sg (`op` names which, for the fault hook). Fills
  /// `replies[i]` for `requests[i]` and returns the cycles charged in both
  /// directions, or the batch-level refusal.
  Result<Cycles> deliver(DomainId actor, ChannelId channel,
                         std::span<const RequestView> requests,
                         std::span<Result<Bytes>> replies, std::string_view op);
  /// deliver() of one request into one reply, both on the stack.
  Result<Bytes> deliver_one(DomainId actor, ChannelId channel,
                            const RequestView& request, std::string_view op);
  /// deliver() into a BatchReply sized to `requests`.
  Result<BatchReply> deliver_batch(DomainId actor, ChannelId channel,
                                   std::span<const RequestView> requests,
                                   std::string_view op);
};

}  // namespace lateral::substrate
