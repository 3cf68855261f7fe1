// lateral::trace — context codec, flight recorder (incl. concurrent
// writers; run under TSan in CI), tracer bookkeeping, exporter output, and
// the trust-aware redaction policy at the export boundary.
#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "substrate/substrate.h"
#include "test_support.h"
#include "trace/exporter.h"
#include "trace/trace.h"

namespace lateral::trace {
namespace {

// --- TraceContext ---

TEST(TraceContextTest, WireRoundTrip) {
  TraceContext ctx;
  ctx.trace_id = 0x0123'4567'89ab'cdefull;
  ctx.parent_span = 0xdead'beef;
  ctx.flags = TraceContext::kSampled;
  Bytes wire;
  ctx.encode(wire);
  ASSERT_EQ(wire.size(), kTraceContextWireBytes);
  EXPECT_EQ(wire[0], 0x01);  // big-endian, trace id first
  EXPECT_EQ(TraceContext::decode(wire), ctx);
}

TEST(TraceContextTest, ZeroContextIsNotSampled) {
  EXPECT_FALSE(TraceContext{}.sampled());
  // A nonzero id without the sampled flag is carried but not recorded.
  TraceContext unsampled{42, 0, 0};
  EXPECT_FALSE(unsampled.sampled());
  TraceContext sampled{42, 0, TraceContext::kSampled};
  EXPECT_TRUE(sampled.sampled());
}

TEST(TraceContextTest, DecodeShortBufferYieldsZeroContext) {
  const Bytes short_buffer(kTraceContextWireBytes - 1, 0xff);
  EXPECT_EQ(TraceContext::decode(short_buffer), TraceContext{});
}

// --- SpanEvent ---

TEST(SpanEventTest, OpcodeIsLeftAlignedAndNeedsNoConsent) {
  SpanEvent event;
  event.note_payload(to_bytes("FETCH inbox"), /*capture=*/false);
  EXPECT_EQ(event.opcode, 0x46455443u);  // "FETC"
  EXPECT_EQ(event.payload_len, 0u);      // redacted by default

  SpanEvent short_op;
  short_op.note_payload(to_bytes("OK"), /*capture=*/false);
  EXPECT_EQ(short_op.opcode, 0x4f4b'0000u);  // left-aligned, zero-padded
}

TEST(SpanEventTest, EmptyAndShortPayloadsZeroPadTheOpcode) {
  SpanEvent empty;
  empty.note_payload({}, /*capture=*/true);
  EXPECT_EQ(empty.opcode, 0u);
  EXPECT_EQ(empty.payload_len, 0u);

  SpanEvent one;
  one.note_payload(to_bytes("X"), /*capture=*/false);
  EXPECT_EQ(one.opcode, 0x5800'0000u);
  SpanEvent three;
  three.note_payload(to_bytes("ABC"), /*capture=*/false);
  EXPECT_EQ(three.opcode, 0x4142'4300u);
}

TEST(SpanEventTest, PayloadCaptureIsBoundedAndOptIn) {
  SpanEvent event;
  const Bytes data = to_bytes("a-message-longer-than-sixteen-bytes");
  event.note_payload(data, /*capture=*/true);
  EXPECT_EQ(event.payload_len, SpanEvent::kCaptureBytes);
  EXPECT_EQ(event.payload[0], 'a');
  EXPECT_EQ(event.payload[15], data[15]);
}

// --- FlightRecorder ---

TEST(FlightRecorderTest, RetainsEventsInTicketOrder) {
  FlightRecorder ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    SpanEvent event;
    event.span_id = static_cast<std::uint32_t>(i);
    EXPECT_TRUE(ring.record(event));
  }
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].span_id, i);
    EXPECT_EQ(events[i].ticket, i);
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(FlightRecorderTest, WrapsKeepingTheRecentTail) {
  FlightRecorder ring(4);
  for (std::uint32_t i = 0; i < 11; ++i) {
    SpanEvent event;
    event.span_id = i;
    ring.record(event);
  }
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);  // capacity retained, oldest first
  EXPECT_EQ(events.front().span_id, 7u);
  EXPECT_EQ(events.back().span_id, 10u);
  EXPECT_EQ(ring.recorded(), 11u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  FlightRecorder tiny(0);
  EXPECT_GE(tiny.capacity(), 1u);
}

TEST(FlightRecorderTest, ClearRestartsTheRing) {
  FlightRecorder ring(4);
  for (std::uint32_t i = 0; i < 6; ++i) ring.record({});
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  // Post-clear writes land normally (lap arithmetic restarted, not wedged).
  SpanEvent event;
  event.span_id = 99;
  EXPECT_TRUE(ring.record(event));
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span_id, 99u);
}

TEST(FlightRecorderTest, ConcurrentWritersAndReadersStayConsistent) {
  // The TSan regression for the seqlock protocol: hammer one small ring
  // from several writers while a reader snapshots continuously. Every
  // snapshot must be internally consistent (strictly increasing tickets,
  // self-consistent word packing); accounting must be lossless.
  FlightRecorder ring(16);
  static constexpr int kWriters = 4;
  static constexpr std::uint32_t kPerWriter = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (std::uint32_t i = 0; i < kPerWriter; ++i) {
        SpanEvent event;
        event.trace_id = static_cast<std::uint64_t>(w) + 1;
        event.span_id = i;
        event.at = i;
        ring.record(event);
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&ring, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto events = ring.snapshot();
      std::uint64_t last_ticket = 0;
      bool first = true;
      for (const SpanEvent& event : events) {
        if (!first) EXPECT_GT(event.ticket, last_ticket);
        last_ticket = event.ticket;
        first = false;
        EXPECT_GE(event.trace_id, 1u);
        EXPECT_LE(event.trace_id, kWriters);
        EXPECT_EQ(event.at, event.span_id);  // packed words belong together
      }
    }
  });
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(ring.recorded() + ring.dropped(), kWriters * kPerWriter);
  EXPECT_LE(ring.snapshot().size(), ring.capacity());
}

TEST(FlightRecorderTest, WriterLappingASnapshotNeverTearsRecords) {
  // Wraparound regression for the seqlock: one fast writer laps a tiny ring
  // thousands of times while a reader snapshots mid-lap. The dangerous
  // interleaving is a slot rewritten a FULL LAP (or several) after the
  // reader's acquire — the per-slot sequence has moved to a different
  // stable value, and the post-copy recheck must still notice. A stale
  // recheck would splice words from lap N and lap N+k into one event, which
  // the derived-field invariant below catches: every field of an event is a
  // function of one counter, so any cross-lap mix is visible.
  FlightRecorder ring(4);
  static constexpr std::uint64_t kEvents = 200'000;  // 50k laps of 4 slots
  std::thread writer([&ring] {
    for (std::uint64_t i = 1; i <= kEvents; ++i) {
      SpanEvent event;
      event.trace_id = i;
      event.span_id = static_cast<std::uint32_t>(i);
      event.at = i;
      event.size = i * 3;
      ring.record(event);
    }
  });
  std::atomic<bool> done{false};
  std::thread reader([&ring, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const SpanEvent& event : ring.snapshot()) {
        EXPECT_EQ(event.span_id, static_cast<std::uint32_t>(event.trace_id));
        EXPECT_EQ(event.at, event.trace_id);
        EXPECT_EQ(event.size, event.trace_id * 3);
      }
    }
  });
  writer.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(ring.recorded() + ring.dropped(), kEvents);
  // Single writer: nothing ever contends a slot, so nothing was dropped and
  // the final snapshot is exactly the last lap, in order.
  EXPECT_EQ(ring.dropped(), 0u);
  const auto tail = ring.snapshot();
  ASSERT_EQ(tail.size(), ring.capacity());
  EXPECT_EQ(tail.back().trace_id, kEvents);
  for (std::size_t i = 1; i < tail.size(); ++i)
    EXPECT_EQ(tail[i].trace_id, tail[i - 1].trace_id + 1);
}

// --- Tracer ---

TEST(TracerTest, MintsDistinctSampledTraces) {
  Tracer tracer;
  const TraceContext first = tracer.begin_trace();
  const TraceContext second = tracer.begin_trace();
  EXPECT_TRUE(first.sampled());
  EXPECT_TRUE(second.sampled());
  EXPECT_NE(first.trace_id, second.trace_id);
  EXPECT_EQ(tracer.traces_started(), 2u);
  EXPECT_NE(tracer.next_span(), tracer.next_span());
}

TEST(TracerTest, RecordersAreKeyedAndLabelled) {
  Tracer tracer(/*ring_capacity=*/8);
  const int owner_a = 0, owner_b = 0;
  FlightRecorder& ring = tracer.recorder(&owner_a, 7, "imap");
  EXPECT_EQ(&ring, &tracer.recorder(&owner_a, 7, "imap"));
  EXPECT_NE(&ring, &tracer.recorder(&owner_b, 7, "other"));
  EXPECT_NE(&ring, &tracer.recorder(&owner_a, 8, "other"));

  SpanEvent event;
  event.span_id = 1;
  ring.record(event);
  EXPECT_EQ(tracer.snapshot(&owner_a, 7).size(), 1u);
  EXPECT_TRUE(tracer.snapshot(&owner_a, 99).empty());

  const auto rings = tracer.rings();
  ASSERT_EQ(rings.size(), 3u);
  bool found = false;
  for (const Tracer::RingRef& ref : rings)
    if (ref.label == "imap" && ref.domain == 7) found = true;
  EXPECT_TRUE(found);

  tracer.scrub(&owner_a, 7);
  EXPECT_TRUE(tracer.snapshot(&owner_a, 7).empty());
}

TEST(TracerTest, EmptyLabelIsBackfilledOnFirstNamedUse) {
  Tracer tracer;
  const int owner = 0;
  tracer.recorder(&owner, 1, "");
  tracer.recorder(&owner, 1, "late-name");
  ASSERT_EQ(tracer.rings().size(), 1u);
  EXPECT_EQ(tracer.rings()[0].label, "late-name");
}

// --- TraceScope ---

TEST(TraceScopeTest, NestsAndRestores) {
  EXPECT_EQ(current_context(), TraceContext{});
  TraceContext outer{1, 10, TraceContext::kSampled};
  {
    TraceScope outer_scope(outer);
    EXPECT_EQ(current_context(), outer);
    TraceContext inner{2, 20, TraceContext::kSampled};
    {
      TraceScope inner_scope(inner);
      EXPECT_EQ(current_context(), inner);
    }
    EXPECT_EQ(current_context(), outer);
  }
  EXPECT_EQ(current_context(), TraceContext{});
}

// --- Exporter + redaction ---

core::Manifest subject_manifest() {
  core::Manifest m;
  m.name = "imap";
  m.substrate_name = "microkernel";
  m.trace.emplace();
  m.trace->capture_payload = true;
  m.trace->observers = {"ui"};
  return m;
}

core::Manifest plain_manifest(const std::string& name) {
  core::Manifest m;
  m.name = name;
  m.substrate_name = "microkernel";
  return m;
}

TEST(ExporterTest, AnonymousExportRedactsEverything) {
  Tracer tracer;
  const int owner = 0;
  SpanEvent event;
  event.trace_id = 5;
  event.at = 123;
  event.note_payload(to_bytes("SECRET-BODY"), /*capture=*/true);
  tracer.recorder(&owner, 1, "imap").record(event);

  TraceExporter exporter(tracer);
  auto json = exporter.chrome_trace_json();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json->find("\"name\":\"imap\""), std::string::npos);
  EXPECT_NE(json->find("\"op\":\"SECR\""), std::string::npos);
  EXPECT_EQ(json->find("payload"), std::string::npos);  // no observer: redact
}

TEST(ExporterTest, AuthorizedObserverSeesPayloadBytes) {
  Tracer tracer;
  const int owner = 0;
  SpanEvent event;
  event.note_payload(to_bytes("AB"), /*capture=*/true);
  tracer.recorder(&owner, 1, "imap").record(event);

  ExportOptions opts;
  opts.observer = "ui";
  opts.manifests = {subject_manifest(), plain_manifest("ui"),
                    plain_manifest("render")};
  auto json = TraceExporter(tracer).chrome_trace_json(opts);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"payload\":\"4142\""), std::string::npos);
}

TEST(ExporterTest, UnauthorizedObserverIsRefusedOutright) {
  Tracer tracer;
  const int owner = 0;
  SpanEvent event;
  event.note_payload(to_bytes("AB"), /*capture=*/true);
  tracer.recorder(&owner, 1, "imap").record(event);

  ExportOptions opts;
  opts.observer = "render";  // not in imap's observer list, not trusted
  opts.manifests = {subject_manifest(), plain_manifest("ui"),
                    plain_manifest("render")};
  EXPECT_EQ(TraceExporter(tracer).chrome_trace_json(opts).error(),
            Errc::redaction_denied);

  // Without any captured payload the same observer exports fine: the
  // policy governs payload bytes, not the redacted timeline.
  tracer.scrub(&owner, 1);
  SpanEvent redacted;
  redacted.note_payload(to_bytes("AB"), /*capture=*/false);
  tracer.recorder(&owner, 1, "imap").record(redacted);
  EXPECT_TRUE(TraceExporter(tracer).chrome_trace_json(opts).ok());
}

TEST(ExporterTest, UnmanifestedRingExportsRedactedNotRefused) {
  Tracer tracer;
  const int owner = 0;
  SpanEvent event;
  event.note_payload(to_bytes("AB"), /*capture=*/true);
  tracer.recorder(&owner, 1, "bench-ring").record(event);

  ExportOptions opts;
  opts.observer = "ui";
  opts.manifests = {plain_manifest("ui")};
  auto json = TraceExporter(tracer).chrome_trace_json(opts);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->find("payload"), std::string::npos);
}

TEST(ExporterTest, CountersRideInOtherData) {
  Tracer tracer;
  runtime::MetricsHub hub;
  hub.counters("mail.ui->imap")->submitted = 17;
  auto json = TraceExporter(tracer, &hub).chrome_trace_json();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"mail.ui->imap\""), std::string::npos);
  EXPECT_NE(json->find("\"submitted\":17"), std::string::npos);
  EXPECT_NE(json->find("\"latency_p99\""), std::string::npos);
}

TEST(ExporterTest, TextSnapshotNeverCarriesPayloadBytes) {
  Tracer tracer;
  const int owner = 0;
  SpanEvent event;
  event.note_payload(to_bytes("TOPSECRET"), /*capture=*/true);
  tracer.recorder(&owner, 1, "imap").record(event);
  const std::string text = TraceExporter(tracer).text_snapshot();
  EXPECT_NE(text.find("== imap"), std::string::npos);
  EXPECT_NE(text.find("op=TOPS"), std::string::npos);
  EXPECT_NE(text.find("redacted"), std::string::npos);
  EXPECT_EQ(text.find("TOPSECRET"), std::string::npos);
}

// --- End-to-end overhead: the ≤5% contract, per substrate ---

TEST(TraceOverheadTest, BatchedPathOverheadWithinFivePercentOnAllSubstrates) {
  for (const std::string& name : test::shared_registry().names()) {
    auto machine = test::make_machine("trace-overhead-" + name);
    auto created = test::shared_registry().create(name, *machine);
    ASSERT_TRUE(created.ok()) << name;
    auto& substrate = **created;

    auto a = substrate.create_domain(test::tc_spec("alpha"));
    auto b = substrate.create_domain(
        substrate::has_feature(substrate.info().features,
                               substrate::Feature::legacy_hosting)
            ? test::legacy_spec("beta")
            : test::tc_spec("beta"));
    ASSERT_TRUE(a.ok() && b.ok()) << name;
    auto channel = substrate.create_channel(*a, *b);
    ASSERT_TRUE(channel.ok()) << name;
    ASSERT_TRUE(substrate
                    .set_handler(*b,
                                 [](const substrate::Invocation&)
                                     -> Result<Bytes> { return Bytes{}; })
                    .ok());

    const std::vector<Bytes> requests(32, to_bytes("0123456789abcdef"));
    const auto crossing_cost = [&]() -> Cycles {
      auto reply = substrate.call_batch(*a, *channel, requests);
      EXPECT_TRUE(reply.ok()) << name;
      return reply->crossing_cycles;
    };
    crossing_cost();  // warm up one-time charges
    const Cycles baseline = crossing_cost();

    Tracer tracer;
    substrate.set_tracer(&tracer);
    const TraceContext ctx = tracer.begin_trace();
    TraceScope scope(ctx);
    const Cycles traced = crossing_cost();

    ASSERT_GE(traced, baseline) << name;
    // The whole economics of the design: per-crossing (not per-request)
    // context charge, so a batch of 32 amortizes tracing to noise.
    EXPECT_LE((traced - baseline) * 100, baseline * 5)
        << name << ": baseline=" << baseline << " traced=" << traced;
    substrate.set_tracer(nullptr);
  }
}

}  // namespace
}  // namespace lateral::trace
