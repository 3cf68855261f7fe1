#include "trace/exporter.h"

#include <algorithm>
#include <sstream>

#include "core/composer.h"
#include "core/policy.h"
#include "util/wire.h"

namespace lateral::trace {
namespace {

void json_escape_into(std::ostringstream& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
}

std::string hex_bytes(const std::uint8_t* data, std::size_t len) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

/// The opcode as protocol text ("FETC") when all four bytes are printable
/// ASCII, else empty — the caller falls back to the numeric form.
std::string opcode_text(std::uint32_t opcode) {
  Bytes bytes;
  wire::ByteWriter(bytes).u32(opcode);
  std::string out;
  for (const std::uint8_t b : bytes) {
    const char c = static_cast<char>(b);
    if (c == 0) break;  // short opcodes are left-aligned, zero-padded
    if (c < 0x20 || c > 0x7e) return {};
    out.push_back(c);
  }
  return out;
}

bool has_captured_payload(const std::vector<SpanEvent>& events) {
  return std::any_of(events.begin(), events.end(),
                     [](const SpanEvent& e) { return e.payload_len > 0; });
}

void append_counters_json(std::ostringstream& out,
                          const runtime::InvocationCounters& c) {
  out << "{\"submitted\":" << c.submitted << ",\"completed\":" << c.completed
      << ",\"rejected\":" << c.rejected << ",\"cancelled\":" << c.cancelled
      << ",\"timed_out\":" << c.timed_out << ",\"batches\":" << c.batches
      << ",\"crossing_cycles\":" << c.crossing_cycles
      << ",\"sync_equivalent_cycles\":" << c.sync_equivalent_cycles
      << ",\"cycles_saved\":" << c.cycles_saved()
      << ",\"zero_copy_bytes\":" << c.zero_copy_bytes
      << ",\"latency_mean\":" << c.mean_latency_cycles()
      << ",\"latency_p50\":" << c.latency_percentile(0.5)
      << ",\"latency_p99\":" << c.latency_percentile(0.99) << "}";
}

void render_family(std::ostream& out, const std::string& label,
                   std::string_view family,
                   const runtime::MetricFields& fields) {
  out << "-- " << label;
  if (!family.empty()) out << " (" << family << ")";
  out << ":";
  for (const auto& [name, value] : fields) out << " " << name << "=" << value;
  out << "\n";
}

}  // namespace

void render_metrics_text(std::ostream& out, const runtime::MetricsHub& hub) {
  for (const auto& [label, c] : hub.all())
    render_family(out, label, {}, c.fields());
  for (const auto& [label, r] : hub.all_recovery())
    render_family(out, label, "recovery", r.fields());
  for (const auto& [label, f] : hub.all_fleet())
    render_family(out, label, "fleet", f.fields());
  for (const auto& [label, u] : hub.all_update())
    render_family(out, label, "update", u.fields());
  for (const auto& [label, s] : hub.all_sched())
    render_family(out, label, "sched", s.fields());
  for (const auto& [label, h] : hub.all_health())
    render_family(out, label, "health", h.fields());
}

Result<std::string> TraceExporter::chrome_trace_json(
    const ExportOptions& opts) const {
  struct RingDump {
    std::string label;
    std::uint64_t domain = 0;
    bool payload_authorized = false;
    std::vector<SpanEvent> events;
  };

  std::vector<RingDump> dumps;
  for (const Tracer::RingRef& ref : tracer_.rings()) {
    RingDump dump;
    dump.label = ref.label;
    dump.domain = ref.domain;
    dump.events = ref.ring->snapshot();

    if (!opts.observer.empty() && has_captured_payload(dump.events)) {
      const Status verdict =
          core::check_trace_export(opts.manifests, dump.label, opts.observer);
      if (verdict.ok()) {
        dump.payload_authorized = true;
      } else if (verdict.error() == Errc::redaction_denied) {
        // A payload-bearing ring the observer may not see: refuse the whole
        // export rather than silently thinning it — the caller asked for
        // this observer's view, and this observer has none.
        if (audit_)
          audit_->append(health::AuditKind::redaction_denied, opts.observer,
                         Errc::redaction_denied, dump.label);
        return Errc::redaction_denied;
      }
      // invalid_argument: the ring is not a composed component (bench/test
      // rings) — no manifest governs it, so it exports redacted.
    }
    dumps.push_back(std::move(dump));
  }

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  // One Chrome "thread" per ring, named after the component.
  for (std::size_t tid = 0; tid < dumps.size(); ++tid) {
    comma();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json_escape_into(out, dumps[tid].label.empty()
                              ? "domain#" + std::to_string(dumps[tid].domain)
                              : dumps[tid].label);
    out << "\"}}";
  }

  for (std::size_t tid = 0; tid < dumps.size(); ++tid) {
    for (const SpanEvent& e : dumps[tid].events) {
      comma();
      out << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << e.at << ",\"name\":\"" << span_phase_name(e.phase)
          << "\",\"args\":{\"trace\":" << e.trace_id
          << ",\"span\":" << e.span_id << ",\"parent\":" << e.parent_span
          << ",\"size\":" << e.size << ",\"ticket\":" << e.ticket;
      if (e.opcode != 0) {
        out << ",\"opcode\":" << e.opcode;
        if (const std::string text = opcode_text(e.opcode); !text.empty()) {
          out << ",\"op\":\"";
          json_escape_into(out, text);
          out << "\"";
        }
      }
      if (dumps[tid].payload_authorized && e.payload_len > 0)
        out << ",\"payload\":\""
            << hex_bytes(e.payload.data(), e.payload_len) << "\"";
      out << "}}";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"clock\":\"simulated cycles\",\"traces_started\":"
      << tracer_.traces_started();
  if (hub_) {
    out << ",\"counters\":{";
    bool first_label = true;
    for (const auto& [label, counters] : hub_->all()) {
      if (!first_label) out << ",";
      first_label = false;
      out << "\"";
      json_escape_into(out, label);
      out << "\":";
      append_counters_json(out, counters);
    }
    out << "}";
  }
  out << "}}\n";
  return out.str();
}

std::string TraceExporter::text_snapshot() const {
  std::ostringstream out;
  for (const Tracer::RingRef& ref : tracer_.rings()) {
    const std::vector<SpanEvent> events = ref.ring->snapshot();
    out << "== " << (ref.label.empty() ? "domain#" + std::to_string(ref.domain)
                                       : ref.label)
        << ": " << events.size() << " retained, " << ref.ring->recorded()
        << " recorded, " << ref.ring->dropped() << " dropped\n";
    for (const SpanEvent& e : events) {
      out << "  [" << e.ticket << "] " << span_phase_name(e.phase)
          << " trace=" << e.trace_id << " span=" << e.span_id
          << " parent=" << e.parent_span << " at=" << e.at
          << " size=" << e.size;
      if (const std::string text = opcode_text(e.opcode);
          e.opcode != 0 && !text.empty())
        out << " op=" << text;
      if (e.payload_len > 0)
        out << " payload=<" << static_cast<unsigned>(e.payload_len)
            << "B captured, redacted>";
      out << "\n";
    }
  }
  if (hub_) render_metrics_text(out, *hub_);
  return out.str();
}

}  // namespace lateral::trace

namespace lateral::core {

// Defined here (not composer.cpp) because the observability layer sits
// above core in the build graph; uses only the Assembly public API.
std::string Assembly::dump_observability(const trace::Tracer* tracer,
                                         const runtime::MetricsHub* hub) const {
  std::ostringstream out;
  out << "assembly:";
  for (const std::string& name : component_names()) {
    out << " " << name;
    if (const auto c = component(name); c && (*c)->incarnation > 0)
      out << "(incarnation " << (*c)->incarnation << ")";
  }
  out << "\n";
  if (tracer) {
    trace::TraceExporter exporter(*tracer, hub);
    out << exporter.text_snapshot();
  } else if (hub) {
    // No tracer attached: still report the counters, through the same
    // renderer the exporter uses (one registration point per stats family).
    trace::render_metrics_text(out, *hub);
  }
  return out.str();
}

}  // namespace lateral::core
