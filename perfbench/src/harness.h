// Shared pieces of the perfbench driver: arguments, percentiles, the host
// clock's timed phase, the in-memory span recorder and the one-line JSON
// result.
//
// Two clocks are measured. The host clock (steady_clock) times the library
// on this machine; the modeled clock (hw::Machine cycles) is the system's
// own output. Host throughput, median latency and set-up time are taken at
// quiet speed (see HostPhase and SetupPhase), so the share of time a shared
// host spends slowed down does not set the result; the p99 latency is taken
// over every op. Modeled metrics are taken over a fixed, seeded prefix of
// the timed phase (the model window) and repeat exactly for a given seed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_build/traces";
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); sorts in place.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Nearest-rank percentile of integer samples: always one of the samples,
/// so a modeled percentile is exact and repeats bit for bit.
inline std::uint64_t nearest_rank(std::vector<std::uint64_t> values,
                                  double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank =
      static_cast<std::size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Weighted quantile: the smallest value whose cumulative weight reaches
/// q of the total. Sorts in place.
inline double weighted_quantile(std::vector<std::pair<double, double>>& vw,
                                double q) {
  if (vw.empty()) return 0;
  std::sort(vw.begin(), vw.end());
  double total = 0;
  for (const auto& [value, weight] : vw) total += weight;
  double seen = 0;
  for (const auto& [value, weight] : vw) {
    seen += weight;
    if (seen >= q * total) return value;
  }
  return vw.back().first;
}

/// Host-clock bookkeeping for the timed phase, made robust to a shared host.
///
/// On a VM whose core is shared with other tenants, host speed switches
/// between a fast state and one up to 2x slower, and the share of time
/// spent in each changes from run to run: a median over all steps then
/// measures that share more than the code (NOTES.md has the evidence).
/// Each workload's timed phase is a sequence of steps, each a fixed unit of
/// work with a class (the kind of work: fleet_connect's full or resumed
/// handshake; one class elsewhere). A step is quiet when its host time is
/// at most the 5th percentile of its class.
///
///  - ops_per_s: all ops of the phase divided by the time they take at
///    quiet speed: sum over classes of (steps x mean quiet step time);
///  - op_p50_us: median op latency over the ops of quiet steps, each
///    weighted by its class's steps / quiet steps so the class mix stays
///    the phase's own.
///
/// Neither moves when a slowdown hits fewer than about 95% of steps (a
/// purge, a rehash, a cache miss every few rounds). That is what op_p99_us
/// is for:
///
///  - op_p99_us: a p99 over all ops, a real tail. The phase is cut into
///    kStretches runs of consecutive steps; the p99 is taken within each,
///    and the median of those is reported. A stretch of deep host slowdown
///    sets its own p99 but not the median; a slowdown of the code that
///    hits one op in fifty shows in every stretch.
class HostPhase {
 public:
  static constexpr double kQuietQuantile = 0.05;
  static constexpr std::size_t kStretches = 5;

  struct Summary {
    double ops_per_s = 0;
    double p50_us = 0;
    double p99_us = 0;
    std::size_t steps = 0;
    std::size_t quiet_steps = 0;
    std::size_t samples = 0;  // quiet op latencies behind p50
  };

  /// `reservoir` bounds the op latencies kept (a uniform sample, seeded),
  /// so memory does not grow with the run's length or speed.
  explicit HostPhase(std::uint64_t seed, std::size_t reservoir = 1 << 19)
      : start_(Clock::now()),
        rng_(seed ^ 0x9E3779B97F4A7C15ULL),
        lat_(reservoir),
        lat_step_(reservoir) {
    // Room for any run up to a minute without reallocating, so peak RSS
    // does not depend on where a doubling happens to fall.
    steps_.reserve(1 << 17);
  }

  void begin_step() { step_start_ = Clock::now(); }
  void latency_us(double us) {
    const std::uint32_t step = static_cast<std::uint32_t>(steps_.size());
    std::uint64_t slot = seen_++;
    if (slot >= lat_.size()) slot = next_random() % seen_;  // reservoir
    if (slot >= lat_.size()) return;
    lat_[slot] = static_cast<float>(us);
    lat_step_[slot] = step;
    if (slot >= kept_) kept_ = slot + 1;
  }
  void end_step(std::uint64_t ops, std::uint32_t cls = 0) {
    steps_.push_back(
        Step{.seconds = seconds_between(step_start_, Clock::now()),
             .ops = ops,
             .cls = cls});
    total_ops_ += ops;
  }

  double elapsed_s() const { return seconds_between(start_, Clock::now()); }
  std::uint64_t total_ops() const { return total_ops_; }

  Summary summarize() const {
    std::map<std::uint32_t, std::vector<double>> by_class;
    for (const Step& step : steps_) by_class[step.cls].push_back(step.seconds);
    std::map<std::uint32_t, double> cut;
    for (auto& [cls, times] : by_class)
      cut[cls] = quantile(times, kQuietQuantile);

    Summary out;
    out.steps = steps_.size();
    std::vector<bool> quiet(steps_.size());
    std::map<std::uint32_t, std::pair<double, double>> quiet_time;  // sum, n
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      const Step& step = steps_[i];
      quiet[i] = step.seconds <= cut[step.cls];
      if (!quiet[i]) continue;
      ++out.quiet_steps;
      quiet_time[step.cls].first += step.seconds;
      quiet_time[step.cls].second += 1;
    }
    double phase_s = 0;
    for (const auto& [cls, times] : by_class)
      phase_s += static_cast<double>(times.size()) *
                 ratio(quiet_time[cls].first, quiet_time[cls].second);
    out.ops_per_s = ratio(static_cast<double>(total_ops_), phase_s);

    std::vector<std::pair<double, double>> quiet_lat;  // latency, weight
    std::vector<std::vector<double>> stretch_lat(kStretches);
    for (std::size_t i = 0; i < kept_; ++i) {
      const std::uint32_t cls = steps_[lat_step_[i]].cls;
      stretch_lat[lat_step_[i] * kStretches / steps_.size()].push_back(
          lat_[i]);
      if (quiet[lat_step_[i]])
        quiet_lat.emplace_back(lat_[i],
                               static_cast<double>(by_class[cls].size()) /
                                   quiet_time[cls].second);
    }
    out.samples = quiet_lat.size();
    out.p50_us = weighted_quantile(quiet_lat, 0.50);
    std::vector<double> stretch_p99;
    for (std::vector<double>& lat : stretch_lat)
      stretch_p99.push_back(quantile(lat, 0.99));
    out.p99_us = quantile(stretch_p99, 0.5);
    return out;
  }

 private:
  struct Step {
    double seconds = 0;
    std::uint64_t ops = 0;
    std::uint32_t cls = 0;
  };

  std::uint64_t next_random() {  // splitmix64
    std::uint64_t z = (rng_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  Clock::time_point start_;
  Clock::time_point step_start_;
  std::uint64_t rng_;
  std::uint64_t total_ops_ = 0;
  std::vector<Step> steps_;
  std::vector<float> lat_;
  std::vector<std::uint32_t> lat_step_;
  std::size_t kept_ = 0;
  std::uint64_t seen_ = 0;
};

/// Set-up time at quiet speed.
///
/// Set-up runs once per segment of the timed phase, so several times in a
/// run, spread across it (see main.cpp). Each set-up is cut into parts
/// that follow one another without a gap (the rig, each meter's connect,
/// each warm-up step), so its parts add up to all of it; the first part of
/// the first set-up starts at driver entry. A part's name is its class, a
/// kind of identical work. A part is quiet when it takes at most the 5th
/// percentile of its class, and
///   setup_s = sum over classes of (parts per set-up x mean quiet time).
/// A class seen once per set-up (the rig) costs its fastest repetition; one
/// seen 256 times (a meter's connect) costs like a timed step.
class SetupPhase {
 public:
  explicit SetupPhase(Clock::time_point start) : last_(start) {}

  /// Start a set-up now.
  void begin() { last_ = Clock::now(); }
  /// End the current part, of class `name`; the next part starts now.
  void part(const std::string& name) {
    const auto now = Clock::now();
    parts_[name].push_back(seconds_between(last_, now));
    last_ = now;
  }

  /// Seconds of one set-up at quiet speed, over `setups` set-ups.
  double quiet_seconds(int setups) {
    double total = 0;
    for (auto& [name, times] : parts_) {
      const double cut = quantile(times, HostPhase::kQuietQuantile);
      double quiet_sum = 0, quiet_n = 0;
      for (const double t : times) {
        if (t > cut) continue;
        quiet_sum += t;
        quiet_n += 1;
      }
      total += static_cast<double>(times.size()) / setups *
               ratio(quiet_sum, quiet_n);
    }
    return total;
  }

 private:
  Clock::time_point last_;
  std::map<std::string, std::vector<double>> parts_;
};

// ---------------------------------------------------------------------------
// Spans. The traced run keeps one span per driver call into a layer's public
// function: name, start, end, parent and op id. Spans of the op in progress
// are folded into per-name totals (count, duration, self time) when the op
// ends; the first `retain` spans are also kept verbatim and written out when
// the run ends.

struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;  // index within the op, -1 for a root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t retain = 1 << 18)
      : origin_(Clock::now()), retain_(retain) {
    retained_.reserve(retain_);
  }

  /// Open a span under the innermost open span of the current op.
  std::int32_t begin(std::uint32_t name) {
    const std::int32_t index = static_cast<std::int32_t>(current_.size());
    current_.push_back(Span{.name = name,
                            .parent = open_.empty() ? -1 : open_.back(),
                            .op = op_,
                            .start_ns = ns_since(origin_)});
    open_.push_back(index);
    return index;
  }
  void end(std::int32_t index) {
    current_[static_cast<std::size_t>(index)].end_ns = ns_since(origin_);
    open_.pop_back();
  }

  void begin_op(std::uint64_t op) { op_ = op; }
  /// Fold the current op's spans into the per-name totals.
  void end_op() {
    std::vector<double> child_ns(current_.size(), 0.0);
    for (const Span& span : current_)
      if (span.parent >= 0)
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
    for (std::size_t i = 0; i < current_.size(); ++i) {
      const Span& span = current_[i];
      SpanTotals& t = totals_[span.name];
      const double dur = static_cast<double>(span.end_ns - span.start_ns);
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
    }
    for (const Span& span : current_) {
      if (retained_.size() >= retain_) break;
      retained_.push_back(span);
    }
    current_.clear();
  }

  const SpanTotals& totals(std::uint32_t name) const {
    static const SpanTotals kNone;
    const auto it = totals_.find(name);
    return it == totals_.end() ? kNone : it->second;
  }
  const std::map<std::uint32_t, SpanTotals>& all_totals() const {
    return totals_;
  }

  /// Write the retained spans as CSV (name,op,parent,start_ns,end_ns).
  bool write_csv(const std::string& path,
                 const std::vector<std::string>& names) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "name,op,index,parent,start_ns,end_ns\n");
    std::uint64_t op = ~0ULL;
    std::int32_t index = 0;
    for (const Span& s : retained_) {
      if (s.op != op) {
        op = s.op;
        index = 0;
      }
      std::fprintf(f, "%s,%llu,%d,%d,%lld,%lld\n", names[s.name].c_str(),
                   static_cast<unsigned long long>(s.op), index++, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::size_t retain_;
  std::uint64_t op_ = 0;
  std::vector<Span> current_;
  std::vector<std::int32_t> open_;
  std::vector<Span> retained_;
  std::map<std::uint32_t, SpanTotals> totals_;
};

/// RAII span that costs one branch when tracing is off.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::uint32_t name)
      : rec_(rec), index_(rec ? rec->begin(name) : -1) {}
  ~Scope() {
    if (rec_) rec_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t index_;
};

// ---------------------------------------------------------------------------
// Result line.

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  void fail(const std::string& why) {
    if (failures_.size() < 16) failures_.push_back(why);
    ++failed_;
  }
  void attempt() { ++attempted_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void print() const {
    for (const std::string& why : failures_)
      std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, vu] = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), vu.first, vu.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
