// The three perfbench workloads behind one small interface, so the timed
// phase, the model window, the traced half and the result line are written
// once (main.cpp) and every workload is measured the same way.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Per-layer metric values a workload reports in its traced run, by the
/// names BENCHMARK.json lists. Names a workload never sets are reported
/// as 0: that layer does no work in that workload.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the rig from the seed and warm it up, marking each part of the
  /// work in `phase`. Called once per workload object.
  virtual void setup(std::uint64_t seed, SetupPhase& phase) = 0;

  /// One step of the closed loop: a round (fleet_ingest, crossing_paths)
  /// or a single op (fleet_connect). Counts attempted and failed ops in
  /// `result`, host latencies in `host`; returns the ops completed.
  virtual std::uint64_t step(HostPhase& host, SpanRecorder* rec,
                             Report& result) = 0;

  /// Steps in the model window: the seeded prefix of the timed phase over
  /// which every modeled number is taken.
  virtual std::uint64_t model_window() const = 0;
  virtual void model_begin() = 0;
  /// Modeled clock cycles per op over the window (pacing excluded).
  virtual double model_end(LayerValues& layer) = 0;

  /// Host per-layer numbers from the traced half's span totals.
  virtual void host_layers(const SpanRecorder& rec, std::uint64_t traced_ops,
                           LayerValues& layer) = 0;

  /// The class of the step just run (the kind of work it did).
  virtual std::uint32_t step_class() const { return 0; }
  /// How many segments, each with its own set-up, the untraced timed
  /// phase is cut into (see main.cpp).
  virtual int segments() const { return 3; }
};

std::unique_ptr<Workload> make_fleet_ingest();
std::unique_ptr<Workload> make_fleet_connect();
std::unique_ptr<Workload> make_crossing_paths();

/// Span names: one table shared by every workload so span files and
/// totals index the same strings.
enum SpanName : std::uint32_t {
  kOp,
  kClientSubmit,
  kClientCollect,
  kServerPump,
  kConnectFull,
  kConnectResumed,
  kReportCall,
  kSubstrateCall,
  kSubstrateCallSg,
  kPoolStage,
  kCqSubmit,
  kCqDoorbell,
  kCqReap,
  kStagedSubmit,
  kRsaSign,
  kRsaVerify,
  kDhSharedSecret,
  kRecordAesHmac,
  kPathCall,
  kPathCallSg,
  kPathCqBatch,
  kPathCqStaged,
};

const std::vector<std::string>& span_names();

}  // namespace perfbench
