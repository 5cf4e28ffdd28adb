// Shared pieces of the benchmark program: run options, the raw result every
// workload fills in, timing and memory probes, and the traced-run helpers
// (span self times and the per-layer metric table).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/routenet.h"
#include "obs/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // corpora, shards and trace files of this run
};

// Self time of one span name over a traced segment: span duration minus the
// part of it that child spans cover, summed over every span of that name.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

// What one run reports. main.cpp writes it as one JSON line; run.py turns
// it into the end-to-end (untraced) or per-layer (traced) metrics.
struct RunResult {
  std::vector<double> setup_s;  // one entry per set-up repetition
  std::vector<double> item_s;   // latency of every completed item
  double work_units = 0.0;      // samples (train, datagen), predictions (serve)
  double measure_s = 0.0;       // wall time of the measured phase
  // The measured phase cut into windows (epochs, rounds, time slices):
  // {work units, seconds} each. Throughput is their median rate, so a
  // burst of interference from other processes moves one window, not it.
  std::vector<std::pair<double, double>> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Output checks that failed; any entry makes the run incorrect.
  std::vector<std::string> errors;
  // Printed for the reader (losses, digests); never a benchmark metric.
  std::map<std::string, double> info;
  // Traced run only: every per-layer metric, and span self times.
  std::map<std::string, double> layers;
  std::vector<SelfTime> self_times;
};

// The paper's model: 32-wide link and path states, 8 message-passing
// iterations, a 64-wide readout; fixed initial weights (seed 7).
rn::core::RouteNetConfig model_config();

// Seconds on the steady clock (arbitrary epoch).
double now_s();

// Peak resident set of this process in MB (VmHWM).
double peak_rss_mb();

// Independent 64-bit stream `stream` of the workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// Nearest-rank percentile (p in [0, 100]) of unsorted values; 0 when empty.
double percentile(std::vector<double> values, double p);

// Runs `fn` `reps` times and returns each wall time; the last repetition's
// state is what the workload measures with.
template <typename Fn>
std::vector<double> timed_repetitions(int reps, Fn&& fn) {
  std::vector<double> out;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    out.push_back(now_s() - t0);
  }
  return out;
}

// A traced segment: zeroes the metrics registry and turns the span tracer
// on. collect() hands out the spans completed so far; finish() turns the
// tracer off, writes every span collected as a Chrome trace file and
// returns their self times.
class TracedSegment {
 public:
  TracedSegment();
  std::vector<rn::obs::TraceRecord> collect();
  std::vector<SelfTime> finish(const std::string& trace_path);

 private:
  std::vector<rn::obs::TraceRecord> spans_;
};

// Self time of each span (seconds, same order as `spans`).
std::vector<double> span_self_s(
    const std::vector<rn::obs::TraceRecord>& spans);

// Self times grouped by span name, largest first.
std::vector<SelfTime> self_times(
    const std::vector<rn::obs::TraceRecord>& spans);

// What the per-layer table needs beyond the metrics registry.
struct LayerInputs {
  double items = 0.0;          // items of the traced segment
  double wall_s = 0.0;         // traced segment wall time
  int pool_width = 1;          // par pool width during the segment
  double item_ms_p50 = 0.0;    // traced item p50
  double untraced_item_ms_p50 = 0.0;
  std::uint64_t fresh_allocs = 0;  // ag arena fresh allocations in segment
};

// Every per-layer metric the benchmark declares, from the registry (zeroed
// when the segment began) and the segment's spans. Phase p50s come from
// the program's spans where one times exactly that phase, else from its
// histograms. Metrics only a benchmark rung measures start at 0; the
// workload that measures one overwrites it, so a bypassed layer reads 0.
std::map<std::string, double> layer_metrics(
    const LayerInputs& in, const std::vector<rn::obs::TraceRecord>& spans);

// The workloads. `threads` is the par pool width of the training run.
RunResult run_train(const Options& opts, int threads);
RunResult run_datagen(const Options& opts);
RunResult run_serve(const Options& opts);

}  // namespace perfbench
