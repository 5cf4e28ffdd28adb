// `train` and `train_mt`: Trainer::fit over an RNDS1 corpus streamed from
// disk — NSFNET plus the 50-node synthetic topology — with the paper's
// model (32-wide states, 8 iterations) and batch 4.
// An item is one optimizer step. The two workloads differ only in the par
// pool width (1 or 4), so their losses must agree bit for bit.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "ag/arena.h"
#include "common.h"
#include "core/trainer.h"
#include "dataset/shard.h"
#include "dataset/stream.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "topology/generators.h"

namespace perfbench {

namespace {

constexpr int kBatch = 4;
// The repository's training mix, 150 NSFNET to 24 fifty-node samples
// (bench/bench_common.h), scaled to 80 samples.
constexpr int kNsfnetSamples = 69;
constexpr int kSyn50Samples = 11;
constexpr int kStepsPerEpoch = (kNsfnetSamples + kSyn50Samples) / kBatch;
static_assert((kNsfnetSamples + kSyn50Samples) % kBatch == 0,
              "step detection assumes full batches");
// Optimizer steps per second of --seconds (rounded up to whole epochs):
// 100 steps in a 20 s run, the fewest that keep the tail at p90. A step
// with a 50-node sample takes about four times one without, so the fit
// takes about 25 s on a 4-core x86 host.
constexpr double kStepsPerSecond = 5.0;
constexpr int kSetupReps = 3;
constexpr int kWarmupSteps = 3;

rn::dataset::GeneratorConfig corpus_config() {
  rn::dataset::GeneratorConfig cfg;
  cfg.k_paths = 3;
  cfg.min_util = 0.3;
  cfg.max_util = 0.8;
  cfg.target_pkts_per_flow = 40.0;
  cfg.warmup_s = 1.0;
  cfg.min_delivered = 10;
  return cfg;
}

// The two corpus files seen as one source (NSFNET indices first). Records
// the time of every full-batch materialize() call: the trainer makes one
// per optimizer step, after the normalizer pass that reads one sample at a
// time.
class CorpusSource final : public rn::dataset::SampleSource {
 public:
  CorpusSource(const std::string& first, const std::string& second)
      : first_(first), second_(second) {}

  std::uint64_t size() const override {
    return first_.size() + second_.size();
  }

  void materialize(const std::uint64_t* indices, std::size_t n,
                   std::vector<const rn::dataset::Sample*>& out) override {
    if (n == kBatch) step_starts_.push_back(now_s());
    const std::uint64_t split = first_.size();
    idx_a_.clear();
    idx_b_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (indices[i] < split) {
        idx_a_.push_back(indices[i]);
      } else {
        idx_b_.push_back(indices[i] - split);
      }
    }
    ptr_a_.clear();
    ptr_b_.clear();
    if (!idx_a_.empty()) {
      first_.materialize(idx_a_.data(), idx_a_.size(), ptr_a_);
    }
    if (!idx_b_.empty()) {
      second_.materialize(idx_b_.data(), idx_b_.size(), ptr_b_);
    }
    out.clear();
    std::size_t a = 0;
    std::size_t b = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(indices[i] < split ? ptr_a_[a++] : ptr_b_[b++]);
    }
  }

  const std::vector<double>& step_starts() const { return step_starts_; }

 private:
  rn::dataset::StreamingDataset first_;
  rn::dataset::StreamingDataset second_;
  std::vector<std::uint64_t> idx_a_, idx_b_;
  std::vector<const rn::dataset::Sample*> ptr_a_, ptr_b_;
  std::vector<double> step_starts_;
};

struct Corpus {
  std::string nsfnet_path;
  std::string syn50_path;
};

// Generates both corpus files from the seed, then warms the arena and the
// page cache with a few throwaway optimizer steps at the workload's width.
Corpus set_up(const Options& opts, int threads) {
  Corpus c{opts.workdir + "/train-nsfnet.rnds",
           opts.workdir + "/train-syn50.rnds"};
  rn::par::set_global_threads(4);
  const auto nsfnet =
      std::make_shared<const rn::topo::Topology>(rn::topo::nsfnet());
  rn::Rng topo_rng(50);  // the repository's fixed 50-node topology
  const auto syn50 = std::make_shared<const rn::topo::Topology>(
      rn::topo::synthetic_ba(50, 2, topo_rng));
  rn::dataset::generate_shard(c.nsfnet_path, corpus_config(),
                              derive_seed(opts.seed, 1), nsfnet,
                              kNsfnetSamples, 0, 1);
  rn::dataset::generate_shard(c.syn50_path, corpus_config(),
                              derive_seed(opts.seed, 2), syn50, kSyn50Samples,
                              0, 1);
  CorpusSource source(c.nsfnet_path, c.syn50_path);
  rn::core::RouteNet model(model_config());
  rn::core::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = kBatch;
  tc.threads = threads;
  tc.max_batches = kWarmupSteps;
  rn::core::Trainer(model, tc).fit(source);
  return c;
}

struct Segment {
  std::vector<double> step_s;
  double wall_s = 0.0;
  int epochs = 0;
  int steps_expected = 0;
  bool threw = false;
  std::string error;
  rn::core::TrainReport report;
};

Segment fit_segment(const Corpus& c, int threads, int epochs) {
  Segment seg;
  seg.epochs = epochs;
  seg.steps_expected = epochs * kStepsPerEpoch;
  CorpusSource source(c.nsfnet_path, c.syn50_path);
  rn::core::RouteNet model(model_config());
  rn::core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = kBatch;
  tc.threads = threads;
  rn::obs::TraceSpan span("bench.fit");
  const double t0 = now_s();
  try {
    seg.report = rn::core::Trainer(model, tc).fit(source);
  } catch (const std::exception& e) {
    seg.threw = true;
    seg.error = e.what();
  }
  const double t_end = now_s();
  span.end();
  seg.wall_s = t_end - t0;
  const std::vector<double>& starts = source.step_starts();
  // A step that threw never finished: only intervals closed by the next
  // step's start (or by a normal return) are latencies.
  const std::size_t done = seg.threw && !starts.empty() ? starts.size() - 1
                                                        : starts.size();
  for (std::size_t i = 0; i < done; ++i) {
    const double end = i + 1 < starts.size() ? starts[i + 1] : t_end;
    seg.step_s.push_back(end - starts[i]);
  }
  return seg;
}

// A timed materialize() pass over the whole corpus in batches: record
// bytes CRC-checked and decoded per second, in MB/s.
double stream_pass_mb_per_s(const Corpus& c) {
  rn::obs::TraceSpan span("bench.stream_pass");
  CorpusSource source(c.nsfnet_path, c.syn50_path);
  rn::obs::Counter& bytes =
      rn::obs::Registry::global().counter("dataset.stream.bytes_read_total");
  const std::uint64_t bytes0 = bytes.value();
  std::vector<const rn::dataset::Sample*> out;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < source.size(); i += kBatch) {
    const std::uint64_t idx[kBatch] = {i, i + 1, i + 2, i + 3};
    source.materialize(idx, kBatch, out);
  }
  const double dt = now_s() - t0;
  return static_cast<double>(bytes.value() - bytes0) / 1e6 / dt;
}

double valid_path_share(const Corpus& c) {
  double valid = 0.0;
  double total = 0.0;
  for (const std::string& path : {c.nsfnet_path, c.syn50_path}) {
    const rn::dataset::ShardReader reader(path);
    for (std::uint64_t i = 0; i < reader.size(); ++i) {
      const rn::dataset::Sample s = reader.sample(i);
      valid += s.num_valid();
      total += s.num_pairs();
    }
  }
  return total > 0.0 ? valid / total : 0.0;
}

void check_and_count(const Segment& seg, RunResult& r) {
  r.attempted += static_cast<std::uint64_t>(seg.steps_expected);
  r.failed += static_cast<std::uint64_t>(seg.steps_expected) -
              std::min<std::uint64_t>(seg.steps_expected, seg.step_s.size());
  if (seg.threw) {
    r.errors.push_back("fit failed: " + seg.error);
    return;
  }
  const auto& epochs = seg.report.epochs;
  if (static_cast<int>(epochs.size()) != seg.epochs) {
    r.errors.push_back("fit ran " + std::to_string(epochs.size()) + " of " +
                       std::to_string(seg.epochs) + " epochs");
    return;
  }
  for (const auto& e : epochs) {
    if (!std::isfinite(e.train_loss)) {
      r.errors.push_back("non-finite loss in epoch " + std::to_string(e.epoch));
    }
  }
  if (!(epochs.back().train_loss < epochs.front().train_loss)) {
    r.errors.push_back("final epoch loss is not below the first epoch's");
  }
}

int epochs_for(double seconds) {
  const double steps = seconds * kStepsPerSecond;
  return std::max(2, static_cast<int>(std::ceil(steps / kStepsPerEpoch)));
}

}  // namespace

RunResult run_train(const Options& opts, int threads) {
  RunResult r;
  Corpus corpus;
  r.setup_s = timed_repetitions(
      kSetupReps, [&] { corpus = set_up(opts, threads); });

  const int epochs = epochs_for(opts.trace ? opts.seconds / 2 : opts.seconds);
  const Segment base = fit_segment(corpus, threads, epochs);
  check_and_count(base, r);
  r.item_s = base.step_s;
  r.work_units = static_cast<double>(base.step_s.size()) * kBatch;
  r.measure_s = base.wall_s;
  // One window per epoch: its steps are back-to-back intervals.
  for (std::size_t e = 0; e + kStepsPerEpoch <= base.step_s.size();
       e += kStepsPerEpoch) {
    double seconds = 0.0;
    for (int i = 0; i < kStepsPerEpoch; ++i) seconds += base.step_s[e + i];
    r.windows.emplace_back(kStepsPerEpoch * kBatch, seconds);
  }
  if (!base.threw && !base.report.epochs.empty()) {
    r.info["loss_first_epoch"] = base.report.epochs.front().train_loss;
    r.info["loss_final"] = base.report.epochs.back().train_loss;
  }
  r.info["epochs"] = epochs;
  if (!opts.trace) return r;

  const std::uint64_t allocs0 = rn::ag::arena_stats().fresh_allocs;
  TracedSegment traced;
  const Segment seg = fit_segment(corpus, threads, epochs);
  LayerInputs in;
  in.items = static_cast<double>(seg.step_s.size());
  in.wall_s = seg.wall_s;
  in.pool_width = threads;
  in.item_ms_p50 = percentile(seg.step_s, 50) * 1e3;
  in.untraced_item_ms_p50 = percentile(base.step_s, 50) * 1e3;
  in.fresh_allocs = rn::ag::arena_stats().fresh_allocs - allocs0;
  r.layers = layer_metrics(in, traced.collect());
  r.layers["dataset.stream_mb_per_s"] = stream_pass_mb_per_s(corpus);
  r.layers["dataset.valid_path_share"] = valid_path_share(corpus);
  r.self_times = traced.finish(opts.workdir + "/trace-train.json");
  check_and_count(seg, r);
  return r;
}

}  // namespace perfbench
