// `datagen`: generate_shard for a Geant2 corpus on a 2-wide pool (coarse
// tasks of several samples), then verify_shards on the written file, in
// rounds of one shard each. An item is one sample; its latency is the time
// one pool thread spent producing it, read from the generator's progress
// callback.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "ag/arena.h"
#include "ag/serialize.h"
#include "common.h"
#include "dataset/shard.h"
#include "par/thread_pool.h"
#include "topology/generators.h"

namespace perfbench {

namespace {

// Two threads, not four: on a 4-core host shared with other processes a
// 4-wide pool has a thread descheduled now and then, and those samples
// set the tail (p90 91 ms alone, 150 ms beside one busy process). Two
// threads leave room for the neighbours (85–91 ms either way).
constexpr int kPoolWidth = 2;
// Samples per shard; at most generate_shard's internal chunk (64), so one
// round is one parallel generation pass and per-thread gaps stay unbroken.
constexpr int kRoundSamples = 64;
// Rounds per second of --seconds: 14 rounds, 854 timed samples in a 20 s
// run, which take 19–34 s (1.4–2.4 s per round) on a 4-core x86 host.
constexpr double kRoundsPerSecond = 0.7;
constexpr int kSetupReps = 5;
constexpr int kWarmupSamples = 16;

rn::dataset::GeneratorConfig generator_config() {
  rn::dataset::GeneratorConfig cfg;
  cfg.k_paths = 3;
  cfg.min_util = 0.3;
  cfg.max_util = 0.8;
  cfg.target_pkts_per_flow = 120.0;
  cfg.warmup_s = 1.0;
  cfg.min_delivered = 15;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct Round {
  std::vector<double> sample_s;
  double gen_s = 0.0;
  double verify_s = 0.0;
  std::uint64_t file_bytes = 0;
  std::string error;
};

// One shard of `count` samples at `path`, verified. Per-sample latency is
// the gap between two consecutive completions on the same pool thread.
Round run_round(const std::string& path, std::uint64_t seed,
                const std::shared_ptr<const rn::topo::Topology>& topology,
                int count) {
  Round r;
  std::map<std::thread::id, double> last_done;
  auto on_progress = [&](std::uint64_t, std::uint64_t) {
    // Serialized by the generator, so no lock of our own.
    const double t = now_s();
    auto [it, first] = last_done.try_emplace(std::this_thread::get_id(), t);
    if (!first) {
      r.sample_s.push_back(t - it->second);
      it->second = t;
    }
  };
  try {
    double t0 = now_s();
    {
      rn::obs::TraceSpan span("bench.generate_shard");
      r.file_bytes = rn::dataset::generate_shard(
          path, generator_config(), seed, topology, count, 0, 1, on_progress);
    }
    r.gen_s = now_s() - t0;
    t0 = now_s();
    std::vector<rn::dataset::ShardSummary> summary;
    {
      rn::obs::TraceSpan span("bench.verify_shards");
      summary = rn::dataset::verify_shards({path});
    }
    r.verify_s = now_s() - t0;
    if (summary.size() != 1 ||
        summary[0].header.count != static_cast<std::uint64_t>(count)) {
      r.error = "verify_shards counted a different number of records";
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

std::shared_ptr<const rn::topo::Topology> geant2() {
  return std::make_shared<const rn::topo::Topology>(rn::topo::geant2());
}

struct Segment {
  std::vector<double> sample_s;
  std::vector<std::pair<double, double>> windows;  // one per round
  double busy_s = 0.0;  // generation + verification
  double verify_s = 0.0;
  double verify_bytes = 0.0;
  std::uint64_t samples_ok = 0;
  std::uint64_t attempted = 0;
  std::uint32_t digest = 0;  // CRC chain over every written shard
  std::vector<std::string> errors;
  double valid = 0.0;
  double pairs = 0.0;
};

Segment generate_rounds(const Options& opts, int rounds, bool read_back) {
  Segment seg;
  const auto topology = geant2();
  const std::string path = opts.workdir + "/datagen.rnds";
  for (int i = 0; i < rounds; ++i) {
    const Round r = run_round(path, derive_seed(opts.seed, 100 + i), topology,
                              kRoundSamples);
    seg.attempted += kRoundSamples;
    seg.busy_s += r.gen_s + r.verify_s;
    if (!r.error.empty()) {
      seg.errors.push_back("round " + std::to_string(i) + ": " + r.error);
      continue;
    }
    seg.samples_ok += kRoundSamples;
    seg.windows.emplace_back(kRoundSamples, r.gen_s + r.verify_s);
    seg.verify_s += r.verify_s;
    seg.verify_bytes += static_cast<double>(r.file_bytes);
    seg.sample_s.insert(seg.sample_s.end(), r.sample_s.begin(),
                        r.sample_s.end());
    const std::string bytes = read_file(path);
    const std::uint32_t crc = rn::ag::crc32(bytes.data(), bytes.size());
    seg.digest = rn::ag::crc32(&crc, sizeof crc, seg.digest);
    if (read_back) {
      const rn::dataset::ShardReader reader(path);
      for (std::uint64_t k = 0; k < reader.size(); ++k) {
        const rn::dataset::Sample s = reader.sample(k);
        seg.valid += s.num_valid();
        seg.pairs += s.num_pairs();
      }
    }
  }
  std::filesystem::remove(path);
  return seg;
}

void count(const Segment& seg, RunResult& r) {
  r.attempted += seg.attempted;
  r.failed += seg.attempted - seg.samples_ok;
  r.errors.insert(r.errors.end(), seg.errors.begin(), seg.errors.end());
}

}  // namespace

RunResult run_datagen(const Options& opts) {
  RunResult r;
  rn::par::set_global_threads(kPoolWidth);
  const std::string warm_path = opts.workdir + "/datagen-warmup.rnds";
  r.setup_s = timed_repetitions(kSetupReps, [&] {
    const Round w = run_round(warm_path, derive_seed(opts.seed, 99), geant2(),
                              kWarmupSamples);
    if (!w.error.empty()) throw std::runtime_error("warm-up: " + w.error);
  });
  std::filesystem::remove(warm_path);

  const double seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  const int rounds =
      std::max(1, static_cast<int>(std::lround(seconds * kRoundsPerSecond)));
  const Segment base = generate_rounds(opts, rounds, false);
  count(base, r);
  r.item_s = base.sample_s;
  r.work_units = static_cast<double>(base.samples_ok);
  r.measure_s = base.busy_s;
  r.windows = base.windows;
  r.info["rounds"] = rounds;
  r.info["shard_digest"] = base.digest;
  if (!opts.trace) return r;

  const std::uint64_t allocs0 = rn::ag::arena_stats().fresh_allocs;
  TracedSegment traced;
  const Segment seg = generate_rounds(opts, rounds, true);
  LayerInputs in;
  in.items = static_cast<double>(seg.samples_ok);
  in.wall_s = seg.busy_s;
  in.pool_width = kPoolWidth;
  in.item_ms_p50 = percentile(seg.sample_s, 50) * 1e3;
  in.untraced_item_ms_p50 = percentile(base.sample_s, 50) * 1e3;
  in.fresh_allocs = rn::ag::arena_stats().fresh_allocs - allocs0;
  r.layers = layer_metrics(in, traced.collect());
  r.layers["dataset.verify_mb_per_s"] =
      seg.verify_s > 0.0 ? seg.verify_bytes / 1e6 / seg.verify_s : 0.0;
  r.layers["dataset.valid_path_share"] =
      seg.pairs > 0.0 ? seg.valid / seg.pairs : 0.0;
  r.self_times = traced.finish(opts.workdir + "/trace-datagen.json");
  count(seg, r);
  return r;
}

}  // namespace perfbench
