// Dataset-I/O bench: sharded RNDS1 generation rate (samples/s across a
// 4-shard run), streamed read bandwidth through the mmap-backed
// StreamingDataset (MB/s of CRC-checked decode), and the two correctness
// gates the container's headline guarantees rest on — a 4-shard merge must
// be bitwise identical to one unsharded run, and a model trained from the
// streamed corpus must be bitwise identical to in-RAM training. Writes
// BENCH_dataset.json for the `routenet obs diff` regression gate; under
// RN_BENCH_ENFORCE=1 a failed bitwise gate fails the process.
//
//   ./dataset_io [--metrics-out PATH] [--threads N]
//
// RN_BENCH_SCALE sizes the corpus (smoke | quick | standard | large).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/trainer.h"
#include "dataset/shard.h"
#include "dataset/stream.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "util/bytes.h"

namespace {

std::uint64_t corpus_size(const rn::bench::ExperimentScale& scale) {
  if (scale.name == "smoke") return 8;
  if (scale.name == "quick") return 16;
  if (scale.name == "large") return 128;
  return 48;
}

bool params_bitwise_equal(rn::core::RouteNet& a, rn::core::RouteNet& b) {
  const std::vector<rn::ag::Parameter*> pa = a.params();
  const std::vector<rn::ag::Parameter*> pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                    sizeof(float) * static_cast<std::size_t>(
                                        pa[i]->value.size())) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  rn::bench::init_bench_telemetry(argc, argv);
  const rn::bench::ExperimentScale scale = rn::bench::scale_from_env();
  const std::string dir = rn::bench::cache_dir();
  const std::uint64_t total = corpus_size(scale);
  const rn::dataset::GeneratorConfig cfg =
      rn::bench::paper_generator_config(scale);
  const auto topology = rn::bench::nsfnet_topology();
  const std::uint64_t seed = 7;
  rn::obs::Registry& reg = rn::obs::Registry::global();

  std::printf("dataset-I/O bench (%s tier): %llu samples on %s\n",
              scale.name.c_str(), static_cast<unsigned long long>(total),
              topology->name().c_str());

  // Phase 1 — sharded generation rate: the paper-scale workflow is N
  // processes each owning one index range; here the 4 shards run back to
  // back so samples/s is directly comparable across PRs.
  std::vector<std::string> shards;
  rn::obs::Stopwatch gen_watch;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::string path =
        dir + "/bench_shard_" + std::to_string(i) + ".rnds";
    rn::dataset::generate_shard(path, cfg, seed, topology, total, i, 4);
    shards.push_back(path);
  }
  const double gen_s = gen_watch.elapsed_s();
  const double gen_rate = static_cast<double>(total) / gen_s;
  std::printf("  4-shard generation: %llu samples in %.3fs (%.1f/s)\n",
              static_cast<unsigned long long>(total), gen_s, gen_rate);

  // Gate 1 — merge bitwise equals one unsharded run.
  const std::string single = dir + "/bench_single.rnds";
  const std::string merged = dir + "/bench_merged.rnds";
  rn::dataset::generate_shard(single, cfg, seed, topology, total, 0, 1);
  rn::dataset::verify_shards(shards);
  rn::dataset::merge_shards(merged, shards);
  const bool merge_ok = rn::read_file(single) == rn::read_file(merged);
  std::printf("  merge vs single: %s\n",
              merge_ok ? "bitwise identical" : "MISMATCH");

  // Phase 2 — streamed read bandwidth: CRC-checked decode of every record
  // through the mmap-backed source, repeated until the clock is stable.
  double read_bytes = 0.0;
  rn::obs::Stopwatch read_watch;
  {
    rn::dataset::StreamingDataset stream(single);
    std::vector<const rn::dataset::Sample*> out;
    std::vector<std::uint64_t> batch;
    do {
      for (std::uint64_t i = 0; i < stream.size(); i += 4) {
        batch.clear();
        for (std::uint64_t j = i; j < stream.size() && j < i + 4; ++j) {
          batch.push_back(j);
        }
        for (const std::uint64_t j : batch) {
          read_bytes +=
              static_cast<double>(stream.reader().record(j).size());
        }
        stream.materialize(batch.data(), batch.size(), out);
      }
    } while (read_watch.elapsed_s() < 0.2);
  }
  const double read_mb_per_s =
      read_bytes / (1024.0 * 1024.0) / read_watch.elapsed_s();
  std::printf("  streamed read: %.1f MB/s (CRC-checked decode)\n",
              read_mb_per_s);

  // Gate 2 — streamed training bitwise equals in-RAM training.
  rn::core::RouteNetConfig mcfg;
  mcfg.link_state_dim = 8;
  mcfg.path_state_dim = 8;
  mcfg.iterations = 2;
  mcfg.readout_hidden = 12;
  rn::core::TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 4;
  tcfg.threads = 1;
  rn::core::RouteNet in_ram_model(mcfg);
  {
    std::vector<rn::dataset::Sample> samples =
        rn::dataset::load_shard(single);
    rn::dataset::VectorSampleSource source(samples);
    rn::core::Trainer trainer(in_ram_model, tcfg);
    trainer.fit(source);
  }
  rn::core::RouteNet streamed_model(mcfg);
  {
    rn::dataset::StreamingDataset source(single);
    rn::core::Trainer trainer(streamed_model, tcfg);
    trainer.fit(source);
  }
  const bool train_ok = params_bitwise_equal(in_ram_model, streamed_model);
  std::printf("  streamed vs in-RAM training: %s\n",
              train_ok ? "bitwise identical" : "MISMATCH");

  reg.gauge("bench.dataset.gen_samples_per_s").set(gen_rate);
  reg.gauge("bench.dataset.stream_read_mb_per_s").set(read_mb_per_s);
  reg.gauge("bench.dataset.merge_bitwise_ok").set(merge_ok ? 1.0 : 0.0);
  reg.gauge("bench.dataset.streamed_train_bitwise_ok")
      .set(train_ok ? 1.0 : 0.0);
  rn::bench::finish_bench_telemetry("dataset", scale);

  if (!merge_ok || !train_ok) {
    if (std::getenv("RN_BENCH_ENFORCE") != nullptr) {
      std::printf("RN_BENCH_ENFORCE set: failing on a bitwise gate\n");
      return 1;
    }
    std::printf("bitwise gate FAILED (set RN_BENCH_ENFORCE=1 to hard-fail)\n");
  }
  return 0;
}
