// RNDS1 shard container + streaming loader contract:
//   - shard_first partitions any total contiguously and completely,
//   - N independently generated shards merged are bitwise identical to a
//     single-process run (at 1 and 4 threads — generation is thread-count
//     invariant),
//   - verify/merge refuse incoherent sets (seed / config-fingerprint
//     mismatch, missing or duplicated shards),
//   - StreamingDataset decodes exactly the generate_many samples,
//   - Trainer::fit over a streamed shard is bitwise identical to the
//     in-RAM vector path, with resident bytes bounded by the
//     dataset.stream.* gauges.
#include "dataset/shard.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "dataset/stream.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "topology/generators.h"

namespace rn::dataset {
namespace {

GeneratorConfig fast_config() {
  GeneratorConfig cfg;
  cfg.target_pkts_per_flow = 60.0;
  cfg.warmup_s = 0.5;
  cfg.min_delivered = 5;
  return cfg;
}

std::shared_ptr<const topo::Topology> shared_ring() {
  return std::make_shared<const topo::Topology>(topo::ring(6));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TEST(ShardFirst, PartitionsContiguouslyAndCompletely) {
  for (const std::uint64_t total : {0ull, 1ull, 7ull, 10ull, 101ull}) {
    for (const std::uint32_t n : {1u, 2u, 3u, 4u, 7u}) {
      EXPECT_EQ(shard_first(total, 0, n), 0u);
      EXPECT_EQ(shard_first(total, n, n), total);
      std::uint64_t covered = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t first = shard_first(total, i, n);
        const std::uint64_t next = shard_first(total, i + 1, n);
        EXPECT_EQ(first, covered) << total << " over " << n << " at " << i;
        EXPECT_GE(next, first);
        // Block partition: shard sizes differ by at most one sample.
        EXPECT_LE(next - first, total / n + 1);
        covered = next;
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(ShardFirst, SurvivesHugeTotals) {
  // (total * index) overflows u64 here; the u128 arithmetic must not.
  const std::uint64_t total = 1ull << 62;
  EXPECT_EQ(shard_first(total, 4, 4), total);
  EXPECT_EQ(shard_first(total, 2, 4), total / 2);
}

TEST(ShardGeneration, FourShardMergeBitwiseEqualsSingle) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  for (const int threads : {1, 4}) {
    par::set_global_threads(threads);
    const std::string tag = "_t" + std::to_string(threads);
    const std::string single = ::testing::TempDir() + "single" + tag + ".rnds";
    generate_shard(single, cfg, 31, topology, 6, 0, 1);
    std::vector<std::string> parts;
    for (std::uint32_t i = 0; i < 4; ++i) {
      const std::string p = ::testing::TempDir() + "part" +
                            std::to_string(i) + tag + ".rnds";
      generate_shard(p, cfg, 31, topology, 6, i, 4);
      parts.push_back(p);
    }
    EXPECT_EQ(verify_shards(parts).size(), 4u);
    const std::string merged = ::testing::TempDir() + "merged" + tag + ".rnds";
    merge_shards(merged, parts);
    EXPECT_EQ(read_file(single), read_file(merged))
        << "4-shard merge is not bitwise identical at " << threads
        << " thread(s)";
  }
  par::set_global_threads(0);
}

TEST(ShardGeneration, StreamedSamplesMatchGenerateMany) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  DatasetGenerator gen(cfg, 32);
  const std::vector<Sample> expected = gen.generate_many(topology, 4);
  const std::string path = ::testing::TempDir() + "roundtrip.rnds";
  generate_shard(path, cfg, 32, topology, 4, 0, 1);

  StreamingDataset stream(path);
  ASSERT_EQ(stream.size(), 4u);
  EXPECT_EQ(stream.header().seed, 32u);
  EXPECT_EQ(stream.header().config_fingerprint,
            config_fingerprint(cfg, *topology));
  std::vector<const Sample*> got;
  for (std::uint64_t i = 0; i < 4; ++i) {
    stream.materialize(&i, 1, got);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0]->delay_s, expected[i].delay_s);
    EXPECT_EQ(got[0]->jitter_s, expected[i].jitter_s);
    EXPECT_EQ(got[0]->valid, expected[i].valid);
    EXPECT_DOUBLE_EQ(got[0]->tm.rate_by_index(3),
                     expected[i].tm.rate_by_index(3));
  }
}

TEST(ShardGeneration, VerifyRejectsSeedMismatch) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string a = ::testing::TempDir() + "seed_a.rnds";
  const std::string b = ::testing::TempDir() + "seed_b.rnds";
  generate_shard(a, cfg, 1, topology, 2, 0, 2);
  generate_shard(b, cfg, 2, topology, 2, 1, 2);
  EXPECT_THROW(verify_shards({a, b}), std::runtime_error);
  EXPECT_THROW(merge_shards(::testing::TempDir() + "seed_m.rnds", {a, b}),
               std::runtime_error);
}

TEST(ShardGeneration, VerifyRejectsConfigMismatch) {
  const auto topology = shared_ring();
  GeneratorConfig cfg_a = fast_config();
  GeneratorConfig cfg_b = fast_config();
  cfg_b.min_util = 0.42;
  const std::string a = ::testing::TempDir() + "cfg_a.rnds";
  const std::string b = ::testing::TempDir() + "cfg_b.rnds";
  generate_shard(a, cfg_a, 7, topology, 2, 0, 2);
  generate_shard(b, cfg_b, 7, topology, 2, 1, 2);
  EXPECT_NE(config_fingerprint(cfg_a, *topology),
            config_fingerprint(cfg_b, *topology));
  EXPECT_THROW(verify_shards({a, b}), std::runtime_error);
}

TEST(ShardGeneration, VerifyRejectsIncompleteOrDuplicatedSets) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string s0 = ::testing::TempDir() + "set_0.rnds";
  const std::string s1 = ::testing::TempDir() + "set_1.rnds";
  generate_shard(s0, cfg, 9, topology, 4, 0, 2);
  generate_shard(s1, cfg, 9, topology, 4, 1, 2);
  // Complete set is fine; any subset or duplicate is not a partition.
  EXPECT_EQ(verify_shards({s0, s1}).size(), 2u);
  EXPECT_THROW(verify_shards({s0}), std::runtime_error);
  EXPECT_THROW(verify_shards({s1}), std::runtime_error);
  EXPECT_THROW(verify_shards({s0, s0}), std::runtime_error);
  EXPECT_THROW(merge_shards(::testing::TempDir() + "set_m.rnds", {s1}),
               std::runtime_error);
}

TEST(ShardReaderSuite, DetectsFlippedRecordByteOnAccess) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string path = ::testing::TempDir() + "flip.rnds";
  generate_shard(path, cfg, 11, topology, 2, 0, 1);
  std::string bytes = read_file(path);
  // Flip one payload byte (header is 64 bytes; payload starts right after).
  bytes[kShardHeaderBytes + 5] =
      static_cast<char>(bytes[kShardHeaderBytes + 5] ^ 0x01);
  const std::string bad = ::testing::TempDir() + "flip_bad.rnds";
  {
    std::ofstream out(bad, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ShardReader reader(bad);  // structural parse ignores record CRCs
  EXPECT_THROW(reader.sample(0), std::runtime_error);
  EXPECT_THROW(reader.verify_all(), std::runtime_error);
  EXPECT_THROW(verify_shards({bad}), std::runtime_error);
}

core::RouteNetConfig small_model() {
  core::RouteNetConfig cfg;
  cfg.link_state_dim = 8;
  cfg.path_state_dim = 8;
  cfg.iterations = 2;
  cfg.readout_hidden = 12;
  return cfg;
}

core::TrainConfig small_train() {
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 2;
  cfg.learning_rate = 5e-3f;
  cfg.threads = 1;
  return cfg;
}

TEST(StreamingTrainer, BitwiseEqualsInRamTraining) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  DatasetGenerator gen(cfg, 41);
  const std::vector<Sample> in_ram = gen.generate_many(topology, 6);
  const std::string path = ::testing::TempDir() + "train.rnds";
  generate_shard(path, cfg, 41, topology, 6, 0, 1);

  core::RouteNet vec_model(small_model());
  {
    VectorSampleSource source(in_ram);
    core::Trainer trainer(vec_model, small_train());
    trainer.fit(source);
  }
  core::RouteNet stream_model(small_model());
  {
    StreamingDataset source(path);
    core::Trainer trainer(stream_model, small_train());
    trainer.fit(source);
  }

  const std::vector<ag::Parameter*> pa = vec_model.params();
  const std::vector<ag::Parameter*> pb = stream_model.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->name, pb[i]->name);
    EXPECT_EQ(0, std::memcmp(
                     pa[i]->value.data(), pb[i]->value.data(),
                     sizeof(float) *
                         static_cast<std::size_t>(pa[i]->value.size())))
        << "parameter '" << pa[i]->name
        << "' differs between streamed and in-RAM training";
  }
}

TEST(StreamingTrainer, ResidentBytesStayBoundedAndGauged) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string path = ::testing::TempDir() + "gauge.rnds";
  generate_shard(path, cfg, 43, topology, 6, 0, 1);

  obs::Registry& reg = obs::Registry::global();
  reg.gauge("dataset.stream.resident_peak_bytes").reset();
  reg.counter("dataset.stream.records_read_total").reset();

  StreamingDataset stream(path);
  EXPECT_EQ(reg.gauge("dataset.stream.file_bytes").value(),
            static_cast<double>(stream.file_bytes()));
  // One 2-sample minibatch at a time, like the trainer does.
  std::vector<const Sample*> out;
  const std::uint64_t batch[2] = {0, 1};
  stream.materialize(batch, 2, out);
  const double peak = reg.gauge("dataset.stream.resident_peak_bytes").value();
  EXPECT_GT(peak, 0.0);
  // The whole point of streaming: a minibatch is resident, not the corpus.
  EXPECT_LT(peak, static_cast<double>(stream.file_bytes()));
  EXPECT_EQ(reg.counter("dataset.stream.records_read_total").value(), 2u);
}

TEST(StreamingTrainer, ResidentCapRejectsOversizedBatch) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string path = ::testing::TempDir() + "cap.rnds";
  generate_shard(path, cfg, 44, topology, 2, 0, 1);
  StreamingOptions opts;
  opts.resident_cap_bytes = 1;  // nothing fits
  StreamingDataset stream(path, opts);
  std::vector<const Sample*> out;
  const std::uint64_t idx = 0;
  EXPECT_THROW(stream.materialize(&idx, 1, out), std::runtime_error);
}

TEST(StreamingNormalizer, MatchesVectorFit) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  DatasetGenerator gen(cfg, 46);
  const std::vector<Sample> samples = gen.generate_many(topology, 3);
  const std::string path = ::testing::TempDir() + "norm.rnds";
  generate_shard(path, cfg, 46, topology, 3, 0, 1);

  const Normalizer vec_fit = fit_normalizer(samples);
  StreamingDataset stream(path);
  const Normalizer stream_fit = fit_normalizer(stream);
  // Same Welford accumulation order sample-by-sample: bitwise equal.
  EXPECT_EQ(vec_fit.log_delay_mean, stream_fit.log_delay_mean);
  EXPECT_EQ(vec_fit.log_delay_std, stream_fit.log_delay_std);
  EXPECT_EQ(vec_fit.capacity_scale, stream_fit.capacity_scale);
}

}  // namespace
}  // namespace rn::dataset
