// Golden-bytes suite: pins a digest of every encoder's output so a change
// to the byte layer cannot silently change a wire frame or an on-disk file.
//
// Covered: every RNP/1 frame type (both forms of the predict request and
// response), one RNDS1 shard (header, records, index and index CRC), one
// RNCKPT2 training checkpoint, and one config_fingerprint value. Every
// input is built from fixed integers (splitmix64 of the element index), not
// from std:: distributions or the simulator, so the digests depend on the
// encoders alone. The digest is FNV-1a 64 over the exact bytes, computed
// here rather than with the library's own crc32.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "ag/serialize.h"
#include "dataset/shard.h"
#include "routing/routing.h"
#include "serve/protocol.h"
#include "topology/generators.h"

namespace rn {
namespace {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Deterministic double in [lo, hi) from an index, independent of <random>.
double fixed_value(std::uint64_t i, double lo, double hi) {
  const double unit =
      static_cast<double>(splitmix64(i) >> 11) * (1.0 / 9007199254740992.0);
  return lo + unit * (hi - lo);
}

dataset::Sample fixed_sample(const topo::Topology& t, std::uint64_t salt) {
  auto topology = std::make_shared<const topo::Topology>(t);
  routing::RoutingScheme scheme = routing::shortest_path_routing(*topology);
  traffic::TrafficMatrix tm(topology->num_nodes());
  for (int idx = 0; idx < topology->num_pairs(); ++idx) {
    const auto [src, dst] = topo::pair_from_index(idx, topology->num_nodes());
    tm.set_rate_bps(src, dst, fixed_value(salt * 1000 + idx, 10.0, 200.0));
  }
  dataset::Sample s = dataset::make_inference_sample(
      topology, std::move(scheme), std::move(tm));
  for (int idx = 0; idx < s.num_pairs(); ++idx) {
    const auto i = static_cast<std::size_t>(idx);
    s.delay_s[i] = fixed_value(salt * 3000 + idx, 1e-3, 5e-2);
    s.jitter_s[i] = fixed_value(salt * 5000 + idx, 1e-5, 1e-3);
    s.valid[i] = (splitmix64(salt * 7000 + idx) & 3) != 0 ? 1 : 0;
  }
  s.max_link_utilization = fixed_value(salt, 0.3, 0.85);
  return s;
}

ag::Tensor fixed_tensor(int rows, int cols, std::uint64_t salt) {
  ag::Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(fixed_value(salt * 100 + i, -1.0, 1.0));
  }
  return t;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string frame(serve::wire::FrameType type, std::string_view payload) {
  return serve::wire::encode_frame(type, payload);
}

struct Golden {
  const char* what;
  std::string bytes;
  std::size_t size;
  std::uint64_t digest;
};

void expect_golden(const Golden& g) {
  EXPECT_EQ(g.bytes.size(), g.size) << g.what;
  EXPECT_EQ(fnv1a64(g.bytes), g.digest)
      << g.what << ": digest 0x" << std::hex << fnv1a64(g.bytes);
}

TEST(GoldenBytes, EveryRnp1FrameType) {
  using serve::wire::ErrorCode;
  using serve::wire::FrameType;
  namespace wire = serve::wire;
  const dataset::Sample sample = fixed_sample(topo::ring(5), 1);

  core::RouteNet::Prediction pred;
  for (int i = 0; i < 6; ++i) {
    pred.delay_s.push_back(fixed_value(40 + i, 1e-3, 1e-1));
    pred.jitter_s.push_back(fixed_value(60 + i, 1e-5, 1e-3));
  }

  wire::StatsSnapshot snap;
  snap.server_time_s = 12.5;
  snap.trace_dropped = 3;
  snap.trace_sampled_out = 17;
  snap.counters = {{"serve.requests_total", 1234}, {"serve.rejects", 5}};
  snap.gauges = {{"serve.queue_depth", 2.0}};
  snap.histograms = {{"serve.latency_s", 99, 0.01, 0.008, 0.02, 0.03, 0.05}};
  wire::StatsSnapshot::WindowEntry window;
  window.name = "serve.latency_s.window";
  window.window_s = 10.0;
  window.count = 42;
  window.p50 = 0.007;
  window.p95 = 0.019;
  window.p99 = 0.028;
  window.exemplars = {{3, 0.021, 77}, {9, 0.05, 78}};
  snap.windows = {window};
  snap.models = {{"default", 4, 12345}};

  const Golden goldens[] = {
      {"predict request",
       frame(FrameType::kPredictRequest,
             wire::encode_predict_request("prod", sample)),
       594, 0x2e88ef7bbc773ccaull},
      {"traced predict request",
       frame(FrameType::kPredictRequest,
             wire::encode_predict_request("prod", sample,
                                          wire::TraceContext{99, 1.5e9})),
       610, 0x91546cb9d1b0deb1ull},
      {"predict response",
       frame(FrameType::kPredictResponse,
             wire::encode_predict_response(pred)),
       113, 0x27d8e63e06b3c61full},
      {"attributed predict response",
       frame(FrameType::kPredictResponse,
             wire::encode_predict_response(pred, 99, 0.004, 0.011)),
       137, 0xefefa1428aaf030full},
      {"error",
       frame(FrameType::kError,
             wire::encode_error(ErrorCode::kRejected, "queue full")),
       27, 0x6a695ffc3e0d9c67ull},
      {"reload request",
       frame(FrameType::kReloadRequest, wire::encode_reload_request("prod")),
       19, 0xe6f5d5de3fa74464ull},
      {"reload response",
       frame(FrameType::kReloadResponse,
             wire::encode_reload_response("prod", 7)),
       27, 0xc86b09f6299f25b4ull},
      {"shutdown request", frame(FrameType::kShutdownRequest, ""), 13,
       0xbefbfca0993ce88aull},
      {"shutdown ack", frame(FrameType::kShutdownAck, ""), 13,
       0x7250a57e9ded4a2dull},
      {"stats request", frame(FrameType::kStatsRequest, ""), 13,
       0x6a88bd0fd4834aedull},
      {"stats response",
       frame(FrameType::kStatsResponse, wire::encode_stats_response(snap)),
       329, 0x1694914cb39e5654ull},
  };
  for (const Golden& g : goldens) expect_golden(g);
}

TEST(GoldenBytes, Rnds1Shard) {
  const topo::Topology ring = topo::ring(5);
  dataset::ShardHeader header;
  header.seed = 11;
  header.config_fingerprint =
      dataset::config_fingerprint(dataset::GeneratorConfig{}, ring);
  header.shard_index = 1;
  header.shard_count = 3;
  header.first_index = 4;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rn_golden_" + std::to_string(::getpid()) + ".rnds"))
          .string();
  {
    dataset::ShardWriter writer(path, header);
    for (std::uint64_t i = 0; i < 3; ++i) {
      writer.add(fixed_sample(ring, 10 + i));
    }
    writer.finish();
  }
  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  expect_golden({"RNDS1 shard", bytes, 3011, 0xfc7b13485a7bfd32ull});
}

TEST(GoldenBytes, Rnckpt2Checkpoint) {
  ag::TrainCheckpoint ckpt;
  ckpt.params = {{"w", fixed_tensor(3, 4, 1)}, {"b", fixed_tensor(1, 4, 2)}};
  ckpt.has_optimizer = true;
  ckpt.adam_step = 17;
  ckpt.lr = 0.004f;
  ckpt.adam_m = {{"w", fixed_tensor(3, 4, 3)}, {"b", fixed_tensor(1, 4, 4)}};
  ckpt.adam_v = {{"w", fixed_tensor(3, 4, 5)}, {"b", fixed_tensor(1, 4, 6)}};
  ckpt.rng_streams = {{"shuffle", "123 456 789"}, {"dropout", "42"}};
  ckpt.has_cursor = true;
  ckpt.epoch = 2;
  ckpt.next_index = 3;
  ckpt.total_batches = 11;
  ckpt.best_eval_mre = 0.125;
  ckpt.best_epoch = 1;
  ckpt.epochs_since_best = 1;
  ckpt.epoch_loss_sum = 4.75;
  ckpt.epoch_batches = 2;
  ckpt.epoch_samples = 8;
  ckpt.order = {4, 0, 3, 1, 2};
  expect_golden({"RNCKPT2 checkpoint", ag::train_checkpoint_bytes(ckpt), 429,
                 0x690d55d98326a040ull});
}

TEST(GoldenBytes, ConfigFingerprint) {
  dataset::GeneratorConfig cfg;
  cfg.k_paths = 2;
  cfg.target_pkts_per_flow = 60.0;
  EXPECT_EQ(dataset::config_fingerprint(cfg, topo::nsfnet()),
            0xf215339cb24d8fe9ull)
      << std::hex << dataset::config_fingerprint(cfg, topo::nsfnet());
}

}  // namespace
}  // namespace rn
