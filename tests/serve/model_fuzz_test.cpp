// RNMODEL4 model-file fuzz suite (labels: serve, asan).
//
// The model file is the artifact that gets shipped and hot-reloaded by
// ModelRegistry, so it gets the same hostile-input treatment as RNP/1
// frames and RNCKPT2 checkpoints: EVERY truncation and EVERY single-byte
// flip of a saved model must throw from RouteNet::load (the sealed
// container's length and CRC-32 catch each one), a file in a retired
// format fails with an error naming it, a validly sealed file whose
// parameters do not fit the architecture fails naming the parameter, and
// a registry reload of a corrupted file fails while the previous model
// keeps serving. Runs under -DRN_SANITIZE=address so an over-read would
// crash loudly.
#include "core/routenet.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "routing/routing.h"
#include "serve/registry.h"
#include "topology/generators.h"
#include "traffic/traffic.h"
#include "util/bytes.h"

namespace rn::serve {
namespace {

core::RouteNetConfig tiny_config() {
  core::RouteNetConfig cfg;
  cfg.link_state_dim = 3;
  cfg.path_state_dim = 3;
  cfg.iterations = 1;
  cfg.readout_hidden = 4;
  cfg.seed = 17;
  return cfg;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "model_fuzz_" + name;
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The bytes of one saved model, built once for the whole suite.
const std::string& model_bytes() {
  static const std::string bytes = [] {
    const std::string path = temp_path("reference.model");
    core::RouteNet(tiny_config()).save(path);
    return read_file(path);
  }();
  return bytes;
}

dataset::Sample make_request() {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  Rng rng(3);
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  return dataset::make_inference_sample(topology, std::move(scheme),
                                        std::move(tm));
}

TEST(ModelFuzz, ValidFileLoads) {
  const std::string path = temp_path("valid.model");
  write_bytes(path, model_bytes());
  const core::RouteNet model = core::RouteNet::load(path);
  EXPECT_EQ(model.config().link_state_dim, 3);
  EXPECT_EQ(model.num_parameters(),
            core::RouteNet(tiny_config()).num_parameters());
}

TEST(ModelFuzz, EveryTruncationThrows) {
  const std::string& bytes = model_bytes();
  const std::string path = temp_path("truncated.model");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, std::string_view(bytes.data(), len));
    EXPECT_THROW(core::RouteNet::load(path), std::runtime_error)
        << "truncation to " << len << " bytes loaded";
  }
}

TEST(ModelFuzz, EveryByteFlipThrows) {
  std::string bytes = model_bytes();
  const std::string path = temp_path("flipped.model");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const char orig = bytes[i];
    bytes[i] = static_cast<char>(orig ^ 0x01);
    write_bytes(path, bytes);
    EXPECT_THROW(core::RouteNet::load(path), std::runtime_error)
        << "flip at byte " << i << " loaded";
    bytes[i] = orig;
  }
}

TEST(ModelFuzz, TrailingBytesThrow) {
  const std::string path = temp_path("trailing.model");
  write_bytes(path, model_bytes() + "x");
  EXPECT_THROW(core::RouteNet::load(path), std::runtime_error);
}

TEST(ModelFuzz, RetiredFormatsFailNamingTheFormat) {
  for (const char* magic : {"RNMODEL1", "RNMODEL2", "RNMODEL3"}) {
    std::string bytes = model_bytes();
    std::memcpy(bytes.data(), magic, kSealMagicLen);
    const std::string path = temp_path("retired.model");
    write_bytes(path, bytes);
    try {
      (void)core::RouteNet::load(path);
      FAIL() << magic << " file loaded";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(magic), std::string::npos) << msg;
    }
  }
}

// Re-seals the payload of the reference model after `edit`, so the CRC is
// valid and the parser itself must catch the inconsistency.
std::string resealed(void (*edit)(std::string& payload)) {
  std::string payload(unseal(model_bytes(), "RNMODEL4", "reference"));
  edit(payload);
  return seal("RNMODEL4", payload);
}

TEST(ModelFuzz, ShapeMismatchNamesTheParameter) {
  // A link_state_dim of 4 builds a model whose parameters no longer match
  // the stored 3-dim tensors.
  const std::string path = temp_path("mismatch.model");
  write_bytes(path, resealed([](std::string& payload) {
                const std::int32_t dim = 4;
                std::memcpy(payload.data(), &dim, sizeof(dim));
              }));
  try {
    (void)core::RouteNet::load(path);
    FAIL() << "a model with mismatched shapes loaded";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shape mismatch for parameter 'routenet."),
              std::string::npos)
        << msg;
  }
}

TEST(ModelFuzz, MissingParameterNamesTheParameter) {
  // Renaming the first stored tensor leaves the model's first parameter
  // without a match. The header is 4×i32 + i32 + f32 + u64 + 2×f64 + u8 +
  // 4×f64 = 81 bytes; then u32 count, u32 name_len, name.
  const std::string path = temp_path("missing.model");
  write_bytes(path, resealed([](std::string& payload) {
                constexpr std::size_t kFirstName = 81 + 4 + 4;
                payload[kFirstName] = 'X';
              }));
  try {
    (void)core::RouteNet::load(path);
    FAIL() << "a model with a missing parameter loaded";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("is missing parameter 'routenet."), std::string::npos)
        << msg;
  }
}

TEST(ModelFuzz, CorruptReloadKeepsThePreviousModelServing) {
  const std::string path = temp_path("served.model");
  write_bytes(path, model_bytes());
  ModelRegistry registry;
  ASSERT_EQ(registry.load("m", path), 1u);
  const dataset::Sample request = make_request();
  const core::RouteNet::Prediction before =
      registry.acquire("m")->server().submit(request).get();

  std::string bytes = model_bytes();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  write_bytes(path, bytes);
  EXPECT_THROW(registry.reload("m"), std::runtime_error);
  write_bytes(path, model_bytes().substr(0, model_bytes().size() - 1));
  EXPECT_THROW(registry.reload("m"), std::runtime_error);

  const ModelRegistry::Handle handle = registry.acquire("m");
  EXPECT_EQ(handle->version(), 1u);
  const core::RouteNet::Prediction after =
      handle->server().submit(request).get();
  EXPECT_EQ(after.delay_s, before.delay_s);
  EXPECT_EQ(after.jitter_s, before.jitter_s);
}

}  // namespace
}  // namespace rn::serve
