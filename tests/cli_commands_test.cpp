// Command-level tests of the routenet CLI: each cmd_* is driven through
// its real flag interface against temp-file artifacts, covering the full
// make-topology → … → train → predict pipeline at miniature scale.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commands.h"
#include "core/routenet.h"
#include "dataset/stream.h"
#include "topology/text_io.h"
#include "traffic/text_io.h"

namespace rn::cli {
namespace {

class CliCommands : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "cli_cmd_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  // Builds Flags from a flat list like {"--kind", "ring", "--out", f}.
  static Flags flags_of(std::vector<std::string> args) {
    std::vector<const char*> argv = {"routenet", "cmd"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    return Flags(static_cast<int>(argv.size()), argv.data(), 2, {"bursty"});
  }

  std::string dir_;
};

TEST_F(CliCommands, MakeTopologyWritesLoadableFile) {
  EXPECT_EQ(cmd_make_topology(flags_of(
                {"--kind", "ring", "--nodes", "6", "--out", path("r.topo")})),
            0);
  const topo::Topology t = topo::load_topology_file(path("r.topo"));
  EXPECT_EQ(t.num_nodes(), 6);
  EXPECT_EQ(t.num_links(), 12);
}

TEST_F(CliCommands, MakeTopologyRejectsUnknownKind) {
  EXPECT_THROW(cmd_make_topology(flags_of(
                   {"--kind", "mobius", "--out", path("x.topo")})),
               std::runtime_error);
}

TEST_F(CliCommands, MakeTopologyRejectsTypoFlag) {
  EXPECT_THROW(cmd_make_topology(flags_of({"--kind", "ring", "--node", "6",
                                           "--out", path("x.topo")})),
               std::runtime_error);
}

TEST_F(CliCommands, FullPipelineEndToEnd) {
  // topology → routing → traffic → simulate → dataset → train → eval →
  // predict → whatif, all through the public command surface.
  ASSERT_EQ(cmd_make_topology(flags_of(
                {"--kind", "ring", "--nodes", "6", "--out", path("n.topo")})),
            0);
  ASSERT_EQ(cmd_make_routing(flags_of({"--topology", path("n.topo"), "--k",
                                       "2", "--seed", "3", "--out",
                                       path("n.routes")})),
            0);
  ASSERT_EQ(cmd_make_traffic(flags_of(
                {"--topology", path("n.topo"), "--routing", path("n.routes"),
                 "--kind", "gravity", "--util", "0.6", "--out",
                 path("n.traffic")})),
            0);
  ASSERT_EQ(cmd_simulate(flags_of(
                {"--topology", path("n.topo"), "--routing", path("n.routes"),
                 "--traffic", path("n.traffic"), "--pkts-per-flow", "40",
                 "--out", path("sim.csv")})),
            0);
  EXPECT_TRUE(std::filesystem::exists(path("sim.csv")));

  ASSERT_EQ(cmd_dataset("gen", flags_of(
                {"--topology", path("n.topo"), "--count", "8",
                 "--pkts-per-flow", "40", "--seed", "5", "--out",
                 path("train.rnds")})),
            0);
  const std::vector<dataset::Sample> ds =
      dataset::load_shard(path("train.rnds"));
  EXPECT_EQ(ds.size(), 8u);

  ASSERT_EQ(cmd_train(flags_of(
                {"--dataset", path("train.rnds"), "--epochs", "3", "--dim",
                 "8", "--iterations", "2", "--out", path("m.model")})),
            0);
  const core::RouteNet model = core::RouteNet::load(path("m.model"));
  EXPECT_EQ(model.config().link_state_dim, 8);

  EXPECT_EQ(cmd_eval(flags_of(
                {"--model", path("m.model"), "--dataset", path("train.rnds")})),
            0);
  EXPECT_EQ(cmd_predict(flags_of(
                {"--model", path("m.model"), "--topology", path("n.topo"),
                 "--routing", path("n.routes"), "--traffic",
                 path("n.traffic"), "--top", "3", "--out", path("pred.csv")})),
            0);
  EXPECT_TRUE(std::filesystem::exists(path("pred.csv")));

  EXPECT_EQ(cmd_whatif(flags_of(
                {"--model", path("m.model"), "--topology", path("n.topo"),
                 "--routing", path("n.routes"), "--traffic",
                 path("n.traffic"), "--upgrades", "2", "--failures", "2"})),
            0);

  EXPECT_EQ(cmd_info(flags_of({"--model", path("m.model")})), 0);
  EXPECT_EQ(cmd_info(flags_of({"--dataset", path("train.rnds")})), 0);
  EXPECT_EQ(cmd_info(flags_of({"--topology", path("n.topo")})), 0);
}

TEST_F(CliCommands, GenDatasetBurstyFlag) {
  ASSERT_EQ(cmd_dataset("gen", flags_of(
                {"--topology", "gbn", "--count", "2", "--pkts-per-flow",
                 "30", "--bursty", "--out", path("b.rnds")})),
            0);
  EXPECT_EQ(dataset::load_shard(path("b.rnds")).size(), 2u);
}

TEST_F(CliCommands, NamedTopologiesResolve) {
  for (const char* name : {"nsfnet", "geant2", "gbn"}) {
    EXPECT_EQ(cmd_info(flags_of({"--topology", name})), 0) << name;
  }
}

TEST_F(CliCommands, TrainRejectsMissingDataset) {
  EXPECT_THROW(cmd_train(flags_of({"--dataset", path("nope.rnds"), "--out",
                                   path("m.model")})),
               std::runtime_error);
}

TEST_F(CliCommands, InfoWithoutSelectorReturnsUsageCode) {
  EXPECT_EQ(cmd_info(flags_of({})), 2);
}

TEST_F(CliCommands, ObsTraceSummarizesValidFile) {
  {
    std::ofstream out(path("ok.trace.json"));
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
           "{\"name\":\"outer\",\"cat\":\"rn\",\"ph\":\"X\",\"pid\":1,"
           "\"tid\":1,\"ts\":0.0,\"dur\":100.0,"
           "\"args\":{\"id\":1,\"parent\":0}},"
           "{\"name\":\"inner\",\"cat\":\"rn\",\"ph\":\"X\",\"pid\":1,"
           "\"tid\":1,\"ts\":10.0,\"dur\":50.0,"
           "\"args\":{\"id\":2,\"parent\":1}}]}";
  }
  EXPECT_EQ(cmd_obs({"trace", path("ok.trace.json")}), 0);
  EXPECT_EQ(cmd_obs({"trace", path("ok.trace.json"), "5"}), 0);
}

TEST_F(CliCommands, ObsTraceErrorsAreOneLineNonzeroExits) {
  // Missing file, malformed JSON, and a non-integer top_n: each is an
  // operator mistake, reported as rc 1 — never an uncaught exception.
  EXPECT_EQ(cmd_obs({"trace", path("missing.json")}), 1);
  {
    std::ofstream out(path("garbage.json"));
    out << "this is not a trace";
  }
  EXPECT_EQ(cmd_obs({"trace", path("garbage.json")}), 1);
  EXPECT_EQ(cmd_obs({"trace", path("garbage.json"), "soon"}), 1);
}

TEST_F(CliCommands, ObsSummarizeMissingFileReturnsError) {
  EXPECT_EQ(cmd_obs({"summarize", path("missing.jsonl")}), 1);
}

TEST_F(CliCommands, ObsBadUsageReturnsUsageCode) {
  EXPECT_EQ(cmd_obs({}), 2);
  EXPECT_EQ(cmd_obs({"frobnicate"}), 2);
  EXPECT_EQ(cmd_obs({"trace"}), 2);
  EXPECT_EQ(cmd_obs({"diff", "only_one.json"}), 2);
}

TEST_F(CliCommands, ObsDiffGatesOnDirectionAwareRegressions) {
  {
    std::ofstream out(path("base.json"));
    out << "{\"telemetry\":{\"gauges\":{\"bench.wall_s\":10.0,"
           "\"serve.throughput_rps\":100.0}}}";
  }
  {
    std::ofstream out(path("same.json"));
    out << "{\"telemetry\":{\"gauges\":{\"bench.wall_s\":10.0,"
           "\"serve.throughput_rps\":100.0}}}";
  }
  {
    std::ofstream out(path("worse.json"));
    out << "{\"telemetry\":{\"gauges\":{\"bench.wall_s\":30.0,"
           "\"serve.throughput_rps\":100.0}}}";
  }
  // Identical reports pass; a 3x wall-time regression fails the gate; a
  // loose enough threshold lets the same pair pass again.
  EXPECT_EQ(cmd_obs({"diff", path("base.json"), path("same.json")}), 0);
  EXPECT_EQ(cmd_obs({"diff", path("base.json"), path("worse.json")}), 1);
  EXPECT_EQ(cmd_obs({"diff", path("base.json"), path("worse.json"),
                     "--threshold", "500"}),
            0);
  // Improvements never fail: worse -> base is wall-time shrinking.
  EXPECT_EQ(cmd_obs({"diff", path("worse.json"), path("base.json")}), 0);
}

TEST_F(CliCommands, ObsDiffErrorAndUsageExits) {
  {
    std::ofstream out(path("ok.json"));
    out << "{\"x\":1.0}";
  }
  // Operator mistakes: missing file and bad threshold are rc 1.
  EXPECT_EQ(cmd_obs({"diff", path("missing.json"), path("ok.json")}), 1);
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--threshold",
                     "soon"}),
            1);
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--threshold",
                     "-5"}),
            1);
  // Unknown extra flag is a usage error.
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--frob"}), 2);
}

}  // namespace
}  // namespace rn::cli
