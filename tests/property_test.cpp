// Parameterized property suites: invariants swept across loads, traffic
// models, topologies, sizes, and seeds (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <cmath>
#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "queueing/queueing.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "traffic/traffic.h"

namespace rn {
namespace {

// --- M/M/1 closed-form sweep over utilization -------------------------------

class Mm1Sweep : public ::testing::TestWithParam<double> {};

TEST_P(Mm1Sweep, SimulatorMatchesClosedFormAcrossLoads) {
  const double rho = GetParam();
  const double cap = 10'000.0;          // μ = 10 pkt/s at 1000-bit packets
  const double rate = rho * cap;
  topo::Topology t("mm1", 2);
  t.add_link(0, 1, cap);
  routing::RoutingScheme scheme(2);
  scheme.set_path(0, 1, {0});
  scheme.set_path(1, 0, {});
  traffic::TrafficMatrix tm(2);
  tm.set_rate_bps(0, 1, rate);

  sim::SimConfig cfg;
  cfg.warmup_s = 100.0;
  cfg.horizon_s = 100.0 + 3'000.0;  // ~3k·ρ·10 packets post-warmup
  cfg.seed = 1234;
  const sim::SimResult res = sim::PacketSimulator(cfg).run(t, scheme, tm);
  const double mu = 10.0, lambda = rho * 10.0;
  const double expected = 1.0 / (mu - lambda);
  const auto idx = static_cast<std::size_t>(topo::pair_index(0, 1, 2));
  EXPECT_NEAR(res.paths[idx].mean_delay_s, expected, 0.12 * expected)
      << "rho=" << rho;
  EXPECT_NEAR(res.links[0].utilization, rho, 0.035) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(LoadSweep, Mm1Sweep,
                         ::testing::Values(0.2, 0.35, 0.5, 0.65, 0.8));

// --- M/G/1 analytic vs simulator across packet-size models ------------------

class Mg1SizeModels
    : public ::testing::TestWithParam<traffic::PacketSizeModel> {};

TEST_P(Mg1SizeModels, AnalyticMatchesSimulatorOnPoissonArrivals) {
  traffic::TrafficModel model;
  model.sizes = GetParam();
  topo::Topology t("mg1", 2);
  t.add_link(0, 1, 10'000.0);
  routing::RoutingScheme scheme(2);
  scheme.set_path(0, 1, {0});
  scheme.set_path(1, 0, {});
  traffic::TrafficMatrix tm(2);
  tm.set_rate_bps(0, 1, 6'000.0);  // ρ = 0.6

  sim::SimConfig cfg;
  cfg.warmup_s = 100.0;
  cfg.horizon_s = 2'100.0;
  cfg.model = model;
  cfg.seed = 77;
  const sim::SimResult res = sim::PacketSimulator(cfg).run(t, scheme, tm);
  const queueing::AnalyticPrediction pred =
      queueing::QueueingPredictor{model}.predict(t, scheme, tm);
  const auto idx = static_cast<std::size_t>(topo::pair_index(0, 1, 2));
  EXPECT_NEAR(pred.delay_s[idx], res.paths[idx].mean_delay_s,
              0.15 * pred.delay_s[idx]);
  // Jitter (std of sojourn) should also agree reasonably for M/G/1.
  EXPECT_NEAR(pred.jitter_s[idx], res.paths[idx].jitter_s,
              0.25 * pred.jitter_s[idx]);
}

INSTANTIATE_TEST_SUITE_P(SizeModels, Mg1SizeModels,
                         ::testing::Values(
                             traffic::PacketSizeModel::kExponential,
                             traffic::PacketSizeModel::kFixed,
                             traffic::PacketSizeModel::kBimodal,
                             traffic::PacketSizeModel::kTruncatedPareto));

// --- pair_index bijection across node counts --------------------------------

class PairIndexSweep : public ::testing::TestWithParam<int> {};

TEST_P(PairIndexSweep, BijectionHolds) {
  const int n = GetParam();
  for (int idx = 0; idx < n * (n - 1); ++idx) {
    const auto [s, d] = topo::pair_from_index(idx, n);
    EXPECT_NE(s, d);
    EXPECT_EQ(topo::pair_index(s, d, n), idx);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PairIndexSweep,
                         ::testing::Values(2, 3, 5, 14, 24, 50));

// --- Routing validity across topologies and k -------------------------------

struct RoutingCase {
  const char* name;
  int k;
};

// Without this gtest prints a RoutingCase as its raw bytes — the name
// pointer (moved by every rebuild and by ASLR) and the padding — and
// gtest_discover_tests bakes that into the ctest test names.
void PrintTo(const RoutingCase& c, std::ostream* os) {
  *os << c.name << " k=" << c.k;
}

class RoutingSweep : public ::testing::TestWithParam<RoutingCase> {
 protected:
  topo::Topology make_topology() const {
    const std::string name = GetParam().name;
    if (name == "nsfnet") return topo::nsfnet();
    if (name == "geant2") return topo::geant2();
    if (name == "ring8") return topo::ring(8);
    Rng rng(3);
    return topo::synthetic_ba(20, 2, rng);
  }
};

TEST_P(RoutingSweep, RandomKShortestAlwaysValid) {
  const topo::Topology t = make_topology();
  Rng rng(17);
  const routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(t, GetParam().k, rng);
  EXPECT_NO_THROW(routing::validate_routing(t, scheme));
  // Paths can never be longer than the node count (loop-free).
  for (int idx = 0; idx < scheme.num_pairs(); ++idx) {
    EXPECT_LT(static_cast<int>(scheme.path_by_index(idx).size()),
              t.num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RoutingSweep,
    ::testing::Values(RoutingCase{"nsfnet", 1}, RoutingCase{"nsfnet", 4},
                      RoutingCase{"geant2", 3}, RoutingCase{"ring8", 2},
                      RoutingCase{"ba20", 3}),
    [](const ::testing::TestParamInfo<RoutingCase>& info) {
      return std::string(info.param.name) + "_k" +
             std::to_string(info.param.k);
    });

// --- Simulator invariants across seeds ---------------------------------------

class SimInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimInvariants, ConservationAndBounds) {
  const topo::Topology t = topo::nsfnet();
  Rng rng(GetParam());
  const routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(t, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(t.num_nodes(), 20.0, 120.0, rng);
  traffic::scale_to_max_utilization(tm, t, scheme, 0.65);
  sim::SimConfig cfg;
  cfg.warmup_s = 0.5;
  cfg.horizon_s = 25.0;
  cfg.seed = GetParam() * 31 + 7;
  const sim::SimResult res = sim::PacketSimulator(cfg).run(t, scheme, tm);

  std::size_t delivered = 0;
  for (int idx = 0; idx < t.num_pairs(); ++idx) {
    const sim::PathStats& ps = res.paths[static_cast<std::size_t>(idx)];
    delivered += ps.delivered;
    if (ps.delivered == 0) continue;
    // Physical lower bound: delay >= sum of minimum transmission times
    // (packet sizes are >= 1 bit, so this is loose but must hold for the
    // mean with realistic packets ~ mean service per hop shrinks; use 0).
    EXPECT_GT(ps.mean_delay_s, 0.0);
    EXPECT_GE(ps.jitter_s, 0.0);
  }
  EXPECT_LE(delivered, res.packets_created);
  for (const sim::LinkStats& ls : res.links) {
    EXPECT_GE(ls.utilization, 0.0);
    EXPECT_LE(ls.utilization, 1.0);
    EXPECT_GE(ls.mean_queue_pkts, 0.0);
  }
  // Offered max utilization 0.65 → no link should measure above ~0.8.
  for (const sim::LinkStats& ls : res.links) {
    EXPECT_LT(ls.utilization, 0.85);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimInvariants,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- Scheduling disciplines preserve core invariants --------------------------

class SchedulerSweep : public ::testing::TestWithParam<sim::Scheduling> {};

TEST_P(SchedulerSweep, ConservationHoldsUnderEveryDiscipline) {
  const topo::Topology t = topo::gbn();
  Rng rng(31);
  const routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(t, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(t.num_nodes(), 20.0, 120.0, rng);
  traffic::scale_to_max_utilization(tm, t, scheme, 0.7);
  sim::SimConfig cfg;
  cfg.warmup_s = 0.5;
  cfg.horizon_s = 20.5;
  cfg.scheduling = GetParam();
  cfg.num_classes = 2;
  cfg.class_of_flow = [](int idx) { return idx % 2; };
  const sim::SimResult res = sim::PacketSimulator(cfg).run(t, scheme, tm);
  std::size_t delivered = 0;
  for (const sim::PathStats& ps : res.paths) delivered += ps.delivered;
  EXPECT_GT(delivered, 0u);
  EXPECT_LE(delivered, res.packets_created);
  for (const sim::LinkStats& ls : res.links) {
    EXPECT_LE(ls.utilization, 1.0);
    EXPECT_GE(ls.mean_queue_pkts, 0.0);
  }
}

TEST_P(SchedulerSweep, LowLoadAllDisciplinesAgree) {
  // With no queueing contention the discipline is irrelevant: delays are
  // transmission-time dominated and must match across schedulers.
  const topo::Topology t = topo::ring(5, 100'000.0);
  const routing::RoutingScheme scheme = routing::shortest_path_routing(t);
  traffic::TrafficMatrix tm(5);
  tm.set_rate_bps(0, 2, 500.0);  // ρ ≈ 0.005
  sim::SimConfig cfg;
  cfg.warmup_s = 1.0;
  cfg.horizon_s = 2'001.0;
  cfg.scheduling = GetParam();
  cfg.num_classes = 2;
  const sim::SimResult res = sim::PacketSimulator(cfg).run(t, scheme, tm);
  const auto idx = static_cast<std::size_t>(topo::pair_index(0, 2, 5));
  // Two hops at 100 kbps, 1000-bit mean packets → ~20 ms.
  EXPECT_NEAR(res.paths[idx].mean_delay_s, 0.020, 0.004);
}

INSTANTIATE_TEST_SUITE_P(Disciplines, SchedulerSweep,
                         ::testing::Values(
                             sim::Scheduling::kFifo,
                             sim::Scheduling::kStrictPriority,
                             sim::Scheduling::kDeficitRoundRobin));

// --- BA generator across attachment counts ------------------------------------

class BaSweep : public ::testing::TestWithParam<int> {};

TEST_P(BaSweep, EdgeCountFormulaAndConnectivity) {
  const int m = GetParam();
  Rng rng(7);
  const int n = 30;
  const topo::Topology t = topo::synthetic_ba(n, m, rng);
  // seed clique of (m+1) nodes: m(m+1)/2 edges; then (n-m-1) nodes × m.
  const int expected_edges = m * (m + 1) / 2 + (n - m - 1) * m;
  EXPECT_EQ(t.num_links(), 2 * expected_edges);
  EXPECT_TRUE(t.is_strongly_connected());
}

INSTANTIATE_TEST_SUITE_P(AttachmentCounts, BaSweep,
                         ::testing::Values(1, 2, 3, 4));

// --- Traffic scaling across targets -----------------------------------------

class UtilSweep : public ::testing::TestWithParam<double> {};

TEST_P(UtilSweep, ScaleHitsTargetExactly) {
  const topo::Topology t = topo::geant2();
  const routing::RoutingScheme scheme = routing::shortest_path_routing(t);
  Rng rng(5);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(t.num_nodes(), 1.0, 9.0, rng);
  traffic::scale_to_max_utilization(tm, t, scheme, GetParam());
  const std::vector<double> loads = traffic::link_loads_bps(t, scheme, tm);
  double max_util = 0.0;
  for (topo::LinkId id = 0; id < t.num_links(); ++id) {
    max_util = std::max(max_util, loads[static_cast<std::size_t>(id)] /
                                      t.link(id).capacity_bps);
  }
  EXPECT_NEAR(max_util, GetParam(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Targets, UtilSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace rn
