// `serve`: an in-process NetServer on loopback (2-wide pool: two batcher
// workers running kernels inline; batch cap 8, fixed 5 ms deadline) under a
// closed loop of 4 NetClient connections, one thread each, that send the
// next request as soon as a reply arrives. Clients cycle through a fixed
// pool of distinct NSFNET and Geant2 scenarios; every response must equal,
// bit for bit, a local RouteNet::predict of the same scenario. An item is
// one predict round trip.
//
// The traced run adds two ladder rungs below the socket: bare
// predict_merged on the serve mix, and InferenceServer::submit().get()
// from the same 4 client threads.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "ag/arena.h"
#include "common.h"
#include "core/routenet.h"
#include "dataset/dataset.h"
#include "par/thread_pool.h"
#include "routing/routing.h"
#include "serve/net.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "topology/generators.h"
#include "traffic/traffic.h"

namespace perfbench {

namespace {

using rn::core::RouteNet;
using rn::dataset::Sample;

constexpr int kClients = 4;
constexpr int kPoolWidth = 2;
constexpr int kMaxBatch = 8;
constexpr int kScenariosPerTopology = 2 * kMaxBatch;
// Round trips per second of --seconds over all clients: 880 in a 20 s run,
// which keeps the tail at p90 with 88 items beyond it (p99 would need 1000
// items and rest on 10). The loop takes about 20 s on a 4-core x86 host.
constexpr double kRequestsPerSecond = 44.0;
constexpr int kSetupReps = 3;
constexpr int kWarmupPerClient = 8;
constexpr int kScatterPerClient = 24;
constexpr double kMaxScatterS = 0.010;
constexpr std::uint64_t kScatterSeed = 5;
constexpr int kLadderCalls = 64;
constexpr int kWindows = 10;
// Calls per client between two re-alignments of the clients (closed_loop).
constexpr int kRoundCalls = 10;
constexpr char kModel[] = "routenet";

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const RouteNet::Prediction& a, const RouteNet::Prediction& b) {
  return same_bits(a.delay_s, b.delay_s) && same_bits(a.jitter_s, b.jitter_s);
}

Sample make_scenario(std::shared_ptr<const rn::topo::Topology> topo,
                     rn::Rng& rng) {
  rn::routing::RoutingScheme routing =
      rn::routing::random_k_shortest_routing(*topo, 3, rng);
  rn::traffic::TrafficMatrix tm =
      rn::traffic::gravity_traffic(topo->num_nodes(), 1.0e6, rng);
  rn::traffic::scale_to_max_utilization(tm, *topo, routing,
                                        rng.uniform(0.3, 0.8));
  return rn::dataset::make_inference_sample(std::move(topo),
                                            std::move(routing), std::move(tm));
}

// The served model's inputs: a fixed pool of scenarios, the normalizer
// (fitted on a few simulated NSFNET samples) and the reference answers.
struct Mix {
  std::vector<Sample> pool;
  rn::dataset::Normalizer norm;
  std::vector<RouteNet::Prediction> refs;
};

Mix make_mix(std::uint64_t seed, RouteNet& reference) {
  Mix mix;
  const auto nsfnet =
      std::make_shared<const rn::topo::Topology>(rn::topo::nsfnet());
  const auto geant2 =
      std::make_shared<const rn::topo::Topology>(rn::topo::geant2());
  rn::Rng rng(derive_seed(seed, 3));
  for (int i = 0; i < kScenariosPerTopology; ++i) {
    mix.pool.push_back(make_scenario(nsfnet, rng));
    mix.pool.push_back(make_scenario(geant2, rng));
  }
  rn::dataset::GeneratorConfig gen_cfg;
  gen_cfg.target_pkts_per_flow = 40.0;
  gen_cfg.warmup_s = 1.0;
  gen_cfg.min_delivered = 10;
  const rn::dataset::DatasetGenerator gen(gen_cfg, derive_seed(seed, 4));
  mix.norm = rn::dataset::fit_normalizer(gen.generate_range(nsfnet, 0, 4));
  reference.set_normalizer(mix.norm);
  for (const Sample& s : mix.pool) mix.refs.push_back(reference.predict(s));
  return mix;
}

// Server, registry and connected clients; destroyed clients first.
struct Stack {
  std::unique_ptr<rn::serve::ModelRegistry> registry;
  std::unique_ptr<rn::serve::NetServer> server;
  std::vector<std::unique_ptr<rn::serve::NetClient>> clients;
};

rn::serve::ServerConfig server_config() {
  rn::serve::ServerConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.batch_deadline_s = 0.005;
  cfg.workers = 0;  // the pool's width
  return cfg;
}

std::unique_ptr<Stack> start_stack(const Mix& mix) {
  auto st = std::make_unique<Stack>();
  st->registry = std::make_unique<rn::serve::ModelRegistry>(server_config());
  auto model = std::make_unique<RouteNet>(model_config());
  model->set_normalizer(mix.norm);
  st->registry->install(kModel, std::move(model));
  st->server = std::make_unique<rn::serve::NetServer>(
      *st->registry, rn::serve::NetServerConfig{});
  st->server->start();
  for (int c = 0; c < kClients; ++c) {
    st->clients.push_back(
        std::make_unique<rn::serve::NetClient>(st->server->address()));
  }
  return st;
}

// Per-thread results of a closed loop, merged after the join.
struct Loop {
  std::vector<double> item_s;
  std::vector<double> done_at;  // completion time of each item_s entry
  std::vector<double> queue_s, server_s, transport_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::string first_error;
  double start = 0.0;
  double wall_s = 0.0;

  void merge(const Loop& o) {
    item_s.insert(item_s.end(), o.item_s.begin(), o.item_s.end());
    done_at.insert(done_at.end(), o.done_at.begin(), o.done_at.end());
    queue_s.insert(queue_s.end(), o.queue_s.begin(), o.queue_s.end());
    server_s.insert(server_s.end(), o.server_s.begin(), o.server_s.end());
    transport_s.insert(transport_s.end(), o.transport_s.begin(),
                       o.transport_s.end());
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
    if (first_error.empty()) first_error = o.first_error;
  }
};

// Which scenarios the clients send; the pool alternates NSFNET and Geant2.
// With kMixed client c starts at c * (n / kClients + 1) and walks the whole
// pool, so clients in step (every reply of a batch comes back at once) put
// two scenarios of each topology in every batch. With kGeant2 they walk the
// Geant2 half only, so every batch has the largest shape four clients can
// form. kScattered is kMixed with a uniform pause of up to kMaxScatterS
// after each reply, which keeps the clients out of step: batches of every
// size and topology mix land on both workers. Only the warm-up uses the
// last two.
enum class Order { kMixed, kGeant2, kScattered };

// kClients threads each run `per_client` calls of `call(client, scenario)`
// back to back, starting together, in `order`. Every kRoundCalls calls the clients wait for each other. Clients in
// step pass that barrier together, since one batch carries all four
// requests and all four replies return at once. The barrier only ends a
// split: a host stall that delays one reply past the batch deadline puts
// its client into batches of its own, and without the barrier that state
// lasts for the rest of the run.
template <typename Call>
Loop closed_loop(const Mix& mix, int per_client, Order order, Call&& call) {
  std::vector<Loop> parts(kClients);
  std::latch start(kClients + 1);
  std::barrier round(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Loop& out = parts[static_cast<std::size_t>(c)];
      const std::size_t n = mix.pool.size();
      const std::size_t cs = static_cast<std::size_t>(c);
      rn::Rng pause(derive_seed(kScatterSeed, cs));
      start.arrive_and_wait();
      for (int k = 0; k < per_client; ++k) {
        if (k > 0 && k % kRoundCalls == 0) round.arrive_and_wait();
        const std::size_t ks = static_cast<std::size_t>(k);
        const std::size_t idx =
            order == Order::kGeant2
                ? 2 * ((cs * n / (2 * kClients) + ks) % (n / 2)) + 1
                : (cs * (n / kClients + 1) + ks) % n;
        ++out.attempted;
        const double t0 = now_s();
        try {
          const RouteNet::Prediction p = call(c, mix.pool[idx], out);
          const double dt = now_s() - t0;
          if (same_bits(p, mix.refs[idx])) {
            out.item_s.push_back(dt);
            out.done_at.push_back(t0 + dt);
          } else {
            ++out.failed;
            ++out.mismatches;
          }
        } catch (const std::exception& e) {  // rejected or transport error
          ++out.failed;
          if (out.first_error.empty()) out.first_error = e.what();
        }
        if (order == Order::kScattered) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              pause.uniform(0.0, kMaxScatterS)));
        }
      }
    });
  }
  const double t0 = now_s();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  Loop all;
  all.start = t0;
  all.wall_s = now_s() - t0;
  for (const Loop& p : parts) all.merge(p);
  return all;
}

Loop net_loop(Stack& st, const Mix& mix, int per_client,
              Order order = Order::kMixed) {
  return closed_loop(mix, per_client, order,
                     [&st](int c, const Sample& s, Loop& out) {
    rn::serve::NetClient::PredictOutcome o =
        st.clients[static_cast<std::size_t>(c)]->predict_traced(kModel, s);
    out.queue_s.push_back(o.queue_wait_s);
    out.server_s.push_back(o.server_s);
    out.transport_s.push_back(o.rtt_s - o.server_s);
    return std::move(o.prediction);
  });
}

void count(const Loop& loop, RunResult& r) {
  r.attempted += loop.attempted;
  r.failed += loop.failed;
  if (loop.mismatches > 0) {
    r.errors.push_back(std::to_string(loop.mismatches) +
                       " responses differ from the local predict");
  }
  if (!loop.first_error.empty()) {
    std::fprintf(stderr, "serve: first failed call: %s\n",
                 loop.first_error.c_str());
  }
}

// Ladder rung 1: bare predict_merged on groups of kClients scenarios, the
// batch shape the closed loop produces, with kernels inline as in a server
// worker.
double predict_rung_ms(const RouteNet& model, const Mix& mix, RunResult& r) {
  rn::par::set_global_threads(1);
  std::vector<double> call_s;
  const std::size_t n = mix.pool.size();
  for (int k = 0; k < kLadderCalls; ++k) {
    std::vector<const Sample*> batch;
    std::vector<std::size_t> idx;
    for (int j = 0; j < kClients; ++j) {
      idx.push_back((static_cast<std::size_t>(k * kClients + j)) % n);
      batch.push_back(&mix.pool[idx.back()]);
    }
    rn::obs::TraceSpan span("bench.predict_merged");
    const double t0 = now_s();
    const std::vector<RouteNet::Prediction> out = model.predict_merged(batch);
    call_s.push_back(now_s() - t0);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      if (!same_bits(out[j], mix.refs[idx[j]])) {
        r.errors.push_back("predict_merged differs from predict");
        break;
      }
    }
  }
  rn::par::set_global_threads(kPoolWidth);
  return percentile(call_s, 50) * 1e3;
}

// Ladder rung 2: the same closed loop through InferenceServer::submit(),
// no socket.
double inproc_rung_ms(const RouteNet& model, const Mix& mix, RunResult& r) {
  rn::serve::InferenceServer server(model, server_config());
  const Loop loop = closed_loop(mix, kLadderCalls, Order::kMixed,
                                [&server](int, const Sample& s, Loop&) {
    rn::obs::TraceSpan span("bench.submit");
    return server.submit(s).get();
  });
  count(loop, r);
  return percentile(loop.item_s, 50) * 1e3;
}

}  // namespace

RunResult run_serve(const Options& opts) {
  RunResult r;
  rn::par::set_global_threads(kPoolWidth);
  RouteNet reference(model_config());
  Mix mix;
  std::unique_ptr<Stack> stack;
  r.setup_s = timed_repetitions(kSetupReps, [&] {
    stack.reset();  // the previous repetition's server, if any
    mix = make_mix(opts.seed, reference);
    stack = start_stack(mix);
    // The arenas keep a free list per power-of-two size class, so a
    // worker's resident set grows with every batch shape it has run, not
    // only the largest. The warm-up runs the largest shape (four Geant2
    // scenarios), then scattered batches of every size and mix, on both
    // workers, so the measured loop's peak resident set does not depend on
    // whether a host stall knocks its clients out of step.
    const Loop warm = net_loop(*stack, mix, kWarmupPerClient, Order::kGeant2);
    const Loop scatter =
        net_loop(*stack, mix, kScatterPerClient, Order::kScattered);
    if (warm.failed + scatter.failed > 0) {
      throw std::runtime_error("warm-up requests failed");
    }
  });

  const double setup_rss_mb = peak_rss_mb();
  const double seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  const int per_client = static_cast<int>(
      std::ceil(seconds * kRequestsPerSecond / kClients));
  const Loop base = net_loop(*stack, mix, per_client);
  count(base, r);
  r.item_s = base.item_s;
  r.work_units = static_cast<double>(base.item_s.size());
  r.measure_s = base.wall_s;
  // Completions per equal slice of the loop's wall time.
  std::vector<double> counts(kWindows, 0.0);
  const double slice = base.wall_s / kWindows;
  for (double t : base.done_at) {
    const int w = static_cast<int>((t - base.start) / slice);
    counts[static_cast<std::size_t>(std::clamp(w, 0, kWindows - 1))] += 1;
  }
  for (double n : counts) r.windows.emplace_back(n, slice);
  r.info["scenarios"] = static_cast<double>(mix.pool.size());
  // Equal to peak_rss_mb when the warm-up reached every batch shape.
  r.info["setup_peak_rss_mb"] = setup_rss_mb;
  if (!opts.trace) return r;

  const std::uint64_t allocs0 = rn::ag::arena_stats().fresh_allocs;
  TracedSegment traced;
  const Loop seg = net_loop(*stack, mix, per_client);
  count(seg, r);
  LayerInputs in;
  in.items = static_cast<double>(seg.item_s.size());
  in.wall_s = seg.wall_s;
  in.pool_width = kPoolWidth;
  in.item_ms_p50 = percentile(seg.item_s, 50) * 1e3;
  in.untraced_item_ms_p50 = percentile(base.item_s, 50) * 1e3;
  in.fresh_allocs = rn::ag::arena_stats().fresh_allocs - allocs0;
  r.layers = layer_metrics(in, traced.collect());
  r.layers["serve.queue_wait_ms_p50"] = percentile(seg.queue_s, 50) * 1e3;
  r.layers["serve.server_ms_p50"] = percentile(seg.server_s, 50) * 1e3;
  r.layers["serve.transport_ms_p50"] = percentile(seg.transport_s, 50) * 1e3;
  stack.reset();  // frees the pool workers the batcher occupies
  r.layers["core.predict_ms_p50"] = predict_rung_ms(reference, mix, r);
  r.layers["serve.inproc_ms_p50"] = inproc_rung_ms(reference, mix, r);
  r.self_times = traced.finish(opts.workdir + "/trace-serve.json");
  return r;
}

}  // namespace perfbench
