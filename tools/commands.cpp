#include "commands.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "core/trainer.h"
#include "dataset/shard.h"
#include "dataset/stream.h"
#include "obs/diff.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/window.h"
#include "serve/net.h"
#include "serve/policy.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "eval/export.h"
#include "obs/summarize.h"
#include "obs/trace.h"
#include "planning/whatif.h"
#include "eval/metrics.h"
#include "queueing/queueing.h"
#include "routing/text_io.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "topology/text_io.h"
#include "traffic/text_io.h"
#include "util/stats.h"

namespace rn::cli {

namespace {

// Named built-in, or a topology text file.
std::shared_ptr<const topo::Topology> resolve_topology(
    const std::string& spec, std::uint64_t seed) {
  if (spec == "nsfnet") {
    return std::make_shared<const topo::Topology>(topo::nsfnet());
  }
  if (spec == "geant2") {
    return std::make_shared<const topo::Topology>(topo::geant2());
  }
  if (spec == "gbn") {
    return std::make_shared<const topo::Topology>(topo::gbn());
  }
  if (spec == "ba50") {
    Rng rng(seed);
    return std::make_shared<const topo::Topology>(
        topo::synthetic_ba(50, 2, rng));
  }
  return std::make_shared<const topo::Topology>(
      topo::load_topology_file(spec));
}

traffic::TrafficModel traffic_model_from(const Flags& flags) {
  traffic::TrafficModel model;
  if (flags.get_bool("bursty")) {
    model.arrivals = traffic::ArrivalProcess::kOnOff;
    model.on_fraction = 0.3;
    model.mean_on_s = 0.5;
    model.sizes = traffic::PacketSizeModel::kBimodal;
  }
  return model;
}

// Loads the (topology, routing, traffic) triple shared by simulate/predict.
struct Scenario {
  std::shared_ptr<const topo::Topology> topology;
  routing::RoutingScheme scheme;
  traffic::TrafficMatrix tm;
};

Scenario load_scenario(const Flags& flags) {
  auto topology =
      resolve_topology(flags.require_string("topology"), /*seed=*/1);
  routing::RoutingScheme scheme = routing::load_routing_file(
      flags.require_string("routing"), *topology);
  routing::validate_routing(*topology, scheme);
  traffic::TrafficMatrix tm = traffic::load_traffic_csv_file(
      flags.require_string("traffic"), topology->num_nodes());
  return {std::move(topology), std::move(scheme), std::move(tm)};
}

}  // namespace

int cmd_make_topology(const Flags& flags) {
  const std::string kind = flags.require_string("kind");
  const std::uint64_t seed = flags.get_seed("seed", 1);
  const int nodes = flags.get_int("nodes", 16);
  Rng rng(seed);
  topo::Topology t = [&]() -> topo::Topology {
    if (kind == "nsfnet") return topo::nsfnet();
    if (kind == "geant2") return topo::geant2();
    if (kind == "gbn") return topo::gbn();
    if (kind == "ba") {
      return topo::synthetic_ba(nodes, flags.get_int("edges", 2), rng);
    }
    if (kind == "er") {
      return topo::synthetic_er(nodes, flags.get_double("prob", 0.15), rng);
    }
    if (kind == "ring") return topo::ring(nodes);
    if (kind == "line") return topo::line(nodes);
    if (kind == "star") return topo::star(nodes - 1);
    throw std::runtime_error("unknown topology kind '" + kind + "'");
  }();
  const std::string out = flags.require_string("out");
  flags.reject_unused();
  topo::save_topology_file(out, t);
  std::printf("%s: %d nodes, %d directed links -> %s\n", t.name().c_str(),
              t.num_nodes(), t.num_links(), out.c_str());
  return 0;
}

int cmd_make_routing(const Flags& flags) {
  auto topology = resolve_topology(flags.require_string("topology"),
                                   flags.get_seed("seed", 1));
  const int k = flags.get_int("k", 1);
  Rng rng(flags.get_seed("seed", 1));
  const std::string out = flags.require_string("out");
  flags.reject_unused();
  const routing::RoutingScheme scheme =
      k <= 1 ? routing::shortest_path_routing(*topology)
             : routing::random_k_shortest_routing(*topology, k, rng);
  routing::save_routing_file(out, *topology, scheme);
  std::printf("routing for %s (k=%d): mean path length %.2f hops -> %s\n",
              topology->name().c_str(), k, scheme.mean_path_length(),
              out.c_str());
  return 0;
}

int cmd_make_traffic(const Flags& flags) {
  auto topology = resolve_topology(flags.require_string("topology"),
                                   flags.get_seed("seed", 1));
  routing::RoutingScheme scheme = routing::load_routing_file(
      flags.require_string("routing"), *topology);
  const std::string kind = flags.get_string("kind", "uniform");
  const double util = flags.get_double("util", 0.6);
  Rng rng(flags.get_seed("seed", 1));
  const std::string out = flags.require_string("out");
  flags.reject_unused();

  const int n = topology->num_nodes();
  traffic::TrafficMatrix tm = [&] {
    if (kind == "gravity") return traffic::gravity_traffic(n, 1.0e6, rng);
    if (kind == "hotspot") {
      return traffic::hotspot_traffic(n, std::max(1, n / 6), 100.0, 4.0, rng);
    }
    if (kind == "uniform") return traffic::uniform_traffic(n, 50.0, 150.0, rng);
    throw std::runtime_error("unknown traffic kind '" + kind + "'");
  }();
  traffic::scale_to_max_utilization(tm, *topology, scheme, util);
  traffic::save_traffic_csv_file(out, tm);
  std::printf("%s traffic, max link utilization %.2f, total %.1f bps -> %s\n",
              kind.c_str(), util, tm.total_rate_bps(), out.c_str());
  return 0;
}

int cmd_simulate(const Flags& flags) {
  Scenario sc = load_scenario(flags);
  sim::SimConfig cfg;
  cfg.model = traffic_model_from(flags);
  cfg.warmup_s = 1.0;
  cfg.horizon_s = sim::horizon_for_target_packets(
      sc.tm, cfg.model, cfg.warmup_s,
      flags.get_double("pkts-per-flow", 100.0));
  cfg.seed = flags.get_seed("seed", 1);
  const std::string out = flags.get_string("out", "");
  flags.reject_unused();

  const sim::SimResult res =
      sim::PacketSimulator(cfg).run(*sc.topology, sc.scheme, sc.tm);
  std::printf("simulated %.1fs of network time, %zu packets, %zu events\n",
              res.simulated_time_s, res.packets_created, res.total_events);
  std::printf("throughput %.0f events/s wall, peak queue %zu pkts, "
              "%zu delivered / %zu dropped / %zu in flight\n",
              res.events_per_wall_s, res.peak_queue_pkts,
              res.packets_delivered, res.packets_dropped,
              res.packets_in_flight);
  std::printf("path coverage (>=10 pkts): %.1f%%\n",
              100.0 * res.coverage(10));
  Welford delays;
  for (const sim::PathStats& ps : res.paths) {
    if (ps.delivered >= 10) delays.add(ps.mean_delay_s);
  }
  std::printf("mean per-path delay: %.3f ms (std %.3f ms across paths)\n",
              delays.mean() * 1e3, delays.stddev() * 1e3);
  if (!out.empty()) {
    std::ofstream csv(out);
    RN_CHECK(csv.good(), "cannot open " + out);
    csv << "src,dst,delivered,mean_delay_s,jitter_s,drops\n";
    for (int idx = 0; idx < sc.topology->num_pairs(); ++idx) {
      const auto [s, d] =
          topo::pair_from_index(idx, sc.topology->num_nodes());
      const sim::PathStats& ps = res.paths[static_cast<std::size_t>(idx)];
      csv << s << ',' << d << ',' << ps.delivered << ',' << ps.mean_delay_s
          << ',' << ps.jitter_s << ',' << ps.dropped << '\n';
    }
    std::printf("per-path results -> %s\n", out.c_str());
  }
  return 0;
}

namespace {

// "--shard I/N": 0-based shard index out of N processes.
std::pair<std::uint32_t, std::uint32_t> parse_shard_spec(
    const std::string& spec) {
  const std::size_t slash = spec.find('/');
  RN_CHECK(slash != std::string::npos && slash > 0 && slash + 1 < spec.size(),
           "--shard expects I/N (e.g. 2/4), got '" + spec + "'");
  unsigned long i = 0;
  unsigned long n = 0;
  try {
    i = std::stoul(spec.substr(0, slash));
    n = std::stoul(spec.substr(slash + 1));
  } catch (const std::exception&) {
    RN_CHECK(false, "--shard expects I/N (e.g. 2/4), got '" + spec + "'");
  }
  RN_CHECK(n >= 1 && n <= 0xffffffffull && i < n,
           "--shard index must satisfy 0 <= I < N");
  return {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(n)};
}

std::vector<std::string> split_comma_paths(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                   : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  RN_CHECK(!out.empty(), "--inputs expects a comma-separated file list");
  return out;
}

}  // namespace

int cmd_dataset(const std::string& sub, const Flags& flags) {
  if (sub == "gen") {
    // Writes the index range this shard owns; --count is the TOTAL corpus
    // size across all shards.
    auto topology = resolve_topology(flags.require_string("topology"),
                                     flags.get_seed("seed", 1));
    dataset::GeneratorConfig cfg;
    cfg.k_paths = flags.get_int("k", 3);
    cfg.min_util = flags.get_double("min-util", 0.3);
    cfg.max_util = flags.get_double("max-util", 0.8);
    cfg.target_pkts_per_flow = flags.get_double("pkts-per-flow", 100.0);
    cfg.model = traffic_model_from(flags);
    const std::int64_t total = flags.get_int64("count", 50);
    RN_CHECK(total >= 0, "negative sample count");
    const std::uint64_t seed = flags.get_seed("seed", 1);
    const auto [shard_index, shard_count] =
        parse_shard_spec(flags.get_string("shard", "0/1"));
    const std::string out = flags.require_string("out");
    flags.reject_unused();

    const std::uint64_t file_bytes = dataset::generate_shard(
        out, cfg, seed, topology, static_cast<std::uint64_t>(total),
        shard_index, shard_count,
        [](std::uint64_t i, std::uint64_t n) {
          if (i % 10 == 0 || i == n) {
            std::printf("  %llu/%llu\n",
                        static_cast<unsigned long long>(i),
                        static_cast<unsigned long long>(n));
            std::fflush(stdout);
          }
        });
    const std::uint64_t first = dataset::shard_first(
        static_cast<std::uint64_t>(total), shard_index, shard_count);
    const std::uint64_t last = dataset::shard_first(
        static_cast<std::uint64_t>(total), shard_index + 1, shard_count);
    std::printf("shard %u/%u: %llu samples (global [%llu, %llu)) on %s -> "
                "%s (%llu bytes)\n",
                shard_index, shard_count,
                static_cast<unsigned long long>(last - first),
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(last),
                topology->name().c_str(), out.c_str(),
                static_cast<unsigned long long>(file_bytes));
    return 0;
  }
  if (sub == "verify") {
    const std::vector<std::string> inputs =
        split_comma_paths(flags.require_string("inputs"));
    flags.reject_unused();
    const std::vector<dataset::ShardSummary> summaries =
        dataset::verify_shards(inputs);
    std::uint64_t total = 0;
    for (const dataset::ShardSummary& s : summaries) {
      std::printf("  ok %s: shard %u/%u, %llu samples [%llu, %llu), "
                  "%llu bytes\n",
                  s.path.c_str(), s.header.shard_index, s.header.shard_count,
                  static_cast<unsigned long long>(s.header.count),
                  static_cast<unsigned long long>(s.header.first_index),
                  static_cast<unsigned long long>(s.header.first_index +
                                                  s.header.count),
                  static_cast<unsigned long long>(s.file_bytes));
      total += s.header.count;
    }
    std::printf("verified %zu shard(s): %llu samples, seed %llu, every "
                "record CRC ok\n",
                summaries.size(), static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(
                    summaries.front().header.seed));
    return 0;
  }
  if (sub == "merge") {
    const std::vector<std::string> inputs =
        split_comma_paths(flags.require_string("inputs"));
    const std::string out = flags.require_string("out");
    flags.reject_unused();
    const std::uint64_t bytes = dataset::merge_shards(out, inputs);
    std::printf("merged %zu shard(s) -> %s (%llu bytes)\n", inputs.size(),
                out.c_str(), static_cast<unsigned long long>(bytes));
    return 0;
  }
  std::fprintf(stderr,
               "unknown dataset subcommand '%s' (expected gen|verify|merge)\n",
               sub.c_str());
  return 2;
}

int cmd_train(const Flags& flags) {
  // The training corpus streams from disk through the mmap-backed source,
  // so it never has to fit in RAM.
  dataset::StreamingDataset source(flags.require_string("dataset"));
  std::vector<dataset::Sample> eval_set;
  if (flags.has("eval")) {
    eval_set = dataset::load_shard(flags.require_string("eval"));
  }
  core::RouteNetConfig mcfg;
  mcfg.link_state_dim = flags.get_int("dim", 32);
  mcfg.path_state_dim = mcfg.link_state_dim;
  mcfg.iterations = flags.get_int("iterations", 8);
  mcfg.readout_hidden = 2 * mcfg.link_state_dim;
  mcfg.seed = flags.get_seed("seed", 42);
  core::TrainConfig tcfg;
  tcfg.epochs = flags.get_int("epochs", 25);
  tcfg.batch_size = flags.get_int("batch", 4);
  tcfg.learning_rate = static_cast<float>(flags.get_double("lr", 4e-3));
  tcfg.threads = flags.get_int("threads", 0);
  tcfg.verbose = true;
  tcfg.state_path = flags.get_string("ckpt-state", "");
  tcfg.checkpoint_every_n_batches = flags.get_int("ckpt-every", 0);
  tcfg.keep_checkpoints = flags.get_int("ckpt-keep", 3);
  tcfg.resume_from = flags.get_string("resume", "");
  tcfg.max_batches = flags.get_int("max-batches", 0);
  // Testing hook for the health watchdog (see TrainConfig).
  tcfg.inject_nan_at_batch = flags.get_int("inject-nan-at", 0);
  tcfg.handle_signals = true;
  const std::string out = flags.require_string("out");
  tcfg.checkpoint_path = eval_set.empty() ? "" : out;
  flags.reject_unused();

  core::RouteNet model(mcfg);
  std::printf("training on %llu samples [streamed] (%zu parameters)...\n",
              static_cast<unsigned long long>(source.size()),
              model.num_parameters());
  core::Trainer trainer(model, tcfg);
  const core::TrainReport report =
      trainer.fit(source, eval_set.empty() ? nullptr : &eval_set);
  if (report.interrupted) {
    if (tcfg.state_path.empty()) {
      std::printf("training interrupted; no --ckpt-state was set, so no "
                  "state was saved\n");
    } else {
      std::printf("training interrupted; resume with --resume %s\n",
                  tcfg.state_path.c_str());
    }
    return 0;
  }
  if (eval_set.empty()) {
    model.save(out);
  } else {
    std::printf("best eval MRE %.4f at epoch %d (checkpointed)\n",
                report.best_eval_mre, report.best_epoch);
  }
  std::printf("model -> %s\n", out.c_str());
  return 0;
}

int cmd_eval(const Flags& flags) {
  const core::RouteNet model =
      core::RouteNet::load(flags.require_string("model"));
  const std::vector<dataset::Sample> samples =
      dataset::load_shard(flags.require_string("dataset"));
  flags.reject_unused();
  const eval::PairedSeries series = eval::collect_delay_pairs(
      samples,
      [&](const dataset::Sample& s) { return model.predict(s).delay_s; });
  const eval::RegressionStats stats =
      eval::regression_stats(series.truth, series.pred);
  std::printf("samples: %zu   valid paths: %zu\n", samples.size(),
              series.truth.size());
  if (stats.skipped_nonpositive > 0) {
    std::printf("skipped %zu paths with non-positive true delay\n",
                stats.skipped_nonpositive);
  }
  std::printf("delay:  MRE %.4f   median RE %.4f   Pearson r %.4f   "
              "R^2 %.4f\n",
              stats.mre, stats.median_re, stats.pearson_r, stats.r2);
  std::printf("jitter: MRE %.4f\n",
              core::Trainer::evaluate_jitter_mre(model, samples));
  return 0;
}

int cmd_predict(const Flags& flags) {
  const core::RouteNet model =
      core::RouteNet::load(flags.require_string("model"));
  Scenario sc = load_scenario(flags);
  const int top_n = flags.get_int("top", 10);
  const std::string out = flags.get_string("out", "");
  flags.reject_unused();

  const dataset::Sample sample = dataset::make_inference_sample(
      sc.topology, std::move(sc.scheme), std::move(sc.tm));
  const int pairs = sc.topology->num_pairs();

  const core::RouteNet::Prediction pred = model.predict(sample);
  const std::vector<eval::RankedPath> top =
      eval::top_n_paths(sample, pred.delay_s, top_n);
  std::printf("Top-%d predicted delays on %s:\n", top_n,
              sc.topology->name().c_str());
  std::printf("%4s %10s %5s %15s %15s\n", "rank", "path", "hops",
              "delay (ms)", "jitter (ms)");
  for (std::size_t i = 0; i < top.size(); ++i) {
    const int idx = topo::pair_index(top[i].src, top[i].dst,
                                     sc.topology->num_nodes());
    std::printf("%4zu %4d->%-5d %5d %15.3f %15.3f\n", i + 1, top[i].src,
                top[i].dst, top[i].hops, top[i].predicted_delay_s * 1e3,
                pred.jitter_s[static_cast<std::size_t>(idx)] * 1e3);
  }
  if (!out.empty()) {
    std::ofstream csv(out);
    RN_CHECK(csv.good(), "cannot open " + out);
    csv << "src,dst,predicted_delay_s,predicted_jitter_s\n";
    for (int idx = 0; idx < pairs; ++idx) {
      const auto [s, d] =
          topo::pair_from_index(idx, sc.topology->num_nodes());
      csv << s << ',' << d << ',' << pred.delay_s[static_cast<std::size_t>(idx)]
          << ',' << pred.jitter_s[static_cast<std::size_t>(idx)] << '\n';
    }
    std::printf("all %d pairs -> %s\n", pairs, out.c_str());
  }
  return 0;
}

namespace {

// `serve --listen ADDR`: the network frontend. Loads one or more models
// into a hot-reloadable registry, optionally attaches the p99-adaptive
// batching policy (--slo-ms), and serves RNP/1 until a remote shutdown
// request (routenet query --shutdown) arrives.
int cmd_serve_listen(const Flags& flags) {
  const std::string listen = flags.require_string("listen");
  serve::ServerConfig scfg;
  scfg.max_batch = flags.get_int("batch-max", 8);
  scfg.batch_deadline_s = flags.get_double("batch-deadline-ms", 5.0) / 1e3;
  scfg.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue-cap", 256));

  serve::ModelRegistry registry(scfg);
  if (flags.has("model")) {
    registry.load("default", flags.require_string("model"));
  }
  if (flags.has("models")) {
    // --models name=path[,name=path...]
    const std::string spec = flags.require_string("models");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string item = spec.substr(pos, comma - pos);
      const std::size_t eq = item.find('=');
      RN_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < item.size(),
               "--models entries must be name=path, got '" + item + "'");
      registry.load(item.substr(0, eq), item.substr(eq + 1));
      pos = comma + 1;
    }
  }
  RN_CHECK(registry.size() > 0, "serve --listen needs --model or --models");

  std::unique_ptr<serve::AdaptiveBatchPolicy> policy;
  if (flags.has("slo-ms")) {
    serve::PolicyConfig pcfg;
    pcfg.slo_p99_s = flags.get_double("slo-ms", 20.0) / 1e3;
    pcfg.min_deadline_s = flags.get_double("deadline-min-ms", 0.2) / 1e3;
    pcfg.max_deadline_s = flags.get_double("deadline-max-ms", 100.0) / 1e3;
    pcfg.interval_s = flags.get_double("policy-interval-ms", 100.0) / 1e3;
    pcfg.initial_deadline_s = std::min(
        pcfg.max_deadline_s,
        std::max(pcfg.min_deadline_s, scfg.batch_deadline_s));
    policy = std::make_unique<serve::AdaptiveBatchPolicy>(
        pcfg,
        [] {
          const obs::WindowedHistogram::Stats w =
              obs::Registry::global().windowed("serve.latency_s").stats();
          return serve::AdaptiveBatchPolicy::WindowSample{w.count, w.p99};
        },
        [&registry](double deadline_s) {
          registry.set_batch_deadline(deadline_s);
        });
  }

  serve::NetServerConfig ncfg;
  ncfg.listen = listen;
  ncfg.read_timeout_s = flags.get_double("read-timeout-s", 30.0);
  const std::string address_file = flags.get_string("address-file", "");
  flags.reject_unused();

  serve::NetServer server(registry, ncfg, policy.get());
  server.start();
  std::printf("listening on %s (%zu model%s, batch-max %d, deadline "
              "%.1fms, queue-cap %zu%s)\n",
              server.address().c_str(), registry.size(),
              registry.size() == 1 ? "" : "s", scfg.max_batch,
              registry.batch_deadline_s() * 1e3, scfg.queue_capacity,
              policy ? ", adaptive" : "");
  std::fflush(stdout);
  if (!address_file.empty()) {
    // Written after a successful bind: pollers learn the ephemeral port by
    // watching for this file.
    std::ofstream f(address_file);
    RN_CHECK(f.good(), "cannot open " + address_file);
    f << server.address() << '\n';
  }

  server.wait();
  server.stop();
  const serve::NetStats ns = server.stats();
  std::printf("server drained: %llu connections, %llu requests, "
              "%llu responses, %llu errors (%llu rejected, %llu timeouts)\n",
              static_cast<unsigned long long>(ns.connections),
              static_cast<unsigned long long>(ns.requests),
              static_cast<unsigned long long>(ns.responses),
              static_cast<unsigned long long>(ns.errors),
              static_cast<unsigned long long>(ns.rejected),
              static_cast<unsigned long long>(ns.timeouts));
  if (obs::EventSink::global().enabled()) {
    obs::Event ev("serve.net.run");
    ev.f("address", server.address())
        .f("models", registry.size())
        .f("connections", ns.connections)
        .f("requests", ns.requests)
        .f("responses", ns.responses)
        .f("errors", ns.errors)
        .f("rejected", ns.rejected)
        .f("timeouts", ns.timeouts)
        .f("bytes_rx", ns.bytes_rx)
        .f("bytes_tx", ns.bytes_tx)
        .f("deadline_final_s", registry.batch_deadline_s());
    obs::EventSink::global().emit(ev);
  }
  return 0;
}

}  // namespace

int cmd_serve(const Flags& flags) {
  if (flags.has("listen")) return cmd_serve_listen(flags);
  const core::RouteNet model =
      core::RouteNet::load(flags.require_string("model"));
  Scenario sc = load_scenario(flags);
  const int requests = flags.get_int("requests", 64);
  const int clients = flags.get_int("clients", 4);
  serve::ServerConfig scfg;
  scfg.max_batch = flags.get_int("batch-max", 8);
  scfg.batch_deadline_s = flags.get_double("batch-deadline-ms", 5.0) / 1e3;
  scfg.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue-cap", 256));
  const bool force_overflow = flags.get_bool("force-overflow");
  const std::uint64_t seed = flags.get_seed("seed", 1);
  flags.reject_unused();
  RN_CHECK(requests >= 1, "need at least one request");
  RN_CHECK(clients >= 1, "need at least one client");

  // Distinct request scenarios: the base matrix scaled by a per-request
  // factor, so batches merge genuinely different samples.
  std::vector<dataset::Sample> pool;
  pool.reserve(static_cast<std::size_t>(requests));
  Rng rng(derive_seed(seed, /*stream=*/0x5e7e, 0));
  for (int i = 0; i < requests; ++i) {
    traffic::TrafficMatrix tm = sc.tm;
    tm.scale(rng.uniform(0.5, 1.5));
    pool.push_back(
        dataset::make_inference_sample(sc.topology, sc.scheme, std::move(tm)));
  }

  serve::InferenceServer server(model, scfg);
  std::printf("serving %d requests on %s: clients=%d workers=%d "
              "batch-max=%d deadline=%.1fms queue-cap=%zu\n",
              requests, sc.topology->name().c_str(), clients,
              server.num_workers(), scfg.max_batch,
              scfg.batch_deadline_s * 1e3, scfg.queue_capacity);

  std::atomic<int> next{0};
  std::atomic<std::uint64_t> ok{0}, rejected{0}, failed{0};
  obs::Stopwatch wall;
  if (force_overflow) {
    // Deterministic backpressure demo: with workers paused the queue fills
    // to exactly its capacity, every further submit rejects, and resuming
    // drains the queued requests — so `--queue-cap Q` with N requests
    // always reports exactly N - Q rejects, no timing involved.
    server.set_paused_for_test(true);
    std::vector<std::future<core::RouteNet::Prediction>> inflight;
    inflight.reserve(static_cast<std::size_t>(requests));
    for (const dataset::Sample& sample : pool) {
      try {
        inflight.push_back(server.submit(sample));
      } catch (const serve::RejectedError&) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }
    server.set_paused_for_test(false);
    for (std::future<core::RouteNet::Prediction>& f : inflight) {
      try {
        f.get();
        ok.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception&) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } else {
    // Closed-loop load generator: each client submits, waits for the
    // result, moves to the next request; rejects (backpressure) are
    // counted, not retried.
    std::vector<std::thread> load;
    load.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      load.emplace_back([&] {
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= requests) return;
          try {
            server.submit(pool[static_cast<std::size_t>(i)]).get();
            ok.fetch_add(1, std::memory_order_relaxed);
          } catch (const serve::RejectedError&) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::exception&) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : load) t.join();
  }
  const double wall_s = wall.elapsed_s();
  server.stop();

  const serve::ServerStats stats = server.stats();
  const obs::Histogram& lat =
      obs::Registry::global().histogram("serve.latency_s");
  const obs::Histogram& bs =
      obs::Registry::global().histogram("serve.batch_size");
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(ok.load()) / wall_s : 0.0;
  std::printf("served %llu (rejected %llu, failed %llu) in %.3f s — "
              "%.1f req/s\n",
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(failed.load()), wall_s,
              throughput);
  std::printf("batches %llu (mean size %.2f)   latency p50 %.3f ms  "
              "p99 %.3f ms\n",
              static_cast<unsigned long long>(stats.batches), bs.mean(),
              lat.quantile(0.5) * 1e3, lat.quantile(0.99) * 1e3);
  const obs::WindowedHistogram::Stats window =
      obs::Registry::global().windowed("serve.latency_s").stats();
  std::printf("live window (%.0fs): %llu requests  latency p50 %.3f ms  "
              "p99 %.3f ms\n",
              obs::Registry::global().windowed("serve.latency_s").window_s(),
              static_cast<unsigned long long>(window.count),
              window.p50 * 1e3, window.p99 * 1e3);
  if (obs::EventSink::global().enabled()) {
    obs::Event ev("serve.run");
    ev.f("requests", requests)
        .f("clients", clients)
        .f("workers", server.num_workers())
        .f("batch_max", scfg.max_batch)
        .f("served", stats.served)
        .f("rejected", stats.rejected)
        .f("batches", stats.batches)
        .f("wall_s", wall_s)
        .f("throughput_rps", throughput)
        .f("latency_p50_s", lat.quantile(0.5))
        .f("latency_p99_s", lat.quantile(0.99))
        .f("latency_window_p99_s", window.p99)
        .f("latency_window_count", window.count);
    obs::EventSink::global().emit(ev);
  }
  return 0;
}

int cmd_query(const Flags& flags) {
  const std::string connect = flags.require_string("connect");
  const std::string model = flags.get_string("model-name", "default");
  if (flags.get_bool("shutdown")) {
    flags.reject_unused();
    serve::NetClient client(connect);
    client.shutdown_server();
    std::printf("server at %s acknowledged shutdown\n", connect.c_str());
    return 0;
  }
  if (flags.get_bool("reload")) {
    flags.reject_unused();
    serve::NetClient client(connect);
    const serve::wire::ReloadResponse r = client.reload(model);
    std::printf("reloaded '%s' -> version %llu\n", r.model.c_str(),
                static_cast<unsigned long long>(r.version));
    return 0;
  }

  Scenario sc = load_scenario(flags);
  const int requests = flags.get_int("requests", 1);
  const int clients = flags.get_int("clients", 1);
  const int top_n = flags.get_int("top", 5);
  const std::uint64_t seed = flags.get_seed("seed", 1);
  flags.reject_unused();
  RN_CHECK(requests >= 1, "need at least one request");
  RN_CHECK(clients >= 1, "need at least one client");

  if (requests == 1) {
    // One remote predict, reported like a local `predict --top N`, plus
    // the request id (grep it in the client and server trace files to
    // merge one end-to-end timeline) and the server's time attribution.
    serve::NetClient client(connect);
    const serve::NetClient::PredictOutcome outcome = client.predict_traced(
        model, dataset::make_inference_sample(sc.topology, sc.scheme,
                                              std::move(sc.tm)));
    const core::RouteNet::Prediction& pred = outcome.prediction;
    std::printf("request id %llu  rtt %.3f ms",
                static_cast<unsigned long long>(outcome.request_id),
                outcome.rtt_s * 1e3);
    if (outcome.server_traced) {
      std::printf("  (server %.3f ms, of which queue wait %.3f ms)",
                  outcome.server_s * 1e3, outcome.queue_wait_s * 1e3);
    }
    std::printf("\n");
    const int pairs = static_cast<int>(pred.delay_s.size());
    std::vector<int> order(static_cast<std::size_t>(pairs));
    for (int i = 0; i < pairs; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return pred.delay_s[static_cast<std::size_t>(a)] >
             pred.delay_s[static_cast<std::size_t>(b)];
    });
    std::printf("%d pairs from %s via %s\n", pairs,
                sc.topology->name().c_str(), connect.c_str());
    std::printf("%4s %10s %15s %15s\n", "rank", "path", "delay (ms)",
                "jitter (ms)");
    const int show = std::min(top_n, pairs);
    for (int i = 0; i < show; ++i) {
      const int idx = order[static_cast<std::size_t>(i)];
      const auto [s, d] = topo::pair_from_index(idx, sc.topology->num_nodes());
      std::printf("%4d %4d->%-5d %15.3f %15.3f\n", i + 1, s, d,
                  pred.delay_s[static_cast<std::size_t>(idx)] * 1e3,
                  pred.jitter_s[static_cast<std::size_t>(idx)] * 1e3);
    }
    return 0;
  }

  // Remote load generator: the socket twin of `serve`'s in-process loop.
  // Each client owns one connection; requests are the base matrix scaled
  // per-request so batches merge genuinely different samples.
  std::vector<dataset::Sample> pool;
  pool.reserve(static_cast<std::size_t>(requests));
  Rng rng(derive_seed(seed, /*stream=*/0x5e7e, 0));
  for (int i = 0; i < requests; ++i) {
    traffic::TrafficMatrix tm = sc.tm;
    tm.scale(rng.uniform(0.5, 1.5));
    pool.push_back(
        dataset::make_inference_sample(sc.topology, sc.scheme, std::move(tm)));
  }

  std::atomic<int> next{0};
  std::atomic<std::uint64_t> ok{0}, rejected{0}, failed{0};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  // Server-attributed queue wait, summed per client: rtt_sum vs
  // queue_wait_sum answers "how much of what the client felt was the
  // server's batching queue" without a second measurement pass.
  std::vector<double> queue_wait_sums(static_cast<std::size_t>(clients),
                                      0.0);
  obs::Stopwatch wall;
  std::vector<std::thread> load;
  load.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    load.emplace_back([&, c] {
      serve::NetClient client(connect);
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests) return;
        try {
          const serve::NetClient::PredictOutcome outcome =
              client.predict_traced(model,
                                    pool[static_cast<std::size_t>(i)]);
          latencies[static_cast<std::size_t>(c)].push_back(outcome.rtt_s);
          queue_wait_sums[static_cast<std::size_t>(c)] +=
              outcome.queue_wait_s;
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const serve::RemoteError& e) {
          if (e.code() == serve::wire::ErrorCode::kRejected) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : load) t.join();
  const double wall_s = wall.elapsed_s();

  std::vector<double> all;
  double rtt_sum = 0.0;
  for (const std::vector<double>& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
    for (const double rtt : per_client) rtt_sum += rtt;
  }
  double queue_wait_sum = 0.0;
  for (const double qw : queue_wait_sums) queue_wait_sum += qw;
  const double queue_wait_share =
      rtt_sum > 0.0 ? queue_wait_sum / rtt_sum : 0.0;
  std::sort(all.begin(), all.end());
  const auto quantile = [&](double q) {
    if (all.empty()) return 0.0;
    const std::size_t idx = std::min(
        all.size() - 1, static_cast<std::size_t>(q * (all.size() - 1) + 0.5));
    return all[idx];
  };
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(ok.load()) / wall_s : 0.0;
  std::printf("sent %d requests over %d connection%s to %s\n", requests,
              clients, clients == 1 ? "" : "s", connect.c_str());
  std::printf("ok %llu (rejected %llu, failed %llu) in %.3f s — "
              "%.1f req/s   rtt p50 %.3f ms  p99 %.3f ms\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(failed.load()), wall_s,
              throughput, quantile(0.5) * 1e3, quantile(0.99) * 1e3);
  std::printf("server queue wait: %.1f%% of client rtt "
              "(%.3f s of %.3f s total)\n",
              100.0 * queue_wait_share, queue_wait_sum, rtt_sum);
  if (obs::EventSink::global().enabled()) {
    obs::Event ev("serve.client.run");
    ev.f("address", connect)
        .f("requests", requests)
        .f("clients", clients)
        .f("ok", ok.load())
        .f("rejected", rejected.load())
        .f("failed", failed.load())
        .f("wall_s", wall_s)
        .f("throughput_rps", throughput)
        .f("rtt_p50_s", quantile(0.5))
        .f("rtt_p99_s", quantile(0.99))
        .f("queue_wait_s", queue_wait_sum)
        .f("queue_wait_share", queue_wait_share);
    obs::EventSink::global().emit(ev);
  }
  return failed.load() == 0 ? 0 : 1;
}

int cmd_whatif(const Flags& flags) {
  const core::RouteNet model =
      core::RouteNet::load(flags.require_string("model"));
  Scenario sc = load_scenario(flags);
  const int upgrades = flags.get_int("upgrades", 5);
  const double factor = flags.get_double("factor", 2.5);
  const int failures = flags.get_int("failures", 5);
  flags.reject_unused();

  planning::Scenario scenario{sc.topology, std::move(sc.scheme),
                              std::move(sc.tm)};
  const planning::PredictDelaysFn predictor =
      [&model](const planning::Scenario& s) {
        return model.predict(planning::scenario_to_sample(s)).delay_s;
      };
  const planning::WhatIfEngine engine(scenario, predictor);
  std::printf("baseline mean predicted delay: %.3f ms\n",
              engine.baseline_objective() * 1e3);

  if (upgrades > 0) {
    std::printf("\ntop upgrades (x%.2g capacity):\n", factor);
    std::printf("%10s %8s %18s %9s\n", "link", "util", "pred delay (ms)",
                "gain");
    for (const planning::UpgradeOption& opt :
         engine.rank_upgrades(upgrades, factor)) {
      std::printf("%4d<->%-4d %8.2f %18.3f %+8.1f%%\n", opt.src, opt.dst,
                  opt.utilization, opt.objective * 1e3,
                  100.0 * opt.improvement);
    }
  }
  if (failures > 0) {
    std::printf("\nworst single-cable failures (re-routed):\n");
    std::printf("(affected pairs are re-routed on shortest paths; use a "
                "--k 1 baseline routing for policy-consistent numbers)\n");
    std::printf("%10s %18s %13s\n", "link", "pred delay (ms)", "impact");
    for (const planning::FailureImpact& impact :
         engine.rank_failures(failures)) {
      if (impact.disconnects) {
        std::printf("%4d<->%-4d %18s %13s\n", impact.src, impact.dst, "n/a",
                    "partitions!");
      } else {
        std::printf("%4d<->%-4d %18.3f %+12.1f%%\n", impact.src, impact.dst,
                    impact.objective * 1e3, 100.0 * impact.degradation);
      }
    }
  }
  return 0;
}

int cmd_info(const Flags& flags) {
  if (flags.has("topology")) {
    auto t = resolve_topology(flags.require_string("topology"), 1);
    flags.reject_unused();
    std::printf("topology %s: %d nodes, %d directed links, capacities "
                "[%.0f, %.0f] bps, strongly connected: %s\n",
                t->name().c_str(), t->num_nodes(), t->num_links(),
                t->min_capacity_bps(), t->max_capacity_bps(),
                t->is_strongly_connected() ? "yes" : "no");
    return 0;
  }
  if (flags.has("dataset")) {
    const std::string path = flags.require_string("dataset");
    flags.reject_unused();
    // Stream the stats: one decoded sample resident at a time, so info
    // works on corpora that don't fit in RAM.
    dataset::ShardReader reader(path);
    const dataset::ShardHeader& h = reader.header();
    RN_CHECK(reader.size() > 0, "dataset is empty");
    Welford delays;
    std::string topo_name;
    int topo_nodes = 0;
    for (std::uint64_t i = 0; i < reader.size(); ++i) {
      const dataset::Sample s = reader.sample(i);
      if (i == 0) {
        topo_name = s.topology->name();
        topo_nodes = s.topology->num_nodes();
      }
      for (int idx = 0; idx < s.num_pairs(); ++idx) {
        if (s.valid[static_cast<std::size_t>(idx)]) {
          delays.add(s.delay_s[static_cast<std::size_t>(idx)]);
        }
      }
    }
    std::printf(
        "RNDS1 shard %u/%u: %llu samples (global [%llu, %llu)) on %s "
        "(%d nodes), seed %llu, %llu bytes\n",
        h.shard_index, h.shard_count,
        static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.first_index),
        static_cast<unsigned long long>(h.first_index + h.count),
        topo_name.c_str(), topo_nodes,
        static_cast<unsigned long long>(h.seed),
        static_cast<unsigned long long>(reader.file_bytes()));
    std::printf("%zu valid paths, mean delay %.3f ms\n", delays.count(),
                delays.mean() * 1e3);
    return 0;
  }
  if (flags.has("model")) {
    const core::RouteNet model =
        core::RouteNet::load(flags.require_string("model"));
    flags.reject_unused();
    const core::RouteNetConfig& cfg = model.config();
    std::printf("RouteNet model: %d-dim link / %d-dim path states, T=%d "
                "iterations, readout %d, %zu parameters\n",
                cfg.link_state_dim, cfg.path_state_dim, cfg.iterations,
                cfg.readout_hidden, model.num_parameters());
    const dataset::Normalizer& n = model.normalizer();
    std::printf("normalizer: capacity x%.3g, traffic x%.3g, log-delay "
                "mean %.3f std %.3f\n",
                n.capacity_scale, n.traffic_scale, n.log_delay_mean,
                n.log_delay_std);
    return 0;
  }
  std::printf("info: pass one of --topology, --dataset, --model\n");
  return 2;
}

namespace {

// `obs top ADDR [--every-s N] [--count N]`: live view over the kStats
// scrape. Each refresh opens a fresh connection (so a crashed scrape never
// wedges the view), renders the server's windows/gauges/counters, and
// shows counter deltas against the previous scrape. Rows are one
// `name value [+delta]` per line so shell tests can grep them.
int cmd_obs_top(const std::vector<std::string>& args) {
  const std::string address = args[0];
  double every_s = 2.0;
  long count = 0;  // 0 = until interrupted
  for (std::size_t i = 1; i < args.size(); i += 2) {
    if (args[i] == "--every-s" && i + 1 < args.size()) {
      every_s = std::stod(args[i + 1]);
    } else if (args[i] == "--count" && i + 1 < args.size()) {
      count = std::stol(args[i + 1]);
    } else {
      std::fprintf(stderr,
                   "error: unknown obs top option '%s' (want --every-s N "
                   "or --count N)\n",
                   args[i].c_str());
      return 2;
    }
  }
  RN_CHECK(every_s > 0.0, "--every-s must be positive");

  const bool tty = ::isatty(STDOUT_FILENO) == 1;
  std::map<std::string, std::uint64_t> prev_counters;
  for (long scrape = 1; count == 0 || scrape <= count; ++scrape) {
    serve::wire::StatsSnapshot snap;
    try {
      serve::NetClient client(address);
      snap = client.stats();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: scrape of %s failed: %s\n",
                   address.c_str(), e.what());
      return 1;
    }
    if (tty && scrape > 1) std::fputs("\033[H\033[2J", stdout);
    std::printf("obs top — %s  scrape %ld  server clock %.1fs\n",
                address.c_str(), scrape, snap.server_time_s);
    std::printf("trace.dropped %llu  trace.sampled_out %llu\n",
                static_cast<unsigned long long>(snap.trace_dropped),
                static_cast<unsigned long long>(snap.trace_sampled_out));
    if (!snap.models.empty()) {
      std::printf("models:\n");
      for (const auto& m : snap.models) {
        std::printf("  %s v%llu  params %llu\n", m.name.c_str(),
                    static_cast<unsigned long long>(m.version),
                    static_cast<unsigned long long>(m.parameters));
      }
    }
    if (!snap.windows.empty()) {
      std::printf("windows:\n");
      for (const auto& w : snap.windows) {
        std::printf("  %s  window %.0fs  n %llu  p50 %.6f  p95 %.6f  "
                    "p99 %.6f\n",
                    w.name.c_str(), w.window_s,
                    static_cast<unsigned long long>(w.count), w.p50, w.p95,
                    w.p99);
        // The slowest exemplar is the request to chase: grep its rid in
        // the trace files for the full span timeline.
        const serve::wire::StatsSnapshot::ExemplarEntry* slowest = nullptr;
        for (const auto& e : w.exemplars) {
          if (slowest == nullptr || e.value > slowest->value) slowest = &e;
        }
        if (slowest != nullptr) {
          std::printf("    exemplar rid %llu  value %.6f  bucket %u\n",
                      static_cast<unsigned long long>(slowest->request_id),
                      slowest->value,
                      static_cast<unsigned>(slowest->bucket));
        }
      }
    }
    if (!snap.gauges.empty()) {
      std::printf("gauges:\n");
      for (const auto& g : snap.gauges) {
        std::printf("  %s %.6g\n", g.name.c_str(), g.value);
      }
    }
    if (!snap.histograms.empty()) {
      std::printf("histograms:\n");
      for (const auto& h : snap.histograms) {
        std::printf("  %s  n %llu  mean %.6g  p50 %.6g  p99 %.6g  "
                    "max %.6g\n",
                    h.name.c_str(),
                    static_cast<unsigned long long>(h.count), h.mean, h.p50,
                    h.p99, h.max);
      }
    }
    if (!snap.counters.empty()) {
      std::printf("counters:\n");
      for (const auto& c : snap.counters) {
        const auto it = prev_counters.find(c.name);
        if (it != prev_counters.end()) {
          std::printf("  %s %llu +%llu\n", c.name.c_str(),
                      static_cast<unsigned long long>(c.value),
                      static_cast<unsigned long long>(
                          c.value >= it->second ? c.value - it->second : 0));
        } else {
          std::printf("  %s %llu\n", c.name.c_str(),
                      static_cast<unsigned long long>(c.value));
        }
        prev_counters[c.name] = c.value;
      }
    }
    std::fflush(stdout);
    if (count == 0 || scrape < count) {
      std::this_thread::sleep_for(std::chrono::duration<double>(every_s));
    }
  }
  return 0;
}

}  // namespace

int cmd_obs(const std::vector<std::string>& args) {
  // Both summarizers throw on a missing or malformed file; a bad path is
  // an expected operator mistake, so report one line and a nonzero exit
  // rather than an exception trace.
  try {
    if (args.size() == 2 && args[0] == "summarize") {
      std::fputs(obs::summarize_jsonl_file(args[1]).c_str(), stdout);
      return 0;
    }
    if ((args.size() == 2 || args.size() == 3) && args[0] == "trace") {
      int top_n = 12;
      if (args.size() == 3) {
        try {
          top_n = std::stoi(args[2]);
        } catch (const std::exception&) {
          std::fprintf(stderr, "error: top_n must be an integer, got '%s'\n",
                       args[2].c_str());
          return 1;
        }
      }
      std::fputs(obs::summarize_trace_file(args[1], top_n).c_str(), stdout);
      return 0;
    }
    if (args.size() >= 2 && args[0] == "top") {
      return cmd_obs_top(
          std::vector<std::string>(args.begin() + 1, args.end()));
    }
    if (args.size() >= 3 && args[0] == "diff") {
      obs::DiffOptions opts;
      bool usage_error = false;
      for (std::size_t i = 3; i < args.size(); i += 2) {
        if (args[i] == "--threshold" && i + 1 < args.size()) {
          try {
            opts.threshold_pct = std::stod(args[i + 1]);
          } catch (const std::exception&) {
            std::fprintf(stderr,
                         "error: --threshold must be a number, got '%s'\n",
                         args[i + 1].c_str());
            return 1;
          }
          if (opts.threshold_pct < 0.0) {
            std::fprintf(stderr, "error: --threshold must be >= 0\n");
            return 1;
          }
        } else {
          usage_error = true;
          break;
        }
      }
      if (!usage_error) {
        const obs::DiffReport report =
            obs::diff_bench_files(args[1], args[2], opts);
        std::fputs(
            report.format(args[1], args[2], opts.threshold_pct).c_str(),
            stdout);
        // The gate: regressions fail the invocation (CI-friendly), pure
        // improvements and neutral drift do not.
        return report.regressions > 0 ? 1 : 0;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf(
      "usage: routenet obs summarize <metrics.jsonl>\n"
      "       routenet obs trace <trace.json> [top_n]\n"
      "       routenet obs diff <baseline.json> <candidate.json> "
      "[--threshold pct]\n"
      "       routenet obs top <address> [--every-s N] [--count N]\n");
  return 2;
}

}  // namespace rn::cli
