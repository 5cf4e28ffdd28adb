#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"

namespace perfbench {

namespace {

double ms(double s) { return s * 1e3; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

rn::core::RouteNetConfig model_config() {
  rn::core::RouteNetConfig cfg;
  cfg.link_state_dim = 32;
  cfg.path_state_dim = 32;
  cfg.iterations = 8;
  cfg.readout_hidden = 64;
  cfg.seed = 7;
  return cfg;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

TracedSegment::TracedSegment() {
  rn::obs::Tracer::global().collect();  // drop anything recorded earlier
  rn::obs::Registry::global().reset();
  rn::obs::Tracer::global().enable();
}

std::vector<rn::obs::TraceRecord> TracedSegment::collect() {
  std::vector<rn::obs::TraceRecord> fresh = rn::obs::Tracer::global().collect();
  spans_.insert(spans_.end(), fresh.begin(), fresh.end());
  return fresh;
}

std::vector<SelfTime> TracedSegment::finish(const std::string& trace_path) {
  collect();
  rn::obs::Tracer& tracer = rn::obs::Tracer::global();
  tracer.disable();
  rn::obs::Tracer::write_chrome_trace(trace_path, spans_, false,
                                      tracer.dropped(), tracer.sampled_out());
  return self_times(spans_);
}

std::vector<double> span_self_s(
    const std::vector<rn::obs::TraceRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::vector<double> out;
  out.reserve(spans.size());
  std::vector<std::pair<double, double>> cover;
  for (const rn::obs::TraceRecord& span : spans) {
    const double lo = span.start_s;
    const double hi = span.start_s + span.dur_s;
    cover.clear();
    if (auto it = children.find(span.id); it != children.end()) {
      for (std::size_t c : it->second) {
        const double a = std::max(lo, spans[c].start_s);
        const double b = std::min(hi, spans[c].start_s + spans[c].dur_s);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    // Children may run concurrently on other threads: merge their
    // intervals so overlapping work is subtracted once.
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double end = lo;
    for (const auto& [a, b] : cover) {
      if (b <= end) continue;
      covered += b - std::max(a, end);
      end = b;
    }
    out.push_back(std::max(0.0, span.dur_s - covered));
  }
  return out;
}

std::vector<SelfTime> self_times(
    const std::vector<rn::obs::TraceRecord>& spans) {
  const std::vector<double> self = span_self_s(spans);
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& st = by_name[spans[i].name];
    st.name = spans[i].name;
    st.count += 1;
    st.total_ms += ms(spans[i].dur_s);
    st.self_ms += ms(self[i]);
  }
  std::vector<SelfTime> out;
  for (auto& [name, st] : by_name) out.push_back(st);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

std::map<std::string, double> layer_metrics(
    const LayerInputs& in, const std::vector<rn::obs::TraceRecord>& spans) {
  rn::obs::Registry& reg = rn::obs::Registry::global();
  auto p50_ms = [&reg](const char* name) {
    return ms(reg.histogram(name).quantile(0.5));
  };
  const std::vector<double> self = span_self_s(spans);
  // p50 of the duration (or self time) of every span called `name`.
  auto span_p50_ms = [&spans, &self](std::string_view name, bool self_only) {
    std::vector<double> v;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (name == spans[i].name) {
        v.push_back(self_only ? self[i] : spans[i].dur_s);
      }
    }
    return ms(percentile(std::move(v), 50));
  };
  auto count = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  auto sum = [&reg](const char* name) { return reg.histogram(name).sum(); };

  std::map<std::string, double> m;
  // The spans time the same intervals as trainer.batch.{forward,backward,
  // step}_s, without the histograms' bucket rounding.
  m["ag.forward_ms_p50"] = span_p50_ms("trainer.forward", false);
  m["ag.backward_ms_p50"] = span_p50_ms("trainer.backward", false);
  m["ag.optim_ms_p50"] = span_p50_ms("trainer.step", false);
  const double flops = count("ag.matmul.flops_total");
  m["ag.matmul_gflop_per_item"] = ratio(flops / 1e9, in.items);
  // Model forward (training and inference alike) plus training backward.
  m["ag.matmul_gflops"] =
      ratio(flops / 1e9,
            sum("routenet.forward_s") + sum("trainer.batch.backward_s"));
  m["ag.arena_fresh_allocs_per_item"] =
      ratio(static_cast<double>(in.fresh_allocs), in.items);
  // Matmuls whose rows were spread across pool threads. run_rows counts
  // ag.matmul.parallel_total before parallel_for, which runs inline on a
  // pool worker (every serve batcher); par.parallel_for_total counts only
  // loops that actually fanned out. matmul is the only parallel_for caller
  // in the workloads that run ag.
  m["ag.matmul_parallel_share"] =
      ratio(count("par.parallel_for_total"), count("ag.matmul.calls_total"));

  m["par.task_us_p50"] = reg.histogram("par.task_s").quantile(0.5) * 1e6;
  m["par.tasks_per_item"] = ratio(count("par.tasks_total"), in.items);
  m["par.busy_share"] =
      ratio(sum("par.task_s"), in.pool_width * in.wall_s);

  m["core.graph_batch_ms_p50"] = p50_ms("graph_batch.build_s");
  m["core.path_update_ms_p50"] = p50_ms("routenet.mp.path_update_s");
  m["core.link_update_ms_p50"] = p50_ms("routenet.mp.link_update_s");
  m["core.readout_ms_p50"] = span_p50_ms("routenet.readout", false);
  // A batch's time outside its forward, backward and optimizer children.
  m["core.trainer_other_ms_p50"] = span_p50_ms("trainer.batch", true);
  m["core.predict_ms_p50"] = 0.0;  // serve ladder rung

  m["serve.inproc_ms_p50"] = 0.0;  // serve ladder rung
  m["serve.queue_wait_ms_p50"] = 0.0;  // predict_traced echo, serve only
  m["serve.server_ms_p50"] = 0.0;
  m["serve.transport_ms_p50"] = 0.0;
  m["serve.batch_size_mean"] = reg.histogram("serve.batch_size").mean();
  m["serve.bytes_per_item"] =
      ratio(count("serve.net.bytes_rx_total") +
                count("serve.net.bytes_tx_total"),
            in.items);

  m["dataset.stream_mb_per_s"] = 0.0;  // timed pass, train only
  m["dataset.stream_bytes_per_item"] =
      ratio(count("dataset.stream.bytes_read_total"), in.items);
  m["dataset.sample_gen_ms_p50"] = span_p50_ms("dataset.sample", false);
  m["dataset.verify_mb_per_s"] = 0.0;  // timed verify, datagen only
  m["dataset.valid_path_share"] = 0.0;  // read back by train and datagen

  m["sim.run_ms_p50"] = span_p50_ms("sim.run", false);
  m["sim.events_per_s"] =
      ratio(count("sim.events_total"), sum("sim.run_wall_s"));
  m["sim.events_per_item"] = ratio(count("sim.events_total"), in.items);

  m["obs.trace_overhead_pct"] =
      in.untraced_item_ms_p50 > 0.0
          ? (in.item_ms_p50 / in.untraced_item_ms_p50 - 1.0) * 100.0
          : 0.0;
  return m;
}

}  // namespace perfbench
