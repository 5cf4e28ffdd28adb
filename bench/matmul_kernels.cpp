// Microbenchmark for the kernel layer.
//
// Three jobs:
//   1. The original single-threaded regression guard — no blocked kernel
//      may be >10% slower than its naive counterpart (median of 5; WARNING
//      always, exit 1 under RN_BENCH_ENFORCE).
//   2. A backend report: every compiled-in kernel backend
//      (scalar / avx2 / avx2fma) timed on the three matmul shapes at paper
//      sizes (state dims 16–64, Geant2-scale row counts), the gather /
//      scatter / segment_sum / scale_rows family, and the fused-vs-composed
//      GRU step — written to BENCH_kernels.json in the bench cache. Under
//      RN_BENCH_ENFORCE the report is also a gate: the avx2 backend must be
//      ≥1.5x scalar on each of the nn, tn and nt matmuls at paper shapes and
//      must produce bitwise-identical results.
//   3. The google-benchmark tables (skipped at RN_BENCH_SCALE=smoke, where
//      only the guard + report run so CI stays seconds-scale).
//
//   ./matmul_kernels [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "ag/kernels.h"
#include "ag/nn.h"
#include "ag/tape.h"
#include "ag/tensor.h"
#include "bench_common.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "par/thread_pool.h"
#include "util/rng.h"

namespace {

using rn::ag::Tensor;
namespace kern = rn::ag::kern;

// RouteNet batch shape: thousands of path/link rows, 32–64-wide states.
constexpr int kM = 4096, kK = 64, kN = 64;

Tensor random_tensor(int rows, int cols, std::uint64_t seed) {
  rn::Rng rng(seed);
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

const Tensor& A() {
  static const Tensor t = random_tensor(kM, kK, 1);
  return t;
}
const Tensor& B() {
  static const Tensor t = random_tensor(kK, kN, 2);
  return t;
}
const Tensor& At() {
  static const Tensor t = random_tensor(kK, kM, 3);
  return t;
}
const Tensor& Bt() {
  static const Tensor t = random_tensor(kN, kK, 4);
  return t;
}

void set_flops(benchmark::State& state) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * kM * kK * kN * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

// The pre-blocking kernels, kept verbatim as the baseline.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    float* crow = c.row(i);
    const float* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.row(p);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor naive_matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  const int k = a.rows(), n = b.cols();
  for (int p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int i = 0; i < c.rows(); ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.row(i);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor naive_matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  for (int i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (int j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
  return c;
}

void BM_naive_matmul(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul(A(), B()));
  set_flops(state);
}

void BM_naive_matmul_tn(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul_tn(At(), B()));
  set_flops(state);
}

void BM_naive_matmul_nt(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul_nt(A(), Bt()));
  set_flops(state);
}

// Blocked kernels pinned to one thread: compare directly against BM_naive_*
// — the regression bound is 1.10x.
void BM_blocked_matmul_1t(benchmark::State& state) {
  rn::par::set_global_threads(1);
  for (auto _ : state) benchmark::DoNotOptimize(rn::ag::matmul(A(), B()));
  set_flops(state);
}

void BM_blocked_matmul_tn_1t(benchmark::State& state) {
  rn::par::set_global_threads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rn::ag::matmul_tn(At(), B()));
  }
  set_flops(state);
}

void BM_blocked_matmul_nt_1t(benchmark::State& state) {
  rn::par::set_global_threads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rn::ag::matmul_nt(A(), Bt()));
  }
  set_flops(state);
}

// Blocked kernels on the full pool (RN_THREADS / hardware width).
void BM_blocked_matmul_nt_pool(benchmark::State& state) {
  rn::par::set_global_threads(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rn::ag::matmul_nt(A(), Bt()));
  }
  set_flops(state);
}

void BM_blocked_matmul_pool(benchmark::State& state) {
  rn::par::set_global_threads(0);
  for (auto _ : state) benchmark::DoNotOptimize(rn::ag::matmul(A(), B()));
  set_flops(state);
}

BENCHMARK(BM_naive_matmul);
BENCHMARK(BM_blocked_matmul_1t);
BENCHMARK(BM_blocked_matmul_pool);
BENCHMARK(BM_naive_matmul_tn);
BENCHMARK(BM_blocked_matmul_tn_1t);
BENCHMARK(BM_naive_matmul_nt);
BENCHMARK(BM_blocked_matmul_nt_1t);
BENCHMARK(BM_blocked_matmul_nt_pool);

// Median-of-reps seconds per call; the median shrugs off one-off scheduler
// blips that would make a guard on the mean flaky.
template <typename Fn>
double median_time_s(const Fn& fn, int reps = 5) {
  fn();  // warm caches (and the pool, for the blocked kernels)
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    rn::obs::Stopwatch watch;
    benchmark::DoNotOptimize(fn());
    times.push_back(watch.elapsed_s());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// The guarded expectation: every blocked kernel stays within 10% of its
// naive counterpart single-threaded. Returns the number of violations.
int check_blocked_vs_naive() {
  rn::par::set_global_threads(1);
  const bool enforce = std::getenv("RN_BENCH_ENFORCE") != nullptr;
  struct Row {
    const char* name;
    double naive_s;
    double blocked_s;
  };
  const Row rows[] = {
      {"nn", median_time_s([] { return naive_matmul(A(), B()); }),
       median_time_s([] { return rn::ag::matmul(A(), B()); })},
      {"tn", median_time_s([] { return naive_matmul_tn(At(), B()); }),
       median_time_s([] { return rn::ag::matmul_tn(At(), B()); })},
      {"nt", median_time_s([] { return naive_matmul_nt(A(), Bt()); }),
       median_time_s([] { return rn::ag::matmul_nt(A(), Bt()); })},
  };
  int violations = 0;
  for (const Row& row : rows) {
    const double ratio =
        row.blocked_s > 0.0 ? row.naive_s / row.blocked_s : 0.0;
    std::printf("guard %s: blocked/naive speedup %.2fx%s\n", row.name, ratio,
                ratio < 1.0 / 1.10 ? "  <-- REGRESSION (>1.10x slower)" : "");
    if (row.blocked_s > row.naive_s * 1.10) {
      ++violations;
      std::printf("WARNING: blocked %s kernel is %.0f%% slower than the "
                  "naive loop at 1 thread\n",
                  row.name, 100.0 * (row.blocked_s / row.naive_s - 1.0));
    }
  }
  if (violations > 0 && enforce) {
    std::printf("RN_BENCH_ENFORCE set: failing on kernel regression\n");
    return violations;
  }
  return 0;
}

// --- Backend report ---------------------------------------------------------

const char* scale_name() {
  static const std::string name = rn::bench::scale_from_env().name;
  return name.c_str();
}

bool smoke_scale() { return std::strcmp(scale_name(), "smoke") == 0; }

// Per-(backend, shape) matmul GFLOP/s at one thread, plus the index-op
// family and the fused GRU step. All timings single-threaded so the numbers
// isolate the kernel, not the chunking.
struct ShapeReport {
  int m, k, n;
  // [backend] -> gflops, in kernel Backend enum order; -1 = unavailable.
  double nn[3] = {-1, -1, -1};
  double tn[3] = {-1, -1, -1};
  double nt[3] = {-1, -1, -1};
  // Paired avx2/scalar medians, -1 = no avx2.
  double nn_speedup = -1;
  double tn_speedup = -1;
  double nt_speedup = -1;
};

constexpr kern::Backend kBackends[] = {
    kern::Backend::kScalar, kern::Backend::kAvx2, kern::Backend::kAvx2Fma};

bool tensors_bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// One GRU step on a fresh tape, fused or composed. Returns the new-hidden
// value so the two variants can also be compared bitwise.
Tensor gru_once(const rn::ag::GruCell& cell, const Tensor& x, const Tensor& h,
                bool fused) {
  rn::ag::set_fused_gru(fused);
  rn::ag::Tape tape;
  const rn::ag::ValueId out =
      cell.step(tape, tape.constant(x), tape.constant(h));
  return tape.value(out);
}

// avx2/scalar speed ratio of one kernel call, as the median of
// interleaved scalar/avx2 pairs — pairing cancels the clock drift and
// scheduler noise that two separately-timed sweeps pick up (this also runs
// under a parallel ctest). Nine pairs of five-call medians: a 512x16x16
// call takes tens of microseconds, so fewer samples let one busy stretch of
// a shared host set the median.
double paired_avx2_speedup(const std::function<Tensor()>& run) {
  std::vector<double> ratios;
  for (int rep = 0; rep < 9; ++rep) {
    kern::set_kernel_backend(kern::Backend::kScalar);
    const double ts = median_time_s(run, 5);
    kern::set_kernel_backend(kern::Backend::kAvx2);
    const double tv = median_time_s(run, 5);
    ratios.push_back(tv > 0.0 ? ts / tv : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

int run_backend_report() {
  const bool enforce = std::getenv("RN_BENCH_ENFORCE") != nullptr;
  rn::par::set_global_threads(1);
  const kern::Backend saved_backend = kern::active_backend();
  const bool fused_saved = rn::ag::fused_gru_enabled();
  int violations = 0;

  // Geant2-scale row count (every path-hop row of a merged batch) over the
  // paper's state-dim range; smoke shrinks rows, not shapes.
  const int rows = smoke_scale() ? 512 : kM;
  std::vector<ShapeReport> shapes;
  for (const int dim : {16, 32, 64}) {
    shapes.push_back(ShapeReport{rows, dim, dim});
  }

  std::printf("\n== kernel backends (1 thread, %d rows) ==\n", rows);
  for (ShapeReport& shape : shapes) {
    const Tensor a = random_tensor(shape.m, shape.k, 11);
    const Tensor b = random_tensor(shape.k, shape.n, 12);
    const Tensor at = random_tensor(shape.k, shape.m, 13);
    const Tensor bt = random_tensor(shape.n, shape.k, 14);
    const double gflop =
        2.0 * shape.m * shape.k * shape.n / 1e9;
    Tensor ref_nn, ref_tn, ref_nt;
    for (int bi = 0; bi < 3; ++bi) {
      if (!kern::backend_available(kBackends[bi])) continue;
      kern::set_kernel_backend(kBackends[bi]);
      shape.nn[bi] =
          gflop / median_time_s([&] { return rn::ag::matmul(a, b); });
      shape.tn[bi] =
          gflop / median_time_s([&] { return rn::ag::matmul_tn(at, b); });
      shape.nt[bi] =
          gflop / median_time_s([&] { return rn::ag::matmul_nt(a, bt); });
      std::printf("  %4dx%2dx%2d %-8s nn %6.2f / tn %6.2f / nt %6.2f "
                  "GFLOP/s\n",
                  shape.m, shape.k, shape.n,
                  kern::backend_name(kBackends[bi]), shape.nn[bi],
                  shape.tn[bi], shape.nt[bi]);
      // Bitwise contract: scalar and avx2 must agree exactly; avx2fma is
      // the documented divergent opt-in and is not checked.
      if (kBackends[bi] == kern::Backend::kScalar) {
        ref_nn = rn::ag::matmul(a, b);
        ref_tn = rn::ag::matmul_tn(at, b);
        ref_nt = rn::ag::matmul_nt(a, bt);
      } else if (kBackends[bi] == kern::Backend::kAvx2) {
        if (!tensors_bitwise_equal(ref_nn, rn::ag::matmul(a, b)) ||
            !tensors_bitwise_equal(ref_tn, rn::ag::matmul_tn(at, b)) ||
            !tensors_bitwise_equal(ref_nt, rn::ag::matmul_nt(a, bt))) {
          std::printf("WARNING: avx2 backend diverges bitwise from scalar "
                      "at %dx%dx%d\n",
                      shape.m, shape.k, shape.n);
          ++violations;
        }
      }
    }
    // The acceptance gate: avx2 ≥ 1.5x scalar on every matmul shape.
    if (shape.nn[1] > 0.0) {
      const struct {
        const char* name;
        std::function<Tensor()> run;
        double* speedup;
      } gated[] = {
          {"nn", [&] { return rn::ag::matmul(a, b); }, &shape.nn_speedup},
          {"tn", [&] { return rn::ag::matmul_tn(at, b); },
           &shape.tn_speedup},
          {"nt", [&] { return rn::ag::matmul_nt(a, bt); },
           &shape.nt_speedup},
      };
      for (const auto& g : gated) {
        *g.speedup = paired_avx2_speedup(g.run);
        std::printf("  %4dx%2dx%2d avx2/scalar %s speedup: %.2fx%s\n",
                    shape.m, shape.k, shape.n, g.name, *g.speedup,
                    *g.speedup < 1.5 ? "  <-- BELOW 1.5x" : "");
        if (*g.speedup < 1.5) ++violations;
      }
    }
  }

  // Fused vs composed GRU step at a paper-sized hop batch (tape recording
  // included — node elimination is the point of the fusion).
  rn::Rng gru_rng(77);
  rn::ag::GruCell cell(32, 32, gru_rng, "bench.gru");
  const Tensor gx = random_tensor(rows, 32, 21);
  const Tensor gh = random_tensor(rows, 32, 22);
  const double composed_s =
      median_time_s([&] { return gru_once(cell, gx, gh, false); });
  const double fused_s =
      median_time_s([&] { return gru_once(cell, gx, gh, true); });
  const bool gru_bitwise = tensors_bitwise_equal(
      gru_once(cell, gx, gh, false), gru_once(cell, gx, gh, true));
  const double gru_speedup = fused_s > 0.0 ? composed_s / fused_s : 0.0;
  std::printf("  gru  fused/composed speedup: %.2fx (bitwise %s)\n",
              gru_speedup, gru_bitwise ? "identical" : "DIVERGENT");
  if (!gru_bitwise) ++violations;
  rn::ag::set_fused_gru(fused_saved);

  // Index-op family: bytes moved per second at the 64-wide state, strided
  // access pattern of a merged Geant2 batch.
  const int idx_rows = smoke_scale() ? 4096 : 65536;
  const int idx_cols = 64;
  const Tensor src = random_tensor(idx_rows, idx_cols, 31);
  std::vector<int> idx(static_cast<std::size_t>(idx_rows));
  rn::Rng idx_rng(32);
  for (int i = 0; i < idx_rows; ++i) {
    idx[static_cast<std::size_t>(i)] = idx_rng.uniform_int(0, idx_rows - 1);
  }
  std::vector<float> factors(static_cast<std::size_t>(idx_rows));
  for (auto& f : factors) {
    f = static_cast<float>(idx_rng.uniform(0.25, 4.0));
  }
  const double bytes =
      2.0 * idx_rows * idx_cols * sizeof(float);  // read + write
  struct IndexRow {
    const char* name;
    double gb_per_s[3] = {-1, -1, -1};
  };
  IndexRow index_rows[] = {{"gather_rows"}, {"indexed_row_add"},
                           {"scale_rows"}};
  Tensor dst(idx_rows, idx_cols);
  for (int bi = 0; bi < 3; ++bi) {
    if (!kern::backend_available(kBackends[bi])) continue;
    const kern::Ops& ops = kern::ops(kBackends[bi]);
    index_rows[0].gb_per_s[bi] =
        bytes / 1e9 / median_time_s([&] {
          ops.gather_rows(src.data(), idx.data(), idx_rows, idx_cols,
                          dst.data());
          return dst.data();
        });
    index_rows[1].gb_per_s[bi] =
        bytes / 1e9 / median_time_s([&] {
          ops.indexed_row_add(dst.data(), idx.data(), idx_rows, idx_cols,
                              src.data());
          return dst.data();
        });
    index_rows[2].gb_per_s[bi] =
        bytes / 1e9 / median_time_s([&] {
          ops.scale_rows(dst.data(), factors.data(), idx_rows, idx_cols);
          return dst.data();
        });
  }
  for (const IndexRow& row : index_rows) {
    std::printf("  %-16s scalar %6.2f / avx2 %6.2f / avx2fma %6.2f GB/s\n",
                row.name, row.gb_per_s[0], row.gb_per_s[1],
                row.gb_per_s[2]);
  }

  kern::set_kernel_backend(saved_backend);

  // --- BENCH_kernels.json -------------------------------------------------
  const std::string path = rn::bench::cache_dir() + "/BENCH_kernels.json";
  {
    std::ofstream out(path);
    if (out.good()) {
      out << "{\"bench\":\"kernels\",\"scale\":\""
          << rn::obs::json_escape(scale_name()) << "\""
          << ",\"active_backend\":\""
          << kern::backend_name(saved_backend) << "\"";
      out << ",\"matmul_shapes\":[";
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        const ShapeReport& shape = shapes[s];
        if (s > 0) out << ',';
        out << "{\"m\":" << shape.m << ",\"k\":" << shape.k
            << ",\"n\":" << shape.n;
        for (int bi = 0; bi < 3; ++bi) {
          if (shape.nn[bi] < 0.0) continue;
          const char* name = kern::backend_name(kBackends[bi]);
          out << ",\"" << name << "_nn_gflops\":"
              << rn::obs::json_number(shape.nn[bi]) << ",\"" << name
              << "_tn_gflops\":" << rn::obs::json_number(shape.tn[bi])
              << ",\"" << name
              << "_nt_gflops\":" << rn::obs::json_number(shape.nt[bi]);
        }
        if (shape.nn_speedup > 0.0) {
          out << ",\"avx2_nn_speedup\":"
              << rn::obs::json_number(shape.nn_speedup)
              << ",\"avx2_tn_speedup\":"
              << rn::obs::json_number(shape.tn_speedup)
              << ",\"avx2_nt_speedup\":"
              << rn::obs::json_number(shape.nt_speedup);
        }
        out << "}";
      }
      out << "]";
      out << ",\"index_ops\":{";
      bool first = true;
      for (const IndexRow& row : index_rows) {
        for (int bi = 0; bi < 3; ++bi) {
          if (row.gb_per_s[bi] < 0.0) continue;
          if (!first) out << ',';
          first = false;
          out << "\"" << kern::backend_name(kBackends[bi]) << "_"
              << row.name << "_gb_per_s\":"
              << rn::obs::json_number(row.gb_per_s[bi]);
        }
      }
      out << "}";
      out << ",\"gru_step\":{\"rows\":" << rows
          << ",\"composed_s\":" << rn::obs::json_number(composed_s)
          << ",\"fused_s\":" << rn::obs::json_number(fused_s)
          << ",\"fused_speedup\":" << rn::obs::json_number(gru_speedup)
          << ",\"bitwise_identical\":" << (gru_bitwise ? "true" : "false")
          << "}";
      out << ",\"telemetry\":"
          << rn::obs::Registry::global().snapshot().to_json() << "}\n";
    }
  }
  std::printf("report -> %s\n", path.c_str());

  if (violations > 0) {
    if (enforce) {
      std::printf(
          "RN_BENCH_ENFORCE set: failing on %d backend violation(s)\n",
          violations);
      return violations;
    }
    std::printf("(%d backend violation(s); not enforced)\n", violations);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int rc = check_blocked_vs_naive();
  rc += run_backend_report();
  if (rc != 0) return 1;
  if (smoke_scale()) return 0;  // CI smoke: guard + report only
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
