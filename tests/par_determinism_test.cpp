// Determinism contract of the parallel execution layer: datasets and
// autodiff kernels are bitwise identical at any thread count.
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ag/nn.h"
#include "ag/tensor.h"
#include "dataset/dataset.h"
#include "gradcheck.h"
#include "par/thread_pool.h"
#include "topology/generators.h"
#include "util/rng.h"

namespace rn {
namespace {

dataset::GeneratorConfig fast_config() {
  dataset::GeneratorConfig cfg;
  cfg.target_pkts_per_flow = 60.0;
  cfg.warmup_s = 0.5;
  cfg.min_delivered = 5;
  return cfg;
}

std::shared_ptr<const topo::Topology> shared_nsfnet() {
  return std::make_shared<const topo::Topology>(topo::nsfnet());
}

std::vector<dataset::Sample> generate_with_threads(int threads, int count) {
  par::set_global_threads(threads);
  dataset::DatasetGenerator gen(fast_config(), 7);
  return gen.generate_many(shared_nsfnet(), count);
}

// The headline contract from the ISSUE: the same dataset at RN_THREADS=1
// and RN_THREADS=4 (here set programmatically) is bitwise equal.
TEST(ParDeterminism, DatasetBitwiseEqualAcrossThreadCounts) {
  const std::vector<dataset::Sample> serial = generate_with_threads(1, 6);
  const std::vector<dataset::Sample> threaded = generate_with_threads(4, 6);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].delay_s, threaded[i].delay_s) << "sample " << i;
    EXPECT_EQ(serial[i].jitter_s, threaded[i].jitter_s) << "sample " << i;
    EXPECT_EQ(serial[i].valid, threaded[i].valid) << "sample " << i;
    EXPECT_EQ(serial[i].max_link_utilization,
              threaded[i].max_link_utilization)
        << "sample " << i;
    for (int idx = 0; idx < serial[i].num_pairs(); ++idx) {
      ASSERT_EQ(serial[i].tm.rate_by_index(idx),
                threaded[i].tm.rate_by_index(idx))
          << "sample " << i << " pair " << idx;
      ASSERT_EQ(serial[i].routing.path_by_index(idx),
                threaded[i].routing.path_by_index(idx))
          << "sample " << i << " pair " << idx;
    }
  }
  par::set_global_threads(1);
}

// generate() interleaved with generate_many() must see the same per-index
// streams as one straight generate_many run.
TEST(ParDeterminism, InterleavedGenerationMatchesBatch) {
  par::set_global_threads(2);
  dataset::DatasetGenerator batch_gen(fast_config(), 21);
  dataset::DatasetGenerator mixed_gen(fast_config(), 21);
  const auto topo_ptr = shared_nsfnet();
  const std::vector<dataset::Sample> batch =
      batch_gen.generate_many(topo_ptr, 4);
  std::vector<dataset::Sample> mixed;
  mixed.push_back(mixed_gen.generate(topo_ptr));
  for (dataset::Sample& s : mixed_gen.generate_many(topo_ptr, 2)) {
    mixed.push_back(std::move(s));
  }
  mixed.push_back(mixed_gen.generate(topo_ptr));
  ASSERT_EQ(batch.size(), mixed.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].delay_s, mixed[i].delay_s) << "sample " << i;
    EXPECT_EQ(batch[i].jitter_s, mixed[i].jitter_s) << "sample " << i;
  }
  par::set_global_threads(1);
}

// generate_at is index-addressed and const: any order, any subset.
TEST(ParDeterminism, GenerateAtIsOrderIndependent) {
  par::set_global_threads(1);
  dataset::DatasetGenerator gen(fast_config(), 33);
  const auto topo_ptr = shared_nsfnet();
  const dataset::Sample late = gen.generate_at(topo_ptr, 3);
  const dataset::Sample early = gen.generate_at(topo_ptr, 0);
  const dataset::Sample late_again = gen.generate_at(topo_ptr, 3);
  EXPECT_EQ(late.delay_s, late_again.delay_s);
  EXPECT_NE(early.delay_s, late.delay_s);
}

// Forces the row-parallel matmul path (threshold 0, 4 threads) and checks
// analytic gradients of an MLP against finite differences — the gradcheck
// runs every backward matmul_tn / matmul_nt through the pool too.
TEST(ParDeterminism, GradcheckThroughThreadedKernels) {
  const long long saved = ag::matmul_parallel_threshold();
  ag::set_matmul_parallel_threshold(0);
  par::set_global_threads(4);

  Rng rng(5);
  ag::Mlp mlp({6, 8, 2}, rng, "gc");
  ag::Tensor x(5, 6);
  for (int i = 0; i < x.size(); ++i) {
    x[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  std::vector<ag::Parameter*> params = mlp.params();
  rn::testing::expect_gradients_match(params, [&](ag::Tape& tape) {
    const ag::ValueId out = mlp.apply(tape, tape.constant(x));
    return tape.mse(out, ag::Tensor(5, 2, 0.3f));
  });

  ag::set_matmul_parallel_threshold(saved);
  par::set_global_threads(1);
}

// Verbatim copies of the pre-blocking serial kernels (PR 1): golden values
// and checkpoint-reproduced metrics recorded before the parallel layer were
// produced by these exact loops.
ag::Tensor reference_matmul(const ag::Tensor& a, const ag::Tensor& b) {
  ag::Tensor c(a.rows(), b.cols());
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

ag::Tensor reference_matmul_tn(const ag::Tensor& a, const ag::Tensor& b) {
  ag::Tensor c(a.cols(), b.cols());
  const int m = a.cols(), k = a.rows(), n = b.cols();
  for (int p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.row(i);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

ag::Tensor reference_matmul_nt(const ag::Tensor& a, const ag::Tensor& b) {
  ag::Tensor c(a.rows(), b.rows());
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

void fill_with_zero_runs(ag::Tensor& t, Rng& rng) {
  for (int i = 0; i < t.size(); ++i) {
    const double u = rng.uniform(0.0, 1.0);
    // A quarter zeros (some negative) so the kernels' av == 0.0f skip path
    // is exercised: skipping vs adding 0 differs for -0.0 accumulators.
    if (u < 0.125) {
      t[static_cast<std::size_t>(i)] = 0.0f;
    } else if (u < 0.25) {
      t[static_cast<std::size_t>(i)] = -0.0f;
    } else {
      t[static_cast<std::size_t>(i)] =
          static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
}

// Bit-pattern comparison: operator== would miss a -0.0 vs +0.0 flip and
// can never confirm NaN payloads, both of which the zero-skip contract is
// about.
void expect_bitwise_equal(const ag::Tensor& want, const ag::Tensor& got,
                          const char* tag, int threads) {
  ASSERT_EQ(want.size(), got.size()) << tag;
  for (int i = 0; i < want.size(); ++i) {
    std::uint32_t wb = 0, gb = 0;
    std::memcpy(&wb, want.data() + i, sizeof(wb));
    std::memcpy(&gb, got.data() + i, sizeof(gb));
    ASSERT_EQ(wb, gb) << tag << " index " << i << " threads " << threads
                      << " want " << want[static_cast<std::size_t>(i)]
                      << " got " << got[static_cast<std::size_t>(i)];
  }
}

// The blocked kernels (serial and threaded) must be bitwise equal to the
// pre-blocking loops above — tiling, the tn pair-unroll, and thread
// partitioning may only change *where* each add runs, never its order.
TEST(ParDeterminism, MatmulBitwiseEqualToUnblockedReference) {
  Rng rng(17);
  const int m = 97, k = 33, n = 29;  // deliberately non-multiples of tiles
  ag::Tensor a(m, k), b(k, n), bt(n, k), at(k, m);
  fill_with_zero_runs(a, rng);
  fill_with_zero_runs(b, rng);
  fill_with_zero_runs(bt, rng);
  fill_with_zero_runs(at, rng);

  const ag::Tensor ref = reference_matmul(a, b);
  const ag::Tensor ref_tn = reference_matmul_tn(at, b);
  const ag::Tensor ref_nt = reference_matmul_nt(a, bt);

  const long long saved = ag::matmul_parallel_threshold();
  for (const int threads : {1, 4}) {
    ag::set_matmul_parallel_threshold(threads == 1 ? saved : 0);
    par::set_global_threads(threads);
    expect_bitwise_equal(ref, ag::matmul(a, b), "nn", threads);
    expect_bitwise_equal(ref_tn, ag::matmul_tn(at, b), "tn", threads);
    expect_bitwise_equal(ref_nt, ag::matmul_nt(a, bt), "nt", threads);
  }
  ag::set_matmul_parallel_threshold(saved);
  par::set_global_threads(1);
}

// The threaded kernels must be bitwise equal to the serial ones, not just
// close: same tiles, same accumulation order, only the row partitioning
// moves between threads.
TEST(ParDeterminism, MatmulBitwiseEqualAcrossThreadCounts) {
  Rng rng(11);
  const int m = 97, k = 33, n = 29;  // deliberately non-multiples of tiles
  ag::Tensor a(m, k), b(k, n), bt(n, k), at(k, m);
  for (int i = 0; i < a.size(); ++i) {
    a[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  for (int i = 0; i < b.size(); ++i) {
    b[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  for (int i = 0; i < bt.size(); ++i) {
    bt[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  for (int i = 0; i < at.size(); ++i) {
    at[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-2.0, 2.0));
  }

  par::set_global_threads(1);
  const ag::Tensor c1 = ag::matmul(a, b);
  const ag::Tensor c1_tn = ag::matmul_tn(at, b);
  const ag::Tensor c1_nt = ag::matmul_nt(a, bt);

  const long long saved = ag::matmul_parallel_threshold();
  ag::set_matmul_parallel_threshold(0);
  par::set_global_threads(4);
  const ag::Tensor c4 = ag::matmul(a, b);
  const ag::Tensor c4_tn = ag::matmul_tn(at, b);
  const ag::Tensor c4_nt = ag::matmul_nt(a, bt);
  ag::set_matmul_parallel_threshold(saved);
  par::set_global_threads(1);

  for (int i = 0; i < c1.size(); ++i) {
    ASSERT_EQ(c1[static_cast<std::size_t>(i)], c4[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < c1_tn.size(); ++i) {
    ASSERT_EQ(c1_tn[static_cast<std::size_t>(i)],
              c4_tn[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < c1_nt.size(); ++i) {
    ASSERT_EQ(c1_nt[static_cast<std::size_t>(i)],
              c4_nt[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace rn
