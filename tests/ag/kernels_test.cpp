// Kernel-backend contract tests: the avx2 table must be bitwise identical
// to scalar on every op — including remainder tails at odd shapes, signed
// zeros, and the zero-entry skip that avoids Inf*0 NaNs — and the dispatch
// seams must fail safe.
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ag/kernels.h"
#include "util/rng.h"

namespace kern = rn::ag::kern;

namespace {

// Deterministic fill with exact zeros (hits the skip path) and negative
// zeros (memcmp catches any sign-of-zero divergence) sprinkled in.
std::vector<float> random_data(std::size_t n, std::uint64_t seed) {
  rn::Rng rng(static_cast<unsigned>(seed));
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int roll = rng.uniform_int(0, 9);
    if (roll == 0) {
      v[i] = 0.0f;
    } else if (roll == 1) {
      v[i] = -0.0f;
    } else {
      v[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Shapes chosen to stress every vector-width boundary: single element,
// sub-vector, one-past-vector, 8/32-multiples, and ragged tails.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {{1, 1, 1},   {3, 5, 7},   {17, 31, 33},
                         {33, 65, 9}, {8, 16, 32}, {64, 64, 64},
                         {5, 240, 41}};

class KernelsAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kern::backend_available(kern::Backend::kAvx2)) {
      GTEST_SKIP() << "avx2 backend not available on this build/CPU";
    }
  }
};

TEST_F(KernelsAvx2Test, MatmulFamilyBitwiseEqualAtOddShapes) {
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  const kern::Ops& avx2 = kern::ops(kern::Backend::kAvx2);
  for (const Shape& s : kShapes) {
    const auto a = random_data(static_cast<std::size_t>(s.m) * s.k, 1);
    const auto b = random_data(static_cast<std::size_t>(s.k) * s.n, 2);
    const auto at = random_data(static_cast<std::size_t>(s.k) * s.m, 3);
    const auto bt = random_data(static_cast<std::size_t>(s.n) * s.k, 4);
    // C starts non-zero: the block kernels accumulate, so a stale += would
    // only show up against a dirty destination.
    const auto c0 = random_data(static_cast<std::size_t>(s.m) * s.n, 5);

    auto cs = c0, cv = c0;
    scalar.matmul_block(a.data(), b.data(), cs.data(), 0, s.m, s.k, s.n);
    avx2.matmul_block(a.data(), b.data(), cv.data(), 0, s.m, s.k, s.n);
    EXPECT_TRUE(bitwise_equal(cs, cv))
        << "matmul " << s.m << "x" << s.k << "x" << s.n;

    cs = c0;
    cv = c0;
    scalar.matmul_tn_block(at.data(), b.data(), cs.data(), 0, s.m, s.m, s.k,
                           s.n);
    avx2.matmul_tn_block(at.data(), b.data(), cv.data(), 0, s.m, s.m, s.k,
                         s.n);
    EXPECT_TRUE(bitwise_equal(cs, cv))
        << "matmul_tn " << s.m << "x" << s.k << "x" << s.n;

    cs = c0;
    cv = c0;
    scalar.matmul_nt_block(a.data(), bt.data(), cs.data(), 0, s.m, s.k, s.n);
    avx2.matmul_nt_block(a.data(), bt.data(), cv.data(), 0, s.m, s.k, s.n);
    EXPECT_TRUE(bitwise_equal(cs, cv))
        << "matmul_nt " << s.m << "x" << s.k << "x" << s.n;

    // Partial row ranges (the parallel chunking never hands a kernel the
    // whole range when threaded).
    if (s.m > 2) {
      cs = c0;
      cv = c0;
      scalar.matmul_block(a.data(), b.data(), cs.data(), 1, s.m - 1, s.k,
                          s.n);
      avx2.matmul_block(a.data(), b.data(), cv.data(), 1, s.m - 1, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(cs, cv)) << "matmul partial range";
    }
  }
}

TEST_F(KernelsAvx2Test, ZeroSkipSuppressesInfTimesZeroExactlyLikeScalar) {
  // a has an exact 0.0 (and a -0.0) where b's row is Inf: the scalar loop
  // skips those products entirely, so no NaN may appear — and the avx2
  // backend must make the same call.
  const int m = 4, k = 3, n = 17;
  auto a = random_data(static_cast<std::size_t>(m) * k, 6);
  auto b = random_data(static_cast<std::size_t>(k) * n, 7);
  for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * k + 1] = (i % 2) ? 0.0f : -0.0f;
  for (int j = 0; j < n; ++j) {
    b[static_cast<std::size_t>(1) * n + j] =
        std::numeric_limits<float>::infinity();
  }
  std::vector<float> cs(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> cv = cs;
  kern::ops(kern::Backend::kScalar)
      .matmul_block(a.data(), b.data(), cs.data(), 0, m, k, n);
  kern::ops(kern::Backend::kAvx2)
      .matmul_block(a.data(), b.data(), cv.data(), 0, m, k, n);
  for (const float v : cs) EXPECT_FALSE(std::isnan(v));
  EXPECT_TRUE(bitwise_equal(cs, cv));
}

// The avx2 tn walks k in 128-row panels of B and pairs output rows; nt
// transposes B in 32-row strips and pairs output rows too. Shapes run k
// past one and several panels (with n a multiple of 8 and of 32) and
// ragged strips; row ranges cover both parities so the pairing leaves a
// remainder row, and start at 1 as the parallel chunks do.
TEST_F(KernelsAvx2Test, TnAndNtBitwiseEqualAcrossPanelsAndRowRanges) {
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  const kern::Ops& avx2 = kern::ops(kern::Backend::kAvx2);
  const Shape shapes[] = {{7, 300, 32}, {3, 513, 64}, {6, 129, 16},
                          {9, 256, 40}, {5, 37, 75},  {4, 128, 8}};
  for (const Shape& s : shapes) {
    const auto a = random_data(static_cast<std::size_t>(s.m) * s.k, 21);
    const auto at = random_data(static_cast<std::size_t>(s.k) * s.m, 22);
    const auto b = random_data(static_cast<std::size_t>(s.k) * s.n, 23);
    const auto bt = random_data(static_cast<std::size_t>(s.n) * s.k, 24);
    const auto c0 = random_data(static_cast<std::size_t>(s.m) * s.n, 25);
    for (const int r0 : {0, 1}) {
      for (const int r1 : {s.m - 1, s.m}) {
        if (r0 >= r1) continue;
        auto cs = c0, cv = c0;
        scalar.matmul_tn_block(at.data(), b.data(), cs.data(), r0, r1, s.m,
                               s.k, s.n);
        avx2.matmul_tn_block(at.data(), b.data(), cv.data(), r0, r1, s.m,
                             s.k, s.n);
        EXPECT_TRUE(bitwise_equal(cs, cv))
            << "matmul_tn " << s.m << "x" << s.k << "x" << s.n << " rows ["
            << r0 << ", " << r1 << ")";

        cs = c0;
        cv = c0;
        scalar.matmul_nt_block(a.data(), bt.data(), cs.data(), r0, r1, s.k,
                               s.n);
        avx2.matmul_nt_block(a.data(), bt.data(), cv.data(), r0, r1, s.k,
                             s.n);
        EXPECT_TRUE(bitwise_equal(cs, cv))
            << "matmul_nt " << s.m << "x" << s.k << "x" << s.n << " rows ["
            << r0 << ", " << r1 << ")";
      }
    }
  }
}

TEST_F(KernelsAvx2Test, NtHasNoZeroSkipSoInfTimesZeroIsNanLikeScalar) {
  // nt never skips zero entries: 0 * Inf must become NaN in both backends,
  // and ±0 * NaN must propagate the NaN. Each B row holds exactly one
  // special value, so every output element's chain sees at most one NaN
  // and its payload cannot depend on operand order. n = 43 covers a
  // 32-wide tile, an 8-wide tile and a 3-column scalar tail.
  const int m = 5, k = 19, n = 43;
  auto a = random_data(static_cast<std::size_t>(m) * k, 26);
  auto bt = random_data(static_cast<std::size_t>(n) * k, 27);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int j = 0; j < n; ++j) {
    const float special = (j % 3 == 0) ? nan : (j % 3 == 1) ? inf : -inf;
    bt[static_cast<std::size_t>(j) * k + static_cast<std::size_t>(j % k)] =
        special;
  }
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; p += 2) {
      a[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(p)] =
          ((i + p) % 4 == 0) ? 0.0f : -0.0f;
    }
  }
  for (const int r0 : {0, 1}) {
    const auto c0 = random_data(static_cast<std::size_t>(m) * n, 28);
    auto cs = c0, cv = c0;
    kern::ops(kern::Backend::kScalar)
        .matmul_nt_block(a.data(), bt.data(), cs.data(), r0, m, k, n);
    kern::ops(kern::Backend::kAvx2)
        .matmul_nt_block(a.data(), bt.data(), cv.data(), r0, m, k, n);
    int nans = 0;
    for (const float v : cs) nans += std::isnan(v) ? 1 : 0;
    EXPECT_GT(nans, 0) << "the fixture must reach 0 * Inf";
    EXPECT_TRUE(bitwise_equal(cs, cv)) << "rows [" << r0 << ", " << m << ")";
  }
}

TEST_F(KernelsAvx2Test, TnSkipsNegativeZeroEntriesOfAExactlyLikeScalar) {
  // -0.0f == 0.0f, so tn skips it: no -0 * Inf NaN appears, and a C entry
  // of -0.0f stays -0.0f rather than becoming -0 + (-0 * b). Column 0 of
  // C's rows (row i of aᵀ) sees only -0.0f; others mix -0.0f with data.
  const int m = 5, k = 300, n = 40;
  auto at = random_data(static_cast<std::size_t>(k) * m, 29);
  auto b = random_data(static_cast<std::size_t>(k) * n, 30);
  for (int p = 0; p < k; ++p) {
    at[static_cast<std::size_t>(p) * m] = -0.0f;
    if (p % 7 == 0) {
      for (int i = 1; i < m; ++i) {
        at[static_cast<std::size_t>(p) * m + static_cast<std::size_t>(i)] =
            -0.0f;
      }
      for (int j = 0; j < n; ++j) {
        b[static_cast<std::size_t>(p) * n + static_cast<std::size_t>(j)] =
            (j % 2 == 0) ? std::numeric_limits<float>::infinity()
                         : -std::numeric_limits<float>::infinity();
      }
    }
  }
  const std::vector<float> c0(static_cast<std::size_t>(m) * n, -0.0f);
  auto cs = c0, cv = c0;
  kern::ops(kern::Backend::kScalar)
      .matmul_tn_block(at.data(), b.data(), cs.data(), 0, m, m, k, n);
  kern::ops(kern::Backend::kAvx2)
      .matmul_tn_block(at.data(), b.data(), cv.data(), 0, m, m, k, n);
  for (const float v : cs) EXPECT_FALSE(std::isnan(v));
  for (int j = 0; j < n; ++j) {
    EXPECT_TRUE(std::signbit(cs[static_cast<std::size_t>(j)]) &&
                cs[static_cast<std::size_t>(j)] == 0.0f)
        << "all-(-0) row must leave C's -0.0f untouched, column " << j;
  }
  EXPECT_TRUE(bitwise_equal(cs, cv));
}

TEST_F(KernelsAvx2Test, RowIndexOpsBitwiseEqualWithDuplicateIndices) {
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  const kern::Ops& avx2 = kern::ops(kern::Backend::kAvx2);
  for (const int cols : {1, 7, 8, 17, 64}) {
    const int src_rows = 13, nrows = 29;
    const auto src =
        random_data(static_cast<std::size_t>(nrows) * cols, 8);
    const auto base =
        random_data(static_cast<std::size_t>(src_rows) * cols, 9);
    // Duplicates on purpose: indexed_row_add must accumulate repeats in the
    // same ascending order on both backends.
    std::vector<int> idx(nrows);
    rn::Rng rng(10);
    for (int& i : idx) i = rng.uniform_int(0, src_rows - 1);

    auto ds = base, dv = base;
    scalar.indexed_row_add(ds.data(), idx.data(), nrows, cols, src.data());
    avx2.indexed_row_add(dv.data(), idx.data(), nrows, cols, src.data());
    EXPECT_TRUE(bitwise_equal(ds, dv)) << "indexed_row_add cols=" << cols;

    std::vector<float> gs(static_cast<std::size_t>(nrows) * cols, 0.0f);
    std::vector<float> gv = gs;
    scalar.gather_rows(base.data(), idx.data(), nrows, cols, gs.data());
    avx2.gather_rows(base.data(), idx.data(), nrows, cols, gv.data());
    EXPECT_TRUE(bitwise_equal(gs, gv)) << "gather_rows cols=" << cols;

    auto hs = src, hv = src;
    scalar.gathered_row_add(hs.data(), idx.data(), nrows, cols, base.data());
    avx2.gathered_row_add(hv.data(), idx.data(), nrows, cols, base.data());
    EXPECT_TRUE(bitwise_equal(hs, hv)) << "gathered_row_add cols=" << cols;

    // scatter_rows needs unique targets by contract.
    std::vector<int> uniq(src_rows);
    for (int i = 0; i < src_rows; ++i) uniq[static_cast<std::size_t>(i)] = src_rows - 1 - i;
    auto ss = random_data(static_cast<std::size_t>(src_rows) * cols, 11);
    auto sv = ss;
    scalar.scatter_rows(ss.data(), uniq.data(), src_rows, cols, base.data());
    avx2.scatter_rows(sv.data(), uniq.data(), src_rows, cols, base.data());
    EXPECT_TRUE(bitwise_equal(ss, sv)) << "scatter_rows cols=" << cols;
  }
}

TEST_F(KernelsAvx2Test, ElementwiseOpsBitwiseEqualAtRaggedSizes) {
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  const kern::Ops& avx2 = kern::ops(kern::Backend::kAvx2);
  for (const int cols : {1, 5, 8, 31}) {
    const int rows = 7;
    const std::size_t n = static_cast<std::size_t>(rows) * cols;
    const auto x = random_data(n, 12);
    const auto y0 = random_data(n, 13);
    const auto factors = random_data(static_cast<std::size_t>(rows), 14);
    const auto bias = random_data(static_cast<std::size_t>(cols), 15);

    auto as_ = y0, av_ = y0;
    scalar.axpy(as_.data(), x.data(), -1.375f, n);
    avx2.axpy(av_.data(), x.data(), -1.375f, n);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "axpy n=" << n;

    as_ = y0;
    av_ = y0;
    scalar.mul_inplace(as_.data(), x.data(), n);
    avx2.mul_inplace(av_.data(), x.data(), n);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "mul_inplace n=" << n;

    as_ = y0;
    av_ = y0;
    const auto x2 = random_data(n, 16);
    scalar.madd(as_.data(), x.data(), x2.data(), n);
    avx2.madd(av_.data(), x.data(), x2.data(), n);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "madd n=" << n;

    as_ = y0;
    av_ = y0;
    scalar.scale_rows(as_.data(), factors.data(), rows, cols);
    avx2.scale_rows(av_.data(), factors.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "scale_rows cols=" << cols;

    as_ = y0;
    av_ = y0;
    scalar.add_scaled_rows(as_.data(), x.data(), factors.data(), rows, cols);
    avx2.add_scaled_rows(av_.data(), x.data(), factors.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "add_scaled_rows cols=" << cols;

    as_ = y0;
    av_ = y0;
    scalar.add_bias_rows(as_.data(), bias.data(), rows, cols);
    avx2.add_bias_rows(av_.data(), bias.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "add_bias_rows cols=" << cols;

    std::vector<float> col_s(static_cast<std::size_t>(cols), 0.5f);
    std::vector<float> col_v = col_s;
    scalar.colsum_add(col_s.data(), x.data(), rows, cols);
    avx2.colsum_add(col_v.data(), x.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(col_s, col_v)) << "colsum_add cols=" << cols;

    const auto z = random_data(n, 17);
    const auto hc = random_data(n, 18);
    std::vector<float> out_s(n, 0.0f), out_v(n, 0.0f);
    scalar.gru_blend(z.data(), y0.data(), hc.data(), out_s.data(), n);
    avx2.gru_blend(z.data(), y0.data(), hc.data(), out_v.data(), n);
    EXPECT_TRUE(bitwise_equal(out_s, out_v)) << "gru_blend n=" << n;
  }
}

TEST_F(KernelsAvx2Test, Avx2FmaMatmulIsCloseButNotRequiredBitwise) {
  if (!kern::backend_available(kern::Backend::kAvx2Fma)) {
    GTEST_SKIP() << "avx2fma backend not available";
  }
  // The opt-in fma table trades the bitwise contract for speed; it must
  // still agree to float accuracy.
  const Shape s{17, 31, 33};
  const auto a = random_data(static_cast<std::size_t>(s.m) * s.k, 19);
  const auto b = random_data(static_cast<std::size_t>(s.k) * s.n, 20);
  std::vector<float> cs(static_cast<std::size_t>(s.m) * s.n, 0.0f);
  std::vector<float> cf = cs;
  kern::ops(kern::Backend::kScalar)
      .matmul_block(a.data(), b.data(), cs.data(), 0, s.m, s.k, s.n);
  kern::ops(kern::Backend::kAvx2Fma)
      .matmul_block(a.data(), b.data(), cf.data(), 0, s.m, s.k, s.n);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_NEAR(cs[i], cf[i], 1e-4f * (1.0f + std::abs(cs[i])));
  }
}

TEST(KernelsDispatchTest, SetBackendSwitchesActiveTableAndReturnsPrevious) {
  const kern::Backend initial = kern::active_backend();
  const kern::Backend prev = kern::set_kernel_backend(kern::Backend::kScalar);
  EXPECT_EQ(prev, initial);
  EXPECT_EQ(kern::active_backend(), kern::Backend::kScalar);
  EXPECT_STREQ(kern::active().name, "scalar");
  kern::set_kernel_backend(initial);
  EXPECT_EQ(kern::active_backend(), initial);
}

TEST(KernelsDispatchTest, ScalarBackendIsAlwaysAvailable) {
  EXPECT_TRUE(kern::backend_available(kern::Backend::kScalar));
  EXPECT_STREQ(kern::backend_name(kern::Backend::kScalar), "scalar");
  EXPECT_STREQ(kern::backend_name(kern::Backend::kAvx2), "avx2");
  EXPECT_STREQ(kern::backend_name(kern::Backend::kAvx2Fma), "avx2fma");
}

}  // namespace
