// AVX2 / AVX2+FMA backends. This TU is the only one compiled with
// -mavx2 -mfma (plus -ffp-contract=off so the compiler cannot fuse the
// separate mul/add sequences behind our back); kernels.cpp only calls
// avx2_ops()/avx2fma_ops() after a runtime CPU check.
//
// Bitwise contract (avx2 table): every kernel performs the exact same
// per-element arithmetic sequence as the scalar reference — same ascending
// accumulation order, separate _mm256_mul_ps + _mm256_add_ps (never fused),
// the same `av == 0.0f` skip in the nn and tn loops, and nt's
// start-from-zero dot product with no skip. Vectorizing over the output
// column axis is safe because each output element's operation chain is
// untouched; only independent elements are packed into one vector. That is
// why nt first transposes B into a per-thread panel — its dot products run
// along B's rows, and the panel makes them contiguous vector lanes — and
// why tn walks B in L1-sized row panels rather than reassociating anything.
// Remainder columns run the scalar loop verbatim.
//
// The avx2fma table swaps the three matmul kernels for fused-multiply-add
// variants (matmul_nt additionally runs an 8-lane partial-sum reduction).
// Those reassociate/fuse rounding and so diverge from scalar by a few ULPs —
// which is why that table is opt-in only (RN_KERNELS=avx2fma).
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "ag/kernels.h"

namespace rn::ag::kern {

namespace {

// --- avx2: bitwise-identical matmuls --------------------------------------
//
// All three matmuls are register-blocked: a tile of output elements
// accumulates in ymm registers across its whole p range, then stores once.
// Per output element the arithmetic sequence is unchanged from scalar (one
// mul, one add per p, ascending p, the same zero skips) — holding the
// accumulator in a register instead of round-tripping through C memory does
// not change any rounding, it just removes the store-to-load chain that
// capped the memory-accumulating loops at scalar speed.

// nn: one (i, j-tile) accumulation over the full p range, skipping
// a[i][p] == 0 like scalar.
template <int Tiles>
inline void accum_col_tile(const float* arow, const float* b, float* crow,
                           int j, int k, int n) {
  __m256 acc[Tiles];
  for (int t = 0; t < Tiles; ++t) {
    acc[t] = _mm256_loadu_ps(crow + j + 8 * t);
  }
  for (int p = 0; p < k; ++p) {
    const float av = arow[p];
    if (av == 0.0f) continue;
    const float* brow = b + static_cast<std::size_t>(p) * n + j;
    const __m256 av8 = _mm256_set1_ps(av);
    for (int t = 0; t < Tiles; ++t) {
      acc[t] =
          _mm256_add_ps(acc[t], _mm256_mul_ps(av8, _mm256_loadu_ps(brow + 8 * t)));
    }
  }
  for (int t = 0; t < Tiles; ++t) {
    _mm256_storeu_ps(crow + j + 8 * t, acc[t]);
  }
}

// nn: walk one output row, tiling columns 32/8/scalar.
inline void matmul_row_avx2(const float* arow, const float* b, float* crow,
                            int k, int n) {
  int j = 0;
  for (; j + 32 <= n; j += 32) accum_col_tile<4>(arow, b, crow, j, k, n);
  for (; j + 8 <= n; j += 8) accum_col_tile<1>(arow, b, crow, j, k, n);
  for (; j < n; ++j) {
    float acc = crow[j];
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      acc += av * b[static_cast<std::size_t>(p) * n + j];
    }
    crow[j] = acc;
  }
}

void avx2_matmul_block(const float* a, const float* b, float* c, int r0,
                       int r1, int k, int n) {
  for (int i = r0; i < r1; ++i) {
    matmul_row_avx2(a + static_cast<std::size_t>(i) * k, b,
                    c + static_cast<std::size_t>(i) * n, k, n);
  }
}

// tn: c[i][j] += a[p][i] * b[p][j] over ascending p, skipping a[p][i] == 0.
// B is the tall operand (k = thousands of path/link rows in backward), so
// p runs in panels of kTnPanel rows of B — 16 KiB at 32 columns — that stay
// L1-resident while every output-row pair of the block walks them. A tile
// of Rows output rows × 8·Tiles columns loads its C accumulators once per
// panel and stores them back at the panel's end: a float round-trip through
// memory is exact, so splitting p into panels changes no rounding.
constexpr int kTnPanel = 128;

template <int Rows, int Tiles>
inline void tn_tile(const float* a, const float* b, float* c, int i, int j,
                    int p0, int p1, int m, int n) {
  __m256 acc[Rows][Tiles];
  for (int r = 0; r < Rows; ++r) {
    for (int t = 0; t < Tiles; ++t) {
      acc[r][t] =
          _mm256_loadu_ps(c + static_cast<std::size_t>(i + r) * n + j + 8 * t);
    }
  }
  for (int p = p0; p < p1; ++p) {
    const float* acol = a + static_cast<std::size_t>(p) * m + i;
    const float* brow = b + static_cast<std::size_t>(p) * n + j;
    __m256 bv[Tiles];
    for (int t = 0; t < Tiles; ++t) bv[t] = _mm256_loadu_ps(brow + 8 * t);
    for (int r = 0; r < Rows; ++r) {
      const float av = acol[r];
      if (av == 0.0f) continue;
      const __m256 av8 = _mm256_set1_ps(av);
      for (int t = 0; t < Tiles; ++t) {
        acc[r][t] = _mm256_add_ps(acc[r][t], _mm256_mul_ps(av8, bv[t]));
      }
    }
  }
  for (int r = 0; r < Rows; ++r) {
    for (int t = 0; t < Tiles; ++t) {
      _mm256_storeu_ps(c + static_cast<std::size_t>(i + r) * n + j + 8 * t,
                       acc[r][t]);
    }
  }
}

// Rows output rows over one p panel: columns in 32/16/8-wide tiles, the
// ragged tail in the scalar loop verbatim.
template <int Rows>
inline void tn_rows(const float* a, const float* b, float* c, int i, int p0,
                    int p1, int m, int n) {
  int j = 0;
  for (; j + 32 <= n; j += 32) tn_tile<Rows, 4>(a, b, c, i, j, p0, p1, m, n);
  if (j + 16 <= n) {
    tn_tile<Rows, 2>(a, b, c, i, j, p0, p1, m, n);
    j += 16;
  }
  if (j + 8 <= n) {
    tn_tile<Rows, 1>(a, b, c, i, j, p0, p1, m, n);
    j += 8;
  }
  for (int r = 0; r < Rows; ++r) {
    float* crow = c + static_cast<std::size_t>(i + r) * n;
    for (int jj = j; jj < n; ++jj) {
      float acc = crow[jj];
      for (int p = p0; p < p1; ++p) {
        const float av = a[static_cast<std::size_t>(p) * m + i + r];
        if (av == 0.0f) continue;
        acc += av * b[static_cast<std::size_t>(p) * n + jj];
      }
      crow[jj] = acc;
    }
  }
}

void avx2_matmul_tn_block(const float* a, const float* b, float* c, int r0,
                          int r1, int m, int k, int n) {
  for (int p0 = 0; p0 < k; p0 += kTnPanel) {
    const int p1 = std::min(k, p0 + kTnPanel);
    int i = r0;
    for (; i + 2 <= r1; i += 2) tn_rows<2>(a, b, c, i, p0, p1, m, n);
    if (i < r1) tn_rows<1>(a, b, c, i, p0, p1, m, n);
  }
}

// nt: c[i][j] += Σ_p a[i][p] * b[j][p], each dot product starting from
// 0.0f over ascending p with one mul and one add per p and no zero skip,
// added into C at the end. B's rows are the dot-product operands, so a
// strip of up to kNtStrip of them is transposed once into a k × kNtStrip
// panel (per-thread scratch; 4 KiB for RouteNet's 32×32 weights): column j
// of C becomes lane j of a contiguous vector and Rows × 8·Tiles dot
// products run side by side in registers.
constexpr int kNtStrip = 32;

template <int Rows, int Tiles>
inline void nt_tile(const float* a, const float* panel, float* c, int i,
                    int jp, int j, int k, int n) {
  __m256 acc[Rows][Tiles];
  for (int r = 0; r < Rows; ++r) {
    for (int t = 0; t < Tiles; ++t) acc[r][t] = _mm256_setzero_ps();
  }
  const float* arow = a + static_cast<std::size_t>(i) * k;
  for (int p = 0; p < k; ++p) {
    const float* prow = panel + static_cast<std::size_t>(p) * kNtStrip + jp;
    __m256 bv[Tiles];
    for (int t = 0; t < Tiles; ++t) bv[t] = _mm256_loadu_ps(prow + 8 * t);
    for (int r = 0; r < Rows; ++r) {
      const __m256 av8 =
          _mm256_set1_ps(arow[static_cast<std::size_t>(r) * k + p]);
      for (int t = 0; t < Tiles; ++t) {
        acc[r][t] = _mm256_add_ps(acc[r][t], _mm256_mul_ps(av8, bv[t]));
      }
    }
  }
  for (int r = 0; r < Rows; ++r) {
    float* cp = c + static_cast<std::size_t>(i + r) * n + j;
    for (int t = 0; t < Tiles; ++t) {
      _mm256_storeu_ps(cp + 8 * t,
                       _mm256_add_ps(_mm256_loadu_ps(cp + 8 * t), acc[r][t]));
    }
  }
}

// Rows output rows × the strip's columns [j0, j0 + w): 32/16/8-wide tiles
// from the panel, the ragged tail as scalar dot products over B's rows.
template <int Rows>
inline void nt_rows(const float* a, const float* b, const float* panel,
                    float* c, int i, int j0, int w, int k, int n) {
  int jp = 0;
  if (jp + 32 <= w) {
    nt_tile<Rows, 4>(a, panel, c, i, jp, j0 + jp, k, n);
    jp += 32;
  }
  if (jp + 16 <= w) {
    nt_tile<Rows, 2>(a, panel, c, i, jp, j0 + jp, k, n);
    jp += 16;
  }
  if (jp + 8 <= w) {
    nt_tile<Rows, 1>(a, panel, c, i, jp, j0 + jp, k, n);
    jp += 8;
  }
  for (int r = 0; r < Rows; ++r) {
    const float* arow = a + static_cast<std::size_t>(i + r) * k;
    float* crow = c + static_cast<std::size_t>(i + r) * n;
    for (int j = j0 + jp; j < j0 + w; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void avx2_matmul_nt_block(const float* a, const float* b, float* c, int r0,
                          int r1, int k, int n) {
  // Grows to the largest k seen on this thread, then is reused: no
  // steady-state allocation.
  thread_local std::vector<float> panel;
  const std::size_t panel_size = static_cast<std::size_t>(k) * kNtStrip;
  if (panel.size() < panel_size) panel.resize(panel_size);
  for (int j0 = 0; j0 < n; j0 += kNtStrip) {
    const int w = std::min(kNtStrip, n - j0);
    // Only the vector lanes come from the panel; the scalar tail reads B.
    const int wv = w & ~7;
    for (int jj = 0; jj < wv; ++jj) {
      const float* brow = b + static_cast<std::size_t>(j0 + jj) * k;
      for (int p = 0; p < k; ++p) {
        panel[static_cast<std::size_t>(p) * kNtStrip + jj] = brow[p];
      }
    }
    int i = r0;
    for (; i + 2 <= r1; i += 2) nt_rows<2>(a, b, panel.data(), c, i, j0, w, k, n);
    if (i < r1) nt_rows<1>(a, b, panel.data(), c, i, j0, w, k, n);
  }
}

// --- avx2fma: fused, reassociated matmuls (divergent, opt-in) -------------

// Register-blocked like the avx2 pair, but with fused multiply-adds.
template <int Tiles>
inline void fma_accum_col_tile(const float* acol, std::size_t astride,
                               const float* b, float* crow, int j, int k,
                               int n) {
  __m256 acc[Tiles];
  for (int t = 0; t < Tiles; ++t) {
    acc[t] = _mm256_loadu_ps(crow + j + 8 * t);
  }
  for (int p = 0; p < k; ++p) {
    const float av = acol[static_cast<std::size_t>(p) * astride];
    if (av == 0.0f) continue;
    const float* brow = b + static_cast<std::size_t>(p) * n + j;
    const __m256 av8 = _mm256_set1_ps(av);
    for (int t = 0; t < Tiles; ++t) {
      acc[t] = _mm256_fmadd_ps(av8, _mm256_loadu_ps(brow + 8 * t), acc[t]);
    }
  }
  for (int t = 0; t < Tiles; ++t) {
    _mm256_storeu_ps(crow + j + 8 * t, acc[t]);
  }
}

inline void fma_matmul_row(const float* acol, std::size_t astride,
                           const float* b, float* crow, int k, int n) {
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    fma_accum_col_tile<4>(acol, astride, b, crow, j, k, n);
  }
  for (; j + 8 <= n; j += 8) {
    fma_accum_col_tile<1>(acol, astride, b, crow, j, k, n);
  }
  for (; j < n; ++j) {
    float acc = crow[j];
    for (int p = 0; p < k; ++p) {
      const float av = acol[static_cast<std::size_t>(p) * astride];
      if (av == 0.0f) continue;
      acc += av * b[static_cast<std::size_t>(p) * n + j];
    }
    crow[j] = acc;
  }
}

void fma_matmul_block(const float* a, const float* b, float* c, int r0,
                      int r1, int k, int n) {
  for (int i = r0; i < r1; ++i) {
    fma_matmul_row(a + static_cast<std::size_t>(i) * k, 1, b,
                   c + static_cast<std::size_t>(i) * n, k, n);
  }
}

void fma_matmul_tn_block(const float* a, const float* b, float* c, int r0,
                         int r1, int m, int k, int n) {
  for (int i = r0; i < r1; ++i) {
    fma_matmul_row(a + i, static_cast<std::size_t>(m), b,
                   c + static_cast<std::size_t>(i) * n, k, n);
  }
}

float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

// B rows are contiguous over p here, so each c[i][j] runs an 8-lane
// partial-sum dot product (fmadd) and reduces at the end — the fastest
// shape for this kernel, and the clearest example of why avx2fma is
// bitwise-divergent.
void fma_matmul_nt_block(const float* a, const float* b, float* c, int r0,
                         int r1, int k, int n) {
  const int k8 = k & ~7;
  for (int i = r0; i < r1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      __m256 acc8 = _mm256_setzero_ps();
      int p = 0;
      for (; p < k8; p += 8) {
        acc8 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                               _mm256_loadu_ps(brow + p), acc8);
      }
      float acc = hsum8(acc8);
      for (; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// --- Row-indexing / elementwise kernels (bitwise-safe, shared) ------------

void avx2_gather_rows(const float* src, const int* idx, int nrows, int cols,
                      float* dst) {
  for (int i = 0; i < nrows; ++i) {
    std::memcpy(dst + static_cast<std::size_t>(i) * cols,
                src + static_cast<std::size_t>(idx[i]) * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

void avx2_scatter_rows(float* dst, const int* idx, int nrows, int cols,
                       const float* src) {
  for (int i = 0; i < nrows; ++i) {
    std::memcpy(dst + static_cast<std::size_t>(idx[i]) * cols,
                src + static_cast<std::size_t>(i) * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

// Row iteration stays sequential (ascending i) in both indexed adds so
// duplicate target rows accumulate in scalar order; only the independent
// columns inside one row are vectorized.
void avx2_indexed_row_add(float* dst, const int* idx, int nrows, int cols,
                          const float* src) {
  const int c8 = cols & ~7;
  for (int i = 0; i < nrows; ++i) {
    float* out = dst + static_cast<std::size_t>(idx[i]) * cols;
    const float* in = src + static_cast<std::size_t>(i) * cols;
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_loadu_ps(out + c),
                                              _mm256_loadu_ps(in + c)));
    }
    for (; c < cols; ++c) out[c] += in[c];
  }
}

void avx2_gathered_row_add(float* dst, const int* idx, int nrows, int cols,
                           const float* src) {
  const int c8 = cols & ~7;
  for (int i = 0; i < nrows; ++i) {
    float* out = dst + static_cast<std::size_t>(i) * cols;
    const float* in = src + static_cast<std::size_t>(idx[i]) * cols;
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_loadu_ps(out + c),
                                              _mm256_loadu_ps(in + c)));
    }
    for (; c < cols; ++c) out[c] += in[c];
  }
}

void avx2_scale_rows(float* data, const float* factors, int rows, int cols) {
  const int c8 = cols & ~7;
  for (int r = 0; r < rows; ++r) {
    float* row = data + static_cast<std::size_t>(r) * cols;
    const __m256 f8 = _mm256_set1_ps(factors[r]);
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_mul_ps(_mm256_loadu_ps(row + c), f8));
    }
    for (; c < cols; ++c) row[c] *= factors[r];
  }
}

void avx2_add_scaled_rows(float* dst, const float* src, const float* factors,
                          int rows, int cols) {
  const int c8 = cols & ~7;
  for (int r = 0; r < rows; ++r) {
    float* out = dst + static_cast<std::size_t>(r) * cols;
    const float* in = src + static_cast<std::size_t>(r) * cols;
    const __m256 f8 = _mm256_set1_ps(factors[r]);
    int c = 0;
    for (; c < c8; c += 8) {
      const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(in + c), f8);
      _mm256_storeu_ps(out + c,
                       _mm256_add_ps(_mm256_loadu_ps(out + c), prod));
    }
    for (; c < cols; ++c) out[c] += in[c] * factors[r];
  }
}

void avx2_axpy(float* y, const float* x, float s, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  const __m256 s8 = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(x + i), s8);
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += x[i] * s;
}

void avx2_mul_inplace(float* y, const float* x, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  std::size_t i = 0;
  for (; i < n8; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void avx2_madd(float* dst, const float* a, const float* b, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  std::size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

void avx2_add_bias_rows(float* m, const float* bias, int rows, int cols) {
  const int c8 = cols & ~7;
  for (int r = 0; r < rows; ++r) {
    float* row = m + static_cast<std::size_t>(r) * cols;
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_add_ps(_mm256_loadu_ps(row + c),
                                              _mm256_loadu_ps(bias + c)));
    }
    for (; c < cols; ++c) row[c] += bias[c];
  }
}

void avx2_colsum_add(float* dst, const float* src, int rows, int cols) {
  const int c8 = cols & ~7;
  for (int r = 0; r < rows; ++r) {
    const float* row = src + static_cast<std::size_t>(r) * cols;
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(dst + c, _mm256_add_ps(_mm256_loadu_ps(dst + c),
                                              _mm256_loadu_ps(row + c)));
    }
    for (; c < cols; ++c) dst[c] += row[c];
  }
}

void avx2_gru_blend(const float* z, const float* h, const float* hc,
                    float* out, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  const __m256 ones = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 zv = _mm256_loadu_ps(z + i);
    const __m256 keep =
        _mm256_mul_ps(_mm256_sub_ps(ones, zv), _mm256_loadu_ps(h + i));
    const __m256 cand = _mm256_mul_ps(zv, _mm256_loadu_ps(hc + i));
    _mm256_storeu_ps(out + i, _mm256_add_ps(keep, cand));
  }
  for (; i < n; ++i) {
    const float omz = 1.0f - z[i];
    const float keep = omz * h[i];
    const float cand = z[i] * hc[i];
    out[i] = keep + cand;
  }
}

constexpr Ops kAvx2Ops = {
    "avx2",
    avx2_matmul_block,
    avx2_matmul_tn_block,
    avx2_matmul_nt_block,
    avx2_gather_rows,
    avx2_scatter_rows,
    avx2_indexed_row_add,
    avx2_gathered_row_add,
    avx2_scale_rows,
    avx2_add_scaled_rows,
    avx2_axpy,
    avx2_mul_inplace,
    avx2_madd,
    avx2_add_bias_rows,
    avx2_colsum_add,
    avx2_gru_blend,
};

// Only the matmuls diverge; everything per-element reuses the avx2 kernels.
constexpr Ops kAvx2FmaOps = {
    "avx2fma",
    fma_matmul_block,
    fma_matmul_tn_block,
    fma_matmul_nt_block,
    avx2_gather_rows,
    avx2_scatter_rows,
    avx2_indexed_row_add,
    avx2_gathered_row_add,
    avx2_scale_rows,
    avx2_add_scaled_rows,
    avx2_axpy,
    avx2_mul_inplace,
    avx2_madd,
    avx2_add_bias_rows,
    avx2_colsum_add,
    avx2_gru_blend,
};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }
const Ops* avx2fma_ops() { return &kAvx2FmaOps; }

}  // namespace rn::ag::kern
