// SIMD kernel layer: the raw inner loops of the autodiff hot path, behind a
// runtime-dispatched backend table.
//
// Backends:
//   scalar  — the reference implementation: exactly the pre-SIMD loops, the
//             bitwise anchor every other backend is tested against.
//   avx2    — 8-wide AVX2 using separate multiply and add instructions in
//             the same per-element accumulation order (and the same
//             zero-entry skips) as the scalar loops, so results are bitwise
//             identical to scalar. The matmuls hold up to 32 columns of
//             C per row in registers (two rows at a time for tn and nt);
//             matmul_nt reads B through a transposed per-thread panel and
//             matmul_tn walks B in L1-sized row panels. The default
//             wherever the CPU supports it.
//   avx2fma — AVX2 + FMA with reassociated reductions (matmul_nt runs an
//             8-lane partial-sum dot product). Fastest, but fused rounding
//             and reassociation make results diverge from scalar by a few
//             ULPs — an explicit opt-in that trades the bitwise-determinism
//             contract for speed. Never selected automatically.
//
// Selection: RN_KERNELS=scalar|avx2|avx2fma (or `auto`/unset for the best
// bitwise-safe backend the CPU supports), read once at first kernel use;
// `set_kernel_backend` is the programmatic/test seam. A backend compiled
// out of the binary or unsupported by the CPU fails fast with a clear
// message rather than silently falling back.
//
// Every function operates on row-major float buffers. The matmul block
// kernels compute C-row ranges [r0, r1) and are driven by the parallel
// chunking in tensor.cpp; all other kernels are sequential over rows by
// contract (indexed adds must preserve ascending-index accumulation order).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rn::ag::kern {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx2Fma = 2 };

// C-row tile: one parallel chunk's working set of output rows — also the
// grain multiple of the row-range chunking in tensor.cpp, so a chunk never
// splits a tile. kTileK is the inner-dimension panel kept cache-resident
// across a row tile.
inline constexpr int kTileRows = 32;
inline constexpr int kTileK = 240;

struct Ops {
  const char* name;

  // c[r0:r1) += a[r0:r1) * b for row-major a (m×k), b (k×n).
  void (*matmul_block)(const float* a, const float* b, float* c, int r0,
                       int r1, int k, int n);
  // c[r0:r1) += aᵀ[r0:r1) * b for row-major a (k×m), b (k×n).
  void (*matmul_tn_block)(const float* a, const float* b, float* c, int r0,
                          int r1, int m, int k, int n);
  // c[r0:r1) += a[r0:r1) * bᵀ for row-major a (m×k), b (n×k).
  void (*matmul_nt_block)(const float* a, const float* b, float* c, int r0,
                          int r1, int k, int n);

  // dst[i] = src[idx[i]] for i in [0, nrows).
  void (*gather_rows)(const float* src, const int* idx, int nrows, int cols,
                      float* dst);
  // dst[idx[i]] = src[i] (unique idx by caller contract).
  void (*scatter_rows)(float* dst, const int* idx, int nrows, int cols,
                       const float* src);
  // dst[idx[i]] += src[i], ascending i (segment_sum forward, gather/scatter
  // backward). Duplicate indices accumulate in order.
  void (*indexed_row_add)(float* dst, const int* idx, int nrows, int cols,
                          const float* src);
  // dst[i] += src[idx[i]], ascending i (segment_sum backward).
  void (*gathered_row_add)(float* dst, const int* idx, int nrows, int cols,
                           const float* src);
  // data[r] *= factors[r], elementwise per row.
  void (*scale_rows)(float* data, const float* factors, int rows, int cols);
  // dst[r] += src[r] * factors[r] (scale_rows backward).
  void (*add_scaled_rows)(float* dst, const float* src, const float* factors,
                          int rows, int cols);

  // y += x * s.
  void (*axpy)(float* y, const float* x, float s, std::size_t n);
  // y *= x, elementwise.
  void (*mul_inplace)(float* y, const float* x, std::size_t n);
  // dst += a ∘ b, elementwise.
  void (*madd)(float* dst, const float* a, const float* b, std::size_t n);
  // m[r] += bias for every row (bias is 1×cols).
  void (*add_bias_rows)(float* m, const float* bias, int rows, int cols);
  // dst[c] += Σ_r src[r][c], ascending r (bias gradient).
  void (*colsum_add)(float* dst, const float* src, int rows, int cols);
  // out = (1−z)∘h + z∘hc with the exact scalar operation order
  // (1−z, (1−z)·h, z·hc, sum) so the fused GRU matches the composed ops.
  void (*gru_blend)(const float* z, const float* h, const float* hc,
                    float* out, std::size_t n);
};

// The active backend's table (resolves RN_KERNELS on first call).
const Ops& active();
Backend active_backend();

// The table for a specific backend — bench/test access. RN_CHECK-fails for
// a backend that is compiled out or unsupported by this CPU.
const Ops& ops(Backend backend);

bool backend_available(Backend backend);
const char* backend_name(Backend backend);

// Switches the active backend; returns the previous one. Fails fast when
// the requested backend is unavailable.
Backend set_kernel_backend(Backend backend);

// Elementwise transcendental helpers shared by every backend (libm calls —
// the bitwise contract pins them to std::exp / std::tanh, so there is no
// vectorized variant).
void sigmoid_inplace(float* x, std::size_t n);
void tanh_inplace(float* x, std::size_t n);

}  // namespace rn::ag::kern
