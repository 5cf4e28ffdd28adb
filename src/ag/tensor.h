// Dense row-major float matrix — the only tensor type the library needs.
//
// Everything RouteNet manipulates (link states, path states, messages,
// parameters) is a 2-D matrix; vectors are 1×C or R×1 matrices and scalars
// are 1×1. Keeping a single concrete type keeps the autodiff tape simple.
//
// Backing storage comes from the per-thread workspace arena (ag/arena.h):
// constructing a Tensor acquires a pooled buffer, destroying it returns the
// buffer, so steady-state loops with stable shapes allocate nothing.
#pragma once

#include <cstring>
#include <initializer_list>
#include <vector>

#include "ag/arena.h"
#include "util/check.h"

namespace rn::ag {

class Tensor {
 public:
  Tensor() = default;

  // Zero-filled matrix.
  Tensor(int rows, int cols);

  Tensor(int rows, int cols, float fill);

  // Pooled buffers carry stale contents, so copies memcpy and moves steal
  // the buffer; both leave arena accounting to the Buffer itself.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept
      : rows_(other.rows_), cols_(other.cols_), buf_(std::move(other.buf_)) {
    other.rows_ = 0;
    other.cols_ = 0;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      buf_ = std::move(other.buf_);
      other.rows_ = 0;
      other.cols_ = 0;
    }
    return *this;
  }

  static Tensor zeros(int rows, int cols) { return Tensor(rows, cols); }
  static Tensor full(int rows, int cols, float v) {
    return Tensor(rows, cols, v);
  }
  static Tensor scalar(float v) { return Tensor(1, 1, v); }

  // Row-literal constructor for tests: Tensor::from_rows({{1,2},{3,4}}).
  static Tensor from_rows(
      std::initializer_list<std::initializer_list<float>> rows);

  // Column vector from values.
  static Tensor column(const std::vector<float>& values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float& at(int r, int c) {
    RN_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_,
             "Tensor::at out of range");
    return buf_.data()[static_cast<std::size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    RN_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_,
             "Tensor::at out of range");
    return buf_.data()[static_cast<std::size_t>(r) * cols_ + c];
  }

  // Unchecked flat access for hot loops.
  float& operator[](std::size_t i) { return buf_.data()[i]; }
  float operator[](std::size_t i) const { return buf_.data()[i]; }

  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }

  float* row(int r) {
    return buf_.data() + static_cast<std::size_t>(r) * cols_;
  }
  const float* row(int r) const {
    return buf_.data() + static_cast<std::size_t>(r) * cols_;
  }

  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void fill(float v);

  // this += other * s (shapes must match).
  void add_scaled(const Tensor& other, float s);

  void scale(float s);

  // Sum of squares of all entries; used for gradient-norm clipping.
  double squared_norm() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  detail::Buffer buf_;
};

// Non-autodiff matrix kernels shared by forward and backward passes.
//
// The inner loops live in the runtime-dispatched kernel layer
// (ag/kernels.h, RN_KERNELS=scalar|avx2|avx2fma). All three are
// cache-blocked and run row-ranges of C on the global thread pool once the
// multiply-add count crosses matmul_parallel_threshold(). Each output row
// is produced entirely by one chunk with the same inner accumulation order
// as the serial kernel, so results are bitwise identical at any thread
// count (and, for the scalar/avx2 backends, across backends).

// C = A B.
Tensor matmul(const Tensor& a, const Tensor& b);
// C = Aᵀ B (no materialized transpose).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
// C = A Bᵀ.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// Multiply-add count (m*n*k) above which the kernels go parallel. The
// default amortizes task overhead on realistic batch shapes; tests lower it
// to force the threaded path on small matrices. The chunk grain is
// shape-aware: rows are split so each chunk carries at least a threshold's
// worth of multiply-adds and the range yields at most one chunk per pool
// thread, so fan-out never hands a thread less work than the task overhead
// it costs.
long long matmul_parallel_threshold();
void set_matmul_parallel_threshold(long long macs);

}  // namespace rn::ag
