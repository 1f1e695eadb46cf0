#ifndef T2VEC_NN_MATRIX_H_
#define T2VEC_NN_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/macros.h"

/// \file
/// Dense row-major float matrix and the linear-algebra kernels the network
/// training loop is built on. This is the compute substrate replacing the
/// paper's PyTorch/GPU stack (see DESIGN.md §1).
///
/// Design notes:
///  - `float` storage: training at this scale is well conditioned in fp32 and
///    halves memory traffic versus double.
///  - All kernels are free functions with explicit output parameters so the
///    training loop can reuse buffers across steps without reallocation.
///  - Accumulating variants (`beta = 1`) are provided because backprop sums
///    gradient contributions in place.
///  - The GEMM kernels are cache-blocked, register-tiled, and partition
///    output rows across the deterministic thread pool. Every output element
///    is accumulated in a fixed order (see "Determinism" below), so results
///    are bit-identical to a serial run at any thread count (DESIGN.md
///    "Kernels").
///
/// Determinism contract of the kernel layer:
///  - `Gemm`/`GemmTransA`: element (i, j) is the fp32 chain
///    `acc = beta-term; for p ascending: acc = fma(alpha * a_ip, b_pj, acc)`.
///    The reduction dimension is never split across SIMD lanes or threads,
///    so blocking, tiling, and row partitioning cannot change the result.
///  - `GemmTransB`: element (i, j) reduces along the contiguous dimension
///    with a fixed 8-lane split (`DotLanes`), again identical across block
///    sizes and thread counts. The `segment` parameter chains several
///    consecutive k-segments exactly like back-to-back `beta = 1` calls; the
///    GRU backward uses it to keep the per-gate accumulation order that its
///    golden digests pin (tests/model_golden_test.cc).
///  - All accumulations use `std::fma`, so results do not depend on whether
///    the compiler contracts a particular loop.
/// Caveat: unlike the pre-blocking kernels, zero entries of `a` are no
/// longer skipped, so non-finite inputs (inf/NaN) propagate into products
/// where they previously multiplied with a skipped zero. Finite inputs are
/// unaffected.

namespace t2vec::nn {

/// Dense row-major float matrix. A 1 x n matrix doubles as a row vector.
class Matrix {
 public:
  /// Creates an empty 0 x 0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Creates a zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Creates a matrix filled with `value`.
  Matrix(size_t rows, size_t cols, float value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the start of row r.
  float* Row(size_t r) {
    T2VEC_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(size_t r) const {
    T2VEC_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  float& At(size_t r, size_t c) {
    T2VEC_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    T2VEC_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float& operator()(size_t r, size_t c) { return At(r, c); }
  float operator()(size_t r, size_t c) const { return At(r, c); }

  /// Resizes to rows x cols; contents become unspecified unless the shape is
  /// unchanged. Use SetZero() afterwards when a fresh accumulator is needed.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Sets every element to zero.
  void SetZero() { std::fill(data_.begin(), data_.end(), 0.0f); }

  /// Sets every element to `value`.
  void Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

  /// Underlying storage (for serialization).
  const std::vector<float>& storage() const { return data_; }
  std::vector<float>& storage() { return data_; }

  /// Frobenius norm squared (8-lane double accumulation).
  double SquaredNorm() const;

  /// Debug rendering (small matrices only).
  std::string ToString(size_t max_rows = 6, size_t max_cols = 8) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// Whether `a` and `b` have identical shapes.
inline bool SameShape(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols();
}

// ---------------------------------------------------------------------------
// Strided views. A view is a non-owning rows x cols window whose consecutive
// rows are `ld` floats apart; they let the GRU and attention run GEMMs
// directly on column blocks of packed buffers without copies.
// ---------------------------------------------------------------------------

/// Mutable view of a row-major block with leading dimension `ld`.
struct MatrixView {
  float* data;
  size_t rows;
  size_t cols;
  size_t ld;

  MatrixView(float* d, size_t r, size_t c, size_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  /// Whole-matrix view.
  MatrixView(Matrix& m)  // NOLINT(google-explicit-constructor)
      : data(m.data()), rows(m.rows()), cols(m.cols()), ld(m.cols()) {}

  float* Row(size_t r) const { return data + r * ld; }
};

/// Read-only view of a row-major block with leading dimension `ld`.
struct ConstMatrixView {
  const float* data;
  size_t rows;
  size_t cols;
  size_t ld;

  ConstMatrixView(const float* d, size_t r, size_t c, size_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  ConstMatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : data(m.data()), rows(m.rows()), cols(m.cols()), ld(m.cols()) {}
  ConstMatrixView(const MatrixView& v)  // NOLINT(google-explicit-constructor)
      : data(v.data), rows(v.rows), cols(v.cols), ld(v.ld) {}

  const float* Row(size_t r) const { return data + r * ld; }
};

/// Columns [c0, c0 + cols) of `m` as a strided view.
inline MatrixView ColBlock(Matrix* m, size_t c0, size_t cols) {
  T2VEC_DCHECK(c0 + cols <= m->cols());
  return MatrixView(m->data() + c0, m->rows(), cols, m->cols());
}
inline ConstMatrixView ColBlock(const Matrix& m, size_t c0, size_t cols) {
  T2VEC_DCHECK(c0 + cols <= m.cols());
  return ConstMatrixView(m.data() + c0, m.rows(), cols, m.cols());
}

/// Columns [c0, c0 + cols) of a view.
inline MatrixView ColBlock(MatrixView v, size_t c0, size_t cols) {
  T2VEC_DCHECK(c0 + cols <= v.cols);
  return MatrixView(v.data + c0, v.rows, cols, v.ld);
}

/// Rows [r0, r0 + rows) of `m` (contiguous, same leading dimension).
inline MatrixView RowBlock(Matrix* m, size_t r0, size_t rows) {
  T2VEC_DCHECK(r0 + rows <= m->rows());
  return MatrixView(m->Row(r0), rows, m->cols(), m->cols());
}
inline ConstMatrixView RowBlock(const Matrix& m, size_t r0, size_t rows) {
  T2VEC_DCHECK(r0 + rows <= m.rows());
  return ConstMatrixView(m.Row(r0), rows, m.cols(), m.cols());
}

// ---------------------------------------------------------------------------
// GEMM kernels. out = alpha * op(a) * op(b) + beta * out.
// ---------------------------------------------------------------------------

/// out = alpha * a * b + beta * out, a: m x k, b: k x n.
void GemmV(ConstMatrixView a, ConstMatrixView b, MatrixView out,
           float alpha = 1.0f, float beta = 0.0f);

/// out = alpha * a^T * b + beta * out, a: k x m, b: k x n. Used for weight
/// gradients (dW = x^T dy).
void GemmTransAV(ConstMatrixView a, ConstMatrixView b, MatrixView out,
                 float alpha = 1.0f, float beta = 0.0f);

/// out = alpha * a * b^T + beta * out, a: m x k, b: n x k. Used for input
/// gradients (dx = dy W^T) and for scoring against embedding tables.
///
/// `segment` (0 = whole k) splits the reduction into consecutive segments of
/// that length, chained exactly like separate `beta = 1` calls per segment:
/// `v = beta-term; for each segment s: v = fma(alpha, dot_s, v)`. The GRU
/// backward passes `segment = hidden` over its packed `[Wc|Wz|Wr]`, which
/// reproduces the order of one call per gate.
void GemmTransBV(ConstMatrixView a, ConstMatrixView b, MatrixView out,
                 float alpha = 1.0f, float beta = 0.0f, size_t segment = 0);

/// Matrix-shaped convenience wrappers (the historical API).
void Gemm(const Matrix& a, const Matrix& b, Matrix* out, float alpha = 1.0f,
          float beta = 0.0f);
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out,
                float alpha = 1.0f, float beta = 0.0f);
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out,
                float alpha = 1.0f, float beta = 0.0f);

// ---------------------------------------------------------------------------
// Elementwise / rowwise helpers.
// ---------------------------------------------------------------------------

/// out += a (shapes must match).
void AddInPlace(Matrix* out, const Matrix& a);

/// out += scale * a.
void Axpy(float scale, const Matrix& a, Matrix* out);

/// out *= scale.
void Scale(Matrix* out, float scale);

/// bias_grad (1 x n) += column sums of `grad` (m x n).
void SumRowsIntoV(ConstMatrixView grad, Matrix* bias_grad);

/// out = a ⊙ b (Hadamard product).
void Hadamard(const Matrix& a, const Matrix& b, Matrix* out);
void HadamardV(ConstMatrixView a, ConstMatrixView b, MatrixView out);

/// out += a ⊙ b.
void HadamardAccum(const Matrix& a, const Matrix& b, Matrix* out);

/// Max |a - b| over all elements (shapes must match). For tests.
float MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace t2vec::nn

#endif  // T2VEC_NN_MATRIX_H_
