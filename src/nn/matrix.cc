#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/thread_pool.h"
#include "nn/kernels.h"

namespace t2vec::nn {

double Matrix::SquaredNorm() const {
  // Dispatched 8-double-lane reduction (nn/kernels.h sqnorm): explicit fma
  // per lane and a fixed combine tree, identical bits on every tier.
  return Kernels().sqnorm(data_.data(), data_.size());
}

std::string Matrix::ToString(size_t max_rows, size_t max_cols) const {
  const size_t shown_rows = std::min(rows_, max_rows);
  const size_t shown_cols = std::min(cols_, max_cols);
  std::string out;
  // Header + 10 bytes per rendered cell + row decorations; one allocation.
  out.reserve(64 + shown_rows * (10 * shown_cols + 8));
  char buf[64];
  // Header via snprintf: `"[" + std::to_string(...)` concatenation trips
  // GCC 12's -Wrestrict false positive on the inlined insert(0, const char*).
  const int hdr = std::snprintf(buf, sizeof(buf), "[%zu x %zu]\n", rows_, cols_);
  out.append(buf, static_cast<size_t>(hdr));
  for (size_t r = 0; r < shown_rows; ++r) {
    for (size_t c = 0; c < shown_cols; ++c) {
      const int len = std::snprintf(buf, sizeof(buf), "%9.4f ", At(r, c));
      out.append(buf, static_cast<size_t>(len));
    }
    if (cols_ > max_cols) out += "...";
    out += "\n";
  }
  if (rows_ > max_rows) out += "...\n";
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Blocked GEMM kernels.
//
// Tiling scheme (DESIGN.md "Kernels"): the output is walked in MR x NR
// register tiles accumulated with std::fma; panels of KC reduction steps and
// NC output columns keep the streamed operand resident in L2. Output rows
// are partitioned across the deterministic thread pool; each worker owns a
// disjoint contiguous row range, and every output element is accumulated in
// a fixed order regardless of blocking or thread count, so results are
// bit-identical to the serial kernel (enforced by matrix_test /
// fused_kernels_test).
// ---------------------------------------------------------------------------

constexpr size_t kMR = 8;    // Micro-tile rows (accumulator rows).
constexpr size_t kNR = 32;   // Micro-tile cols (two AVX-512 vectors).
constexpr size_t kKC = 256;  // Reduction panel length.
constexpr size_t kNC = 256;  // Output-column panel width.

// Engage the pool only when a GEMM has enough arithmetic to amortize the
// wake-up; below this it runs inline on the caller.
constexpr double kParallelMinFlops = 1.5e6;

// MR x nr output tile: acc = beta-term (first panel) or the partial result
// already stored in c, then acc = fma(alpha * a_elem, b_elem, acc) for
// p in [p0, p1) ascending; stores acc back to c. `kTransA` selects whether
// the a element for (row r, step p) is a[p * lda + r] (a^T) or
// a[r * lda + p]. fp32 stores between panels do not round, so panel splits
// never change the per-element chain.
template <size_t MR, bool kTransA>
void MicroTile(const KernelOps& ops, const float* __restrict a, size_t lda,
               const float* __restrict b, size_t ldb, float* __restrict c,
               size_t ldc, size_t nr, size_t p0, size_t p1, float alpha,
               float beta, bool first_panel) {
  float acc[MR][kNR];
  if (first_panel && beta == 0.0f) {
    for (size_t r = 0; r < MR; ++r) {
      for (size_t j = 0; j < nr; ++j) acc[r][j] = 0.0f;
    }
  } else if (first_panel && beta != 1.0f) {
    for (size_t r = 0; r < MR; ++r) {
      for (size_t j = 0; j < nr; ++j) acc[r][j] = beta * c[r * ldc + j];
    }
  } else {
    for (size_t r = 0; r < MR; ++r) {
      for (size_t j = 0; j < nr; ++j) acc[r][j] = c[r * ldc + j];
    }
  }

  if (nr == kNR) {
    if constexpr (MR == kMR) {
      // Full 8 x 32 tile: the dispatched kernel (scalar or AVX2, identical
      // per-element fma chains — nn/kernels.h) runs the accumulation.
      ops.tile8x32(&acc[0][0], a, kTransA ? 1 : lda, kTransA ? lda : 1, b,
                   ldb, p0, p1, alpha);
    } else {
      // Full-width edge tile: constant trip count so the j loops vectorize.
      for (size_t p = p0; p < p1; ++p) {
        const float* __restrict brow = b + p * ldb;
        float av[MR];
        for (size_t r = 0; r < MR; ++r) {
          av[r] = alpha * (kTransA ? a[p * lda + r] : a[r * lda + p]);
        }
        for (size_t r = 0; r < MR; ++r) {
          for (size_t j = 0; j < kNR; ++j) {
            acc[r][j] = std::fma(av[r], brow[j], acc[r][j]);
          }
        }
      }
    }
  } else {
    for (size_t p = p0; p < p1; ++p) {
      const float* __restrict brow = b + p * ldb;
      float av[MR];
      for (size_t r = 0; r < MR; ++r) {
        av[r] = alpha * (kTransA ? a[p * lda + r] : a[r * lda + p]);
      }
      for (size_t r = 0; r < MR; ++r) {
        for (size_t j = 0; j < nr; ++j) {
          acc[r][j] = std::fma(av[r], brow[j], acc[r][j]);
        }
      }
    }
  }

  for (size_t r = 0; r < MR; ++r) {
    for (size_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// Runs the blocked kernel over output rows [i0, i1). `a_row_stride` /
// `a_step_stride` express the a-element address as
// a[row * a_row_stride + p * a_step_stride].
template <bool kTransA>
void GemmRowRange(const KernelOps& ops, const float* a, size_t lda,
                  const float* b, size_t ldb, float* c, size_t ldc, size_t i0,
                  size_t i1, size_t k, size_t n, float alpha, float beta) {
  for (size_t jc = 0; jc < n; jc += kNC) {
    const size_t jc_end = std::min(jc + kNC, n);
    for (size_t pc = 0; pc < k; pc += kKC) {
      const size_t pc_end = std::min(pc + kKC, k);
      const bool first_panel = (pc == 0);
      size_t i = i0;
      while (i < i1) {
        const size_t left = i1 - i;
        const size_t mr = left >= 8 ? 8 : left >= 4 ? 4 : left >= 2 ? 2 : 1;
        const float* a_tile = kTransA ? a + i : a + i * lda;
        for (size_t j = jc; j < jc_end; j += kNR) {
          const size_t nr = std::min(kNR, jc_end - j);
          float* c_tile = c + i * ldc + j;
          const float* b_tile = b + j;
          switch (mr) {
            case 8:
              MicroTile<8, kTransA>(ops, a_tile, lda, b_tile, ldb, c_tile,
                                    ldc, nr, pc, pc_end, alpha, beta,
                                    first_panel);
              break;
            case 4:
              MicroTile<4, kTransA>(ops, a_tile, lda, b_tile, ldb, c_tile,
                                    ldc, nr, pc, pc_end, alpha, beta,
                                    first_panel);
              break;
            case 2:
              MicroTile<2, kTransA>(ops, a_tile, lda, b_tile, ldb, c_tile,
                                    ldc, nr, pc, pc_end, alpha, beta,
                                    first_panel);
              break;
            default:
              MicroTile<1, kTransA>(ops, a_tile, lda, b_tile, ldb, c_tile,
                                    ldc, nr, pc, pc_end, alpha, beta,
                                    first_panel);
          }
        }
        i += mr;
      }
    }
  }
}

// Partitions output rows [0, m) across the pool when the problem is big
// enough; each chunk is a pure function of (m, chunks), and chunks only
// bound how work is split — per-element accumulation order never depends on
// the partition.
template <bool kTransA>
void GemmBlocked(const float* a, size_t lda, const float* b, size_t ldb,
                 float* c, size_t ldc, size_t m, size_t k, size_t n,
                 float alpha, float beta) {
  if (m == 0 || n == 0) return;
  const KernelOps& ops = Kernels();  // Resolve the tier once per GEMM.
  if (k == 0) {
    // Pure beta scaling; no reduction panels to run.
    for (size_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      for (size_t j = 0; j < n; ++j) {
        row[j] = beta == 0.0f ? 0.0f : beta * row[j];
      }
    }
    return;
  }
  // The thread count is read only after the cheap inline checks, so a GEMM
  // that runs inline touches no global state.
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const bool inline_run = flops < kParallelMinFlops || m < 2 * kMR ||
                          ThreadPool::InParallelRegion();
  const int threads = inline_run ? 1 : GetNumThreads();
  if (threads <= 1) {
    GemmRowRange<kTransA>(ops, a, lda, b, ldb, c, ldc, 0, m, k, n, alpha,
                          beta);
    return;
  }
  const size_t chunks =
      std::min<size_t>(static_cast<size_t>(threads), (m + kMR - 1) / kMR);
  ParallelFor(0, chunks, 1, [&](size_t chunk) {
    const size_t i0 = (m * chunk) / chunks;
    const size_t i1 = (m * (chunk + 1)) / chunks;
    GemmRowRange<kTransA>(ops, a, lda, b, ldb, c, ldc, i0, i1, k, n, alpha,
                          beta);
  });
}

// ---------------------------------------------------------------------------
// GemmTransB: out(i, j) = dot(a row i, b row j) — both contiguous — so the
// reduction runs along the fast dimension and is lane-split 8 ways with a
// fixed in-order lane reduction, making every TransB path (tiled or not,
// any thread count) produce identical bits. Tiles of `kIT` a-rows share
// each streamed b row.
// ---------------------------------------------------------------------------

constexpr size_t kIT = 4;  // a-rows sharing one b-row stream.

// The lane-split dot kernels every TransB path reduces with now live in the
// dispatch table (nn/kernels.h dot / dot4): 8 fp32 partial-sum lanes with an
// in-order tail and combine, identical bits on every tier. The 4-row tiled
// variant reduces each element exactly like the single-row dot, so tiling
// rows cannot change bits.

// Segment chain shared by every TransB path: v = beta-term, then
// v = fma(alpha, dot_segment, v) per consecutive k-segment — exactly the
// chain produced by separate beta=1 calls, so a matmul over packed gate
// weights keeps the order of one call per gate.
void TransBRange(const KernelOps& ops, const float* a, size_t lda,
                 const float* b, size_t ldb, float* c, size_t ldc, size_t i0,
                 size_t i1, size_t j0, size_t j1, size_t k, float alpha,
                 float beta, size_t segment) {
  const size_t nseg = k / segment;
  size_t i = i0;
  while (i < i1) {
    const size_t it = std::min<size_t>(kIT, i1 - i);
    const float* xs[kIT];
    for (size_t t = 0; t < it; ++t) xs[t] = a + (i + t) * lda;
    for (size_t j = j0; j < j1; ++j) {
      const float* brow = b + j * ldb;
      float v[kIT];
      for (size_t t = 0; t < it; ++t) {
        float* cv = c + (i + t) * ldc + j;
        v[t] = beta == 0.0f ? 0.0f : beta * *cv;
      }
      for (size_t s = 0; s < nseg; ++s) {
        const size_t off = s * segment;
        float dots[kIT];
        if (it == kIT) {
          ops.dot4(xs[0] + off, xs[1] + off, xs[2] + off, xs[3] + off,
                   brow + off, segment, dots);
        } else {
          for (size_t t = 0; t < it; ++t) {
            dots[t] = ops.dot(xs[t] + off, brow + off, segment);
          }
        }
        for (size_t t = 0; t < it; ++t) {
          v[t] = std::fma(alpha, dots[t], v[t]);
        }
      }
      for (size_t t = 0; t < it; ++t) c[(i + t) * ldc + j] = v[t];
    }
    i += it;
  }
}

}  // namespace

void GemmV(ConstMatrixView a, ConstMatrixView b, MatrixView out, float alpha,
           float beta) {
  const size_t m = a.rows, k = a.cols, n = b.cols;
  T2VEC_CHECK(b.rows == k);
  T2VEC_CHECK(out.rows == m && out.cols == n);
  GemmBlocked<false>(a.data, a.ld, b.data, b.ld, out.data, out.ld, m, k, n,
                     alpha, beta);
}

void GemmTransAV(ConstMatrixView a, ConstMatrixView b, MatrixView out,
                 float alpha, float beta) {
  // out (m x n) = a^T * b, a: k x m, b: k x n.
  const size_t k = a.rows, m = a.cols, n = b.cols;
  T2VEC_CHECK(b.rows == k);
  T2VEC_CHECK(out.rows == m && out.cols == n);
  GemmBlocked<true>(a.data, a.ld, b.data, b.ld, out.data, out.ld, m, k, n,
                    alpha, beta);
}

void GemmTransBV(ConstMatrixView a, ConstMatrixView b, MatrixView out,
                 float alpha, float beta, size_t segment) {
  // out (m x n) = a * b^T, a: m x k, b: n x k.
  const size_t m = a.rows, k = a.cols, n = b.rows;
  T2VEC_CHECK(b.cols == k);
  T2VEC_CHECK(out.rows == m && out.cols == n);
  if (m == 0 || n == 0) return;
  if (segment == 0 || segment >= k) {
    segment = std::max<size_t>(k, 1);
  } else {
    T2VEC_CHECK(k % segment == 0);
  }
  if (k == 0) {
    for (size_t i = 0; i < m; ++i) {
      float* row = out.data + i * out.ld;
      for (size_t j = 0; j < n; ++j) {
        row[j] = beta == 0.0f ? 0.0f : beta * row[j];
      }
    }
    return;
  }

  const KernelOps& ops = Kernels();  // Resolve the tier once per GEMM.
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const bool inline_run =
      flops < kParallelMinFlops || ThreadPool::InParallelRegion();
  const int threads = inline_run ? 1 : GetNumThreads();
  if (threads <= 1) {
    TransBRange(ops, a.data, a.ld, b.data, b.ld, out.data, out.ld, 0, m, 0, n,
                k, alpha, beta, segment);
    return;
  }
  // Split whichever output dimension is larger; either way each element is
  // computed entirely by one worker, so the partition cannot change bits.
  if (m >= n) {
    const size_t chunks =
        std::min<size_t>(static_cast<size_t>(threads), (m + kIT - 1) / kIT);
    ParallelFor(0, chunks, 1, [&](size_t chunk) {
      const size_t i0 = (m * chunk) / chunks;
      const size_t i1 = (m * (chunk + 1)) / chunks;
      TransBRange(ops, a.data, a.ld, b.data, b.ld, out.data, out.ld, i0, i1,
                  0, n, k, alpha, beta, segment);
    });
  } else {
    const size_t chunks = std::min<size_t>(static_cast<size_t>(threads), n);
    ParallelFor(0, chunks, 1, [&](size_t chunk) {
      const size_t j0 = (n * chunk) / chunks;
      const size_t j1 = (n * (chunk + 1)) / chunks;
      TransBRange(ops, a.data, a.ld, b.data, b.ld, out.data, out.ld, 0, m,
                  j0, j1, k, alpha, beta, segment);
    });
  }
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out, float alpha,
          float beta) {
  GemmV(a, b, MatrixView(*out), alpha, beta);
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out, float alpha,
                float beta) {
  GemmTransAV(a, b, MatrixView(*out), alpha, beta);
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out, float alpha,
                float beta) {
  GemmTransBV(a, b, MatrixView(*out), alpha, beta);
}

void AddInPlace(Matrix* out, const Matrix& a) {
  T2VEC_CHECK(SameShape(*out, a));
  float* __restrict o = out->data();
  const float* __restrict x = a.data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) o[i] += x[i];
}

void Axpy(float scale, const Matrix& a, Matrix* out) {
  T2VEC_CHECK(SameShape(*out, a));
  float* __restrict o = out->data();
  const float* __restrict x = a.data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) o[i] += scale * x[i];
}

void Scale(Matrix* out, float scale) {
  float* __restrict o = out->data();
  const size_t n = out->size();
  for (size_t i = 0; i < n; ++i) o[i] *= scale;
}

void SumRowsIntoV(ConstMatrixView grad, Matrix* bias_grad) {
  T2VEC_CHECK(bias_grad->rows() == 1 && bias_grad->cols() == grad.cols);
  float* __restrict b = bias_grad->data();
  const size_t n = grad.cols;
  for (size_t r = 0; r < grad.rows; ++r) {
    const float* __restrict g = grad.Row(r);
    for (size_t j = 0; j < n; ++j) b[j] += g[j];
  }
}

void HadamardV(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  T2VEC_CHECK(a.rows == b.rows && a.cols == b.cols);
  T2VEC_CHECK(a.rows == out.rows && a.cols == out.cols);
  for (size_t r = 0; r < a.rows; ++r) {
    const float* __restrict x = a.Row(r);
    const float* __restrict y = b.Row(r);
    float* __restrict o = out.Row(r);
    for (size_t j = 0; j < a.cols; ++j) o[j] = x[j] * y[j];
  }
}

void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) {
  T2VEC_CHECK(SameShape(a, b));
  out->Resize(a.rows(), a.cols());
  HadamardV(a, b, *out);
}

void HadamardAccum(const Matrix& a, const Matrix& b, Matrix* out) {
  T2VEC_CHECK(SameShape(a, b));
  T2VEC_CHECK(SameShape(a, *out));
  const float* __restrict x = a.data();
  const float* __restrict y = b.data();
  float* __restrict o = out->data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) o[i] += x[i] * y[i];
}

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  T2VEC_CHECK(SameShape(a, b));
  float max_diff = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.data()[i] - b.data()[i]));
  }
  return max_diff;
}

}  // namespace t2vec::nn
