#include "nn/kernels.h"

/// \file
/// AVX2 + FMA implementations of the dispatched kernels. This is the ONLY
/// translation unit allowed to include <immintrin.h> (lint rule
/// raw-intrinsics); it is compiled with -mavx2 -mfma on x86 and collapses to
/// a nullptr table elsewhere. Nothing here may run unless the CPU probe
/// (common/cpu.h) reported AVX2 support — dispatch guarantees that.
///
/// Bit-identity with kernels_scalar.cc is structural: one ymm register IS
/// the scalar code's 8-lane accumulator array, vfmadd is std::fma, and
/// tails + lane combines reuse the same in-order scalar chains. See the
/// contract in nn/kernels.h.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>

namespace t2vec::nn {

namespace {

float DotAvx2(const float* __restrict x, const float* __restrict y, size_t k) {
  __m256 accv = _mm256_setzero_ps();
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    accv = _mm256_fmadd_ps(_mm256_loadu_ps(x + p), _mm256_loadu_ps(y + p),
                           accv);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, accv);
  float acc = 0.0f;
  for (; p < k; ++p) acc = std::fma(x[p], y[p], acc);
  for (size_t l = 0; l < 8; ++l) acc += lanes[l];
  return acc;
}

void Dot4Avx2(const float* __restrict x0, const float* __restrict x1,
              const float* __restrict x2, const float* __restrict x3,
              const float* __restrict y, size_t k, float* __restrict out) {
  __m256 v0 = _mm256_setzero_ps(), v1 = _mm256_setzero_ps(),
         v2 = _mm256_setzero_ps(), v3 = _mm256_setzero_ps();
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m256 yv = _mm256_loadu_ps(y + p);
    v0 = _mm256_fmadd_ps(_mm256_loadu_ps(x0 + p), yv, v0);
    v1 = _mm256_fmadd_ps(_mm256_loadu_ps(x1 + p), yv, v1);
    v2 = _mm256_fmadd_ps(_mm256_loadu_ps(x2 + p), yv, v2);
    v3 = _mm256_fmadd_ps(_mm256_loadu_ps(x3 + p), yv, v3);
  }
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  for (; p < k; ++p) {
    const float yv = y[p];
    a0 = std::fma(x0[p], yv, a0);
    a1 = std::fma(x1[p], yv, a1);
    a2 = std::fma(x2[p], yv, a2);
    a3 = std::fma(x3[p], yv, a3);
  }
  alignas(32) float lanes[8];
  const __m256 vs[4] = {v0, v1, v2, v3};
  const float tails[4] = {a0, a1, a2, a3};
  for (size_t t = 0; t < 4; ++t) {
    _mm256_store_ps(lanes, vs[t]);
    float acc = tails[t];
    for (size_t l = 0; l < 8; ++l) acc += lanes[l];
    out[t] = acc;
  }
}

void Tile8x32Avx2(float* __restrict acc, const float* __restrict a,
                  size_t row_stride, size_t step_stride,
                  const float* __restrict b, size_t ldb, size_t p0, size_t p1,
                  float alpha) {
  // Four 8-column slabs; per (r, j) element the accumulation chain over p is
  // the same as the scalar tile's (slab order only reorders independent
  // elements, never an element's own chain).
  //
  // The alpha-scaled A column is packed once per depth chunk (one fp32
  // rounding per (r, p), exactly the scalar tile's av[r]) so the hot loop
  // is pure memory-broadcast + fma: 9 load-port uops against 8 fmas per
  // depth step instead of a vmulss + register-broadcast pair per row — and
  // the scaling isn't redone for every slab. Chunking keeps the scratch in
  // L1 and on the stack; chaining chunks preserves each element's order.
  constexpr size_t kChunk = 128;
  alignas(32) float scaled[8 * kChunk];
  for (size_t q0 = p0; q0 < p1; q0 += kChunk) {
    const size_t q1 = q0 + kChunk < p1 ? q0 + kChunk : p1;
    for (size_t p = q0; p < q1; ++p) {
      const float* __restrict ap = a + p * step_stride;
      float* __restrict dst = scaled + (p - q0) * 8;
      for (size_t r = 0; r < 8; ++r) dst[r] = alpha * ap[r * row_stride];
    }
    for (size_t jj = 0; jj < 32; jj += 8) {
      float* __restrict slab = acc + jj;
      __m256 c0 = _mm256_loadu_ps(slab + 0 * 32);
      __m256 c1 = _mm256_loadu_ps(slab + 1 * 32);
      __m256 c2 = _mm256_loadu_ps(slab + 2 * 32);
      __m256 c3 = _mm256_loadu_ps(slab + 3 * 32);
      __m256 c4 = _mm256_loadu_ps(slab + 4 * 32);
      __m256 c5 = _mm256_loadu_ps(slab + 5 * 32);
      __m256 c6 = _mm256_loadu_ps(slab + 6 * 32);
      __m256 c7 = _mm256_loadu_ps(slab + 7 * 32);
      for (size_t p = q0; p < q1; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb + jj);
        const float* __restrict av = scaled + (p - q0) * 8;
        c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 0), bv, c0);
        c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 1), bv, c1);
        c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 2), bv, c2);
        c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 3), bv, c3);
        c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 4), bv, c4);
        c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 5), bv, c5);
        c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 6), bv, c6);
        c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 7), bv, c7);
      }
      _mm256_storeu_ps(slab + 0 * 32, c0);
      _mm256_storeu_ps(slab + 1 * 32, c1);
      _mm256_storeu_ps(slab + 2 * 32, c2);
      _mm256_storeu_ps(slab + 3 * 32, c3);
      _mm256_storeu_ps(slab + 4 * 32, c4);
      _mm256_storeu_ps(slab + 5 * 32, c5);
      _mm256_storeu_ps(slab + 6 * 32, c6);
      _mm256_storeu_ps(slab + 7 * 32, c7);
    }
  }
}

// Shared f64 reduction shape: 8 double lanes as two ymm accumulators
// (lo = lanes 0..3, hi = lanes 4..7), explicit-fma tail, fixed pairwise
// combine — byte-for-byte the scalar kernels' reduction.
inline double CombineF64(__m256d lo, __m256d hi, double tail) {
  alignas(32) double l[8];
  _mm256_store_pd(l, lo);
  _mm256_store_pd(l + 4, hi);
  return tail + ((l[0] + l[1]) + (l[2] + l[3])) +
         ((l[4] + l[5]) + (l[6] + l[7]));
}

double SqNormAvx2(const float* __restrict x, size_t n) {
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d vlo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d vhi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    lo = _mm256_fmadd_pd(vlo, vlo, lo);
    hi = _mm256_fmadd_pd(vhi, vhi, hi);
  }
  double acc = 0.0;
  for (; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    acc = std::fma(v, v, acc);
  }
  return CombineF64(lo, hi, acc);
}

double DotF64Avx2(const float* __restrict x, const float* __restrict y,
                  size_t n) {
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(xv)),
                         _mm256_cvtps_pd(_mm256_castps256_ps128(yv)), lo);
    hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)),
                         _mm256_cvtps_pd(_mm256_extractf128_ps(yv, 1)), hi);
  }
  double acc = 0.0;
  for (; i < n; ++i) {
    acc = std::fma(static_cast<double>(x[i]), static_cast<double>(y[i]), acc);
  }
  return CombineF64(lo, hi, acc);
}

double SqDistAvx2(const float* __restrict x, const float* __restrict y,
                  size_t n) {
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    const __m256d dlo =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(xv)),
                      _mm256_cvtps_pd(_mm256_castps256_ps128(yv)));
    const __m256d dhi =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)),
                      _mm256_cvtps_pd(_mm256_extractf128_ps(yv, 1)));
    lo = _mm256_fmadd_pd(dlo, dlo, lo);
    hi = _mm256_fmadd_pd(dhi, dhi, hi);
  }
  double acc = 0.0;
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
    acc = std::fma(d, d, acc);
  }
  return CombineF64(lo, hi, acc);
}

// One 8-element step of a SqDistAvx2 chain against a pre-widened query.
inline void SqDistStep(__m256d qlo, __m256d qhi, const float* r, __m256d& lo,
                       __m256d& hi) {
  const __m256d dlo = _mm256_sub_pd(qlo, _mm256_cvtps_pd(_mm_loadu_ps(r)));
  const __m256d dhi =
      _mm256_sub_pd(qhi, _mm256_cvtps_pd(_mm_loadu_ps(r + 4)));
  lo = _mm256_fmadd_pd(dlo, dlo, lo);
  hi = _mm256_fmadd_pd(dhi, dhi, hi);
}

// In-order fma tail of one row, as in SqDistAvx2.
inline double SqDistTail(const double* q, const float* r, size_t i, size_t n) {
  double acc = 0.0;
  for (; i < n; ++i) {
    const double d = q[i] - static_cast<double>(r[i]);
    acc = std::fma(d, d, acc);
  }
  return acc;
}

void SqDist4Avx2(const double* __restrict q, const float* __restrict r0,
                 const float* __restrict r1, const float* __restrict r2,
                 const float* __restrict r3, size_t n,
                 double* __restrict out) {
  // Per row, the same two-accumulator chain as SqDistAvx2; the query is
  // loaded once per step for all four rows instead of converted per row.
  __m256d lo0 = _mm256_setzero_pd(), hi0 = _mm256_setzero_pd();
  __m256d lo1 = _mm256_setzero_pd(), hi1 = _mm256_setzero_pd();
  __m256d lo2 = _mm256_setzero_pd(), hi2 = _mm256_setzero_pd();
  __m256d lo3 = _mm256_setzero_pd(), hi3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d qlo = _mm256_loadu_pd(q + i);
    const __m256d qhi = _mm256_loadu_pd(q + i + 4);
    SqDistStep(qlo, qhi, r0 + i, lo0, hi0);
    SqDistStep(qlo, qhi, r1 + i, lo1, hi1);
    SqDistStep(qlo, qhi, r2 + i, lo2, hi2);
    SqDistStep(qlo, qhi, r3 + i, lo3, hi3);
  }
  out[0] = CombineF64(lo0, hi0, SqDistTail(q, r0, i, n));
  out[1] = CombineF64(lo1, hi1, SqDistTail(q, r1, i, n));
  out[2] = CombineF64(lo2, hi2, SqDistTail(q, r2, i, n));
  out[3] = CombineF64(lo3, hi3, SqDistTail(q, r3, i, n));
}

constexpr KernelOps kAvx2Ops = {
    "avx2",     DotAvx2,    Dot4Avx2,    Tile8x32Avx2,
    SqNormAvx2, DotF64Avx2, SqDistAvx2, SqDist4Avx2,
};

}  // namespace

namespace internal {
const KernelOps* GetAvx2Kernels() { return &kAvx2Ops; }
}  // namespace internal

}  // namespace t2vec::nn

#else  // !x86

namespace t2vec::nn {
namespace internal {
const KernelOps* GetAvx2Kernels() { return nullptr; }
}  // namespace internal
}  // namespace t2vec::nn

#endif
