#ifndef T2VEC_NN_KERNELS_H_
#define T2VEC_NN_KERNELS_H_

#include <cstddef>

#include "common/cpu.h"

/// \file
/// Runtime-dispatched inner kernels shared by the GEMM and distance paths.
///
/// Every entry point exists in (at least) two implementations — a portable
/// scalar reference (kernels_scalar.cc) and an AVX2+FMA version
/// (kernels_avx2.cc, the only TU in the tree allowed to include
/// <immintrin.h>; the determinism linter enforces that). The pair is
/// bit-identical by construction, not by tolerance: each fp32 kernel keeps 8
/// independent accumulator lanes advanced with fused multiply-adds plus an
/// in-order scalar tail, which maps one-to-one onto a single ymm accumulator
/// — per-element rounding chains are the same instruction-for-value. The
/// f64 kernels use 8 double lanes (two ymm registers) with explicit
/// std::fma on the scalar side so -ffp-contract cannot desynchronize the
/// tiers, and the fixed pairwise combine ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)).
///
/// Tier selection comes from common/cpu.h (CPU probe + T2VEC_SIMD
/// override). simd_kernels_test memcmp-compares the tiers on every kernel.

namespace t2vec::nn {

/// Function-pointer table for one dispatch tier.
struct KernelOps {
  const char* name;  ///< Tier name, e.g. "scalar", "avx2".

  /// Lane-split fp32 dot product: 8 fma lanes over the body, in-order scalar
  /// fma tail, then tail + lane[0] + ... + lane[7] sequentially.
  float (*dot)(const float* x, const float* y, size_t k);

  /// Dots of four x-rows against one shared y stream; each output element
  /// reduces exactly like dot().
  void (*dot4)(const float* x0, const float* x1, const float* x2,
               const float* x3, const float* y, size_t k, float* out);

  /// Full-width 8 x 32 GEMM micro-tile accumulation: for p in [p0, p1)
  /// ascending, av = alpha * a[r * row_stride + p * step_stride] and
  /// acc[r][j] = fma(av, b[p * ldb + j], acc[r][j]). `acc` is a row-major
  /// 8 x 32 buffer owned by the caller (loaded/stored around the call).
  void (*tile8x32)(float* acc, const float* a, size_t row_stride,
                   size_t step_stride, const float* b, size_t ldb, size_t p0,
                   size_t p1, float alpha);

  /// sum(x[i]^2) in double: 8 fma lanes, in-order fma tail, pairwise combine.
  double (*sqnorm)(const float* x, size_t n);

  /// sum(x[i] * y[i]) in double, same reduction shape as sqnorm.
  double (*dot_f64)(const float* x, const float* y, size_t n);

  /// sum((x[i] - y[i])^2) in double (difference taken in double), same
  /// reduction shape as sqnorm.
  double (*sqdist_f64)(const float* x, const float* y, size_t n);

  /// Four sqdist_f64 calls that share one query: out[t] = sqdist_f64(x,
  /// r_t, n) bit for bit, where `q` is x already widened to double (the
  /// scans widen it once per query, not once per row). The rows are
  /// separate pointers because a group of four may straddle two storage
  /// blocks (an index's borrowed mmap prefix and its owned tail).
  void (*sqdist4_f64)(const double* q, const float* r0, const float* r1,
                      const float* r2, const float* r3, size_t n,
                      double* out);
};

/// The table for `tier`, falling back to scalar when the tier has no
/// implementation in this build.
const KernelOps& KernelsFor(SimdTier tier);

/// The table for ActiveSimdTier().
const KernelOps& Kernels();

namespace internal {
/// The AVX2 table, or nullptr when this build/platform has none. Defined in
/// kernels_avx2.cc; callers must gate on SimdTierSupported(kAvx2) before
/// executing any of its entries.
const KernelOps* GetAvx2Kernels();
}  // namespace internal

}  // namespace t2vec::nn

#endif  // T2VEC_NN_KERNELS_H_
