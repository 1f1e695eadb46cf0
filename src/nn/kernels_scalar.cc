#include "nn/kernels.h"

#include <cmath>

/// \file
/// Portable reference implementations of the dispatched kernels, plus the
/// tier-resolution glue. Every loop here is the bit-exactness contract: the
/// AVX2 TU mirrors these reduction shapes instruction-for-value
/// (see nn/kernels.h).

namespace t2vec::nn {

namespace {

constexpr size_t kLanes = 8;  // fp32 partial-sum lanes (one ymm register).

float DotScalar(const float* __restrict x, const float* __restrict y,
                size_t k) {
  float lanes[kLanes] = {0};
  size_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      lanes[l] = std::fma(x[p + l], y[p + l], lanes[l]);
    }
  }
  float acc = 0.0f;
  for (; p < k; ++p) acc = std::fma(x[p], y[p], acc);
  for (size_t l = 0; l < kLanes; ++l) acc += lanes[l];
  return acc;
}

// Reduces one element's lane array with the fixed in-order combine.
inline float ReduceLanes(const float* __restrict lanes, float tail) {
  for (size_t l = 0; l < kLanes; ++l) tail += lanes[l];
  return tail;
}

void Dot4Scalar(const float* __restrict x0, const float* __restrict x1,
                const float* __restrict x2, const float* __restrict x3,
                const float* __restrict y, size_t k, float* __restrict out) {
  float l0[kLanes] = {}, l1[kLanes] = {}, l2[kLanes] = {}, l3[kLanes] = {};
  size_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const float yv = y[p + l];
      l0[l] = std::fma(x0[p + l], yv, l0[l]);
      l1[l] = std::fma(x1[p + l], yv, l1[l]);
      l2[l] = std::fma(x2[p + l], yv, l2[l]);
      l3[l] = std::fma(x3[p + l], yv, l3[l]);
    }
  }
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  for (; p < k; ++p) {
    const float yv = y[p];
    a0 = std::fma(x0[p], yv, a0);
    a1 = std::fma(x1[p], yv, a1);
    a2 = std::fma(x2[p], yv, a2);
    a3 = std::fma(x3[p], yv, a3);
  }
  out[0] = ReduceLanes(l0, a0);
  out[1] = ReduceLanes(l1, a1);
  out[2] = ReduceLanes(l2, a2);
  out[3] = ReduceLanes(l3, a3);
}

void Tile8x32Scalar(float* __restrict acc, const float* __restrict a,
                    size_t row_stride, size_t step_stride,
                    const float* __restrict b, size_t ldb, size_t p0,
                    size_t p1, float alpha) {
  for (size_t p = p0; p < p1; ++p) {
    const float* __restrict brow = b + p * ldb;
    float av[8];
    for (size_t r = 0; r < 8; ++r) {
      av[r] = alpha * a[r * row_stride + p * step_stride];
    }
    for (size_t r = 0; r < 8; ++r) {
      float* __restrict arow = acc + r * 32;
      for (size_t j = 0; j < 32; ++j) {
        arow[j] = std::fma(av[r], brow[j], arow[j]);
      }
    }
  }
}

double SqNormScalar(const float* __restrict x, size_t n) {
  double lanes[kLanes] = {0};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const double v = static_cast<double>(x[i + l]);
      lanes[l] = std::fma(v, v, lanes[l]);
    }
  }
  double acc = 0.0;
  for (; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    acc = std::fma(v, v, acc);
  }
  return acc + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

double DotF64Scalar(const float* __restrict x, const float* __restrict y,
                    size_t n) {
  double lanes[kLanes] = {0};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      lanes[l] = std::fma(static_cast<double>(x[i + l]),
                          static_cast<double>(y[i + l]), lanes[l]);
    }
  }
  double acc = 0.0;
  for (; i < n; ++i) {
    acc = std::fma(static_cast<double>(x[i]), static_cast<double>(y[i]), acc);
  }
  return acc + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

double SqDistScalar(const float* __restrict x, const float* __restrict y,
                    size_t n) {
  double lanes[kLanes] = {0};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const double d =
          static_cast<double>(x[i + l]) - static_cast<double>(y[i + l]);
      lanes[l] = std::fma(d, d, lanes[l]);
    }
  }
  double acc = 0.0;
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
    acc = std::fma(d, d, acc);
  }
  return acc + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

// Four SqDistScalar reductions sharing one pre-widened query: per row the
// lanes, the in-order tail and the pairwise combine are SqDistScalar's.
void SqDist4Scalar(const double* __restrict q, const float* __restrict r0,
                   const float* __restrict r1, const float* __restrict r2,
                   const float* __restrict r3, size_t n,
                   double* __restrict out) {
  const float* rows[4] = {r0, r1, r2, r3};
  double lanes[4][kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t t = 0; t < 4; ++t) {
      for (size_t l = 0; l < kLanes; ++l) {
        const double d = q[i + l] - static_cast<double>(rows[t][i + l]);
        lanes[t][l] = std::fma(d, d, lanes[t][l]);
      }
    }
  }
  for (size_t t = 0; t < 4; ++t) {
    double acc = 0.0;
    for (size_t j = i; j < n; ++j) {
      const double d = q[j] - static_cast<double>(rows[t][j]);
      acc = std::fma(d, d, acc);
    }
    const double* l = lanes[t];
    out[t] = acc + ((l[0] + l[1]) + (l[2] + l[3])) +
             ((l[4] + l[5]) + (l[6] + l[7]));
  }
}

constexpr KernelOps kScalarOps = {
    "scalar",     DotScalar,    Dot4Scalar,   Tile8x32Scalar,
    SqNormScalar, DotF64Scalar, SqDistScalar, SqDist4Scalar,
};

}  // namespace

const KernelOps& KernelsFor(SimdTier tier) {
  if (tier == SimdTier::kAvx2) {
    if (const KernelOps* ops = internal::GetAvx2Kernels()) return *ops;
  }
  return kScalarOps;
}

const KernelOps& Kernels() { return KernelsFor(ActiveSimdTier()); }

}  // namespace t2vec::nn
