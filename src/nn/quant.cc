#include "nn/quant.h"

#include <cmath>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "nn/ops.h"

namespace t2vec::nn {

namespace {

// Row-scan grain for the quantized GEMM: one output row (H int8 dots) is
// already substantial work, so split fine.
constexpr size_t kQGemmGrain = 1;

// Quantizes `n` floats at stride `stride` into q with the row's symmetric
// scale. Shared by weight (column walk) and activation (row walk) paths so
// both use the same lrintf rounding.
float QuantizeStrided(const float* x, size_t n, size_t stride, int8_t* q) {
  float max_abs = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i * stride]);
    if (a > max_abs) max_abs = a;
  }
  if (max_abs == 0.0f) {
    for (size_t i = 0; i < n; ++i) q[i] = 0;
    return 0.0f;
  }
  const float scale = max_abs / 127.0f;
  const float inv = 127.0f / max_abs;
  for (size_t i = 0; i < n; ++i) {
    // lrintf never leaves [-127, 127] here because |x| <= max_abs.
    q[i] = static_cast<int8_t>(std::lrintf(x[i * stride] * inv));
  }
  return scale;
}

}  // namespace

QuantizedMatrix QuantizeTransposed(ConstMatrixView w) {
  QuantizedMatrix out;
  AppendTransposed(w, &out);
  return out;
}

void AppendTransposed(ConstMatrixView w, QuantizedMatrix* dst) {
  if (dst->rows == 0) {
    dst->cols = w.rows;
  } else {
    T2VEC_CHECK(dst->cols == w.rows);
  }
  const size_t first = dst->rows;
  dst->rows += w.cols;
  dst->data.resize(dst->rows * dst->cols);
  dst->scales.resize(dst->rows);
  for (size_t c = 0; c < w.cols; ++c) {
    // Output channel c of w is column c: elements w[k][c], stride w.ld.
    dst->scales[first + c] = QuantizeStrided(
        w.data + c, w.rows, w.ld, dst->data.data() + (first + c) * dst->cols);
  }
}

void QuantizeRowsDynamic(ConstMatrixView x, std::vector<int8_t>* q,
                         std::vector<float>* scales) {
  q->resize(x.rows * x.cols);
  scales->resize(x.rows);
  for (size_t i = 0; i < x.rows; ++i) {
    (*scales)[i] = QuantizeStrided(x.Row(i), x.cols, 1,
                                   q->data() + i * x.cols);
  }
}

void QuantizedGemmTransB(const int8_t* qx, const float* sx, size_t m,
                         const QuantizedMatrix& qw, MatrixView out,
                         bool accumulate, const float* bias) {
  T2VEC_CHECK(out.rows == m && out.cols == qw.rows);
  const KernelOps& ops = Kernels();
  const size_t k = qw.cols;
  const size_t n = qw.rows;
  ParallelFor(0, m, kQGemmGrain, [&](size_t i) {
    const int8_t* __restrict xrow = qx + i * k;
    const float s_row = sx[i];
    float* __restrict orow = out.Row(i);
    for (size_t j = 0; j < n; ++j) {
      // Fixed per-element fp chain: exact int32 dot, one combined scale,
      // one fma into the (optional) accumulator, one bias add.
      const float dotf =
          static_cast<float>(ops.dot_i8(xrow, qw.Row(j), k));
      const float scale = s_row * qw.scales[j];
      float v = accumulate ? std::fma(scale, dotf, orow[j]) : scale * dotf;
      if (bias != nullptr) v += bias[j];
      orow[j] = v;
    }
  });
}

QuantizedGruLayer::QuantizedGruLayer(const GruLayer& layer) {
  const GruLayer::WeightRefs w = layer.Weights();
  // Channel order [c | z | r] matches GruLayer::Step's fp32 pre layout.
  AppendTransposed(*w.wc, &w_pack_);
  AppendTransposed(*w.wz, &w_pack_);
  AppendTransposed(*w.wr, &w_pack_);
  AppendTransposed(*w.uz, &u_pack_);
  AppendTransposed(*w.ur, &u_pack_);
  uc_ = QuantizeTransposed(*w.uc);
  bz_ = *w.bz;
  br_ = *w.br;
  bc_ = *w.bc;
}

void QuantizedGruLayer::Step(ConstMatrixView x, MatrixView h, MatrixView pre,
                             const GruLayer::StepGates& g,
                             std::vector<int8_t>* q,
                             std::vector<float>* scales) const {
  const size_t batch = x.rows;
  const size_t dim = hidden();
  T2VEC_CHECK(x.cols == in_dim() && h.rows == batch && h.cols == dim);

  // [pre_c | pre_z | pre_r] = deq(q(x) · qW^T); then the z/r blocks get the
  // hidden term and the c block the (r ⊙ h⁻) term, mirroring the fp32 gate
  // structure in GruLayer::Step.
  QuantizeRowsDynamic(x, q, scales);
  QuantizedGemmTransB(q->data(), scales->data(), batch, w_pack_, pre,
                      /*accumulate=*/false, nullptr);
  QuantizeRowsDynamic(h, q, scales);
  QuantizedGemmTransB(q->data(), scales->data(), batch, u_pack_,
                      ColBlock(pre, dim, 2 * dim), /*accumulate=*/true,
                      nullptr);

  AddRowBroadcastV(ColBlock(pre, dim, dim), bz_);
  SigmoidV(ColBlock(pre, dim, dim), g.z);
  AddRowBroadcastV(ColBlock(pre, 2 * dim, dim), br_);
  SigmoidV(ColBlock(pre, 2 * dim, dim), g.r);

  HadamardV(g.r, h, g.rh);
  QuantizeRowsDynamic(g.rh, q, scales);
  QuantizedGemmTransB(q->data(), scales->data(), batch, uc_,
                      ColBlock(pre, 0, dim), /*accumulate=*/true, nullptr);
  AddRowBroadcastV(ColBlock(pre, 0, dim), bc_);
  TanhV(ColBlock(pre, 0, dim), g.c);

  GruStateUpdate(g.z, g.c, h, h);
}

QuantizedGru::QuantizedGru(const Gru& gru) {
  layers_.reserve(gru.layers());
  for (size_t l = 0; l < gru.layers(); ++l) {
    layers_.emplace_back(gru.layer(l));
  }
}

void QuantizedGru::ForwardPacked(const std::vector<size_t>& batch_sizes,
                                 const PackedStepInput& input,
                                 Matrix* final_h) const {
  std::vector<int8_t> q;
  std::vector<float> scales;
  RunPackedLayers(
      layers(), hidden(), batch_sizes, input,
      [&](size_t l, ConstMatrixView x, MatrixView h, MatrixView pre,
          const GruLayer::StepGates& gates) {
        layers_[l].Step(x, h, pre, gates, &q, &scales);
      },
      final_h);
}

}  // namespace t2vec::nn
