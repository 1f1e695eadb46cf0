#ifndef T2VEC_NN_QUANT_H_
#define T2VEC_NN_QUANT_H_

#include <cstdint>
#include <vector>

#include "nn/gru.h"
#include "nn/matrix.h"

/// \file
/// int8 symmetric quantization for the serving-path encoder.
///
/// Weights are quantized once at load time, per output channel (row of W^T):
/// scale = max|w| / 127, zero point 0, so dequantization is a single
/// multiply and the worst-case per-element error is scale / 2. Activations
/// are quantized dynamically per batch row with the same symmetric scheme.
/// The inner product runs int8 x int8 -> int32 exactly (kernels.h dot_i8),
/// then one fp32 dequantize-accumulate per output element with a fixed
/// operation order.
///
/// Determinism: the int32 dots are exact integers (any evaluation order,
/// any dispatch tier gives the same value), activation quantization is
/// scalar-only arithmetic, and the fp32 dequantize chain per element is
/// fixed in source — so quantized inference is bit-identical across thread
/// counts AND across SIMD tiers (stronger than the fp32 path, which is
/// bit-identical across threads/tiers by matching reduction shapes).
///
/// Accuracy: quantization does change results relative to fp32 — that is
/// the speed/accuracy trade. EXPERIMENTS.md records the measured max
/// embedding error and the fig5 kNN-precision delta.

namespace t2vec::nn {

/// A weight matrix stored quantized and transposed: row r holds output
/// channel r's k weights contiguously, with its dequantization scale.
struct QuantizedMatrix {
  size_t rows = 0;  ///< Output channels.
  size_t cols = 0;  ///< Reduction length k.
  std::vector<int8_t> data;  ///< rows x cols, row-major.
  std::vector<float> scales;  ///< Per-row dequant scale (max|row| / 127).

  const int8_t* Row(size_t r) const { return data.data() + r * cols; }
};

/// Quantizes w^T (w is k x out, e.g. a GRU gate weight in its natural
/// layout): the result has `out` rows of length k.
QuantizedMatrix QuantizeTransposed(ConstMatrixView w);

/// Appends w^T's rows to `dst` (stacking gate packs such as [Wc|Wz|Wr]).
/// w.rows must equal dst->cols unless dst is empty.
void AppendTransposed(ConstMatrixView w, QuantizedMatrix* dst);

/// Quantizes each row of `x` symmetrically into `q` (resized to
/// x.rows * x.cols) with per-row scales (resized to x.rows). Rounding is
/// lrintf (round-to-nearest-even at ties via the default rounding mode);
/// an all-zero row gets scale 0. Scalar arithmetic only — every dispatch
/// tier quantizes identically.
void QuantizeRowsDynamic(ConstMatrixView x, std::vector<int8_t>* q,
                         std::vector<float>* scales);

/// out(i, j) = [accumulate ? out(i, j) : 0]
///             + sx[i] * qw.scales[j] * dot_i8(qx row i, qw row j)
///             [+ bias[j]]
/// for the m x qw.rows output view. Parallelized over output rows (each
/// element computed wholly by one worker). `qx` holds m rows of qw.cols
/// int8 values; `bias`, when non-null, has qw.rows entries.
void QuantizedGemmTransB(const int8_t* qx, const float* sx, size_t m,
                         const QuantizedMatrix& qw, MatrixView out,
                         bool accumulate, const float* bias);

/// One GRU layer running int8 inference with the gate structure of
/// GruLayer::Step ([c|z|r] pre-activations, fp32
/// sigmoid/tanh). Weights are captured (quantized) at construction; later
/// optimizer steps on the source layer do NOT refresh them — rebuild for
/// that.
class QuantizedGruLayer {
 public:
  explicit QuantizedGruLayer(const GruLayer& layer);

  /// One step over the B rows of `x` (B x in_dim), updating the running
  /// state `h` (B x H) in place; `pre` (B x 3H) and `gates` are scratch,
  /// `q`/`scales` the reused activation-quantization buffers. Every row's
  /// chain is row-local, as in GruLayer::Step.
  void Step(ConstMatrixView x, MatrixView h, MatrixView pre,
            const GruLayer::StepGates& gates, std::vector<int8_t>* q,
            std::vector<float>* scales) const;

  size_t in_dim() const { return w_pack_.cols; }
  size_t hidden() const { return uc_.rows; }

 private:
  QuantizedMatrix w_pack_;  ///< 3H x in_dim, channel rows [Wc | Wz | Wr].
  QuantizedMatrix u_pack_;  ///< 2H x H, channel rows [Uz | Ur].
  QuantizedMatrix uc_;      ///< H x H.
  Matrix bz_, br_, bc_;     ///< fp32 bias copies (1 x H).
};

/// A quantized multi-layer GRU stack for encoding (zero initial state).
class QuantizedGru {
 public:
  explicit QuantizedGru(const Gru& gru);

  /// int8 twin of Gru::ForwardPacked: same packed layout (rows longest
  /// first, `batch_sizes[t]` active rows at step t), same step-major loop,
  /// and each row's top-layer state after its last step in `final_h`.
  void ForwardPacked(const std::vector<size_t>& batch_sizes,
                     const PackedStepInput& input, Matrix* final_h) const;

  size_t layers() const { return layers_.size(); }
  size_t hidden() const { return layers_.front().hidden(); }
  size_t in_dim() const { return layers_.front().in_dim(); }

 private:
  std::vector<QuantizedGruLayer> layers_;
};

}  // namespace t2vec::nn

#endif  // T2VEC_NN_QUANT_H_
