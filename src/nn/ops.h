#ifndef T2VEC_NN_OPS_H_
#define T2VEC_NN_OPS_H_

#include "nn/matrix.h"

/// \file
/// Elementwise activations and softmax, with the backward helpers the GRU,
/// attention and loss layers need. Backward functions follow the convention
/// `dX = dY ⊙ f'(...)` expressed in terms of the *outputs* of the forward
/// pass (σ' = y(1-y), tanh' = 1-y²) so no pre-activations need to be stored.
/// The activations take strided views, so they run directly on the column
/// blocks of packed gate buffers; shapes must already match (views cannot
/// resize).

namespace t2vec::nn {

/// out = σ(in), elementwise logistic sigmoid.
void SigmoidV(ConstMatrixView in, MatrixView out);

/// out = tanh(in), elementwise.
void TanhV(ConstMatrixView in, MatrixView out);

/// d_in = d_out ⊙ y ⊙ (1 - y) where y = σ(pre-activation).
void SigmoidBackwardV(ConstMatrixView y, ConstMatrixView d_out,
                      MatrixView d_in);

/// d_in = d_out ⊙ (1 - y²) where y = tanh(pre-activation).
void TanhBackwardV(ConstMatrixView y, ConstMatrixView d_out, MatrixView d_in);

/// Adds row vector `bias` (1 x n) to every row of `out` (m x n).
void AddRowBroadcastV(MatrixView out, const Matrix& bias);

/// Row-wise softmax: every row of `out` is the softmax of the matching row of
/// `in`. Numerically stabilized by max subtraction. May alias.
void SoftmaxRows(const Matrix& in, Matrix* out);

/// Row-wise log-softmax. May alias.
void LogSoftmaxRows(const Matrix& in, Matrix* out);

}  // namespace t2vec::nn

#endif  // T2VEC_NN_OPS_H_
