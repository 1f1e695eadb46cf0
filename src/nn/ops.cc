#include "nn/ops.h"

#include <cmath>

namespace t2vec::nn {

void SigmoidV(ConstMatrixView in, MatrixView out) {
  T2VEC_CHECK(in.rows == out.rows && in.cols == out.cols);
  for (size_t r = 0; r < in.rows; ++r) {
    const float* __restrict x = in.Row(r);
    float* __restrict y = out.Row(r);
    for (size_t j = 0; j < in.cols; ++j) {
      y[j] = 1.0f / (1.0f + std::exp(-x[j]));
    }
  }
}

void TanhV(ConstMatrixView in, MatrixView out) {
  T2VEC_CHECK(in.rows == out.rows && in.cols == out.cols);
  for (size_t r = 0; r < in.rows; ++r) {
    const float* __restrict x = in.Row(r);
    float* __restrict y = out.Row(r);
    for (size_t j = 0; j < in.cols; ++j) y[j] = std::tanh(x[j]);
  }
}

void SigmoidBackwardV(ConstMatrixView y, ConstMatrixView d_out,
                      MatrixView d_in) {
  T2VEC_CHECK(y.rows == d_out.rows && y.cols == d_out.cols);
  T2VEC_CHECK(y.rows == d_in.rows && y.cols == d_in.cols);
  for (size_t r = 0; r < y.rows; ++r) {
    const float* __restrict yv = y.Row(r);
    const float* __restrict g = d_out.Row(r);
    float* __restrict o = d_in.Row(r);
    for (size_t j = 0; j < y.cols; ++j) {
      o[j] = g[j] * yv[j] * (1.0f - yv[j]);
    }
  }
}

void TanhBackwardV(ConstMatrixView y, ConstMatrixView d_out, MatrixView d_in) {
  T2VEC_CHECK(y.rows == d_out.rows && y.cols == d_out.cols);
  T2VEC_CHECK(y.rows == d_in.rows && y.cols == d_in.cols);
  for (size_t r = 0; r < y.rows; ++r) {
    const float* __restrict yv = y.Row(r);
    const float* __restrict g = d_out.Row(r);
    float* __restrict o = d_in.Row(r);
    for (size_t j = 0; j < y.cols; ++j) {
      o[j] = g[j] * (1.0f - yv[j] * yv[j]);
    }
  }
}

void AddRowBroadcastV(MatrixView out, const Matrix& bias) {
  T2VEC_CHECK(bias.rows() == 1 && bias.cols() == out.cols);
  const float* __restrict b = bias.data();
  for (size_t r = 0; r < out.rows; ++r) {
    float* __restrict o = out.Row(r);
    for (size_t j = 0; j < out.cols; ++j) o[j] += b[j];
  }
}

void SoftmaxRows(const Matrix& in, Matrix* out) {
  out->Resize(in.rows(), in.cols());
  const size_t n = in.cols();
  for (size_t r = 0; r < in.rows(); ++r) {
    const float* __restrict x = in.Row(r);
    float* __restrict y = out->Row(r);
    float max_val = x[0];
    for (size_t j = 1; j < n; ++j) max_val = std::max(max_val, x[j]);
    double total = 0.0;
    for (size_t j = 0; j < n; ++j) {
      y[j] = std::exp(x[j] - max_val);
      total += y[j];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (size_t j = 0; j < n; ++j) y[j] *= inv;
  }
}

void LogSoftmaxRows(const Matrix& in, Matrix* out) {
  out->Resize(in.rows(), in.cols());
  const size_t n = in.cols();
  for (size_t r = 0; r < in.rows(); ++r) {
    const float* __restrict x = in.Row(r);
    float* __restrict y = out->Row(r);
    float max_val = x[0];
    for (size_t j = 1; j < n; ++j) max_val = std::max(max_val, x[j]);
    double total = 0.0;
    for (size_t j = 0; j < n; ++j) total += std::exp(x[j] - max_val);
    const float log_z = max_val + static_cast<float>(std::log(total));
    for (size_t j = 0; j < n; ++j) y[j] = x[j] - log_z;
  }
}

}  // namespace t2vec::nn
