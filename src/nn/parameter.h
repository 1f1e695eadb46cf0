#ifndef T2VEC_NN_PARAMETER_H_
#define T2VEC_NN_PARAMETER_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/matrix.h"

/// \file
/// Trainable parameter: a value matrix plus its gradient accumulator, with a
/// stable name used for checkpoint serialization. Layers expose their
/// parameters through `Params()` so optimizers and the checkpoint writer can
/// iterate them uniformly.

namespace t2vec::nn {

/// A named trainable tensor (value + gradient of the same shape).
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;

  Parameter() = default;
  Parameter(std::string n, size_t rows, size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}

  /// Zeroes the gradient accumulator.
  void ZeroGrad() { grad.SetZero(); }
};

/// A flat list of parameter pointers; the unit optimizers operate on.
using ParamList = std::vector<Parameter*>;

/// Global parameter-version counter backing the GRU's weight pack cache
/// (nn/gru.h): layers stamp their packed `[Wc|Wz|Wr]`
/// buffers with the version they were built at and rebuild lazily when it
/// moves. Anything that mutates parameter values outside a layer's own
/// methods — optimizer steps, checkpoint loads, init helpers, gradcheck
/// perturbations — must call BumpParamVersion(). Thread-safe.
uint64_t ParamVersion();
void BumpParamVersion();

/// Fills `m` with U(-scale, scale).
void InitUniform(Matrix* m, float scale, Rng& rng);

/// Xavier/Glorot uniform init: scale = sqrt(6 / (fan_in + fan_out)), with
/// fan_in = rows, fan_out = cols (matches our x·W row-vector convention).
void InitXavier(Matrix* m, Rng& rng);

/// Total number of scalar weights in the list.
size_t TotalParamCount(const ParamList& params);

/// Clips the *global* L2 norm of all gradients in `params` to `max_norm`
/// (Pascanu et al.; the paper clips at 5). Returns the pre-clip norm.
double ClipGradNorm(const ParamList& params, double max_norm);

}  // namespace t2vec::nn

#endif  // T2VEC_NN_PARAMETER_H_
