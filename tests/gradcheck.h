#ifndef T2VEC_TESTS_GRADCHECK_H_
#define T2VEC_TESTS_GRADCHECK_H_

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/matrix.h"
#include "nn/parameter.h"

/// \file
/// Finite-difference gradient checking shared by the nn/core tests.
///
/// `loss_fn` must recompute the full forward pass and return the scalar loss;
/// `analytic_grad` is the gradient the backward pass produced for `target`
/// (same shape). Every weight is perturbed by ±eps (central differences) and
/// compared against the analytic value with a relative-error criterion.

namespace t2vec::nn::testing {

inline void ExpectGradientsMatch(Matrix* target, const Matrix& analytic_grad,
                                 const std::function<double()>& loss_fn,
                                 float eps = 1e-2f, double tol = 2e-2,
                                 size_t max_checks = 64, uint64_t seed = 1234) {
  ASSERT_TRUE(SameShape(*target, analytic_grad));
  const size_t n = target->size();
  // Deterministically subsample indices for large tensors.
  uint64_t state = seed;
  const size_t checks = std::min(n, max_checks);
  size_t checked = 0;
  for (size_t pick = 0; pick < checks; ++pick) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const size_t i = (n <= max_checks) ? pick : (state >> 16) % n;
    const float original = target->data()[i];

    // Perturbations write parameter storage directly, so invalidate the
    // GRU's weight-pack cache the same way an optimizer step would.
    target->data()[i] = original + eps;
    BumpParamVersion();
    const double loss_plus = loss_fn();
    target->data()[i] = original - eps;
    BumpParamVersion();
    const double loss_minus = loss_fn();
    target->data()[i] = original;
    BumpParamVersion();

    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    const double analytic = analytic_grad.data()[i];
    // The absolute floor (1e-3) makes near-zero gradients compare
    // absolutely: fp32 forward passes limit central differences to roughly
    // that resolution on deep networks.
    const double denom =
        std::max({std::fabs(numeric), std::fabs(analytic), 1e-3});
    const double rel_err = std::fabs(numeric - analytic) / denom;
    EXPECT_LT(rel_err, tol) << "index " << i << ": numeric=" << numeric
                            << " analytic=" << analytic;
    ++checked;
  }
  ASSERT_GT(checked, 0u);
}

}  // namespace t2vec::nn::testing

#endif  // T2VEC_TESTS_GRADCHECK_H_
