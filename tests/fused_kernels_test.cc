// Tests of the packed GRU and attention layers (nn/gru.h, nn/attention.h):
// forward+backward bit identity at 1, 2 and 8 threads, the GRU's weight
// packs refreshing after an optimizer step, gradchecks, and naive
// double-precision references of one GRU step and of the attention forward,
// written straight from the equations over the named weights. The absolute
// bits of training and encoding are pinned by model_golden_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gradcheck.h"
#include "nn/attention.h"
#include "nn/gru.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"

namespace t2vec::nn {
namespace {

using ::t2vec::nn::testing::ExpectGradientsMatch;

std::vector<Matrix> RandomSequence(size_t steps, size_t batch, size_t dim,
                                   Rng& rng, float scale = 0.8f) {
  std::vector<Matrix> xs(steps);
  for (Matrix& x : xs) {
    x.Resize(batch, dim);
    for (size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.Uniform(-scale, scale));
    }
  }
  return xs;
}

void ExpectBitEqual(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_TRUE(SameShape(got, want)) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << what << " index " << i;
  }
}

void ExpectBitEqual(const std::vector<Matrix>& got,
                    const std::vector<Matrix>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t t = 0; t < got.size(); ++t) ExpectBitEqual(got[t], want[t], what);
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Row b of x (B x k) times column j of w (k x n), in double.
double RowTimesCol(const Matrix& x, size_t b, const Matrix& w, size_t j) {
  double acc = 0.0;
  for (size_t i = 0; i < x.cols(); ++i) {
    acc += static_cast<double>(x(b, i)) * w(i, j);
  }
  return acc;
}

// ---------------------------------------------------------------------------
// GRU: the gate-packed forward/backward.
// ---------------------------------------------------------------------------

// Everything one GRU forward+backward produces, for bit comparison.
struct GruRun {
  GruCache cache;
  std::vector<Matrix> d_xs;
  Matrix d_h0;
  std::vector<Matrix> grads;  // Copies of every parameter gradient.
};

GruRun RunGru(GruLayer* layer, const std::vector<Matrix>& xs, const Matrix& h0,
              const std::vector<std::vector<float>>& masks,
              const std::vector<Matrix>& d_hs, const Matrix& d_h_last) {
  GruRun run;
  layer->Forward(xs, h0, masks, &run.cache);
  for (Parameter* p : layer->Params()) p->ZeroGrad();
  layer->Backward(xs, h0, masks, run.cache, &d_hs, &d_h_last, &run.d_xs,
                  &run.d_h0);
  for (Parameter* p : layer->Params()) run.grads.push_back(p->grad);
  return run;
}

void ExpectSameRun(const GruRun& got, const GruRun& want) {
  ExpectBitEqual(got.cache.h, want.cache.h, "h");
  ExpectBitEqual(got.cache.z, want.cache.z, "z");
  ExpectBitEqual(got.cache.r, want.cache.r, "r");
  ExpectBitEqual(got.cache.c, want.cache.c, "c");
  ExpectBitEqual(got.d_xs, want.d_xs, "d_xs");
  ExpectBitEqual(got.d_h0, want.d_h0, "d_h0");
  ExpectBitEqual(got.grads, want.grads, "grads");
}

TEST(FusedGruTest, BitIdenticalToSerialAtAnyThreadCount) {
  // Sizes picked to cross the kernel's micro-tile edges *and* the
  // parallelism thresholds (48 rows, ~2.7e6 flops in the packed gate GEMM),
  // so the packed GEMMs really run tiled and threaded.
  const size_t steps = 3, batch = 48, in_dim = 96, hidden = 96;
  Rng rng(11);
  GruLayer layer("gru", in_dim, hidden, rng);
  auto xs = RandomSequence(steps, batch, in_dim, rng);
  Matrix h0(batch, hidden);
  for (size_t i = 0; i < h0.size(); ++i) {
    h0.data()[i] = static_cast<float>(rng.Uniform(-0.5, 0.5));
  }
  // Staggered sequence lengths exercise the mask carry-through.
  std::vector<std::vector<float>> masks(steps,
                                        std::vector<float>(batch, 1.0f));
  for (size_t b = 0; b < batch; ++b) {
    for (size_t t = steps - b % 2; t < steps; ++t) masks[t][b] = 0.0f;
  }
  auto d_hs = RandomSequence(steps, batch, hidden, rng, 0.3f);
  Matrix d_h_last = RandomSequence(1, batch, hidden, rng, 0.3f)[0];

  GruRun ref;
  {
    ScopedNumThreads serial(1);
    ref = RunGru(&layer, xs, h0, masks, d_hs, d_h_last);
  }
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads scope(threads);
    ExpectSameRun(RunGru(&layer, xs, h0, masks, d_hs, d_h_last), ref);
  }
}

TEST(FusedGruTest, PacksRefreshAfterOptimizerStep) {
  const size_t steps = 2, batch = 3, in_dim = 5, hidden = 7;
  Rng rng(21);
  GruLayer layer("gru", in_dim, hidden, rng);
  auto xs = RandomSequence(steps, batch, in_dim, rng);
  Matrix h0(batch, hidden);
  GruCache before;
  layer.Forward(xs, h0, {}, &before);  // Builds the packs.

  // Take a real optimizer step: packs must be rebuilt from the new weights.
  for (Parameter* p : layer.Params()) {
    p->ZeroGrad();
    for (size_t i = 0; i < p->grad.size(); ++i) {
      p->grad.data()[i] = 0.01f * static_cast<float>(i % 7);
    }
  }
  Sgd sgd(layer.Params(), /*lr=*/0.5f);
  sgd.Step();

  // A layer built after the step, given the stepped weights, has never
  // packed the old ones.
  Rng other_rng(22);
  GruLayer fresh("gru", in_dim, hidden, other_rng);
  const ParamList stepped = layer.Params();
  const ParamList copies = fresh.Params();
  for (size_t i = 0; i < stepped.size(); ++i) {
    copies[i]->value = stepped[i]->value;
  }
  BumpParamVersion();

  GruCache after, fresh_after;
  layer.Forward(xs, h0, {}, &after);
  fresh.Forward(xs, h0, {}, &fresh_after);
  ExpectBitEqual(after.h, fresh_after.h, "h after step");
  // And the step must actually have changed the output (guards against a
  // vacuously-passing comparison).
  EXPECT_GT(MaxAbsDiff(after.h.back(), before.h.back()), 0.0f);
}

// One Step against Cho et al.'s equations over the named weights, in
// double: z = σ(x Wz + h⁻ Uz + bz), r = σ(x Wr + h⁻ Ur + br),
// c = tanh(x Wc + (r ⊙ h⁻) Uc + bc), h = (1 − z) ⊙ h⁻ + z ⊙ c.
TEST(FusedGruTest, StepMatchesNaiveDoubleReference) {
  const size_t batch = 5, in_dim = 7, hidden = 9;
  Rng rng(27);
  GruLayer layer("gru", in_dim, hidden, rng);
  // Nonzero biases, so a dropped bias term shows.
  for (Parameter* p : layer.Params()) {
    if (p->value.rows() == 1) {
      for (size_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] = static_cast<float>(rng.Uniform(-0.5, 0.5));
      }
    }
  }
  BumpParamVersion();
  const Matrix x = RandomSequence(1, batch, in_dim, rng)[0];
  const Matrix h_prev = RandomSequence(1, batch, hidden, rng)[0];

  Matrix pre(batch, 3 * hidden), z(batch, hidden), r(batch, hidden),
      c(batch, hidden), rh(batch, hidden), h(batch, hidden);
  layer.Step(x, h_prev, pre, {z, r, c, rh}, h);

  // The named weights, looked up through Params().
  std::map<std::string, const Matrix*> w;
  for (Parameter* p : layer.Params()) w[p->name] = &p->value;
  const Matrix& wz = *w.at("gru.Wz");
  const Matrix& wr = *w.at("gru.Wr");
  const Matrix& wc = *w.at("gru.Wc");
  const Matrix& uz = *w.at("gru.Uz");
  const Matrix& ur = *w.at("gru.Ur");
  const Matrix& uc = *w.at("gru.Uc");
  const Matrix& bz = *w.at("gru.bz");
  const Matrix& br = *w.at("gru.br");
  const Matrix& bc = *w.at("gru.bc");
  for (size_t b = 0; b < batch; ++b) {
    std::vector<double> rd(hidden), rhd(hidden);
    for (size_t j = 0; j < hidden; ++j) {
      rd[j] = Sigmoid(RowTimesCol(x, b, wr, j) +
                      RowTimesCol(h_prev, b, ur, j) + br(0, j));
      rhd[j] = rd[j] * h_prev(b, j);
    }
    for (size_t j = 0; j < hidden; ++j) {
      const double zd = Sigmoid(RowTimesCol(x, b, wz, j) +
                                RowTimesCol(h_prev, b, uz, j) +
                                bz(0, j));
      double uc_term = 0.0;
      for (size_t i = 0; i < hidden; ++i) uc_term += rhd[i] * uc(i, j);
      const double cd =
          std::tanh(RowTimesCol(x, b, wc, j) + uc_term + bc(0, j));
      const double hd = (1.0 - zd) * h_prev(b, j) + zd * cd;
      EXPECT_NEAR(z(b, j), zd, 1e-5) << "z " << b << "," << j;
      EXPECT_NEAR(r(b, j), rd[j], 1e-5) << "r " << b << "," << j;
      EXPECT_NEAR(c(b, j), cd, 1e-5) << "c " << b << "," << j;
      EXPECT_NEAR(h(b, j), hd, 1e-5) << "h " << b << "," << j;
    }
  }
}

TEST(FusedGruTest, GradCheckWithFusedKernels) {
  const size_t steps = 3, batch = 2, in_dim = 3, hidden = 4;
  Rng rng(33);
  GruLayer layer("gru", in_dim, hidden, rng);
  auto xs = RandomSequence(steps, batch, in_dim, rng);
  Matrix h0(batch, hidden);

  // Weighted sum of all step outputs: nontrivial gradient everywhere.
  auto loss_fn = [&]() {
    GruCache cache;
    layer.Forward(xs, h0, {}, &cache);
    double loss = 0.0, w = 0.6;
    for (const Matrix& h : cache.h) {
      for (size_t i = 0; i < h.size(); ++i) {
        loss += w * h.data()[i];
        w = -w * 0.95;
      }
    }
    return loss;
  };

  GruCache cache;
  layer.Forward(xs, h0, {}, &cache);
  std::vector<Matrix> d_hs;
  double w = 0.6;
  for (const Matrix& h : cache.h) {
    Matrix g(h.rows(), h.cols());
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] = static_cast<float>(w);
      w = -w * 0.95;
    }
    d_hs.push_back(std::move(g));
  }
  for (Parameter* p : layer.Params()) p->ZeroGrad();
  std::vector<Matrix> d_xs;
  Matrix d_h0;
  layer.Backward(xs, h0, {}, cache, &d_hs, nullptr, &d_xs, &d_h0);

  for (Parameter* p : layer.Params()) {
    ExpectGradientsMatch(&p->value, p->grad, loss_fn, 1e-2f, 3e-2, 10);
  }
  for (size_t t = 0; t < steps; ++t) {
    ExpectGradientsMatch(&xs[t], d_xs[t], loss_fn, 1e-2f, 3e-2, 6);
  }
}

// ---------------------------------------------------------------------------
// Attention: one GEMM per weight over the packed sequence.
// ---------------------------------------------------------------------------

struct AttentionRun {
  AttentionCache cache;
  std::vector<Matrix> d_dec;
  std::vector<Matrix> d_enc;
  std::vector<Matrix> grads;
};

AttentionRun RunAttention(Attention* attn, const std::vector<Matrix>& dec_hs,
                          const std::vector<Matrix>& enc_hs,
                          const std::vector<std::vector<float>>& src_masks,
                          const std::vector<Matrix>& d_output) {
  AttentionRun run;
  attn->Forward(dec_hs, enc_hs, src_masks, &run.cache);
  for (Parameter* p : attn->Params()) p->ZeroGrad();
  attn->Backward(dec_hs, enc_hs, src_masks, run.cache, d_output, &run.d_dec,
                 &run.d_enc);
  for (Parameter* p : attn->Params()) run.grads.push_back(p->grad);
  return run;
}

TEST(FusedAttentionTest, BitIdenticalToSerialAtAnyThreadCount) {
  // S*B = 128 rows through the key projection (~2.4e6 flops): clears the
  // kernel's parallel thresholds.
  const size_t src_steps = 4, dec_steps = 3, batch = 32, hidden = 96;
  Rng rng(17);
  Attention attn("attn", hidden, rng);
  auto enc_hs = RandomSequence(src_steps, batch, hidden, rng);
  auto dec_hs = RandomSequence(dec_steps, batch, hidden, rng);
  auto d_output = RandomSequence(dec_steps, batch, hidden, rng, 0.3f);
  std::vector<std::vector<float>> src_masks(
      src_steps, std::vector<float>(batch, 1.0f));
  for (size_t b = 0; b < batch; ++b) {
    for (size_t s = src_steps - b % 3; s < src_steps; ++s) {
      src_masks[s][b] = 0.0f;
    }
  }

  AttentionRun ref;
  {
    ScopedNumThreads serial(1);
    ref = RunAttention(&attn, dec_hs, enc_hs, src_masks, d_output);
  }
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads scope(threads);
    AttentionRun got = RunAttention(&attn, dec_hs, enc_hs, src_masks, d_output);
    ExpectBitEqual(got.cache.output, ref.cache.output, "output");
    ExpectBitEqual(got.cache.alphas, ref.cache.alphas, "alphas");
    ExpectBitEqual(got.d_dec, ref.d_dec, "d_dec");
    ExpectBitEqual(got.d_enc, ref.d_enc, "d_enc");
    ExpectBitEqual(got.grads, ref.grads, "grads");
  }
}

// Attention::Forward against its equations in double (nn/attention.h):
// keys k_s = e_s W_a, scores h_t · k_s over the unmasked source positions,
// α = softmax, c_t = Σ_s α_ts e_s, ĥ_t = tanh([h_t ; c_t] W_c).
TEST(FusedAttentionTest, ForwardMatchesNaiveDoubleReference) {
  const size_t src_steps = 4, dec_steps = 3, batch = 5, hidden = 6;
  Rng rng(31);
  Attention attn("attn", hidden, rng);
  const auto enc_hs = RandomSequence(src_steps, batch, hidden, rng);
  const auto dec_hs = RandomSequence(dec_steps, batch, hidden, rng);
  // Row b masks its last b % 3 source positions.
  std::vector<std::vector<float>> src_masks(
      src_steps, std::vector<float>(batch, 1.0f));
  for (size_t b = 0; b < batch; ++b) {
    for (size_t s = src_steps - b % 3; s < src_steps; ++s) {
      src_masks[s][b] = 0.0f;
    }
  }
  AttentionCache cache;
  attn.Forward(dec_hs, enc_hs, src_masks, &cache);

  const ParamList params = attn.Params();
  const Matrix& wa = params[0]->value;  // H x H
  const Matrix& wc = params[1]->value;  // 2H x H
  for (size_t t = 0; t < dec_steps; ++t) {
    for (size_t b = 0; b < batch; ++b) {
      std::vector<double> score(src_steps), alpha(src_steps, 0.0);
      double max_score = -1e300;
      for (size_t s = 0; s < src_steps; ++s) {
        if (src_masks[s][b] == 0.0f) continue;
        double acc = 0.0;
        for (size_t j = 0; j < hidden; ++j) {
          acc += dec_hs[t](b, j) * RowTimesCol(enc_hs[s], b, wa, j);
        }
        score[s] = acc;
        max_score = std::max(max_score, acc);
      }
      double total = 0.0;
      for (size_t s = 0; s < src_steps; ++s) {
        if (src_masks[s][b] == 0.0f) continue;
        alpha[s] = std::exp(score[s] - max_score);
        total += alpha[s];
      }
      std::vector<double> concat(2 * hidden, 0.0);
      for (size_t j = 0; j < hidden; ++j) concat[j] = dec_hs[t](b, j);
      for (size_t s = 0; s < src_steps; ++s) {
        alpha[s] /= total;
        EXPECT_NEAR(cache.alphas[t](b, s), alpha[s], 1e-5)
            << "alpha t=" << t << " b=" << b << " s=" << s;
        for (size_t j = 0; j < hidden; ++j) {
          concat[hidden + j] += alpha[s] * enc_hs[s](b, j);
        }
      }
      for (size_t j = 0; j < hidden; ++j) {
        double acc = 0.0;
        for (size_t i = 0; i < 2 * hidden; ++i) acc += concat[i] * wc(i, j);
        EXPECT_NEAR(cache.output[t](b, j), std::tanh(acc), 1e-5)
            << "output t=" << t << " b=" << b << " j=" << j;
      }
    }
  }
}

TEST(FusedAttentionTest, GradCheckWithFusedKernels) {
  const size_t src_steps = 3, dec_steps = 2, batch = 2, hidden = 4;
  Rng rng(29);
  Attention attn("attn", hidden, rng);
  auto enc_hs = RandomSequence(src_steps, batch, hidden, rng);
  auto dec_hs = RandomSequence(dec_steps, batch, hidden, rng);

  auto loss_fn = [&]() {
    AttentionCache cache;
    attn.Forward(dec_hs, enc_hs, {}, &cache);
    double loss = 0.0, w = 0.8;
    for (const Matrix& h : cache.output) {
      for (size_t i = 0; i < h.size(); ++i) {
        loss += w * h.data()[i];
        w = -w * 0.9;
      }
    }
    return loss;
  };

  AttentionCache cache;
  attn.Forward(dec_hs, enc_hs, {}, &cache);
  std::vector<Matrix> d_output;
  double w = 0.8;
  for (const Matrix& h : cache.output) {
    Matrix g(h.rows(), h.cols());
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] = static_cast<float>(w);
      w = -w * 0.9;
    }
    d_output.push_back(std::move(g));
  }
  for (Parameter* p : attn.Params()) p->ZeroGrad();
  std::vector<Matrix> d_dec, d_enc;
  attn.Backward(dec_hs, enc_hs, {}, cache, d_output, &d_dec, &d_enc);

  for (Parameter* p : attn.Params()) {
    ExpectGradientsMatch(&p->value, p->grad, loss_fn, 1e-2f, 3e-2, 10);
  }
  for (size_t t = 0; t < dec_steps; ++t) {
    ExpectGradientsMatch(&dec_hs[t], d_dec[t], loss_fn, 1e-2f, 3e-2, 6);
  }
  for (size_t s = 0; s < src_steps; ++s) {
    ExpectGradientsMatch(&enc_hs[s], d_enc[s], loss_fn, 1e-2f, 3e-2, 6);
  }
}

}  // namespace
}  // namespace t2vec::nn
