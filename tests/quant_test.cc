// int8 quantization contract tests: the per-row symmetric error bound,
// exact replication of QuantizedGemmTransB's fixed dequantize chain, the
// quantized-vs-fp32 accuracy envelope on a GRU stack, and — the serving
// guarantee — bit-identical quantized encodings across thread counts and
// SIMD dispatch tiers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/model.h"
#include "core/t2vec.h"
#include "eval/experiments.h"
#include "nn/gru.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/quant.h"
#include "traj/tokenizer.h"

namespace t2vec::nn {
namespace {

class ScopedTier {
 public:
  explicit ScopedTier(SimdTier tier) : prev_(ActiveSimdTier()) {
    SetSimdTier(tier);
  }
  ~ScopedTier() { SetSimdTier(prev_); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  SimdTier prev_;
};

std::vector<SimdTier> TestableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (SimdTierSupported(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng, float scale = 1.0f) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-scale, scale));
  }
  return m;
}

// --------------------------------------------------------------------------
// Per-row symmetric quantization: scale = max|row| / 127, so the worst-case
// dequantization error of any element is scale / 2 (round-to-nearest).
// --------------------------------------------------------------------------

TEST(QuantTest, QuantizeTransposedErrorBound) {
  Rng rng(31);
  const Matrix w = RandomMatrix(23, 9, rng, 3.0f);  // k x out
  const QuantizedMatrix q = QuantizeTransposed(w);
  ASSERT_EQ(q.rows, w.cols());
  ASSERT_EQ(q.cols, w.rows());
  for (size_t j = 0; j < q.rows; ++j) {
    const float scale = q.scales[j];
    ASSERT_GT(scale, 0.0f);
    float max_abs = 0.0f;
    for (size_t p = 0; p < q.cols; ++p) {
      const float deq = scale * static_cast<float>(q.Row(j)[p]);
      const float orig = w.At(p, j);
      EXPECT_LE(std::fabs(deq - orig), scale * 0.5f + 1e-6f)
          << "channel " << j << " element " << p;
      max_abs = std::max(max_abs, std::fabs(orig));
    }
    EXPECT_NEAR(scale, max_abs / 127.0f, 1e-7f);
  }
}

TEST(QuantTest, QuantizeRowsDynamicZeroRowAndRounding) {
  Matrix x(2, 4);
  // Row 0 is all zeros; row 1 has a known max of 127 so scale is exactly 1
  // and quantization is plain round-to-nearest.
  x.At(1, 0) = 127.0f;
  x.At(1, 1) = -127.0f;
  x.At(1, 2) = 2.4f;
  x.At(1, 3) = -2.6f;
  std::vector<int8_t> q;
  std::vector<float> scales;
  QuantizeRowsDynamic(x, &q, &scales);
  ASSERT_EQ(q.size(), 8u);
  ASSERT_EQ(scales.size(), 2u);
  EXPECT_EQ(scales[0], 0.0f);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(q[i], 0);
  EXPECT_EQ(scales[1], 1.0f);
  EXPECT_EQ(q[4], 127);
  EXPECT_EQ(q[5], -127);
  EXPECT_EQ(q[6], 2);
  EXPECT_EQ(q[7], -3);
}

// Replicates QuantizedGemmTransB's documented per-element chain exactly:
// the int32 dot is exact, and the fp32 dequantize order is fixed in source,
// so the test can predict every output bit.
TEST(QuantTest, QuantizedGemmTransBExactChain) {
  Rng rng(32);
  const size_t m = 5, k = 19, n = 7;
  const Matrix x = RandomMatrix(m, k, rng, 2.0f);
  const Matrix w = RandomMatrix(k, n, rng, 1.5f);
  const QuantizedMatrix qw = QuantizeTransposed(w);
  std::vector<int8_t> qx;
  std::vector<float> sx;
  QuantizeRowsDynamic(x, &qx, &sx);

  const Matrix prev = RandomMatrix(m, n, rng);
  const Matrix bias = RandomMatrix(1, n, rng);

  for (bool accumulate : {false, true}) {
    for (bool with_bias : {false, true}) {
      Matrix out = prev;
      QuantizedGemmTransB(qx.data(), sx.data(), m, qw, out, accumulate,
                          with_bias ? bias.Row(0) : nullptr);
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          int32_t dot = 0;
          for (size_t p = 0; p < k; ++p) {
            dot += static_cast<int32_t>(qx[i * k + p]) *
                   static_cast<int32_t>(qw.Row(j)[p]);
          }
          const float scale = sx[i] * qw.scales[j];
          const float dotf = static_cast<float>(dot);
          float expect = accumulate ? std::fma(scale, dotf, prev.At(i, j))
                                    : scale * dotf;
          if (with_bias) expect += bias.At(0, j);
          const float got = out.At(i, j);
          EXPECT_EQ(std::memcmp(&got, &expect, sizeof(float)), 0)
              << "(" << i << "," << j << ") accumulate=" << accumulate
              << " bias=" << with_bias;
        }
      }
    }
  }
}

// Analytic accuracy bound: |x.w - x̂.ŵ| per element is at most
// sum_p (|x_p| sw/2 + |w_pj| sx/2 + sx sw / 4) plus fp32 accumulation noise.
TEST(QuantTest, QuantizedGemmTransBWithinAnalyticBound) {
  Rng rng(33);
  const size_t m = 8, k = 64, n = 12;
  const Matrix x = RandomMatrix(m, k, rng, 4.0f);
  const Matrix w = RandomMatrix(k, n, rng, 0.8f);
  const QuantizedMatrix qw = QuantizeTransposed(w);
  std::vector<int8_t> qx;
  std::vector<float> sx;
  QuantizeRowsDynamic(x, &qx, &sx);
  Matrix out(m, n);
  QuantizedGemmTransB(qx.data(), sx.data(), m, qw, out, /*accumulate=*/false,
                      /*bias=*/nullptr);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double ref = 0.0, bound = 1e-4;
      for (size_t p = 0; p < k; ++p) {
        ref += static_cast<double>(x.At(i, p)) * w.At(p, j);
        bound += std::fabs(x.At(i, p)) * qw.scales[j] * 0.5 +
                 std::fabs(w.At(p, j)) * sx[i] * 0.5 +
                 sx[i] * qw.scales[j] * 0.25;
      }
      EXPECT_LE(std::fabs(out.At(i, j) - ref), bound)
          << "(" << i << "," << j << ")";
    }
  }
}

// --------------------------------------------------------------------------
// Quantized GRU / encoder: close to fp32, and bit-stable where it must be.
// --------------------------------------------------------------------------

TEST(QuantTest, QuantizedGruTracksFp32) {
  Rng rng(34);
  const size_t in_dim = 14, hidden = 18, batch = 5, steps = 6;
  const Gru gru("g", in_dim, hidden, /*layers=*/2, rng);
  const QuantizedGru qgru(gru);
  ASSERT_EQ(qgru.layers(), 2u);
  ASSERT_EQ(qgru.hidden(), hidden);
  ASSERT_EQ(qgru.in_dim(), in_dim);

  std::vector<Matrix> xs;
  for (size_t t = 0; t < steps; ++t) {
    xs.push_back(RandomMatrix(batch, in_dim, rng));
  }
  std::vector<std::vector<float>> masks(steps,
                                        std::vector<float>(batch, 1.0f));
  masks[steps - 1][2] = 0.0f;  // one sequence ends a step early

  Gru::ForwardResult fp32;
  gru.Forward(xs, nullptr, masks, &fp32);
  // The same sequences packed longest first: the short row 2 goes last and
  // drops out of the final step.
  const std::vector<size_t> order = {0, 1, 3, 4, 2};
  std::vector<size_t> batch_sizes(steps, batch);
  batch_sizes[steps - 1] = batch - 1;
  Matrix qh;
  qgru.ForwardPacked(
      batch_sizes,
      [&](size_t t, Matrix* x) {
        x->Resize(batch_sizes[t], in_dim);
        for (size_t b = 0; b < batch_sizes[t]; ++b) {
          std::memcpy(x->Row(b), xs[t].Row(order[b]), in_dim * sizeof(float));
        }
      },
      &qh);

  const Matrix& ref = fp32.final_state.h.back();
  ASSERT_EQ(qh.rows(), ref.rows());
  ASSERT_EQ(qh.cols(), ref.cols());
  double max_err = 0.0;
  for (size_t b = 0; b < batch; ++b) {
    for (size_t j = 0; j < hidden; ++j) {
      max_err = std::max(max_err, static_cast<double>(std::fabs(
                                      qh.At(b, j) - ref.At(order[b], j))));
    }
  }
  // Hidden states live in (-1, 1); int8 symmetric quantization of weights
  // and activations keeps the drift well inside this envelope.
  EXPECT_LT(max_err, 0.1) << "quantized GRU drifted from fp32";
  EXPECT_GT(max_err, 0.0) << "suspiciously exact: quantization not applied?";
}

TEST(QuantTest, QuantizedEncoderBitIdenticalAcrossThreadsAndTiers) {
  Rng rng(35);
  core::T2VecConfig config;
  config.embed_dim = 10;
  config.hidden = 16;
  config.layers = 2;
  const core::EncoderDecoder model(config, /*vocab_size=*/32, rng);
  const core::QuantizedEncoder quantized(model);
  EXPECT_EQ(quantized.hidden(), model.hidden());

  std::vector<traj::TokenSeq> seqs;
  Rng token_rng(36);
  for (size_t i = 0; i < 7; ++i) {
    traj::TokenSeq seq(2 + i % 5);
    for (auto& tok : seq) {
      tok = static_cast<geo::Token>(4 + token_rng.UniformInt(28));
    }
    seqs.push_back(seq);
  }
  seqs.push_back(traj::TokenSeq{});  // empty sequence keeps its zero row

  Matrix ref;
  {
    ScopedTier tier(SimdTier::kScalar);
    ScopedNumThreads threads(1);
    ref = quantized.EncodeBatch(seqs);
  }
  for (size_t i = 0; i < ref.cols(); ++i) {
    EXPECT_EQ(ref.At(ref.rows() - 1, i), 0.0f) << "empty-seq row not zero";
  }

  for (SimdTier tier : TestableTiers()) {
    for (int threads : {1, 2, 8}) {
      ScopedTier scoped_tier(tier);
      ScopedNumThreads scoped_threads(threads);
      const Matrix got = quantized.EncodeBatch(seqs);
      ASSERT_EQ(got.rows(), ref.rows());
      ASSERT_EQ(got.cols(), ref.cols());
      EXPECT_EQ(
          std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "tier=" << SimdTierName(tier) << " threads=" << threads;
    }
  }
}

TEST(QuantTest, QuantizedEncoderTracksFp32Encoder) {
  Rng rng(37);
  core::T2VecConfig config;
  config.embed_dim = 10;
  config.hidden = 16;
  config.layers = 1;
  const core::EncoderDecoder model(config, /*vocab_size=*/32, rng);
  const core::QuantizedEncoder quantized(model);

  std::vector<traj::TokenSeq> seqs;
  Rng token_rng(38);
  for (size_t i = 0; i < 6; ++i) {
    traj::TokenSeq seq(4 + i);
    for (auto& tok : seq) {
      tok = static_cast<geo::Token>(4 + token_rng.UniformInt(28));
    }
    seqs.push_back(seq);
  }
  const Matrix fp32 = model.EncodeBatch(seqs);
  const Matrix int8 = quantized.EncodeBatch(seqs);
  ASSERT_EQ(fp32.rows(), int8.rows());
  ASSERT_EQ(fp32.cols(), int8.cols());
  double max_err = 0.0;
  for (size_t i = 0; i < fp32.size(); ++i) {
    max_err = std::max(
        max_err,
        static_cast<double>(std::fabs(fp32.data()[i] - int8.data()[i])));
  }
  EXPECT_LT(max_err, 0.1) << "quantized encoder drifted from fp32";
}

// A briefly trained model for the tests that go through the public API.
core::T2Vec TrainTinyModel(const eval::ExperimentData& data, size_t layers) {
  core::T2VecConfig config;
  config.hidden = 16;
  config.embed_dim = 10;
  config.layers = layers;
  config.max_iterations = 2;
  config.validate_every = 100;
  config.pretrain_epochs = 1;
  config.r1_grid = {0.0};
  config.r2_grid = {0.0};
  return core::T2Vec::Train(data.train.trajectories(), config);
}

// End to end through the public API: T2Vec::EncodeQuantized (which adds the
// slice-parallel loop and the lazy weight cache) must be deterministic
// across thread counts and dispatch tiers, and consistent with the
// tokenized entry point the serving layer uses.
TEST(QuantTest, T2VecEncodeQuantizedDeterministic) {
  const eval::ExperimentData data =
      eval::MakeData(eval::DatasetKind::kPortoLike, 40, 0);
  const core::T2Vec model = TrainTinyModel(data, /*layers=*/1);
  model.PrepareQuantized();

  const std::vector<traj::Trajectory>& trips = data.train.trajectories();
  Matrix ref;
  {
    ScopedTier tier(SimdTier::kScalar);
    ScopedNumThreads threads(1);
    ref = model.EncodeQuantized(trips);
  }
  ASSERT_EQ(ref.rows(), trips.size());

  for (SimdTier tier : TestableTiers()) {
    for (int threads : {1, 2, 8}) {
      ScopedTier scoped_tier(tier);
      ScopedNumThreads scoped_threads(threads);
      const Matrix got = model.EncodeQuantized(trips);
      ASSERT_EQ(got.rows(), ref.rows());
      EXPECT_EQ(
          std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "tier=" << SimdTierName(tier) << " threads=" << threads;
    }
  }

  // The tokenized entry point (serving path) agrees row-for-row.
  std::vector<traj::TokenSeq> seqs;
  for (const auto& trip : trips) seqs.push_back(model.EncoderTokens(trip));
  const Matrix tokenized = model.EncodeQuantizedTokenized(seqs);
  EXPECT_EQ(
      std::memcmp(tokenized.data(), ref.data(), ref.size() * sizeof(float)),
      0);
}

// The packed int8 forward: one mixed-length batch (an empty trip included)
// gives every row the bits of encoding that trip alone, at every thread
// count and on every dispatch tier.
TEST(QuantTest, PackedBatchMatchesOneAtATimeEncodeQuantized) {
  const eval::ExperimentData data =
      eval::MakeData(eval::DatasetKind::kPortoLike, 40, 0);
  const core::T2Vec model = TrainTinyModel(data, /*layers=*/2);
  std::vector<traj::Trajectory> trips = data.train.trajectories();
  trips.push_back(traj::Trajectory{});
  std::vector<size_t> lengths;
  for (const auto& trip : trips) {
    lengths.push_back(model.EncoderTokens(trip).size());
  }
  std::sort(lengths.begin(), lengths.end());
  ASSERT_GE(std::unique(lengths.begin(), lengths.end()) - lengths.begin(), 3)
      << "the batch must mix token lengths";

  const size_t bytes = model.model().hidden() * sizeof(float);
  for (SimdTier tier : TestableTiers()) {
    for (int threads : {1, 2, 8}) {
      ScopedTier scoped_tier(tier);
      ScopedNumThreads scoped_threads(threads);
      const Matrix batch = model.EncodeQuantized(trips);
      for (size_t i = 0; i < trips.size(); ++i) {
        const Matrix one = model.EncodeQuantized({trips[i]});
        EXPECT_EQ(std::memcmp(batch.Row(i), one.Row(0), bytes), 0)
            << "trip " << i << " tier=" << SimdTierName(tier)
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace t2vec::nn
