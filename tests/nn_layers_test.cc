#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "gradcheck.h"
#include "nn/checkpoint.h"
#include "nn/embedding.h"
#include "nn/loss.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/parameter.h"

namespace t2vec::nn {
namespace {

using ::t2vec::nn::testing::ExpectGradientsMatch;

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng, float scale = 1.0f) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-scale, scale));
  }
  return m;
}

TEST(EmbeddingTest, ForwardLooksUpRows) {
  Rng rng(1);
  Embedding emb(5, 3, rng);
  std::vector<int32_t> ids = {2, 0, 2};
  Matrix out;
  emb.Forward(ids, &out);
  ASSERT_EQ(out.rows(), 3u);
  ASSERT_EQ(out.cols(), 3u);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(out(0, j), emb.table().value(2, j));
    EXPECT_EQ(out(1, j), emb.table().value(0, j));
    EXPECT_EQ(out(2, j), out(0, j));  // Same token -> same row.
  }
}

TEST(EmbeddingTest, BackwardAccumulatesDuplicates) {
  Rng rng(2);
  Embedding emb(4, 2, rng);
  std::vector<int32_t> ids = {1, 1, 3};
  Matrix d_out(3, 2, 1.0f);
  d_out(2, 0) = 5.0f;
  emb.Backward(ids, d_out);
  EXPECT_FLOAT_EQ(emb.table().grad(1, 0), 2.0f);  // Two hits on row 1.
  EXPECT_FLOAT_EQ(emb.table().grad(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(emb.table().grad(3, 0), 5.0f);
  EXPECT_FLOAT_EQ(emb.table().grad(0, 0), 0.0f);
}

TEST(SoftmaxCrossEntropyTest, KnownValue) {
  // Two classes with equal logits: loss = log 2, grad = p - onehot.
  Matrix logits(1, 2);
  std::vector<int32_t> targets = {1};
  Matrix d_logits;
  const double loss = SoftmaxCrossEntropy(logits, targets, -1, &d_logits);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  EXPECT_NEAR(d_logits(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(d_logits(0, 1), -0.5f, 1e-6f);
}

TEST(SoftmaxCrossEntropyTest, IgnoredRowsContributeNothing) {
  Rng rng(5);
  Matrix logits = RandomMatrix(3, 4, rng);
  std::vector<int32_t> targets = {2, -1, 0};
  Matrix d_logits;
  const double loss = SoftmaxCrossEntropy(logits, targets, -1, &d_logits);
  EXPECT_GT(loss, 0.0);
  for (size_t j = 0; j < 4; ++j) EXPECT_EQ(d_logits(1, j), 0.0f);
}

TEST(SoftmaxCrossEntropyTest, GradCheck) {
  Rng rng(6);
  Matrix logits = RandomMatrix(4, 7, rng, 2.0f);
  std::vector<int32_t> targets = {0, 3, -1, 6};

  auto loss_fn = [&]() {
    Matrix d;
    return SoftmaxCrossEntropy(logits, targets, -1, &d);
  };
  Matrix d_logits;
  SoftmaxCrossEntropy(logits, targets, -1, &d_logits);
  ExpectGradientsMatch(&logits, d_logits, loss_fn, 1e-2f, 2e-2, 28);
}

TEST(SoftCrossEntropyTest, MatchesHardWhenOneHot) {
  Rng rng(7);
  Matrix logits = RandomMatrix(2, 5, rng, 2.0f);
  std::vector<int32_t> targets = {3, 1};
  Matrix hard_grad;
  const double hard_loss =
      SoftmaxCrossEntropy(logits, targets, -1, &hard_grad);

  Matrix dist(2, 5);
  dist(0, 3) = 1.0f;
  dist(1, 1) = 1.0f;
  std::vector<uint8_t> active = {1, 1};
  Matrix soft_grad;
  const double soft_loss = SoftCrossEntropy(logits, dist, active, &soft_grad);

  EXPECT_NEAR(hard_loss, soft_loss, 1e-5);
  EXPECT_LT(MaxAbsDiff(hard_grad, soft_grad), 1e-6f);
}

TEST(SoftCrossEntropyTest, GradCheck) {
  Rng rng(8);
  Matrix logits = RandomMatrix(3, 6, rng, 2.0f);
  // Random normalized target distributions.
  Matrix dist(3, 6);
  for (size_t r = 0; r < 3; ++r) {
    double total = 0.0;
    for (size_t c = 0; c < 6; ++c) {
      dist(r, c) = static_cast<float>(rng.Uniform());
      total += dist(r, c);
    }
    for (size_t c = 0; c < 6; ++c) {
      dist(r, c) = static_cast<float>(dist(r, c) / total);
    }
  }
  std::vector<uint8_t> active = {1, 0, 1};

  auto loss_fn = [&]() {
    Matrix d;
    return SoftCrossEntropy(logits, dist, active, &d);
  };
  Matrix d_logits;
  SoftCrossEntropy(logits, dist, active, &d_logits);
  ExpectGradientsMatch(&logits, d_logits, loss_fn, 1e-2f, 2e-2, 18);
  // Inactive row has zero gradient.
  for (size_t j = 0; j < 6; ++j) EXPECT_EQ(d_logits(1, j), 0.0f);
}

// A weight/bias pair standing in for a dense layer's parameters.
struct DenseParams {
  Parameter weight;
  Parameter bias;

  DenseParams(size_t in_dim, size_t out_dim, Rng& rng)
      : weight("layer.W", in_dim, out_dim), bias("layer.b", 1, out_dim) {
    InitXavier(&weight.value, rng);
    bias.value = RandomMatrix(1, out_dim, rng);
  }

  ParamList Params() { return {&weight, &bias}; }
};

TEST(CheckpointTest, SaveLoadRoundTrip) {
  Rng rng(9);
  DenseParams a(3, 4, rng);
  Embedding e(6, 3, rng);
  ParamList params = a.Params();
  for (Parameter* p : e.Params()) params.push_back(p);

  const std::string path = ::testing::TempDir() + "/ckpt_test.bin";
  ASSERT_TRUE(SaveParams(params, path).ok());

  // Fresh instances with different random init.
  Rng rng2(99);
  DenseParams a2(3, 4, rng2);
  Embedding e2(6, 3, rng2);
  ParamList params2 = a2.Params();
  for (Parameter* p : e2.Params()) params2.push_back(p);
  ASSERT_GT(MaxAbsDiff(a.weight.value, a2.weight.value), 0.0f);

  ASSERT_TRUE(LoadParams(params2, path).ok());
  EXPECT_EQ(MaxAbsDiff(a.weight.value, a2.weight.value), 0.0f);
  EXPECT_EQ(MaxAbsDiff(a.bias.value, a2.bias.value), 0.0f);
  EXPECT_EQ(MaxAbsDiff(e.table().value, e2.table().value), 0.0f);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShapeMismatchRejected) {
  Rng rng(10);
  DenseParams a(3, 4, rng);
  const std::string path = ::testing::TempDir() + "/ckpt_mismatch.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());

  DenseParams b(3, 5, rng);  // Different out_dim.
  Status s = LoadParams(b.Params(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  Rng rng(11);
  DenseParams a(2, 2, rng);
  Status s = LoadParams(a.Params(), "/nonexistent/path/ckpt.bin");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace t2vec::nn
