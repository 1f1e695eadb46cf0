#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "core/model.h"
#include "core/pairs.h"
#include "gradcheck.h"
#include "nn/optimizer.h"

namespace t2vec::core {
namespace {

using ::t2vec::nn::testing::ExpectGradientsMatch;

T2VecConfig TinyConfig() {
  T2VecConfig config;
  config.embed_dim = 6;
  config.hidden = 7;
  config.layers = 2;
  config.loss = LossKind::kL1;
  return config;
}

TEST(BuildBatchTest, LayoutAndPadding) {
  TokenPair p1{{10, 11, 12}, {20, 21}};
  TokenPair p2{{13}, {22, 23, 24}};
  const Batch batch = BuildBatch({&p1, &p2});

  EXPECT_EQ(batch.batch_size, 2u);
  ASSERT_EQ(batch.src_steps.size(), 3u);     // max src len
  ASSERT_EQ(batch.target_steps.size(), 4u);  // max tgt len + EOS

  // Source layout.
  EXPECT_EQ(batch.src_steps[0][0], 10);
  EXPECT_EQ(batch.src_steps[0][1], 13);
  EXPECT_EQ(batch.src_steps[1][1], geo::kPadToken);
  EXPECT_EQ(batch.src_masks[1][1], 0.0f);
  EXPECT_EQ(batch.src_masks[2][0], 1.0f);

  // Decoder inputs start with BOS and shift the targets.
  EXPECT_EQ(batch.dec_input_steps[0][0], geo::kBosToken);
  EXPECT_EQ(batch.dec_input_steps[1][0], 20);
  EXPECT_EQ(batch.target_steps[0][0], 20);
  EXPECT_EQ(batch.target_steps[1][0], 21);
  EXPECT_EQ(batch.target_steps[2][0], geo::kEosToken);
  EXPECT_EQ(batch.target_steps[3][0], geo::kPadToken);
  EXPECT_EQ(batch.target_steps[3][1], geo::kEosToken);

  // Token accounting: (2 + 1) + (3 + 1).
  EXPECT_EQ(batch.target_tokens, 7u);
}

TEST(EncoderDecoderTest, RunBatchGradCheck) {
  // Full seq2seq gradient check through encoder, decoder, embedding, and
  // projection with the (deterministic) L1 loss.
  Rng rng(3);
  T2VecConfig config = TinyConfig();
  const geo::Token vocab_size = 12;
  EncoderDecoder model(config, vocab_size, rng);
  NllLoss loss(&model.projection());

  TokenPair p1{{4, 5, 6, 7}, {8, 9, 10}};
  TokenPair p2{{5, 7}, {9, 11, 4, 5}};
  const Batch batch = BuildBatch({&p1, &p2});

  // RunBatch returns the summed loss but scales gradients by 1/batch_size
  // (mean-per-sequence objective); divide so numeric and analytic agree.
  auto loss_fn = [&]() {
    return model.RunBatch(batch, &loss, /*accumulate_grads=*/false) /
           static_cast<double>(batch.batch_size);
  };

  for (nn::Parameter* p : model.Params()) p->ZeroGrad();
  model.RunBatch(batch, &loss, /*accumulate_grads=*/true);

  for (nn::Parameter* p : model.Params()) {
    ExpectGradientsMatch(&p->value, p->grad, loss_fn, 1e-2f, 3e-2, 10,
                         /*seed=*/p->value.size());
  }
}

TEST(EncoderDecoderTest, EncodeDeterministicAndBatchInvariant) {
  Rng rng(5);
  T2VecConfig config = TinyConfig();
  EncoderDecoder model(config, 12, rng);

  const traj::TokenSeq a = {4, 5, 6, 7, 8};
  const traj::TokenSeq b = {9, 10};
  const nn::Matrix solo = model.EncodeBatch({a});
  const nn::Matrix batch = model.EncodeBatch({b, a, b});

  // Same sequence -> the same bits, regardless of the batch around it (the
  // packed forward never mixes rows, whatever their lengths).
  const size_t bytes = model.hidden() * sizeof(float);
  EXPECT_EQ(std::memcmp(batch.Row(1), solo.Row(0), bytes), 0);
  EXPECT_EQ(std::memcmp(batch.Row(0), batch.Row(2), bytes), 0);
  const nn::Matrix solo_b = model.EncodeBatch({b});
  EXPECT_EQ(std::memcmp(batch.Row(0), solo_b.Row(0), bytes), 0);
}

TEST(EncoderDecoderTest, EmptySequenceEncodesToZero) {
  Rng rng(6);
  EncoderDecoder model(TinyConfig(), 12, rng);
  const nn::Matrix out = model.EncodeBatch({{}, {4, 5}});
  for (size_t j = 0; j < model.hidden(); ++j) {
    EXPECT_EQ(out.At(0, j), 0.0f);
  }
  EXPECT_GT(out.SquaredNorm(), 0.0);
}

TEST(EncoderDecoderTest, DifferentSequencesGetDifferentVectors) {
  Rng rng(7);
  EncoderDecoder model(TinyConfig(), 12, rng);
  const nn::Matrix out = model.EncodeBatch({{4, 5, 6}, {7, 8, 9}});
  float diff = 0.0f;
  for (size_t j = 0; j < model.hidden(); ++j) {
    diff += std::fabs(out.At(0, j) - out.At(1, j));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(EncoderDecoderTest, TrainingStepReducesLoss) {
  Rng rng(8);
  T2VecConfig config = TinyConfig();
  EncoderDecoder model(config, 12, rng);
  NllLoss loss(&model.projection());
  nn::Adam adam(model.Params(), 5e-3f);

  TokenPair p{{4, 5, 6, 7}, {8, 9, 10, 11}};
  const Batch batch = BuildBatch({&p});

  const double initial = model.RunBatch(batch, &loss, false);
  for (int step = 0; step < 120; ++step) {
    adam.ZeroGrad();
    model.RunBatch(batch, &loss, true);
    adam.Step();
  }
  const double final_loss = model.RunBatch(batch, &loss, false);
  EXPECT_LT(final_loss, 0.5 * initial);
}

TEST(PairsTest, GridOfVariants) {
  // A straight trip across 10 hot cells.
  geo::SpatialGrid grid({0, 0}, {1000, 100}, 100.0);
  std::vector<geo::Point> pts;
  for (int c = 0; c < 10; ++c) {
    pts.push_back(grid.CenterOf(grid.CellAt(0, c)));
    pts.push_back(grid.CenterOf(grid.CellAt(0, c)));
  }
  geo::HotCellVocab vocab(grid, pts, 2);

  traj::Trajectory trip;
  trip.id = 0;
  for (int i = 0; i < 10; ++i) trip.points.push_back({i * 100.0 + 50, 50});

  T2VecConfig config;
  config.r1_grid = {0.0, 0.5};
  config.r2_grid = {0.0, 0.5};
  config.reverse_source = false;
  Rng rng(9);
  const auto pairs = BuildTrainingPairs({trip}, vocab, config, rng);
  ASSERT_EQ(pairs.size(), 4u);  // 2 x 2 grid.
  for (const TokenPair& p : pairs) {
    EXPECT_EQ(p.tgt.size(), 10u);  // Target is always the original.
    EXPECT_GE(p.src.size(), 2u);
    EXPECT_LE(p.src.size(), 10u);
    // Variants keep the endpoints, so first/last tokens agree (possibly
    // distorted by 30 m noise into a neighboring cell; allow 1 cell).
    // With r2 = 0, exact:
  }
  // The (0, 0) variant is the identity.
  EXPECT_EQ(pairs[0].src, pairs[0].tgt);
}

TEST(PairsTest, ReverseSourceReversesOnlySrc) {
  geo::SpatialGrid grid({0, 0}, {1000, 100}, 100.0);
  std::vector<geo::Point> pts;
  for (int c = 0; c < 10; ++c) {
    pts.push_back(grid.CenterOf(grid.CellAt(0, c)));
  }
  geo::HotCellVocab vocab(grid, pts, 1);
  traj::Trajectory trip;
  trip.id = 0;
  for (int i = 0; i < 10; ++i) trip.points.push_back({i * 100.0 + 50, 50});

  T2VecConfig config;
  config.r1_grid = {0.0};
  config.r2_grid = {0.0};
  config.reverse_source = true;
  Rng rng(10);
  const auto pairs = BuildTrainingPairs({trip}, vocab, config, rng);
  ASSERT_EQ(pairs.size(), 1u);
  traj::TokenSeq reversed = pairs[0].tgt;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(pairs[0].src, reversed);
}

TEST(PairsTest, SkipsDegenerateTrips) {
  geo::SpatialGrid grid({0, 0}, {1000, 100}, 100.0);
  std::vector<geo::Point> pts = {grid.CenterOf(0)};
  geo::HotCellVocab vocab(grid, pts, 1);
  traj::Trajectory tiny;
  tiny.points.push_back({50, 50});  // Single point.
  T2VecConfig config;
  Rng rng(11);
  EXPECT_TRUE(BuildTrainingPairs({tiny}, vocab, config, rng).empty());
}


TEST(EncoderDecoderTest, AttentionRunBatchGradCheck) {
  // Same full-model gradient check with the attention path enabled.
  Rng rng(13);
  T2VecConfig config = TinyConfig();
  config.use_attention = true;
  EncoderDecoder model(config, 12, rng);
  ASSERT_TRUE(model.has_attention());
  NllLoss loss(&model.projection());

  TokenPair p1{{4, 5, 6, 7}, {8, 9, 10}};
  TokenPair p2{{5, 7}, {9, 11, 4, 5}};
  const Batch batch = BuildBatch({&p1, &p2});

  auto loss_fn = [&]() {
    return model.RunBatch(batch, &loss, /*accumulate_grads=*/false) /
           static_cast<double>(batch.batch_size);
  };

  for (nn::Parameter* p : model.Params()) p->ZeroGrad();
  model.RunBatch(batch, &loss, /*accumulate_grads=*/true);

  for (nn::Parameter* p : model.Params()) {
    ExpectGradientsMatch(&p->value, p->grad, loss_fn, 1e-2f, 3e-2, 8,
                         /*seed=*/p->value.size() + 1);
  }
}

TEST(EncoderDecoderTest, AttentionTrainingStepReducesLoss) {
  Rng rng(14);
  T2VecConfig config = TinyConfig();
  config.use_attention = true;
  EncoderDecoder model(config, 12, rng);
  NllLoss loss(&model.projection());
  nn::Adam adam(model.Params(), 5e-3f);

  TokenPair p{{4, 5, 6, 7}, {8, 9, 10, 11}};
  const Batch batch = BuildBatch({&p});
  const double initial = model.RunBatch(batch, &loss, false);
  for (int step = 0; step < 120; ++step) {
    adam.ZeroGrad();
    model.RunBatch(batch, &loss, true);
    adam.Step();
  }
  EXPECT_LT(model.RunBatch(batch, &loss, false), 0.5 * initial);
}

TEST(EncoderDecoderTest, AttentionEncodeUnchanged) {
  // The representation is still the encoder final state: identical weights
  // aside, enabling attention must not change EncodeBatch results.
  Rng rng1(15), rng2(15);
  T2VecConfig plain = TinyConfig();
  T2VecConfig attn = TinyConfig();
  attn.use_attention = true;
  EncoderDecoder a(plain, 12, rng1);
  EncoderDecoder b(attn, 12, rng2);
  // Same seed => identical embedding + encoder weights (attention params
  // are constructed after them).
  const traj::TokenSeq seq = {4, 5, 6, 7};
  const nn::Matrix va = a.EncodeBatch({seq});
  const nn::Matrix vb = b.EncodeBatch({seq});
  EXPECT_LT(nn::MaxAbsDiff(va, vb), 1e-6f);
}

}  // namespace
}  // namespace t2vec::core
