// End-to-end pipeline tests: tiny-scale training runs that verify the full
// t2vec recipe learns representations with the paper's qualitative
// properties. These are the slowest tests in the suite (~1 min total).
//
// The PipelineTest cases share one trained model. A direct run of the
// binary trains it in-process; under ctest, `--save-model=PATH` trains and
// saves it once per run and every case reads it with `--load-model=PATH`
// (tests/CMakeLists.txt). Training is deterministic and Save/Load
// round-trips bit-exactly, so both give the cases the same model.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>

#include "common/rng.h"
#include "core/cell_pretrain.h"
#include "core/t2vec.h"
#include "core/vrnn.h"
#include "eval/experiments.h"
#include "geo/cell_knn.h"
#include "traj/generator.h"
#include "traj/tokenizer.h"
#include "traj/transforms.h"

namespace t2vec::core {
namespace {

// The shared PipelineTest model: loaded by main() when given
// --load-model, otherwise trained by the first case that asks for it.
std::optional<T2Vec>& SharedModel() {
  static std::optional<T2Vec> model;
  return model;
}

// Small but meaningful training setup shared by the pipeline tests.
class PipelineTest : public ::testing::Test {
 public:
  static T2Vec TrainModel() {
    return T2Vec::Train(Data().train.trajectories(), TinyTrainConfig());
  }

 protected:
  static const T2Vec& Model() {
    std::optional<T2Vec>& model = SharedModel();
    if (!model) model.emplace(TrainModel());
    return *model;
  }

  static const eval::ExperimentData& Data() {
    static eval::ExperimentData* data = [] {
      return new eval::ExperimentData(
          eval::MakeData(eval::DatasetKind::kPortoLike, 250, 250));
    }();
    return *data;
  }

  static T2VecConfig TinyTrainConfig() {
    T2VecConfig config;
    config.hidden = 48;
    config.embed_dim = 32;
    config.max_iterations = 320;
    config.validate_every = 160;
    config.r1_grid = {0.0, 0.4};
    config.r2_grid = {0.0, 0.4};
    config.pretrain_epochs = 6;
    return config;
  }
};

TEST_F(PipelineTest, TrainingImprovesOverUntrainedModel) {
  // The trained model must rank a query's interleaved twin far better than
  // a freshly initialized model does.
  const eval::ExperimentData& data = Data();
  eval::MssData mss = eval::BuildMss(data.test, 60, 120);

  const double trained_rank = eval::MeanRankOfT2Vec(Model(), mss);

  T2VecConfig config = TinyTrainConfig();
  config.max_iterations = 1;  // Effectively untrained.
  config.pretrain_cells = false;
  const T2Vec untrained = T2Vec::Train(data.train.trajectories(), config);
  const double untrained_rank = eval::MeanRankOfT2Vec(untrained, mss);

  EXPECT_LT(trained_rank, 0.7 * untrained_rank);
}

TEST_F(PipelineTest, RepresentationRobustToDownsampling) {
  // Core paper claim: the twin's rank should degrade only mildly when
  // queries and database are downsampled.
  const eval::ExperimentData& data = Data();

  eval::MssData clean = eval::BuildMss(data.test, 60, 120);
  const double clean_rank = eval::MeanRankOfT2Vec(Model(), clean);

  eval::MssData dropped = eval::BuildMss(data.test, 60, 120);
  Rng rng(5);
  eval::TransformMss(&dropped, /*r1=*/0.5, /*r2=*/0.0, rng);
  const double dropped_rank = eval::MeanRankOfT2Vec(Model(), dropped);

  // Allow degradation, but it must stay within a small factor (random
  // would be ~90).
  EXPECT_LT(dropped_rank, 4.0 * clean_rank + 10.0);
}

TEST_F(PipelineTest, VariantEmbedsNearOriginal) {
  // A downsampled+distorted variant of a trip must be closer to its
  // original than an unrelated trip is, for the overwhelming majority of
  // test trips.
  const eval::ExperimentData& data = Data();
  Rng rng(11);
  int good = 0, total = 0;
  for (size_t i = 0; i + 1 < data.test.size() && total < 60; i += 2) {
    const traj::Trajectory& trip = data.test[i];
    const traj::Trajectory& other = data.test[i + 1];
    traj::Trajectory variant = traj::Downsample(trip, 0.4, rng);
    variant = traj::Distort(variant, 0.4, rng);
    const double d_variant = Model().Distance(trip, variant);
    const double d_other = Model().Distance(trip, other);
    good += (d_variant < d_other);
    ++total;
  }
  EXPECT_GE(good, total * 8 / 10);
}

TEST_F(PipelineTest, SaveLoadPreservesEncodings) {
  const std::string path = ::testing::TempDir() + "/pipeline_model.t2vec";
  ASSERT_TRUE(Model().Save(path).ok());
  Result<T2Vec> loaded = T2Vec::Load(path);
  ASSERT_TRUE(loaded.ok());

  const traj::Trajectory& trip = Data().test[3];
  const std::vector<float> original = Model().EncodeOne(trip);
  const std::vector<float> restored = loaded.value().EncodeOne(trip);
  ASSERT_EQ(original.size(), restored.size());
  for (size_t j = 0; j < original.size(); ++j) {
    EXPECT_EQ(original[j], restored[j]);
  }
  std::remove(path.c_str());
}

TEST_F(PipelineTest, EncodeBatchMatchesEncodeOne) {
  const eval::ExperimentData& data = Data();
  std::vector<traj::Trajectory> trips = {data.test[0], data.test[1],
                                         data.test[2]};
  const nn::Matrix batch = Model().Encode(trips);
  for (size_t i = 0; i < trips.size(); ++i) {
    const std::vector<float> solo = Model().EncodeOne(trips[i]);
    ASSERT_EQ(solo.size(), batch.cols());
    EXPECT_EQ(
        std::memcmp(batch.Row(i), solo.data(), solo.size() * sizeof(float)),
        0)
        << "trip " << i;
  }
}

TEST(CellPretrainTest, NeighborsEndUpCloserThanRandomCells) {
  // Algorithm 1 on a lattice of hot cells: after pretraining, adjacent
  // cells must be more similar (cosine) than random pairs.
  geo::SpatialGrid grid({0, 0}, {2000, 2000}, 100.0);
  std::vector<geo::Point> points;
  for (int r = 0; r < 20; ++r) {
    for (int c = 0; c < 20; ++c) {
      points.push_back(grid.CenterOf(grid.CellAt(r, c)));
    }
  }
  geo::HotCellVocab vocab(grid, points, 1);
  geo::CellKnnTable knn(vocab, 8, 100.0);

  T2VecConfig config;
  config.embed_dim = 24;
  config.pretrain_epochs = 20;
  Rng rng(3);
  const nn::Matrix emb = PretrainCellEmbeddings(vocab, knn, config, rng);

  auto cosine = [&](geo::Token a, geo::Token b) {
    double dot = 0, na = 0, nb = 0;
    for (size_t j = 0; j < emb.cols(); ++j) {
      dot += static_cast<double>(emb.At(static_cast<size_t>(a), j)) *
             emb.At(static_cast<size_t>(b), j);
      na += static_cast<double>(emb.At(static_cast<size_t>(a), j)) *
            emb.At(static_cast<size_t>(a), j);
      nb += static_cast<double>(emb.At(static_cast<size_t>(b), j)) *
            emb.At(static_cast<size_t>(b), j);
    }
    return dot / std::sqrt(na * nb + 1e-12);
  };

  Rng pick(4);
  double near_total = 0, far_total = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const geo::Token u = static_cast<geo::Token>(
        pick.UniformInt(vocab.num_hot_cells())) + geo::kNumSpecialTokens;
    const geo::Token neighbor = knn.Neighbors(u)[1];  // Nearest other cell.
    geo::Token random;
    do {
      random = static_cast<geo::Token>(
          pick.UniformInt(vocab.num_hot_cells())) + geo::kNumSpecialTokens;
    } while (random == u);
    near_total += cosine(u, neighbor);
    far_total += cosine(u, random);
  }
  EXPECT_GT(near_total / trials, far_total / trials + 0.1);
}

TEST(VRnnTest, TrainsAndEncodes) {
  const eval::ExperimentData data =
      eval::MakeData(eval::DatasetKind::kPortoLike, 120, 40);
  // Vocabulary over the training points.
  std::vector<geo::Point> points = data.train.AllPoints();
  geo::Point lo = points[0], hi = points[0];
  for (const geo::Point& p : points) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  geo::SpatialGrid grid({lo.x - 100, lo.y - 100}, {hi.x + 100, hi.y + 100},
                        100.0);
  geo::HotCellVocab vocab(grid, points, 2);

  T2VecConfig config;
  config.embed_dim = 24;
  config.hidden = 32;
  config.layers = 1;
  Rng rng(5);
  VRnn vrnn(config, vocab.vocab_size(), rng);

  std::vector<traj::TokenSeq> seqs =
      traj::TokenizeAll(vocab, data.train.trajectories());
  Rng train_rng(6);
  const double early = vrnn.Train(seqs, 10, train_rng);
  const double late = vrnn.Train(seqs, 120, train_rng);
  EXPECT_LT(late, early);

  const nn::Matrix vecs = vrnn.EncodeBatch(
      traj::TokenizeAll(vocab, data.test.trajectories()));
  EXPECT_EQ(vecs.rows(), data.test.size());
  EXPECT_EQ(vecs.cols(), 32u);
  EXPECT_GT(vecs.SquaredNorm(), 0.0);
}

}  // namespace
}  // namespace t2vec::core

int main(int argc, char** argv) {
  using t2vec::core::PipelineTest;
  using t2vec::core::T2Vec;
  ::testing::InitGoogleTest(&argc, argv);
  constexpr std::string_view kSave = "--save-model=";
  constexpr std::string_view kLoad = "--load-model=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kSave)) {
      const std::string path(arg.substr(kSave.size()));
      const t2vec::Status status = PipelineTest::TrainModel().Save(path);
      if (!status.ok()) {
        std::fprintf(stderr, "saving %s: %s\n", path.c_str(),
                     status.ToString().c_str());
        return 1;
      }
      std::printf("trained the PipelineTest model into %s\n", path.c_str());
      return 0;
    }
    if (arg.starts_with(kLoad)) {
      const std::string path(arg.substr(kLoad.size()));
      t2vec::Result<T2Vec> loaded = T2Vec::Load(path);
      if (!loaded.ok()) {
        std::fprintf(stderr,
                     "loading %s: %s (ctest's core_pipeline_train_model "
                     "entry writes it)\n",
                     path.c_str(), loaded.status().ToString().c_str());
        return 1;
      }
      t2vec::core::SharedModel().emplace(std::move(loaded.value()));
    }
  }
  return RUN_ALL_TESTS();
}
