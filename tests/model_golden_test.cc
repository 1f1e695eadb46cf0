// Golden CRC32C digests of training and encoding (ROADMAP item 5a).
//
// The other model tests compare two configurations of the current code (1
// vs 8 threads, scalar vs AVX2, batched vs one at a time). These digests
// were recorded once and committed, so a rewrite of the GRU, attention,
// loss, optimizer or encoder paths has to reproduce bits written before it:
//   - every Params() value after T2Vec::TrainChecked on a tiny config, with
//     cell pretraining, mixed-length pairs (so the masks matter), and
//     attention off and on;
//   - EncodeOne over a fixed trip set that includes an empty and a
//     one-point trip, plus Encode (two 256-trip slices) of the same set;
//   - the VRNN baseline's parameters after a few Train iterations, and its
//     EncodeBatch.
// Each digest must hold on both SIMD tiers at 1 and 3 threads.
//
// Sigmoid, tanh, exp and log come from libm, and the compiler decides
// which multiply-adds outside the kernel layer become FMAs, so these bits
// belong to one toolchain: GCC 12.2, glibc 2.36 and a -march=native host
// with AVX-512F and FMA (Release and the check.sh sanitizer trees alike).
// Anywhere else the test prints the digests it computed, still requires
// every tier and thread count to agree, and skips the golden comparison.
// There is no tolerance: a failing digest means the model's numbers
// changed, so find out why before re-recording it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "core/t2vec.h"
#include "core/vrnn.h"
#include "geo/grid.h"
#include "geo/vocab.h"
#include "golden.h"
#include "traj/generator.h"
#include "traj/tokenizer.h"

namespace t2vec::core {
namespace {

using golden::ForEachTierAndThreadCount;
using golden::Hex;

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && \
    __GNUC_MINOR__ == 2 && defined(__GLIBC__) && __GLIBC__ == 2 &&  \
    __GLIBC_MINOR__ == 36 && defined(__AVX512F__) && defined(__FMA__)
constexpr bool kReferenceToolchain = true;
#else
constexpr bool kReferenceToolchain = false;
#endif

constexpr size_t kTrainTrips = 40;
constexpr size_t kEncodeTrips = 300;  // Plus an empty and a one-point trip.

const std::vector<traj::Trajectory>& Trips() {
  static const auto* trips = [] {
    traj::SyntheticTrajectoryGenerator generator(
        traj::GeneratorConfig::PortoLike());
    return new std::vector<traj::Trajectory>(
        generator.Generate(kEncodeTrips).trajectories());
  }();
  return *trips;
}

std::vector<traj::Trajectory> TrainTrips() {
  return {Trips().begin(), Trips().begin() + kTrainTrips};
}

// Every generated trip, an empty trip and a one-point trip.
std::vector<traj::Trajectory> EncodeTrips() {
  std::vector<traj::Trajectory> trips = Trips();
  trips.emplace_back();
  trips.back().id = 1000;
  trips.emplace_back();
  trips.back().id = 1001;
  trips.back().points.push_back(Trips()[7].points[3]);
  return trips;
}

T2VecConfig TinyConfig(bool use_attention) {
  T2VecConfig config;
  config.hidden = 24;
  config.embed_dim = 16;
  config.layers = 2;
  config.batch_size = 16;
  config.max_iterations = 4;
  config.validate_every = 100;  // No validation pass inside 4 iterations.
  config.pretrain_cells = true;
  config.pretrain_epochs = 2;
  config.use_attention = use_attention;
  return config;
}

uint32_t ParamsDigest(const nn::ParamList& params) {
  uint32_t crc = 0;
  for (const nn::Parameter* p : params) {
    crc = Crc32c(crc, p->value.data(), p->value.size() * sizeof(float));
  }
  return crc;
}

uint32_t MatrixDigest(const nn::Matrix& m) {
  return Crc32c(0, m.data(), m.size() * sizeof(float));
}

// Collects the digests one tier/thread combination computed. On the
// reference toolchain each must equal its golden value; elsewhere each
// must equal the first combination's, so tiers and thread counts still
// have to agree.
class DigestChecker {
 public:
  void Check(const std::string& what, uint32_t got, uint32_t golden) {
    std::printf("[ digest   ] %s = %s\n", what.c_str(), Hex(got).c_str());
    if (kReferenceToolchain) {
      EXPECT_EQ(Hex(got), Hex(golden)) << what;
      return;
    }
    const auto it = std::find_if(first_.begin(), first_.end(),
                                 [&](const auto& e) { return e.first == what; });
    if (it == first_.end()) {
      first_.emplace_back(what, got);
    } else {
      EXPECT_EQ(Hex(got), Hex(it->second)) << what;
    }
  }

  // Skips the rest of the test off the reference toolchain.
  static void SkipUnlessReference() {
    if (!kReferenceToolchain) {
      GTEST_SKIP() << "golden digests belong to GCC 12.2 / glibc 2.36 / "
                      "AVX-512F+FMA; the computed digests are printed above";
    }
  }

 private:
  std::vector<std::pair<std::string, uint32_t>> first_;
};

void CheckTrainedParams(bool use_attention, uint32_t golden) {
  DigestChecker checker;
  ForEachTierAndThreadCount([&] {
    Result<T2Vec> model =
        T2Vec::TrainChecked(TrainTrips(), TinyConfig(use_attention));
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    checker.Check(use_attention ? "params, attention on"
                                : "params, attention off",
                  ParamsDigest(model.value().model().Params()), golden);
  });
  DigestChecker::SkipUnlessReference();
}

TEST(ModelGoldenTest, TrainedParamsWithoutAttention) {
  CheckTrainedParams(/*use_attention=*/false, 0x47b9772fu);
}

TEST(ModelGoldenTest, TrainedParamsWithAttention) {
  CheckTrainedParams(/*use_attention=*/true, 0xf673552du);
}

TEST(ModelGoldenTest, EncodeOneAndEncode) {
  Result<T2Vec> trained =
      T2Vec::TrainChecked(TrainTrips(), TinyConfig(/*use_attention=*/false));
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const T2Vec& model = trained.value();
  const std::vector<traj::Trajectory> trips = EncodeTrips();

  DigestChecker checker;
  ForEachTierAndThreadCount([&] {
    uint32_t one = 0;
    for (const traj::Trajectory& trip : trips) {
      const std::vector<float> v = model.EncodeOne(trip);
      one = Crc32c(one, v.data(), v.size() * sizeof(float));
    }
    checker.Check("EncodeOne", one, 0xc79f1fd2u);
    checker.Check("Encode", MatrixDigest(model.Encode(trips)), 0xc79f1fd2u);
  });
  DigestChecker::SkipUnlessReference();
}

TEST(ModelGoldenTest, VrnnParamsAndEncodeBatch) {
  const std::vector<traj::Trajectory> train = TrainTrips();
  std::vector<geo::Point> points;
  for (const traj::Trajectory& t : train) {
    points.insert(points.end(), t.points.begin(), t.points.end());
  }
  geo::Point lo = points.front(), hi = points.front();
  for (const geo::Point& p : points) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  const geo::SpatialGrid grid({lo.x - 100, lo.y - 100},
                              {hi.x + 100, hi.y + 100}, 100.0);
  const geo::HotCellVocab vocab(grid, points, 2);
  const std::vector<traj::TokenSeq> train_seqs =
      traj::TokenizeAll(vocab, train);
  const std::vector<traj::TokenSeq> encode_seqs =
      traj::TokenizeAll(vocab, EncodeTrips());
  ASSERT_TRUE(encode_seqs[kEncodeTrips].empty());
  ASSERT_EQ(encode_seqs[kEncodeTrips + 1].size(), 1u);

  DigestChecker checker;
  ForEachTierAndThreadCount([&] {
    const T2VecConfig config = TinyConfig(/*use_attention=*/false);
    Rng rng(5);
    VRnn vrnn(config, vocab.vocab_size(), rng);
    Rng train_rng(6);
    vrnn.Train(train_seqs, 4, train_rng);
    checker.Check("VRNN params", ParamsDigest(vrnn.Params()), 0xd632267cu);
    checker.Check("VRNN EncodeBatch",
                  MatrixDigest(vrnn.EncodeBatch(encode_seqs)), 0x5c35b92cu);
  });
  DigestChecker::SkipUnlessReference();
}

}  // namespace
}  // namespace t2vec::core
