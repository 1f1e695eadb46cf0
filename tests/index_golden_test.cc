// Golden CRC32C digests of the retrieval outputs (ROADMAP item 5a).
//
// Every other index test compares two configurations of the current code:
// 1 vs 8 threads, scalar vs AVX2, grown vs built. A change that shifts both
// sides the same way passes those silently. The digests below were recorded
// once and committed, so a rewrite of the scan, the distance kernels or the
// quantizer has to reproduce bits written before it existed:
//   - exact Query ids and distance bits for k in {1, 10, 100, Size() + 5};
//   - VectorIndex::RankOf answers;
//   - IVF query answers before and after training;
//   - the EmbeddingStore::Save bytes of a trained IVF store over the same
//     rows (ids 0..n-1), which embed the centroids and inverted lists.
// Each digest must hold on both SIMD tiers and at several thread counts.
//
// Rows come from Rng::Uniform(-1, 1): integer arithmetic plus a scaling by
// a power of two, which FMA contraction cannot change. Distances go through
// the std::fma-based kernels, and the IVF centroids through plain double
// sums. No libm transcendental feeds a digest, so the values hold on any
// IEEE-754 toolchain. A failing digest means answers changed: find out why
// before re-recording it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "core/ann_index.h"
#include "core/ivf_index.h"
#include "core/vec_index.h"
#include "golden.h"
#include "serve/embedding_store.h"

namespace t2vec::core {
namespace {

using golden::Digest;
using golden::ForEachTierAndThreadCount;
using golden::Hex;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Exact-index corpus: 41,003 x 48 rows. 41,003 is 3 mod 4, so the last
// four-row group is partial. NaN rows 8191 and 8192 straddle a power-of-two
// boundary, and NaN, infinite and duplicate rows are spread over the store.
constexpr size_t kExactRows = 41003;
constexpr size_t kExactDim = 48;

std::vector<float> UniformRows(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n * d);
  for (float& v : data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return data;
}

std::vector<float> ExactCorpus() {
  std::vector<float> data = UniformRows(kExactRows, kExactDim, 101);
  auto row = [&](size_t r) { return &data[r * kExactDim]; };
  for (const size_t r : {size_t{3}, size_t{8191}, size_t{8192}, size_t{20000},
                         kExactRows - 1}) {
    row(r)[r % kExactDim] = kNaN;
  }
  row(123)[5] = kInf;
  row(30000)[47] = -kInf;
  // Exact duplicates of row 10 tie at every query distance; the row index
  // breaks the tie.
  for (const size_t r : {size_t{4095}, size_t{9000}, size_t{33333}}) {
    std::copy(row(10), row(10) + kExactDim, row(r));
  }
  return data;
}

// Five uniform probes, the duplicated row 10 (three zero distances) and an
// all-NaN probe (every distance NaN, so the answer is ordered by row).
std::vector<std::vector<float>> ExactProbes(const std::vector<float>& corpus) {
  std::vector<std::vector<float>> probes;
  const std::vector<float> uniform = UniformRows(5, kExactDim, 102);
  for (size_t q = 0; q < 5; ++q) {
    probes.emplace_back(uniform.begin() + q * kExactDim,
                        uniform.begin() + (q + 1) * kExactDim);
  }
  probes.emplace_back(corpus.begin() + 10 * kExactDim,
                      corpus.begin() + 11 * kExactDim);
  probes.emplace_back(kExactDim, kNaN);
  return probes;
}

void AppendAnswer(const KnnResult& r, std::string* bytes) {
  for (size_t i = 0; i < r.size(); ++i) {
    const uint64_t id = r.ids[i];
    bytes->append(reinterpret_cast<const char*>(&id), sizeof(id));
    bytes->append(reinterpret_cast<const char*>(&r.distances[i]),
                  sizeof(double));
  }
}

class IndexGoldenTest : public ::testing::Test {
 protected:
  static const std::vector<float>& Corpus() {
    static const std::vector<float>* corpus =
        new std::vector<float>(ExactCorpus());
    return *corpus;
  }

  static const VectorIndex& Exact() {
    static const VectorIndex* index = [] {
      auto* built = new VectorIndex(kExactDim);
      const std::vector<float>& data = Corpus();
      for (size_t r = 0; r < kExactRows; ++r) {
        built->Add({&data[r * kExactDim], kExactDim});
      }
      return built;
    }();
    return *index;
  }
};

TEST_F(IndexGoldenTest, ExactQueryIdsAndDistanceBits) {
  const VectorIndex& index = Exact();
  const std::vector<std::vector<float>> probes = ExactProbes(Corpus());
  const size_t ks[] = {1, 10, 100, kExactRows + 5};
  const uint32_t golden[] = {0xb4642e95u, 0x7c1db692u, 0x4a5538cfu,
                             0x0451e306u};
  ForEachTierAndThreadCount([&] {
    for (size_t i = 0; i < 4; ++i) {
      std::string bytes;
      for (const std::vector<float>& probe : probes) {
        const KnnResult r = index.Query(probe, ks[i]);
        ASSERT_EQ(r.size(), std::min(ks[i], kExactRows));
        AppendAnswer(r, &bytes);
      }
      EXPECT_EQ(Hex(Digest(bytes)), Hex(golden[i])) << "k = " << ks[i];
    }
  });
}

TEST_F(IndexGoldenTest, RankOfAnswers) {
  const VectorIndex& index = Exact();
  const std::vector<std::vector<float>> probes = ExactProbes(Corpus());
  // Ordinary rows, the duplicated row, a NaN row, an infinite row and the
  // last row.
  const size_t targets[] = {0, 10, 8191, 123, 16384, 30000, kExactRows - 1};
  ForEachTierAndThreadCount([&] {
    std::vector<uint64_t> ranks;
    for (const std::vector<float>& probe : probes) {
      for (const size_t target : targets) {
        ranks.push_back(index.RankOf(probe.data(), target));
      }
    }
    // Self-ranks: a stored row ranks first against itself.
    for (const size_t r : {size_t{1}, size_t{8192 + 7}, size_t{40000}}) {
      ranks.push_back(index.RankOf(&Corpus()[r * kExactDim], r));
    }
    const std::string bytes(reinterpret_cast<const char*>(ranks.data()),
                            ranks.size() * sizeof(uint64_t));
    EXPECT_EQ(Hex(Digest(bytes)), Hex(0x6c5ae20fu));
  });
}

TEST(IndexGoldenIvfTest, SaveBytesAndAnswersBeforeAndAfterTraining) {
  const size_t d = 16, n = 3000;
  std::vector<float> data = UniformRows(n, d, 201);
  data[17 * d + 3] = kNaN;
  data[2500 * d] = kNaN;
  const std::vector<float> probes = UniformRows(4, d, 202);

  IndexConfig config;
  config.kind = IndexKind::kIvf;
  config.ivf_nlist = 16;
  config.ivf_nprobe = 3;
  config.ivf_train_iters = 5;
  config.ivf_seed = 17;
  config.ivf_train_per_list = 64;  // Trains when row 1023 arrives.

  const std::string path =
      std::string(::testing::TempDir()) + "/index_golden_ivf.idx";
  auto answers = [&](const IvfIndex& index) {
    std::string bytes;
    for (const size_t k : {size_t{1}, size_t{10}, size_t{100},
                           index.Size() + 5}) {
      for (size_t q = 0; q < 4; ++q) {
        AppendAnswer(index.Query({&probes[q * d], d}, k), &bytes);
      }
    }
    return bytes;
  };
  auto save_bytes = [&](const auto& saved) {
    EXPECT_TRUE(saved.Save(path).ok());
    std::string bytes;
    EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
    return bytes;
  };

  ForEachTierAndThreadCount([&] {
    IvfIndex index(d, config);
    for (size_t r = 0; r < 1000; ++r) index.Add({&data[r * d], d});
    ASSERT_FALSE(index.trained());
    EXPECT_EQ(Hex(Digest(answers(index))), Hex(0xafa47c6au))
        << "pre-training answers";
    for (size_t r = 1000; r < n; ++r) index.Add({&data[r * d], d});
    ASSERT_TRUE(index.trained());
    EXPECT_EQ(Hex(Digest(answers(index))), Hex(0xa6b19d65u))
        << "trained answers";

    serve::EmbeddingStore store(d, config);
    for (size_t r = 0; r < n; ++r) {
      ASSERT_TRUE(store.Add(static_cast<int64_t>(r), {&data[r * d], d}).ok());
    }
    ASSERT_TRUE(store.Stats().trained);
    EXPECT_EQ(Hex(Digest(save_bytes(store))), Hex(0x25d157f7u))
        << "trained store Save bytes";
  });
}

}  // namespace
}  // namespace t2vec::core
