// AnnIndex interface conformance over every backend (DESIGN.md §4e).
//
// The same contract checks run against exact, LSH, and IVF indexes built
// through CreateIndex — the factory every serving path uses — so a new
// backend cannot land without honoring the clamp, snapshot, restore, and
// stats semantics the serving layer depends on. An index persists only
// inside an EmbeddingStore snapshot, so the snapshot checks save a store
// built under each kind and reopen it with LoadMmap. The shared exact scan
// is also checked over a store whose rows are split between an mmap'd
// prefix and an owned tail.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ann_index.h"
#include "serve/embedding_store.h"

namespace t2vec::core {
namespace {

std::string TestDir() {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ann_index_test")
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<float> RandomRows(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n * d);
  for (float& v : data) v = static_cast<float>(rng.Gaussian());
  return data;
}

// One config per backend, sized so the IVF quantizer actually trains on the
// conformance corpus (threshold 4 x 8 = 32 < 120 rows).
IndexConfig ConfigFor(IndexKind kind) {
  IndexConfig config;
  config.kind = kind;
  config.lsh_tables = 4;
  config.lsh_bits = 8;
  config.lsh_seed = 7;
  config.ivf_nlist = 4;
  config.ivf_nprobe = 2;
  config.ivf_train_iters = 3;
  config.ivf_seed = 11;
  config.ivf_train_per_list = 8;
  return config;
}

constexpr IndexKind kAllKinds[] = {IndexKind::kExact, IndexKind::kLsh,
                                   IndexKind::kIvf};

class AnnIndexConformanceTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(AnnIndexConformanceTest, FactoryBuildsTheConfiguredKind) {
  const IndexConfig config = ConfigFor(GetParam());
  auto index = CreateIndex(config, 16);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value()->kind(), GetParam());
  EXPECT_EQ(index.value()->Size(), 0u);
  EXPECT_EQ(index.value()->dim(), 16u);
}

TEST_P(AnnIndexConformanceTest, AddQueryAndClampContract) {
  const size_t d = 8;
  const IndexConfig config = ConfigFor(GetParam());
  auto created = CreateIndex(config, d);
  ASSERT_TRUE(created.ok());
  AnnIndex& index = *created.value();

  const std::vector<float> data = RandomRows(120, d, 61);
  for (size_t i = 0; i < 120; ++i) {
    index.Add({&data[i * d], d});
    ASSERT_EQ(index.Size(), i + 1);
  }
  // RowPtr returns the stored bytes verbatim.
  for (const size_t r : {size_t{0}, size_t{60}, size_t{119}}) {
    EXPECT_EQ(std::memcmp(index.RowPtr(r), &data[r * d], d * sizeof(float)),
              0);
  }

  const std::vector<float> probe = RandomRows(1, d, 62);
  // Self-query: the nearest neighbor of a stored row is that row.
  const KnnResult self = index.Query({&data[0], d}, 1);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self.ids[0], 0u);
  EXPECT_EQ(self.distances[0], 0.0);

  // Distances ascend and ids stay in range.
  const KnnResult top = index.Query(probe, 10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_LT(top.ids[i], 120u);
    if (i > 0) {
      EXPECT_GE(top.distances[i], top.distances[i - 1]);
    }
  }

  // k clamps: over-asking returns every row, k = 0 returns nothing.
  EXPECT_EQ(index.Query(probe, 1000).size(), 120u);
  EXPECT_EQ(index.Query(probe, 0).size(), 0u);
}

TEST_P(AnnIndexConformanceTest, EmptyIndexNeverAborts) {
  const IndexConfig config = ConfigFor(GetParam());
  auto created = CreateIndex(config, 4);
  ASSERT_TRUE(created.ok());
  const std::vector<float> probe = RandomRows(1, 4, 63);
  EXPECT_EQ(created.value()->Query(probe, 10).size(), 0u);
}

// An EmbeddingStore over `n` rows of `data` (ids 0..n-1) under `config`.
serve::EmbeddingStore StoreOf(const IndexConfig& config,
                              const std::vector<float>& data, size_t n,
                              size_t d) {
  serve::EmbeddingStore store(d, config);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(store.Add(static_cast<int64_t>(i), {&data[i * d], d}).ok());
  }
  return store;
}

TEST_P(AnnIndexConformanceTest, SnapshotRoundTripsThroughBothLoaders) {
  // The store snapshot is the one persisted form of an index, and LoadMmap
  // its one reader.
  const size_t d = 8;
  const IndexConfig config = ConfigFor(GetParam());
  const std::vector<float> data = RandomRows(100, d, 64);
  const serve::EmbeddingStore store = StoreOf(config, data, 100, d);
  const AnnIndex& index = store.index();

  // One file per instance: ctest -j runs the exact/lsh/ivf instances as
  // concurrent processes, which must not share a snapshot path.
  const std::string path =
      TestDir() + "/conf_" + IndexKindName(GetParam()) + ".store";
  ASSERT_TRUE(store.Save(path).ok());
  auto mapped = serve::EmbeddingStore::LoadMmap(path, config);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  serve::EmbeddingStore& reopened = mapped.value();

  const std::vector<float> probes = RandomRows(5, d, 65);
  ASSERT_EQ(reopened.index().kind(), GetParam());
  ASSERT_EQ(reopened.index().Size(), index.Size());
  for (size_t q = 0; q < 5; ++q) {
    const KnnResult a = index.Query({&probes[q * d], d}, 7);
    const KnnResult b = reopened.index().Query({&probes[q * d], d}, 7);
    EXPECT_EQ(a.ids, b.ids);
    EXPECT_EQ(a.distances, b.distances);
  }
  // A reopened index keeps growing: Add after restore works and the new
  // row is immediately queryable.
  const std::vector<float> extra = RandomRows(1, d, 66);
  ASSERT_TRUE(reopened.Add(100, extra).ok());
  EXPECT_EQ(reopened.index().Size(), index.Size() + 1);
  const KnnResult self = reopened.index().Query(extra, 1);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self.ids[0], index.Size());
}

TEST_P(AnnIndexConformanceTest, CrossKindLoadRebuildsFromRows) {
  // A snapshot saved under any kind loads under any other configured kind:
  // the rows are authoritative, the aux structure is kind-private.
  const size_t d = 8;
  const std::vector<float> data = RandomRows(80, d, 67);
  const serve::EmbeddingStore store =
      StoreOf(ConfigFor(GetParam()), data, 80, d);
  const std::string path =
      TestDir() + "/cross_" + IndexKindName(GetParam()) + ".store";
  ASSERT_TRUE(store.Save(path).ok());

  for (const IndexKind other : kAllKinds) {
    auto reopened = serve::EmbeddingStore::LoadMmap(path, ConfigFor(other));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const AnnIndex& index = reopened.value().index();
    EXPECT_EQ(index.kind(), other);
    ASSERT_EQ(index.Size(), 80u);
    // Whatever the backend, a stored row's nearest neighbor is itself.
    const KnnResult self = index.Query({&data[3 * d], d}, 1);
    ASSERT_EQ(self.size(), 1u);
    EXPECT_EQ(self.ids[0], 3u);
  }
}

TEST_P(AnnIndexConformanceTest, AnswersBitIdenticalAcrossThreadsAndTiers) {
  // Every backend ranks through the shared chunked scan. Over two chunks
  // of rows, k = 10 and k = Size() exercise the candidate path and the
  // pooled full scan (IVF widens to every list, LSH falls back); the ids
  // and distance bits must match the scalar, one-thread answers on every
  // tier at 1, 2, 3 and 8 threads.
  const size_t d = 8, n = 2 * kScanChunkRows + 1234;
  const IndexConfig config = ConfigFor(GetParam());
  auto created = CreateIndex(config, d);
  ASSERT_TRUE(created.ok());
  AnnIndex& index = *created.value();
  const std::vector<float> data = RandomRows(n, d, 73);
  for (size_t i = 0; i < n; ++i) index.Add({&data[i * d], d});
  const std::vector<float> probes = RandomRows(3, d, 74);
  auto answers = [&] {
    std::string bytes;
    for (size_t q = 0; q < 3; ++q) {
      for (const size_t k : {size_t{10}, n}) {
        const KnnResult r = index.Query({&probes[q * d], d}, k);
        bytes.append(reinterpret_cast<const char*>(r.ids.data()),
                     r.ids.size() * sizeof(size_t));
        bytes.append(reinterpret_cast<const char*>(r.distances.data()),
                     r.distances.size() * sizeof(double));
      }
    }
    return bytes;
  };
  const SimdTier prev = ActiveSimdTier();
  std::string reference;
  {
    SetSimdTier(SimdTier::kScalar);
    ScopedNumThreads one(1);
    reference = answers();
  }
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (!SimdTierSupported(tier)) continue;
    SetSimdTier(tier);
    for (const int threads : {1, 2, 3, 8}) {
      ScopedNumThreads guard(threads);
      const std::string got = answers();
      ASSERT_EQ(got.size(), reference.size());
      EXPECT_EQ(std::memcmp(got.data(), reference.data(), got.size()), 0)
          << "tier " << static_cast<int>(tier) << ", " << threads
          << " threads";
    }
  }
  SetSimdTier(prev);
}

TEST_P(AnnIndexConformanceTest, StatsCountQueriesAndCandidates) {
  const size_t d = 8;
  const IndexConfig config = ConfigFor(GetParam());
  auto created = CreateIndex(config, d);
  ASSERT_TRUE(created.ok());
  AnnIndex& index = *created.value();
  const std::vector<float> data = RandomRows(64, d, 68);
  for (size_t i = 0; i < 64; ++i) index.Add({&data[i * d], d});

  EXPECT_EQ(index.Stats().queries, 0);
  const std::vector<float> probe = RandomRows(1, d, 69);
  (void)index.Query(probe, 5);
  (void)index.Query(probe, 5);
  const IndexStats stats = index.Stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_GT(stats.candidates, 0);
  EXPECT_EQ(stats.kind, GetParam());
  EXPECT_EQ(stats.size, 64u);
  EXPECT_EQ(stats.dim, d);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find(std::string("\"kind\":\"") + IndexKindName(GetParam())),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AnnIndexConformanceTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) {
                           return std::string(IndexKindName(info.param));
                         });

TEST(IndexKindTest, NamesRoundTrip) {
  for (const IndexKind kind : kAllKinds) {
    auto parsed = ParseIndexKind(IndexKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseIndexKind("annoy").ok());
  EXPECT_FALSE(ParseIndexKind("").ok());
}

TEST(IndexConfigTest, ValidateNamesTheOffendingField) {
  IndexConfig lsh;
  lsh.kind = IndexKind::kLsh;
  lsh.lsh_bits = 25;
  const Status bad_bits = lsh.Validate();
  EXPECT_FALSE(bad_bits.ok());
  EXPECT_NE(bad_bits.message().find("lsh_bits"), std::string::npos);

  IndexConfig ivf;
  ivf.kind = IndexKind::kIvf;
  ivf.ivf_nlist = 0;
  const Status bad_nlist = ivf.Validate();
  EXPECT_FALSE(bad_nlist.ok());
  EXPECT_NE(bad_nlist.message().find("ivf_nlist"), std::string::npos);

  EXPECT_TRUE(IndexConfig{}.Validate().ok());
}

TEST(IndexFactoryTest, RejectsInvalidConfigAndZeroDim) {
  IndexConfig bad;
  bad.kind = IndexKind::kIvf;
  bad.ivf_nprobe = 0;
  EXPECT_FALSE(CreateIndex(bad, 8).ok());
  EXPECT_FALSE(CreateIndex(IndexConfig{}, 0).ok());
}

TEST(ExactScanStorageTest, MmapPrefixAndOwnedTailMatchAllOwnedRows) {
  // A store opened with LoadMmap serves its rows from the mapping and puts
  // rows added later in an owned tail, so a four-row kernel group can
  // straddle the two, as in a served store that keeps ingesting after a
  // restart. Its answers must match, byte for byte, an all-owned index over
  // the same rows: on a small store (inline scan) and on one over two
  // chunks (pool scan), with 1 to 7 appended rows.
  const size_t d = 12;
  const std::vector<float> probes = RandomRows(3, d, 72);
  for (const size_t base : {size_t{2001}, 2 * kScanChunkRows + 1}) {
    const std::vector<float> data = RandomRows(base + 7, d, 71);
    serve::EmbeddingStore saved(d);
    for (size_t r = 0; r < base; ++r) {
      ASSERT_TRUE(saved.Add(static_cast<int64_t>(r), {&data[r * d], d}).ok());
    }
    const std::string path =
        TestDir() + "/straddle_" + std::to_string(base) + ".store";
    ASSERT_TRUE(saved.Save(path).ok());
    auto mapped = serve::EmbeddingStore::LoadMmap(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    serve::EmbeddingStore& store = mapped.value();
    auto owned = CreateIndex(IndexConfig{}, d);
    ASSERT_TRUE(owned.ok());
    for (size_t r = 0; r < base; ++r) owned.value()->Add({&data[r * d], d});

    for (size_t r = base; r < base + 7; ++r) {
      ASSERT_TRUE(store.Add(static_cast<int64_t>(r), {&data[r * d], d}).ok());
      owned.value()->Add({&data[r * d], d});
      for (size_t q = 0; q < 3; ++q) {
        const std::span<const float> probe(&probes[q * d], d);
        for (const size_t k : {size_t{10}, store.size()}) {
          const KnnResult want = owned.value()->Query(probe, k);
          const KnnResult got = store.index().Query(probe, k);
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(got.ids, want.ids) << "base " << base << ", row " << r;
          EXPECT_EQ(std::memcmp(got.distances.data(), want.distances.data(),
                                got.size() * sizeof(double)),
                    0)
              << "base " << base << ", row " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace t2vec::core
