// IvfIndex determinism and snapshot contract (DESIGN.md §4e, §5).
//
// The headline guarantees under test:
//   - build-once, Add-one-at-a-time, and snapshot-replay construction
//     produce bit-identical indexes (store Save bytes memcmp);
//   - results are bit-identical at 1/2/8 threads;
//   - pre-training queries are exactly VectorIndex's answers, and k is
//     clamped (over-asking degrades, never aborts);
//   - an IVF store snapshot round-trips through EmbeddingStore::LoadMmap
//     (the one persisted form of an index), and corrupted snapshots are
//     rejected with a clean Status.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ann_index.h"
#include "core/ivf_index.h"
#include "core/vec_index.h"
#include "serve/embedding_store.h"

namespace t2vec::core {
namespace {

std::string TestDir() {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ivf_index_test")
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

// Small quantizer so tests cross the training threshold cheaply:
// 4 lists x 8 rows/list -> trains at row 31.
IndexConfig SmallIvfConfig() {
  IndexConfig config;
  config.kind = IndexKind::kIvf;
  config.ivf_nlist = 4;
  config.ivf_nprobe = 2;
  config.ivf_train_iters = 4;
  config.ivf_seed = 5;
  config.ivf_train_per_list = 8;
  return config;
}

void AddAll(AnnIndex* index, const std::vector<float>& data, size_t d) {
  for (size_t i = 0; i * d < data.size(); ++i) {
    index->Add({&data[i * d], d});
  }
}

// A store over every row of `data` (ids 0..n-1) under `config`.
serve::EmbeddingStore StoreOf(const IndexConfig& config,
                              const std::vector<float>& data, size_t d) {
  serve::EmbeddingStore store(d, config);
  for (size_t i = 0; i * d < data.size(); ++i) {
    EXPECT_TRUE(store.Add(static_cast<int64_t>(i), {&data[i * d], d}).ok());
  }
  return store;
}

std::string SaveBytes(const serve::EmbeddingStore& store,
                      const std::string& path) {
  EXPECT_TRUE(store.Save(path).ok());
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
  return bytes;
}

TEST(IvfIndexTest, ExactBeforeTrainingThresholdThenTrains) {
  const size_t d = 8;
  const IndexConfig config = SmallIvfConfig();
  const std::vector<float> data = RandomRows(100, d, 41);

  IvfIndex ivf(d, config);
  VectorIndex exact(d);
  ASSERT_EQ(ivf.train_threshold(), 32u);
  for (size_t i = 0; i < ivf.train_threshold() - 1; ++i) {
    ivf.Add({&data[i * d], d});
    exact.Add({&data[i * d], d});
    ASSERT_FALSE(ivf.trained());
  }
  // Pre-training answers are the exact scan's, bit for bit.
  const std::vector<float> probe = RandomRows(1, d, 42);
  const KnnResult a = ivf.Query(probe, 10);
  const KnnResult b = exact.Query(probe, 10);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.distances, b.distances);

  // The threshold row triggers training; later rows index incrementally.
  ivf.Add({&data[(ivf.train_threshold() - 1) * d], d});
  EXPECT_TRUE(ivf.trained());
  for (size_t i = ivf.train_threshold(); i < 100; ++i) {
    ivf.Add({&data[i * d], d});
  }
  EXPECT_EQ(ivf.Size(), 100u);
  EXPECT_EQ(ivf.Query(probe, 5).size(), 5u);
}

TEST(IvfIndexTest, RestoreReplayMatchesLiveBuildBitForBit) {
  // Save the rows under kind=exact (no usable IVF aux), reload under
  // kind=ivf: Restore's OnAppend replay must reproduce the live build
  // exactly — training at the same row over the same prefix — so the two
  // stores serialize to identical bytes and answer identically.
  const size_t d = 8;
  const std::vector<float> data = RandomRows(120, d, 43);
  const IndexConfig ivf_config = SmallIvfConfig();

  const std::string exact_path = TestDir() + "/rows.exact.store";
  ASSERT_TRUE(StoreOf(IndexConfig{}, data, d).Save(exact_path).ok());
  auto replayed = serve::EmbeddingStore::LoadMmap(exact_path, ivf_config);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed.value().index().kind(), IndexKind::kIvf);

  const serve::EmbeddingStore live = StoreOf(ivf_config, data, d);
  const std::string live_bytes = SaveBytes(live, TestDir() + "/live.store");
  const std::string replay_bytes =
      SaveBytes(replayed.value(), TestDir() + "/replay.store");
  ASSERT_EQ(live_bytes.size(), replay_bytes.size());
  EXPECT_EQ(std::memcmp(live_bytes.data(), replay_bytes.data(),
                        live_bytes.size()),
            0);

  const std::vector<float> probe = RandomRows(1, d, 44);
  const KnnResult a = live.index().Query(probe, 7);
  const KnnResult b = replayed.value().index().Query(probe, 7);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.distances, b.distances);
}

TEST(IvfIndexTest, BitIdenticalAcrossThreadCounts) {
  const size_t d = 16;
  const std::vector<float> data = RandomRows(150, d, 45);
  const std::vector<float> probes = RandomRows(6, d, 46);
  const IndexConfig config = SmallIvfConfig();

  std::string reference_bytes;
  std::vector<KnnResult> reference_results;
  for (const int threads : {1, 2, 8}) {
    ScopedNumThreads guard(threads);
    const serve::EmbeddingStore store = StoreOf(config, data, d);
    ASSERT_TRUE(store.Stats().trained);
    const std::string bytes = SaveBytes(store, TestDir() + "/threads.store");
    std::vector<KnnResult> results;
    for (size_t q = 0; q < 6; ++q) {
      results.push_back(store.index().Query({&probes[q * d], d}, 9));
    }
    if (threads == 1) {
      reference_bytes = bytes;
      reference_results = std::move(results);
      continue;
    }
    ASSERT_EQ(bytes.size(), reference_bytes.size());
    EXPECT_EQ(
        std::memcmp(bytes.data(), reference_bytes.data(), bytes.size()), 0)
        << "snapshot diverged at " << threads << " threads";
    for (size_t q = 0; q < 6; ++q) {
      EXPECT_EQ(results[q].ids, reference_results[q].ids)
          << "query " << q << " ids diverged at " << threads << " threads";
      EXPECT_EQ(results[q].distances, reference_results[q].distances)
          << "query " << q << " bits diverged at " << threads << " threads";
    }
  }
}

TEST(IvfIndexTest, SnapshotRoundTripsThroughBothLoaders) {
  const size_t d = 8;
  const std::vector<float> data = RandomRows(90, d, 47);
  const IndexConfig config = SmallIvfConfig();
  const serve::EmbeddingStore store = StoreOf(config, data, d);
  const std::string path = TestDir() + "/roundtrip.store";
  const std::string bytes = SaveBytes(store, path);

  // nprobe is a query-time knob and must come from the live config, not the
  // snapshot; structural parameters come from the snapshot.
  IndexConfig wide = config;
  wide.ivf_nprobe = 3;
  wide.ivf_nlist = 7;
  auto mapped = serve::EmbeddingStore::LoadMmap(path, wide);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const auto& reopened = static_cast<const IvfIndex&>(mapped.value().index());
  ASSERT_EQ(reopened.kind(), IndexKind::kIvf);
  ASSERT_EQ(reopened.Size(), store.size());
  EXPECT_TRUE(reopened.trained());
  EXPECT_EQ(reopened.nlist(), config.ivf_nlist);
  EXPECT_EQ(reopened.nprobe(), 3u);
  // Re-serializing a reopened store reproduces the file byte for byte.
  EXPECT_EQ(SaveBytes(mapped.value(), TestDir() + "/resave.store"), bytes);
  // Zero-copy: row 0 reads back the saved values out of the mapping.
  EXPECT_EQ(std::memcmp(reopened.RowPtr(0), data.data(), d * sizeof(float)),
            0);

  // Reopened under the original nprobe, queries match the original store
  // exactly.
  auto same = serve::EmbeddingStore::LoadMmap(path, config);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  const std::vector<float> probe = RandomRows(1, d, 48);
  const KnnResult a = store.index().Query(probe, 8);
  const KnnResult b = same.value().index().Query(probe, 8);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.distances, b.distances);
}

TEST(IvfIndexTest, CorruptSnapshotsAreRejected) {
  const size_t d = 4;
  const std::vector<float> data = RandomRows(40, d, 49);
  const IndexConfig config = SmallIvfConfig();
  const serve::EmbeddingStore store = StoreOf(config, data, d);
  ASSERT_TRUE(store.Stats().trained);
  const std::string path = TestDir() + "/corrupt.store";
  const std::string bytes = SaveBytes(store, path);
  const std::string mutated_path = TestDir() + "/mutated.store";

  // Every truncation and every per-byte bit flip must fail the load with a
  // Status — never a crash or a silently wrong index.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ASSERT_TRUE(WriteFileAtomic(mutated_path, bytes.substr(0, cut)).ok());
    EXPECT_FALSE(serve::EmbeddingStore::LoadMmap(mutated_path, config).ok())
        << "truncation at byte " << cut << " accepted";
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    ASSERT_TRUE(WriteFileAtomic(mutated_path, mutated).ok());
    EXPECT_FALSE(serve::EmbeddingStore::LoadMmap(mutated_path, config).ok())
        << "bit flip at byte " << i << " accepted";
  }
}

TEST(IvfIndexTest, QueryClampsAndWidensToFurtherLists) {
  const size_t d = 8;
  const std::vector<float> data = RandomRows(80, d, 50);
  IndexConfig config = SmallIvfConfig();
  config.ivf_nprobe = 1;  // Force the widening path for large k.
  IvfIndex index(d, config);
  AddAll(&index, data, d);
  ASSERT_TRUE(index.trained());

  const std::vector<float> probe = RandomRows(1, d, 51);
  // k = Size(): one list cannot hold 80 rows, so probing must widen until
  // every row is a candidate — a short answer here would be a recall bug,
  // not an approximation.
  const KnnResult all = index.Query(probe, index.Size());
  EXPECT_EQ(all.size(), index.Size());
  // Over-asking clamps to Size(); k = 0 returns nothing.
  EXPECT_EQ(index.Query(probe, 1000).size(), index.Size());
  EXPECT_EQ(index.Query(probe, 0).size(), 0u);

  // Empty index: no rows, no abort.
  const IvfIndex empty(d, config);
  EXPECT_EQ(empty.Query(probe, 10).size(), 0u);
}

TEST(IvfIndexTest, StatsReportQuantizerState) {
  const size_t d = 8;
  const std::vector<float> data = RandomRows(64, d, 52);
  const IndexConfig config = SmallIvfConfig();
  IvfIndex index(d, config);
  AddAll(&index, data, d);
  const std::vector<float> probe = RandomRows(1, d, 53);
  (void)index.Query(probe, 5);
  (void)index.Query(probe, 5);

  const IndexStats stats = index.Stats();
  EXPECT_EQ(stats.kind, IndexKind::kIvf);
  EXPECT_EQ(stats.size, 64u);
  EXPECT_TRUE(stats.trained);
  EXPECT_EQ(stats.nlist, config.ivf_nlist);
  EXPECT_EQ(stats.nprobe, config.ivf_nprobe);
  EXPECT_EQ(stats.queries, 2);
  // nprobe=2 of 4 lists: a query scores a strict subset of the rows.
  EXPECT_GT(stats.candidates, 0);
  EXPECT_LT(stats.MeanCandidates(), 64.0);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"kind\":\"ivf\""), std::string::npos);
  EXPECT_NE(json.find("\"nprobe\":2"), std::string::npos);
}

}  // namespace
}  // namespace t2vec::core
