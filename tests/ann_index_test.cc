// AnnIndex interface conformance over every backend (DESIGN.md §4e).
//
// The same contract checks run against exact, LSH, and IVF indexes built
// through CreateIndex — the factory every serving path uses — so a new
// backend cannot land without honoring the clamp, snapshot, restore, and
// stats semantics the serving layer depends on. An index persists only
// inside an EmbeddingStore snapshot, so the snapshot checks save a store
// built under each kind and reopen it with LoadMmap. The shared exact scan
// is also checked over a store whose rows are split between an mmap'd
// prefix and an owned tail, and its fp32 screen against a brute-force f64
// scan over corpora built to defeat it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/order.h"
#include "common/rng.h"
#include "common/sort.h"
#include "common/thread_pool.h"
#include "core/ann_index.h"
#include "core/vec_index.h"
#include "nn/kernels.h"
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

// ---------------------------------------------------------------------------
// The fp32 screen never changes an answer: every backend's Query and
// RankOf equal a brute-force f64 scan over corpora built to defeat it.
// ---------------------------------------------------------------------------

enum class Hazard { kNearQuery, kOverflow, kUnderflow, kTies, kNonFinite };

const char* HazardName(Hazard hazard) {
  switch (hazard) {
    case Hazard::kNearQuery:
      return "NearQuery";
    case Hazard::kOverflow:
      return "Overflow";
    case Hazard::kUnderflow:
      return "Underflow";
    case Hazard::kTies:
      return "Ties";
    case Hazard::kNonFinite:
      return "NonFinite";
  }
  return "unknown";
}

struct Corpus {
  std::vector<float> rows;  // n x d, row-major
  std::vector<std::vector<float>> queries;
};

float StepUlps(float x, int steps) {
  const float toward = steps > 0 ? std::numeric_limits<float>::infinity()
                                 : -std::numeric_limits<float>::infinity();
  for (int s = 0; s < std::abs(steps); ++s) x = std::nextafter(x, toward);
  return x;
}

std::vector<float> GaussianVec(size_t d, double scale, Rng& rng) {
  std::vector<float> v(d);
  for (float& x : v) x = static_cast<float>(scale * rng.Gaussian());
  return v;
}

// n rows of d dims whose scores sit where fp32 and f64 disagree:
//   kNearQuery  rows a few ulps from the query per coordinate (and exact
//               copies), and rows one unit away in one coordinate and
//               sub-ulp amounts in the rest, so fp32 rounding reorders
//               near-equal distances;
//   kOverflow   |x| near 1e20 and squared distances near FLT_MAX, where
//               fp32 sums overflow to +inf and f64 ones do not;
//   kUnderflow  differences near 1e-22, whose fp32 squares fall below
//               FLT_MIN and round to a few multiples of 2^-149;
//   kTies       copies of five vectors and their negations, so distances
//               tie exactly (broken by row id);
//   kNonFinite  rows holding a NaN or an infinity, a NaN query and an
//               infinite one.
Corpus MakeCorpus(Hazard hazard, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Corpus c;
  c.rows.reserve(n * d);
  const auto add = [&](const std::vector<float>& row) {
    c.rows.insert(c.rows.end(), row.begin(), row.end());
  };
  switch (hazard) {
    case Hazard::kNearQuery: {
      const std::vector<float> q = GaussianVec(d, 1.0, rng);
      for (size_t i = 0; i < n; ++i) {
        std::vector<float> row = q;
        if (i % 2 == 0) {
          if (i % 16 != 0) {
            for (float& x : row) {
              x = StepUlps(x, static_cast<int>(rng.UniformInt(7)) - 3);
            }
          }
        } else {
          // Seen from the third query, one coordinate differs by 1 and the
          // rest by sub-ulp amounts: fp32 drops most of the small squares
          // that f64 keeps, so the two orders differ by several ulps.
          row[0] = StepUlps(q[0] + 1.0f,
                            static_cast<int>(rng.UniformInt(3)) - 1);
          for (size_t j = 2; j < d; ++j) {
            row[j] = static_cast<float>(q[j] + 2e-4 * rng.Uniform());
          }
        }
        add(row);
      }
      std::vector<float> moved = q;
      moved[0] = StepUlps(moved[0], 1);
      std::vector<float> unit_away = q;
      unit_away[0] = q[0] + 1.0f;
      unit_away[d - 1] = q[d - 1] + 1.0f;
      c.queries = {q, moved, unit_away};
      break;
    }
    case Hazard::kOverflow: {
      const std::vector<float> q = GaussianVec(d, 1e20, rng);
      // Per-coordinate offset whose squares sum to about FLT_MAX.
      const double edge = std::sqrt(
          static_cast<double>(std::numeric_limits<float>::max()) /
          static_cast<double>(d));
      for (size_t i = 0; i < n; ++i) {
        std::vector<float> row = q;
        if (i % 8 == 0) {
          row = GaussianVec(d, 1e20, rng);
        } else {
          const double spread = i % 3 == 0 ? 1e-6 : 0.02;
          for (size_t j = 0; j < d; ++j) {
            const double sign = rng.Uniform() < 0.5 ? -1.0 : 1.0;
            row[j] = static_cast<float>(
                q[j] + sign * edge * (1.0 + spread * rng.Gaussian()));
          }
        }
        add(row);
      }
      std::vector<float> moved = q;
      moved[d - 1] = static_cast<float>(moved[d - 1] + 0.5 * edge);
      c.queries = {q, moved};
      break;
    }
    case Hazard::kUnderflow: {
      const std::vector<float> q = GaussianVec(d, 1e-20, rng);
      for (size_t i = 0; i < n; ++i) {
        std::vector<float> row = q;
        const double step = i % 10 == 0 ? 1e-19 : 1e-22;
        for (size_t j = 0; j < d; ++j) {
          row[j] = static_cast<float>(q[j] + step * rng.Gaussian());
        }
        add(row);
      }
      std::vector<float> moved = q;
      moved[0] = static_cast<float>(moved[0] + 1e-22);
      c.queries = {q, moved};
      break;
    }
    case Hazard::kTies: {
      std::vector<std::vector<float>> bases;
      for (size_t b = 0; b < 5; ++b) bases.push_back(GaussianVec(d, 1.0, rng));
      for (size_t i = 0; i < n; ++i) {
        std::vector<float> row = bases[rng.UniformInt(5)];
        if (rng.Uniform() < 0.5) {
          for (float& x : row) x = -x;
        }
        add(row);
      }
      c.queries = {std::vector<float>(d, 0.0f), bases[0]};
      break;
    }
    case Hazard::kNonFinite: {
      const float kInf = std::numeric_limits<float>::infinity();
      for (size_t i = 0; i < n; ++i) {
        std::vector<float> row = GaussianVec(d, 1.0, rng);
        const size_t j = rng.UniformInt(d);
        if (i % 10 == 3) row[j] = std::numeric_limits<float>::quiet_NaN();
        if (i % 10 == 5) row[j] = kInf;
        if (i % 10 == 7) row[j] = -kInf;
        add(row);
      }
      std::vector<float> nan_query = GaussianVec(d, 1.0, rng);
      nan_query[d / 2] = std::numeric_limits<float>::quiet_NaN();
      std::vector<float> inf_query = GaussianVec(d, 1.0, rng);
      inf_query[0] = kInf;
      c.queries = {GaussianVec(d, 1.0, rng), nan_query, inf_query};
      break;
    }
  }
  return c;
}

// sqdist_f64 to every row, then the k-prefix under NanLastLess.
KnnResult BruteForceTopK(const std::vector<double>& dist, size_t k) {
  std::vector<std::pair<double, size_t>> scored(dist.size());
  for (size_t i = 0; i < dist.size(); ++i) scored[i] = {dist[i], i};
  k = std::min(k, dist.size());
  TotalOrderPartialSort(scored.begin(), scored.begin() + static_cast<long>(k),
                        scored.end(), NanLastLess{});
  KnnResult out;
  for (size_t i = 0; i < k; ++i) {
    out.ids.push_back(scored[i].second);
    out.distances.push_back(scored[i].first);
  }
  return out;
}

class ScreenExactnessTest : public ::testing::TestWithParam<Hazard> {};

TEST_P(ScreenExactnessTest, EveryAnswerMatchesBruteForceF64) {
  // Every backend is configured so that it ranks all rows (LSH with one
  // 1-bit table probes both buckets, IVF probes every list), which makes
  // the brute-force scan its reference too. n below and above
  // 2 * kScanChunkRows covers the inline and the pooled scan; k = n + 3
  // re-scores every row.
  const float kFltMax = std::numeric_limits<float>::max();
  IndexConfig lsh;
  lsh.kind = IndexKind::kLsh;
  lsh.lsh_tables = 1;
  lsh.lsh_bits = 1;
  IndexConfig ivf = ConfigFor(IndexKind::kIvf);
  ivf.ivf_nprobe = ivf.ivf_nlist;
  const IndexConfig configs[] = {IndexConfig{}, lsh, ivf};
  const SimdTier prev = ActiveSimdTier();
  const nn::KernelOps& scalar = nn::KernelsFor(SimdTier::kScalar);
  for (const size_t d : {size_t{1}, size_t{3}, size_t{17}, size_t{48},
                         size_t{64}}) {
    const ScreenBound bound(d);
    for (const size_t n : {size_t{700}, 2 * kScanChunkRows + 321}) {
      const std::string where = std::string(HazardName(GetParam())) +
                                ", d=" + std::to_string(d) +
                                ", n=" + std::to_string(n);
      const Corpus corpus = MakeCorpus(GetParam(), n, d, 1000 * d + n);
      std::vector<std::unique_ptr<AnnIndex>> indexes;
      for (const IndexConfig& config : configs) {
        auto created = CreateIndex(config, d);
        ASSERT_TRUE(created.ok());
        for (size_t i = 0; i < n; ++i) {
          created.value()->Add({&corpus.rows[i * d], d});
        }
        indexes.push_back(std::move(created.value()));
      }
      const auto& exact = static_cast<const VectorIndex&>(*indexes[0]);
      for (const std::vector<float>& query : corpus.queries) {
        std::vector<double> dist(n);
        for (size_t i = 0; i < n; ++i) {
          dist[i] = scalar.sqdist_f64(query.data(), &corpus.rows[i * d], d);
        }
        // The written bound holds row by row: no fp32 score lies past the
        // cuts its own f64 score gives, and NaN meets NaN.
        for (size_t i = 0; i < n; ++i) {
          const float* r = &corpus.rows[i * d];
          float f[4];
          scalar.sqdist4_f32(query.data(), r, r, r, r, d, f);
          ASSERT_EQ(std::isnan(f[0]), std::isnan(dist[i])) << where;
          if (std::isnan(f[0])) continue;
          ASSERT_LE(dist[i], bound.Upper(f[0])) << where << ", row " << i;
          ASSERT_FALSE(f[0] > bound.RulesOutAbove(dist[i]))
              << where << ", row " << i;
          ASSERT_FALSE(f[0] < bound.SettlesBelow(dist[i]))
              << where << ", row " << i;
          if (std::isinf(f[0])) {
            ASSERT_GE(dist[i], kFltMax * (1.0 - 1e-3)) << where;
          }
        }
        const size_t targets[] = {BruteForceTopK(dist, 1).ids[0],
                                  BruteForceTopK(dist, 10).ids.back(),
                                  n / 2, n - 1};
        for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
          if (!SimdTierSupported(tier)) continue;
          SetSimdTier(tier);
          for (const int threads : {1, 3}) {
            ScopedNumThreads guard(threads);
            for (const size_t k : {size_t{1}, size_t{10}, n + 3}) {
              const KnnResult want = BruteForceTopK(dist, k);
              for (const auto& index : indexes) {
                const KnnResult got = index->Query(query, k);
                ASSERT_EQ(got.ids, want.ids)
                    << where << ", " << IndexKindName(index->kind())
                    << ", k=" << k << ", tier " << static_cast<int>(tier)
                    << ", " << threads << " threads";
                ASSERT_EQ(std::memcmp(got.distances.data(),
                                      want.distances.data(),
                                      want.size() * sizeof(double)),
                          0)
                    << where << ", " << IndexKindName(index->kind())
                    << ", k=" << k;
              }
            }
            for (const size_t target : targets) {
              size_t rank = 1;
              for (size_t i = 0; i < n; ++i) {
                if (i != target && dist[i] < dist[target]) ++rank;
              }
              ASSERT_EQ(exact.RankOf(query.data(), target), rank)
                  << where << ", target " << target << ", tier "
                  << static_cast<int>(tier) << ", " << threads
                  << " threads";
            }
          }
        }
        SetSimdTier(prev);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Hazards, ScreenExactnessTest,
                         ::testing::Values(Hazard::kNearQuery,
                                           Hazard::kOverflow,
                                           Hazard::kUnderflow, Hazard::kTies,
                                           Hazard::kNonFinite),
                         [](const auto& info) {
                           return std::string(HazardName(info.param));
                         });

}  // namespace
}  // namespace t2vec::core
