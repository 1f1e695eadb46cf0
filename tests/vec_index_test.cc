#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include "common/rng.h"
#include "core/vec_index.h"

namespace t2vec::core {
namespace {

nn::Matrix RandomVectors(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  nn::Matrix m(n, d);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return m;
}

TEST(VectorIndexTest, DistanceIsSquaredEuclidean) {
  nn::Matrix vecs(2, 2);
  vecs(0, 0) = 3.0f;
  vecs(0, 1) = 4.0f;
  VectorIndex index(std::move(vecs));
  const float query[2] = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(index.Distance(query, 0), 25.0);
  EXPECT_DOUBLE_EQ(index.Distance(query, 1), 0.0);
}

TEST(VectorIndexTest, KnnMatchesExhaustive) {
  const nn::Matrix vecs = RandomVectors(200, 16, 1);
  VectorIndex index{nn::Matrix(vecs)};
  const nn::Matrix queries = RandomVectors(10, 16, 2);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto knn = index.Query({queries.Row(q), 16}, 5);
    ASSERT_EQ(knn.size(), 5u);
    // Verify ordering and optimality, and that the returned distances are
    // the real ones (no recomputation needed by callers).
    std::vector<std::pair<double, size_t>> all;
    for (size_t i = 0; i < 200; ++i) {
      all.emplace_back(index.Distance(queries.Row(q), i), i);
    }
    std::sort(all.begin(), all.end());
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_DOUBLE_EQ(index.Distance(queries.Row(q), knn.ids[i]),
                       all[i].first);
      EXPECT_DOUBLE_EQ(knn.distances[i], all[i].first);
    }
  }
}

TEST(VectorIndexTest, RankOfSelf) {
  const nn::Matrix vecs = RandomVectors(50, 8, 3);
  VectorIndex index{nn::Matrix(vecs)};
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(index.RankOf(vecs.Row(i), i), 1u);
  }
}

TEST(VectorIndexTest, RankCountsStrictlyCloser) {
  nn::Matrix vecs(3, 1);
  vecs(0, 0) = 0.0f;
  vecs(1, 0) = 1.0f;
  vecs(2, 0) = 2.0f;
  VectorIndex index(std::move(vecs));
  const float query[1] = {0.1f};
  EXPECT_EQ(index.RankOf(query, 0), 1u);
  EXPECT_EQ(index.RankOf(query, 1), 2u);
  EXPECT_EQ(index.RankOf(query, 2), 3u);
}

TEST(LshIndexTest, HighRecallOnClusteredData) {
  // Clustered vectors: queries near cluster centers must retrieve their
  // cluster under LSH with high recall.
  Rng rng(4);
  const size_t clusters = 8, per_cluster = 40, d = 16;
  nn::Matrix vecs(clusters * per_cluster, d);
  nn::Matrix centers(clusters, d);
  for (size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian() * 5.0);
  }
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      float* row = vecs.Row(c * per_cluster + i);
      for (size_t j = 0; j < d; ++j) {
        row[j] = centers(c, j) + static_cast<float>(rng.Gaussian() * 0.3);
      }
    }
  }
  VectorIndex exact{nn::Matrix(vecs)};
  LshIndex lsh(vecs, /*num_tables=*/8, /*num_bits=*/10, /*seed=*/7);

  double recall = 0.0;
  const size_t k = 10;
  for (size_t c = 0; c < clusters; ++c) {
    const float* query = centers.Row(c);
    const auto truth = exact.Query({query, d}, k).ids;
    const auto approx = lsh.Query({query, d}, k).ids;
    std::set<size_t> truth_set(truth.begin(), truth.end());
    size_t hits = 0;
    for (size_t idx : approx) hits += truth_set.count(idx);
    recall += static_cast<double>(hits) / static_cast<double>(k);
  }
  recall /= static_cast<double>(clusters);
  EXPECT_GT(recall, 0.8);
}

TEST(LshIndexTest, FallsBackWhenBucketsEmpty) {
  // A query far from all data hits empty buckets; the index must still
  // return k results via the full-scan fallback.
  const nn::Matrix vecs = RandomVectors(30, 8, 5);
  LshIndex lsh(vecs, 2, 12, 11);
  std::vector<float> query(8, 100.0f);
  const auto result = lsh.Query(query, 5).ids;
  EXPECT_EQ(result.size(), 5u);
  std::set<size_t> unique(result.begin(), result.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(VectorIndexTest, NanVectorsOrderLast) {
  // Regression: rows containing NaN produce NaN distances, which used to
  // break the partial_sort comparator's strict weak ordering (UB). NaN rows
  // must now sort after every finite-distance row, ordered among themselves
  // by row (NanLastLess is a total order over distinct rows).
  nn::Matrix vecs(6, 2);
  for (size_t i = 0; i < 6; ++i) {
    vecs(i, 0) = static_cast<float>(i);
    vecs(i, 1) = 0.0f;
  }
  vecs(1, 1) = std::numeric_limits<float>::quiet_NaN();
  vecs(4, 0) = std::numeric_limits<float>::quiet_NaN();
  VectorIndex index(std::move(vecs));
  const float query[2] = {0.0f, 0.0f};

  EXPECT_EQ(index.Query(query, 6).ids,
            (std::vector<size_t>{0, 2, 3, 5, 1, 4}));

  // k below the finite count never surfaces a NaN row.
  EXPECT_EQ(index.Query(query, 3).ids, (std::vector<size_t>{0, 2, 3}));
}

TEST(LshIndexTest, ApproxResultsAreGenuineVectors) {
  const nn::Matrix vecs = RandomVectors(100, 8, 6);
  LshIndex lsh(vecs, 4, 8, 13);
  const nn::Matrix queries = RandomVectors(5, 8, 7);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (size_t idx : lsh.Query({queries.Row(q), 8}, 3).ids) {
      EXPECT_LT(idx, 100u);
    }
  }
}

TEST(VectorIndexTest, IncrementalAddMatchesBuildOnce) {
  // An index grown row by row must answer every query identically to one
  // constructed from the final matrix: same neighbor ids, same distance
  // bits.
  const nn::Matrix vecs = RandomVectors(120, 12, 21);
  VectorIndex built{nn::Matrix(vecs)};
  VectorIndex grown(12);
  EXPECT_EQ(grown.size(), 0u);
  for (size_t i = 0; i < vecs.rows(); ++i) {
    grown.Add({vecs.Row(i), vecs.cols()});
    EXPECT_EQ(grown.size(), i + 1);
  }
  ASSERT_EQ(grown.size(), built.size());
  for (size_t i = 0; i < vecs.rows(); ++i) {
    ASSERT_EQ(std::memcmp(grown.RowPtr(i), built.RowPtr(i),
                          vecs.cols() * sizeof(float)),
              0);
  }
  const nn::Matrix queries = RandomVectors(10, 12, 22);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const KnnResult a = built.Query({queries.Row(q), 12}, 7);
    const KnnResult b = grown.Query({queries.Row(q), 12}, 7);
    EXPECT_EQ(a.ids, b.ids);
    EXPECT_EQ(a.distances, b.distances);
    EXPECT_EQ(built.RankOf(queries.Row(q), q), grown.RankOf(queries.Row(q), q));
  }
}

TEST(VectorIndexTest, AddIsVisibleToQueriesImmediately) {
  VectorIndex index(2);
  const float a[2] = {0.0f, 0.0f};
  const float b[2] = {3.0f, 4.0f};
  index.Add(a);
  const float query[2] = {3.0f, 4.0f};
  EXPECT_EQ(index.Query(query, 1).ids, (std::vector<size_t>{0}));
  index.Add(b);
  const KnnResult r = index.Query(query, 2);
  EXPECT_EQ(r.ids, (std::vector<size_t>{1, 0}));
  EXPECT_DOUBLE_EQ(r.distances[0], 0.0);
  EXPECT_DOUBLE_EQ(r.distances[1], 25.0);
}

TEST(LshIndexTest, IncrementalAddMatchesBuildOnce) {
  // Build an LSH index over a prefix, grow it row by row with Add(), and
  // compare every query against a build-once index over the full matrix:
  // bucket contents (ascending row order) and therefore results must be
  // identical.
  const nn::Matrix full = RandomVectors(100, 8, 23);
  const size_t prefix = 40;

  nn::Matrix head(prefix, 8);
  std::copy(full.data(), full.data() + prefix * 8, head.data());
  LshIndex grown(head, /*num_tables=*/4, /*num_bits=*/8, /*seed=*/17);
  EXPECT_EQ(grown.Size(), prefix);
  for (size_t i = prefix; i < full.rows(); ++i) {
    grown.Add({full.Row(i), full.cols()});
  }
  EXPECT_EQ(grown.Size(), full.rows());

  LshIndex built(full, /*num_tables=*/4, /*num_bits=*/8, /*seed=*/17);
  const nn::Matrix queries = RandomVectors(12, 8, 24);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const KnnResult a = built.Query({queries.Row(q), 8}, 6);
    const KnnResult b = grown.Query({queries.Row(q), 8}, 6);
    EXPECT_EQ(a.ids, b.ids);
    EXPECT_EQ(a.distances, b.distances);
  }
}

// Regression: k arrives straight from serving-path clients, so k > size()
// and empty indexes must degrade to shorter answers — the old CHECK here
// aborted the whole server process.
TEST(VectorIndexTest, QueryClampsKToIndexSize) {
  const nn::Matrix vecs = RandomVectors(5, 4, 30);
  VectorIndex index{nn::Matrix(vecs)};
  const nn::Matrix queries = RandomVectors(1, 4, 31);
  const KnnResult all = index.Query({queries.Row(0), 4}, 100);
  EXPECT_EQ(all.size(), 5u);
  const KnnResult exact = index.Query({queries.Row(0), 4}, 5);
  EXPECT_EQ(all.ids, exact.ids);
  EXPECT_EQ(all.distances, exact.distances);
  EXPECT_EQ(index.Query({queries.Row(0), 4}, 0).size(), 0u);
}

TEST(VectorIndexTest, QueryOnEmptyIndexReturnsNothing) {
  VectorIndex index(nn::Matrix(0, 4));
  const float query[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const KnnResult result = index.Query({query, 4}, 10);
  EXPECT_EQ(result.size(), 0u);
}

TEST(LshIndexTest, QueryClampsKToIndexedRows) {
  const nn::Matrix vecs = RandomVectors(6, 8, 32);
  LshIndex lsh(vecs, 4, 8, 33);
  const nn::Matrix queries = RandomVectors(1, 8, 34);
  EXPECT_EQ(lsh.Query({queries.Row(0), 8}, 50).size(), 6u);
  EXPECT_EQ(lsh.Query({queries.Row(0), 8}, 0).size(), 0u);

  const nn::Matrix no_vecs(0, 8);
  LshIndex empty(no_vecs, 4, 8, 35);
  EXPECT_EQ(empty.Query({queries.Row(0), 8}, 3).size(), 0u);
}

}  // namespace
}  // namespace t2vec::core
