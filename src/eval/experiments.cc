#include "eval/experiments.h"

#include <algorithm>
#include <cstdlib>

#include "common/thread_pool.h"
#include "core/vec_index.h"
#include "dist/knn.h"
#include "eval/metrics.h"
#include "traj/tokenizer.h"
#include "traj/transforms.h"

namespace t2vec::eval {

ExperimentData MakeData(DatasetKind kind, size_t train_count,
                        size_t test_count) {
  const traj::GeneratorConfig config = (kind == DatasetKind::kPortoLike)
                                           ? traj::GeneratorConfig::PortoLike()
                                           : traj::GeneratorConfig::HarbinLike();
  traj::SyntheticTrajectoryGenerator generator(config);
  const traj::Dataset all = generator.Generate(train_count + test_count);
  ExperimentData data;
  all.Split(train_count, &data.train, &data.test);
  return data;
}

double BenchScaleFactor() {
  const char* env = std::getenv("T2VEC_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

size_t Scaled(size_t n, size_t floor) {
  const auto scaled =
      static_cast<size_t>(static_cast<double>(n) * BenchScaleFactor());
  return std::max(scaled, floor);
}

core::T2VecConfig DefaultBenchConfig() {
  core::T2VecConfig config;  // Defaults already hold the scaled settings.
  config.max_iterations = Scaled(3000, 200);
  return config;
}

MssData BuildMss(const traj::Dataset& test, size_t num_queries,
                 size_t num_distractors) {
  T2VEC_CHECK(test.size() >= num_queries + num_distractors);
  MssData mss;
  mss.num_queries = num_queries;
  mss.queries.reserve(num_queries);
  mss.database.reserve(num_queries + num_distractors);
  // D_Q and D'_Q from the query trips (twin of queries[i] is database[i]).
  for (size_t i = 0; i < num_queries; ++i) {
    auto [ta, ta_prime] = traj::AlternatingSplit(test[i]);
    mss.queries.push_back(std::move(ta));
    mss.database.push_back(std::move(ta_prime));
  }
  // D'_P distractors (the paper uses D'_P rather than raw P so query and
  // database trajectories have similar mean length).
  for (size_t i = 0; i < num_distractors; ++i) {
    auto [ta, ta_prime] = traj::AlternatingSplit(test[num_queries + i]);
    (void)ta;
    mss.database.push_back(std::move(ta_prime));
  }
  return mss;
}

void TransformMss(MssData* mss, double r1, double r2, Rng& rng) {
  auto transform = [&](traj::Trajectory& t) {
    if (r1 > 0.0) t = traj::Downsample(t, r1, rng);
    if (r2 > 0.0) t = traj::Distort(t, r2, rng);
  };
  for (traj::Trajectory& t : mss->queries) transform(t);
  for (traj::Trajectory& t : mss->database) transform(t);
}

double MeanRankOfMeasure(const dist::Measure& measure, const MssData& mss) {
  // Queries are independent; rank i is written by iteration i only. The
  // nested parallel loop inside dist::RankOf runs inline on pool workers,
  // so parallelism lives at the query level where it amortizes best.
  std::vector<size_t> ranks(mss.queries.size());
  ParallelFor(0, mss.queries.size(), 1, [&](size_t i) {
    ranks[i] = dist::RankOf(measure, mss.queries[i], mss.database, i);
  });
  return MeanRank(ranks);
}

double MeanRankOfVectors(const nn::Matrix& query_vecs,
                         const nn::Matrix& db_vecs) {
  T2VEC_CHECK(query_vecs.rows() <= db_vecs.rows());
  // lint:allow(raw-index-ctor) RankOf is a VectorIndex-only evaluation hook.
  core::VectorIndex index{nn::Matrix(db_vecs)};
  std::vector<size_t> ranks(query_vecs.rows());
  ParallelFor(0, query_vecs.rows(), 1, [&](size_t i) {
    ranks[i] = index.RankOf(query_vecs.Row(i), i);
  });
  return MeanRank(ranks);
}

double MeanRankOfT2Vec(const core::T2Vec& model, const MssData& mss) {
  const nn::Matrix query_vecs = model.Encode(mss.queries);
  const nn::Matrix db_vecs = model.Encode(mss.database);
  return MeanRankOfVectors(query_vecs, db_vecs);
}

double MeanRankOfVRnn(const core::VRnn& vrnn, const geo::HotCellVocab& vocab,
                      const MssData& mss) {
  const nn::Matrix query_vecs =
      vrnn.EncodeBatch(traj::TokenizeAll(vocab, mss.queries));
  const nn::Matrix db_vecs =
      vrnn.EncodeBatch(traj::TokenizeAll(vocab, mss.database));
  return MeanRankOfVectors(query_vecs, db_vecs);
}

std::vector<std::pair<traj::Trajectory, traj::Trajectory>> MakeCrossPairs(
    const traj::Dataset& test, size_t count, Rng& rng) {
  T2VEC_CHECK(test.size() >= 2);
  std::vector<std::pair<traj::Trajectory, traj::Trajectory>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const size_t a = rng.UniformInt(test.size());
    const size_t b = rng.UniformInt(test.size());
    if (a == b) continue;
    pairs.emplace_back(test[a], test[b]);
  }
  return pairs;
}

namespace {

traj::Trajectory TransformOne(const traj::Trajectory& t, double r1, double r2,
                              Rng& rng) {
  traj::Trajectory out = t;
  if (r1 > 0.0) out = traj::Downsample(out, r1, rng);
  if (r2 > 0.0) out = traj::Distort(out, r2, rng);
  return out;
}

}  // namespace

double CrossDeviationOfMeasure(
    const dist::Measure& measure,
    const std::vector<std::pair<traj::Trajectory, traj::Trajectory>>& pairs,
    double r1, double r2, Rng& rng) {
  T2VEC_CHECK(!pairs.empty());
  // Transforms consume the shared rng and stay serial (the stream order is
  // part of the experiment's reproducibility); the O(n^2) distance programs
  // dominate and run per-pair in parallel. Deviations are accumulated
  // serially in index order so the floating-point sum matches a serial run.
  std::vector<std::pair<traj::Trajectory, traj::Trajectory>> transformed;
  transformed.reserve(pairs.size());
  for (const auto& [tb, tb_prime] : pairs) {
    traj::Trajectory ta = TransformOne(tb, r1, r2, rng);
    traj::Trajectory ta_prime = TransformOne(tb_prime, r1, r2, rng);
    transformed.emplace_back(std::move(ta), std::move(ta_prime));
  }
  std::vector<double> deviations(pairs.size());
  ParallelFor(0, pairs.size(), 1, [&](size_t i) {
    const double original =
        measure.Distance(pairs[i].first, pairs[i].second);
    const double after =
        measure.Distance(transformed[i].first, transformed[i].second);
    deviations[i] = CrossDistanceDeviation(after, original);
  });
  double total = 0.0;
  for (double d : deviations) total += d;
  return total / static_cast<double>(pairs.size());
}

double CrossDeviationOfT2Vec(
    const core::T2Vec& model,
    const std::vector<std::pair<traj::Trajectory, traj::Trajectory>>& pairs,
    double r1, double r2, Rng& rng) {
  T2VEC_CHECK(!pairs.empty());
  // Batch-encode originals and transformed variants for throughput.
  std::vector<traj::Trajectory> originals, transformed;
  originals.reserve(pairs.size() * 2);
  transformed.reserve(pairs.size() * 2);
  for (const auto& [tb, tb_prime] : pairs) {
    originals.push_back(tb);
    originals.push_back(tb_prime);
    transformed.push_back(TransformOne(tb, r1, r2, rng));
    transformed.push_back(TransformOne(tb_prime, r1, r2, rng));
  }
  const nn::Matrix orig_vecs = model.Encode(originals);
  const nn::Matrix trans_vecs = model.Encode(transformed);

  auto row_distance = [](const nn::Matrix& m, size_t a, size_t b) {
    double acc = 0.0;
    for (size_t j = 0; j < m.cols(); ++j) {
      const double diff = static_cast<double>(m.At(a, j)) - m.At(b, j);
      acc += diff * diff;
    }
    return std::sqrt(acc);
  };

  double total = 0.0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const double original = row_distance(orig_vecs, 2 * i, 2 * i + 1);
    const double after = row_distance(trans_vecs, 2 * i, 2 * i + 1);
    total += CrossDistanceDeviation(after, original);
  }
  return total / static_cast<double>(pairs.size());
}

double KnnPrecisionOfMeasure(const dist::Measure& measure,
                             const std::vector<traj::Trajectory>& queries,
                             const std::vector<traj::Trajectory>& database,
                             size_t k, double r1, double r2, Rng& rng) {
  T2VEC_CHECK(!queries.empty());
  std::vector<traj::Trajectory> tq, tdb;
  tq.reserve(queries.size());
  tdb.reserve(database.size());
  for (const auto& q : queries) tq.push_back(TransformOne(q, r1, r2, rng));
  for (const auto& d : database) tdb.push_back(TransformOne(d, r1, r2, rng));

  std::vector<double> precisions(queries.size());
  ParallelFor(0, queries.size(), 1, [&](size_t i) {
    const dist::KnnResult truth = dist::KnnQuery(measure, queries[i],
                                                 database, k);
    const dist::KnnResult retrieved = dist::KnnQuery(measure, tq[i], tdb, k);
    precisions[i] = KnnPrecision(truth.ids, retrieved.ids);
  });
  double total = 0.0;
  for (double p : precisions) total += p;
  return total / static_cast<double>(queries.size());
}

double KnnPrecisionOfT2Vec(const core::T2Vec& model,
                           const std::vector<traj::Trajectory>& queries,
                           const std::vector<traj::Trajectory>& database,
                           size_t k, double r1, double r2, Rng& rng) {
  T2VEC_CHECK(!queries.empty());
  std::vector<traj::Trajectory> tq, tdb;
  tq.reserve(queries.size());
  tdb.reserve(database.size());
  for (const auto& q : queries) tq.push_back(TransformOne(q, r1, r2, rng));
  for (const auto& d : database) tdb.push_back(TransformOne(d, r1, r2, rng));

  // lint:allow(raw-index-ctor) ground truth must be the exact scan, always.
  const core::VectorIndex truth_index{model.Encode(database)};
  // lint:allow(raw-index-ctor) same: precision is measured against exact kNN.
  const core::VectorIndex trans_index{model.Encode(tdb)};
  const nn::Matrix query_vecs = model.Encode(queries);
  const nn::Matrix tq_vecs = model.Encode(tq);

  std::vector<double> precisions(queries.size());
  ParallelFor(0, queries.size(), 1, [&](size_t i) {
    const core::KnnResult truth = truth_index.Query(
        {query_vecs.Row(i), query_vecs.cols()}, k);
    const core::KnnResult retrieved = trans_index.Query(
        {tq_vecs.Row(i), tq_vecs.cols()}, k);
    precisions[i] = KnnPrecision(truth.ids, retrieved.ids);
  });
  double total = 0.0;
  for (double p : precisions) total += p;
  return total / static_cast<double>(queries.size());
}

}  // namespace t2vec::eval
