#ifndef T2VEC_EVAL_EXPERIMENTS_H_
#define T2VEC_EVAL_EXPERIMENTS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/t2vec.h"
#include "core/vrnn.h"
#include "dist/measure.h"
#include "traj/dataset.h"
#include "traj/generator.h"

/// \file
/// Shared drivers for the paper's Sec. V experimental protocol, used by
/// every bench binary:
///
///  - *Most similar search* (Sec. V-C1, Tables III-V): each test trajectory
///    T_b is split into interleaved halves T_a / T_a' (Fig. 4); T_a queries
///    a database containing every T_a'; the rank of the query's own twin is
///    the score.
///  - *Cross-similarity* (Sec. V-C2, Table VI): distance deviation between
///    transformed variants relative to the original pair distance.
///  - *k-NN precision* (Sec. V-C3, Fig. 5): k-NN lists on transformed data
///    compared against each method's own k-NN list on the originals.

namespace t2vec::eval {

/// Which synthetic dataset preset to use.
enum class DatasetKind { kPortoLike, kHarbinLike };

/// Generated train/test split (temporal prefix split, as in the paper).
struct ExperimentData {
  traj::Dataset train;
  traj::Dataset test;
};

/// Generates `train_count` + `test_count` trips of the given preset.
ExperimentData MakeData(DatasetKind kind, size_t train_count,
                        size_t test_count);

/// Global scale factor for bench workloads, read from the environment
/// variable T2VEC_BENCH_SCALE (default 1.0). Benches multiply their trip,
/// query, and iteration counts by it, so `T2VEC_BENCH_SCALE=0.25 bench_x`
/// gives a quick smoke run of the same code path.
double BenchScaleFactor();

/// `n` scaled by BenchScaleFactor(), with a floor to stay meaningful.
size_t Scaled(size_t n, size_t floor = 8);

/// Default t2vec configuration for the bench suite (paper settings scaled
/// to single-core CPU training; see DESIGN.md §1).
core::T2VecConfig DefaultBenchConfig();

// ---------------------------------------------------------------------------
// Most similar search.
// ---------------------------------------------------------------------------

/// Query/database construction of Sec. V-C1. The twin of queries[i] is
/// database[i]; database[num_queries..] are the distractors from P.
struct MssData {
  std::vector<traj::Trajectory> queries;   ///< D_Q = {T_a}
  std::vector<traj::Trajectory> database;  ///< D'_Q ∪ D'_P
  size_t num_queries = 0;
};

/// Builds D_Q / D'_Q from the first `num_queries` test trips and D'_P from
/// the next `num_distractors`. Requires enough test trips.
MssData BuildMss(const traj::Dataset& test, size_t num_queries,
                 size_t num_distractors);

/// Applies Downsample(r1) then Distort(r2) to every query and database
/// trajectory (the paper transforms both sides).
void TransformMss(MssData* mss, double r1, double r2, Rng& rng);

/// Mean rank of each query's twin under a classical measure.
double MeanRankOfMeasure(const dist::Measure& measure, const MssData& mss);

/// Mean rank using rows of two aligned embedding matrices.
double MeanRankOfVectors(const nn::Matrix& query_vecs,
                         const nn::Matrix& db_vecs);

/// Mean rank for a trained t2vec model (encodes, then ranks in vector
/// space).
double MeanRankOfT2Vec(const core::T2Vec& model, const MssData& mss);

/// Mean rank for the vRNN baseline.
double MeanRankOfVRnn(const core::VRnn& vrnn, const geo::HotCellVocab& vocab,
                      const MssData& mss);

// ---------------------------------------------------------------------------
// Cross-similarity.
// ---------------------------------------------------------------------------

/// Random distinct test-trajectory pairs (T_b, T_b').
std::vector<std::pair<traj::Trajectory, traj::Trajectory>> MakeCrossPairs(
    const traj::Dataset& test, size_t count, Rng& rng);

/// Mean cross-distance deviation under a classical measure when both pair
/// members are transformed with (r1, r2).
double CrossDeviationOfMeasure(
    const dist::Measure& measure,
    const std::vector<std::pair<traj::Trajectory, traj::Trajectory>>& pairs,
    double r1, double r2, Rng& rng);

/// Same for t2vec (vector-space distances).
double CrossDeviationOfT2Vec(
    const core::T2Vec& model,
    const std::vector<std::pair<traj::Trajectory, traj::Trajectory>>& pairs,
    double r1, double r2, Rng& rng);

// ---------------------------------------------------------------------------
// k-NN precision.
// ---------------------------------------------------------------------------

/// Mean precision@k of a classical measure: ground truth is the measure's
/// own k-NN on the originals; retrieval runs on (r1, r2)-transformed queries
/// and database (Sec. V-C3 methodology).
double KnnPrecisionOfMeasure(const dist::Measure& measure,
                             const std::vector<traj::Trajectory>& queries,
                             const std::vector<traj::Trajectory>& database,
                             size_t k, double r1, double r2, Rng& rng);

/// Same for t2vec: ground truth and retrieval are exact kNN over encoded
/// vectors.
double KnnPrecisionOfT2Vec(const core::T2Vec& model,
                           const std::vector<traj::Trajectory>& queries,
                           const std::vector<traj::Trajectory>& database,
                           size_t k, double r1, double r2, Rng& rng);

}  // namespace t2vec::eval

#endif  // T2VEC_EVAL_EXPERIMENTS_H_
