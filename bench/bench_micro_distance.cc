// Microbenchmarks of the per-pair cost of every similarity measure as the
// trajectory length grows — the empirical backing of the paper's complexity
// argument: the DP baselines are O(n^2) (EDwP O((n+m)^2) with a larger
// constant) — and of what t2vec pays instead once trajectories are encoded:
// the library's exact kNN scan and rank query over a store of vectors.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ann_index.h"
#include "core/vec_index.h"
#include "dist/classic.h"
#include "dist/edwp.h"
#include "geo/point.h"

namespace {

using namespace t2vec;

std::vector<geo::Point> RandomWalk(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> out;
  geo::Point p{0, 0};
  for (size_t i = 0; i < n; ++i) {
    p.x += rng.Uniform(-150, 150);
    p.y += rng.Uniform(-150, 150);
    out.push_back(p);
  }
  return out;
}

void BM_Dtw(benchmark::State& state) {
  const auto a = RandomWalk(static_cast<size_t>(state.range(0)), 1);
  const auto b = RandomWalk(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(dist::Dtw(a, b));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dtw)->Range(16, 256)->Complexity(benchmark::oNSquared);

void BM_Edr(benchmark::State& state) {
  const auto a = RandomWalk(static_cast<size_t>(state.range(0)), 3);
  const auto b = RandomWalk(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) benchmark::DoNotOptimize(dist::Edr(a, b, 100.0));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Edr)->Range(16, 256)->Complexity(benchmark::oNSquared);

void BM_Lcss(benchmark::State& state) {
  const auto a = RandomWalk(static_cast<size_t>(state.range(0)), 5);
  const auto b = RandomWalk(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) benchmark::DoNotOptimize(dist::Lcss(a, b, 100.0));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Lcss)->Range(16, 256)->Complexity(benchmark::oNSquared);

void BM_Erp(benchmark::State& state) {
  const auto a = RandomWalk(static_cast<size_t>(state.range(0)), 7);
  const auto b = RandomWalk(static_cast<size_t>(state.range(0)), 8);
  const geo::Point gap{0, 0};
  for (auto _ : state) benchmark::DoNotOptimize(dist::Erp(a, b, gap));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Erp)->Range(16, 256)->Complexity(benchmark::oNSquared);

void BM_Edwp(benchmark::State& state) {
  const auto a = RandomWalk(static_cast<size_t>(state.range(0)), 9);
  const auto b = RandomWalk(static_cast<size_t>(state.range(0)), 10);
  for (auto _ : state) benchmark::DoNotOptimize(dist::Edwp(a, b));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Edwp)->Range(16, 256)->Complexity(benchmark::oNSquared);

void BM_Frechet(benchmark::State& state) {
  const auto a = RandomWalk(static_cast<size_t>(state.range(0)), 11);
  const auto b = RandomWalk(static_cast<size_t>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::DiscreteFrechet(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Frechet)->Range(16, 256)->Complexity(benchmark::oNSquared);

// The t2vec online cost: an exact kNN scan (and a rank query) over a store
// of 48-dim vectors, the served model's size. The synthetic rows are shaped
// like served embeddings: tanh-saturated (rms |x| about 0.99) and close
// together (squared distances of order 1e-3), so the fp32 screen faces the
// near-ties it would in serving. Stores of 100,000 rows (knn_db100k's) and
// 9,000 rows (about ingest_mix's mean); k = 10; state.range(1) threads.
constexpr size_t kEmbedDim = 48;
constexpr size_t kQueries = 64;

std::vector<float> EmbeddingLike(size_t n, uint64_t seed) {
  Rng center_rng(17);
  std::vector<double> center(kEmbedDim);
  for (double& c : center) {
    c = (center_rng.Uniform() < 0.5 ? -3.0 : 3.0) *
        (1.0 + 0.2 * center_rng.Gaussian());
  }
  Rng rng(seed);
  std::vector<float> out(n * kEmbedDim);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(
        std::tanh(center[i % kEmbedDim] + 0.5 * rng.Gaussian()));
  }
  return out;
}

std::unique_ptr<core::AnnIndex> EmbeddingIndex(size_t n) {
  auto index = core::CreateIndex(core::IndexConfig{}, kEmbedDim);
  const std::vector<float> rows = EmbeddingLike(n, 23);
  for (size_t i = 0; i < n; ++i) {
    index.value()->Add({&rows[i * kEmbedDim], kEmbedDim});
  }
  return std::move(index.value());
}

void BM_ExactTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::unique_ptr<core::AnnIndex> index = EmbeddingIndex(n);
  const std::vector<float> queries = EmbeddingLike(kQueries, 29);
  ScopedNumThreads threads(static_cast<int>(state.range(1)));
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->Query({&queries[q * kEmbedDim], kEmbedDim}, 10));
    q = (q + 1) % kQueries;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactTopK)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({9000, 1})
    ->Args({9000, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_RankOf(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::unique_ptr<core::AnnIndex> index = EmbeddingIndex(n);
  const auto& exact = static_cast<const core::VectorIndex&>(*index);
  const std::vector<float> queries = EmbeddingLike(kQueries, 29);
  ScopedNumThreads threads(static_cast<int>(state.range(1)));
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exact.RankOf(&queries[q * kEmbedDim], (q * 7919) % n));
    q = (q + 1) % kQueries;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankOf)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({9000, 1})
    ->Args({9000, 4})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
