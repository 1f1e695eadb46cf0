// Microbenchmarks of the neural substrate: GEMM kernels, a batched GRU
// step, and trajectory encoding throughput. These bound the training and
// offline-encoding speed reported by the experiment benches.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/gru.h"
#include "nn/matrix.h"

namespace {

using namespace t2vec;
using namespace t2vec::nn;

Matrix RandomMatrix(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  Matrix out(n, n);
  for (auto _ : state) {
    Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * n * n * n) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTransB(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 3);
  const Matrix b = RandomMatrix(n, n, 4);
  Matrix out(n, n);
  for (auto _ : state) {
    GemmTransB(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * n * n * n) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTransB)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GruForwardStep(benchmark::State& state) {
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t batch = 64;
  Rng rng(5);
  GruLayer layer("bench", hidden, hidden, rng);
  const std::vector<Matrix> xs = {RandomMatrix(batch, hidden, 6)};
  const Matrix h0 = RandomMatrix(batch, hidden, 7);
  GruCache cache;
  for (auto _ : state) {
    layer.Forward(xs, h0, {}, &cache);
    benchmark::DoNotOptimize(cache.h.back().data());
  }
}
BENCHMARK(BM_GruForwardStep)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_GruSequenceBptt(benchmark::State& state) {
  // One full BPTT pass over a 60-step sequence — the training inner loop.
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t batch = 64, steps = 60;
  Rng rng(8);
  GruLayer layer("bench", hidden, hidden, rng);
  std::vector<Matrix> xs;
  for (size_t t = 0; t < steps; ++t) {
    xs.push_back(RandomMatrix(batch, hidden, 100 + t));
  }
  const Matrix h0(batch, hidden);
  GruCache cache;
  std::vector<Matrix> d_hs(steps);
  for (size_t t = 0; t < steps; ++t) {
    d_hs[t] = RandomMatrix(batch, hidden, 200 + t);
  }
  for (auto _ : state) {
    layer.Forward(xs, h0, {}, &cache);
    std::vector<Matrix> d_xs;
    Matrix d_h0;
    layer.Backward(xs, h0, {}, cache, &d_hs, nullptr, &d_xs, &d_h0);
    benchmark::DoNotOptimize(d_h0.data());
  }
}
BENCHMARK(BM_GruSequenceBptt)->Arg(32)->Arg(64)->Arg(96);

void BM_EncodeSequenceBatch(benchmark::State& state) {
  // Inference throughput: 2-layer GRU over a 60-token batch of 256 —
  // the offline database-encoding path.
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t batch = 256, steps = 60;
  Rng rng(9);
  Gru gru("bench", hidden, hidden, 2, rng);
  std::vector<Matrix> xs;
  for (size_t t = 0; t < steps; ++t) {
    xs.push_back(RandomMatrix(batch, hidden, 300 + t));
  }
  Gru::ForwardResult result;
  for (auto _ : state) {
    gru.Forward(xs, nullptr, {}, &result);
    benchmark::DoNotOptimize(result.final_state.h.back().data());
  }
  state.counters["traj/s"] = benchmark::Counter(
      static_cast<double>(batch) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EncodeSequenceBatch)->Arg(64)->Arg(96);

}  // namespace

BENCHMARK_MAIN();
