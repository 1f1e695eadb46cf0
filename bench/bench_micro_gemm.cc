#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "nn/gru.h"
#include "nn/matrix.h"

/// \file
/// Microbenchmark for the blocked GEMM kernels and the fused-gate GRU step —
/// the training hot path. Every shape runs once per available SIMD dispatch
/// tier (scalar always; avx2 where the CPU supports it), with the tier name
/// suffixed onto each metric, so BENCH_gemm.json carries the scalar/AVX2
/// before/after pair in one artifact. Canonical results live in
/// EXPERIMENTS.md.
///
/// Shapes: square GEMMs at the paper's hidden sizes (64/128/256) plus the
/// fused-gate shape (B x in · in x 3H), and one full GRU forward+backward
/// step at batch 64.

namespace t2vec {
namespace {

/// Runs `fn` repeatedly until ~0.3s have elapsed (after one warmup call) and
/// returns the mean seconds per call.
double TimePerCall(const std::function<void()>& fn) {
  fn();  // Warmup: touches the memory and builds any lazy weight packs.
  Stopwatch timer;
  int iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedSeconds() < 0.3);
  return timer.ElapsedSeconds() / iters;
}

void FillRandom(nn::Matrix* m, Rng* rng) {
  for (size_t i = 0; i < m->size(); ++i) {
    m->data()[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
}

struct Results {
  std::vector<std::pair<std::string, double>> metrics;
  std::string suffix;  ///< "_scalar" / "_avx2", appended to every name.

  void Record(const std::string& name, double value, const char* unit) {
    std::printf("  %-34s %10.2f %s\n", (name + suffix).c_str(), value, unit);
    metrics.emplace_back(name + suffix, value);
  }
};

void BenchGemm(size_t n, Rng* rng, Results* out) {
  nn::Matrix a(n, n), b(n, n), c(n, n);
  FillRandom(&a, rng);
  FillRandom(&b, rng);
  const double flops = 2.0 * static_cast<double>(n) * n * n;

  const double gemm_s = TimePerCall([&] { nn::Gemm(a, b, &c); });
  out->Record("gemm_gflops_" + std::to_string(n), flops / gemm_s / 1e9,
              "GFLOP/s");
  const double ta_s = TimePerCall([&] { nn::GemmTransA(a, b, &c); });
  out->Record("gemm_transa_gflops_" + std::to_string(n), flops / ta_s / 1e9,
              "GFLOP/s");
  const double tb_s = TimePerCall([&] { nn::GemmTransB(a, b, &c); });
  out->Record("gemm_transb_gflops_" + std::to_string(n), flops / tb_s / 1e9,
              "GFLOP/s");
}

/// The fused input projection shape: one B x in · in x 3H GEMM replaces the
/// three per-gate B x in · in x H calls.
void BenchFusedGateShape(size_t hidden, Rng* rng, Results* out) {
  const size_t batch = 64;
  nn::Matrix x(batch, hidden), w3(hidden, 3 * hidden), pre(batch, 3 * hidden);
  FillRandom(&x, rng);
  FillRandom(&w3, rng);
  const double flops = 2.0 * batch * hidden * 3.0 * hidden;
  const double s = TimePerCall([&] { nn::Gemm(x, w3, &pre); });
  out->Record("gate_pack_gflops_" + std::to_string(hidden), flops / s / 1e9,
              "GFLOP/s");
}

/// One GRU training step (forward + full BPTT over a single timestep) at
/// batch 64 — the unit of work the fused kernels accelerate.
void BenchGruStep(size_t hidden, Rng* rng, Results* out) {
  const size_t batch = 64;
  nn::GruLayer layer("bench.gru", hidden, hidden, *rng);
  std::vector<nn::Matrix> xs(1);
  xs[0].Resize(batch, hidden);
  FillRandom(&xs[0], rng);
  nn::Matrix h0(batch, hidden);
  FillRandom(&h0, rng);
  const std::vector<std::vector<float>> masks;

  nn::GruCache cache;
  std::vector<nn::Matrix> d_hs(1), d_xs;
  d_hs[0].Resize(batch, hidden);
  FillRandom(&d_hs[0], rng);
  nn::Matrix d_h0;

  const double s = TimePerCall([&] {
    layer.Forward(xs, h0, masks, &cache);
    layer.Backward(xs, h0, masks, cache, &d_hs, nullptr, &d_xs, &d_h0);
  });
  out->Record("gru_step_us_" + std::to_string(hidden), s * 1e6, "us/step");
}

int Main() {
  bench::PrintThreadSetup();
  Results results;

  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (SimdTierSupported(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
  results.metrics.emplace_back(
      "avx2_supported", SimdTierSupported(SimdTier::kAvx2) ? 1.0 : 0.0);

  for (const SimdTier tier : tiers) {
    SetSimdTier(tier);
    results.suffix = std::string("_") + SimdTierName(tier);
    Rng rng(42);  // Same seed per tier: identical inputs, comparable times.
    std::printf("\n=== dispatch tier: %s ===\n", SimdTierName(tier));

    std::printf("GEMM kernels (square):\n");
    for (size_t n : {64, 128, 256}) BenchGemm(n, &rng, &results);

    std::printf("Fused gate projection (64 x H  ·  H x 3H):\n");
    for (size_t h : {64, 128, 256}) BenchFusedGateShape(h, &rng, &results);

    std::printf("GRU forward+backward, one step, batch 64:\n");
    for (size_t h : {64, 128, 256}) BenchGruStep(h, &rng, &results);
  }

  bench::WriteBenchJson("BENCH_gemm.json", results.metrics);
  std::printf("\nwrote BENCH_gemm.json\n");
  return 0;
}

}  // namespace
}  // namespace t2vec

int main() { return t2vec::Main(); }
