// Serving-path benchmark: closed-loop clients drive EmbeddingService while
// the batch window sweeps, measuring how micro-batching trades per-request
// latency for throughput. Emits BENCH_serve.json (tracked in EXPERIMENTS.md)
// with throughput and request-latency quantiles per window setting.
//
// Protocol: C clients each keep exactly one request outstanding (submit,
// wait, repeat over a shuffled trajectory set), so the attainable batch size
// is bounded by C and the dispatcher's window decides how much coalescing
// actually happens. The sweep runs twice: 8 clients with max_batch 8, where
// a batch fills while a flush runs, and 2 clients with the service's default
// max_batch (perfbench's connection count and server shape), where no batch
// can fill and the window alone decides when a flush starts. Results are
// bit-identical across all settings (the service's determinism contract);
// only the timing varies.
//
// Ahead of the closed loop, the raw encoder is swept across SIMD dispatch
// tiers (scalar vs avx2 where supported), at the bench model's size and at
// the paper-scale shape (hidden 256, 3 layers). The closed loop runs on the
// process's default tier.

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/model.h"
#include "core/t2vec.h"
#include "serve/embedding_service.h"

namespace t2vec::bench {
namespace {

struct WindowResult {
  int window_us = 0;
  double seconds = 0.0;
  size_t requests = 0;
  double mean_batch = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

WindowResult RunClosedLoop(const core::T2Vec& model,
                           const std::vector<traj::Trajectory>& trips,
                           size_t num_clients, size_t max_batch,
                           size_t requests_per_client, int window_us) {
  serve::ServiceOptions options;
  options.batch_window = std::chrono::microseconds(window_us);
  options.max_batch = max_batch;
  options.queue_capacity = 4 * num_clients;
  serve::EmbeddingService service(&model, options);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(17 + c);
      std::vector<size_t> order(trips.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.Shuffle(order);
      for (size_t r = 0; r < requests_per_client; ++r) {
        const traj::Trajectory& trip = trips[order[r % order.size()]];
        serve::EmbeddingService::EncodeResult result =
            service.Submit(trip).get();
        if (!result.ok()) {
          std::fprintf(stderr, "client %zu: %s\n", c,
                       result.status().ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service.Shutdown();

  const serve::ServeMetrics& m = service.metrics();
  WindowResult out;
  out.window_us = window_us;
  out.seconds = seconds;
  out.requests = static_cast<size_t>(m.completed.value());
  out.mean_batch =
      m.flushes.value() > 0
          ? static_cast<double>(m.completed.value()) /
                static_cast<double>(m.flushes.value())
          : 0.0;
  out.p50_us = m.request_latency_us.Quantile(0.5);
  out.p99_us = m.request_latency_us.Quantile(0.99);
  return out;
}

/// Mean seconds per call of `fn` over a ~0.5s measurement window.
double TimePerCall(const std::function<void()>& fn) {
  fn();  // Warmup (builds the lazy weight packs).
  Stopwatch timer;
  int iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedSeconds() < 0.5);
  return timer.ElapsedSeconds() / iters;
}

/// Encode throughput (trajectories/s) of `encode` over `n` sequences, per
/// dispatch tier. Records one metric per tier and restores the tier that
/// was active before.
void SweepTiers(const std::string& name, size_t n,
                const std::function<void()>& encode,
                std::vector<std::pair<std::string, double>>* metrics) {
  const SimdTier previous = ActiveSimdTier();
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (SimdTierSupported(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
  for (const SimdTier tier : tiers) {
    SetSimdTier(tier);
    const double s = TimePerCall(encode);
    const double rps = static_cast<double>(n) / s;
    std::printf("  %-28s %10.1f traj/s\n",
                (name + "_" + SimdTierName(tier)).c_str(), rps);
    metrics->emplace_back(name + "_rps_" + std::string(SimdTierName(tier)),
                          rps);
  }
  SetSimdTier(previous);
}

/// Paper-scale encoder shape (hidden 256, 3 layers — Sec. V's GPU config),
/// untrained weights: throughput only, where GEMM cost dominates the
/// transcendentals.
void BenchPaperShape(std::vector<std::pair<std::string, double>>* metrics) {
  Rng rng(7);
  core::T2VecConfig config;
  config.embed_dim = 256;
  config.hidden = 256;
  config.layers = 3;
  const geo::Token vocab_size = 1024;
  const core::EncoderDecoder model(config, vocab_size, rng);

  std::vector<traj::TokenSeq> seqs;
  Rng token_rng(8);
  const size_t batch = 32, len = 32;
  for (size_t i = 0; i < batch; ++i) {
    traj::TokenSeq seq(len);
    for (auto& tok : seq) {
      tok = static_cast<geo::Token>(4 + token_rng.UniformInt(1000));
    }
    seqs.push_back(seq);
  }

  std::printf("\npaper-scale encoder (hidden 256, 3 layers, batch %zu x "
              "len %zu, untrained):\n", batch, len);
  SweepTiers("h256_encode_fp32", batch, [&] { model.EncodeBatch(seqs); },
             metrics);
}

}  // namespace
}  // namespace t2vec::bench

int main() {
  using namespace t2vec;
  using namespace t2vec::bench;

  PrintThreadSetup();
  std::printf("simd: avx2 %s\n",
              SimdTierSupported(SimdTier::kAvx2) ? "available" : "absent");

  // A compact model keeps the encode cost realistic relative to the
  // dispatch overhead without minutes of training.
  const eval::ExperimentData data = eval::MakeData(
      eval::DatasetKind::kPortoLike, eval::Scaled(300, 64), 0);
  core::T2VecConfig config = eval::DefaultBenchConfig();
  config.hidden = 48;
  config.max_iterations = eval::Scaled(120, 40);
  const core::T2Vec model = eval::GetOrTrainModel(
      "serve_bench", data.train.trajectories(), config);

  const std::vector<traj::Trajectory>& trips = data.train.trajectories();
  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("avx2_supported",
                       SimdTierSupported(SimdTier::kAvx2) ? 1.0 : 0.0);

  // ---- Raw encoder sweep per dispatch tier. ------------------------------
  std::vector<traj::TokenSeq> seqs;
  seqs.reserve(trips.size());
  for (const auto& trip : trips) seqs.push_back(model.EncoderTokens(trip));

  std::printf("\nbatch encode, %zu trajectories (trained model, hidden "
              "%zu):\n", seqs.size(), static_cast<size_t>(config.hidden));
  SweepTiers("encode_fp32", seqs.size(),
             [&] { model.EncodeTokenized(seqs); }, &metrics);

  BenchPaperShape(&metrics);

  // ---- Closed-loop service sweeps. --------------------------------------
  // {clients, max_batch, metric prefix}; the 8-client names predate the
  // 2-client sweep and keep their meaning.
  struct Sweep {
    size_t clients;
    size_t max_batch;
    std::string prefix;
  };
  const Sweep sweeps[] = {{8, 8, ""},
                          {2, serve::ServiceOptions{}.max_batch, "c2_"}};
  const size_t requests_per_client = eval::Scaled(150, 30);
  for (const Sweep& sweep : sweeps) {
    std::printf("\nclosed loop: %zu clients x %zu requests, max_batch %zu, "
                "simd %s\n",
                sweep.clients, requests_per_client, sweep.max_batch,
                SimdTierName(ActiveSimdTier()));
    std::printf("%-10s %12s %12s %12s %12s\n", "window_us", "req/s",
                "mean_batch", "p50_us", "p99_us");
    for (const int window_us : {0, 100, 500, 2000}) {
      const WindowResult r =
          RunClosedLoop(model, trips, sweep.clients, sweep.max_batch,
                        requests_per_client, window_us);
      const double rps = static_cast<double>(r.requests) / r.seconds;
      std::printf("%-10d %12.1f %12.2f %12.1f %12.1f\n", r.window_us, rps,
                  r.mean_batch, r.p50_us, r.p99_us);
      const std::string prefix =
          sweep.prefix + "win" + std::to_string(window_us) + "us_";
      metrics.emplace_back(prefix + "throughput_rps", rps);
      metrics.emplace_back(prefix + "mean_batch", r.mean_batch);
      metrics.emplace_back(prefix + "p50_us", r.p50_us);
      metrics.emplace_back(prefix + "p99_us", r.p99_us);
    }
  }
  WriteBenchJson("BENCH_serve.json", metrics);
  std::printf("\nwrote BENCH_serve.json\n");
  return 0;
}
