// Full-stack serving benchmark: closed-loop TCP clients drive the network
// front door (serve/server.h) end to end — frame encode, socket hop,
// micro-batched model encode, WAL fsync (for inserts), exact kNN (for
// queries) — and measure client-observed latency. Emits BENCH_server.json
// (tracked in EXPERIMENTS.md).
//
// Protocol: C clients each own one TCP connection and keep exactly one
// request outstanding. Phase 1 inserts distinct trajectories (every ack
// means the vector is fsynced into the WAL); phase 2 runs kNN queries over
// the store the inserts just built; phase 3 repeats the kNN mix through
// RetryingClients while ~10% of socket operations carry injected faults and
// a slowloris connection dribbles one byte at a time — measuring what
// overload governance costs the well-behaved clients (faulted p99, error
// rate, and how fast the dribbler is reaped). Latency is measured at the
// client, around the whole Call round trip (including retries in phase 3).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/fault.h"
#include "serve/client.h"
#include "serve/durable_store.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace t2vec::bench {
namespace {

struct PhaseResult {
  double seconds = 0.0;
  size_t requests = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Runs `op` closed-loop on `clients` threads; op(c, r) issues one request
/// on client c's own connection and returns false on error.
template <typename Op>
PhaseResult RunPhase(size_t num_clients, size_t requests_per_client,
                     const Op& op) {
  serve::Histogram latency_us(serve::LatencyBucketsUs());
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t r = 0; r < requests_per_client; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!op(c, r)) return;
        latency_us.Observe(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.requests = static_cast<size_t>(latency_us.count());
  out.p50_us = latency_us.Quantile(0.5);
  out.p99_us = latency_us.Quantile(0.99);
  return out;
}

/// Plays slowloris against the server: connects, dribbles a valid stats
/// frame one byte per 100 ms, and returns how long the server let it live.
/// The governance contract is read_timeout-driven reaping, so this should
/// come back near options.read_timeout, not the ~2.3 s the dribble wants.
int64_t MeasureSlowlorisReapMs(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  std::string wire;
  serve::AppendFrame(serve::EncodeRequest(serve::Request{}), &wire);
  const auto start = std::chrono::steady_clock::now();
  for (char byte : wire) {
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) break;  // Server hung up.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Block (bounded by a recv timeout) until the reaper closes the socket.
  timeval timeout{};
  timeout.tv_sec = 30;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  char sink[256];
  while (::recv(fd, sink, sizeof(sink), 0) > 0) {
  }
  const int64_t elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ::close(fd);
  return elapsed;
}

}  // namespace
}  // namespace t2vec::bench

int main() {
  using namespace t2vec;
  using namespace t2vec::bench;

  PrintThreadSetup();

  const eval::ExperimentData data = eval::MakeData(
      eval::DatasetKind::kPortoLike, eval::Scaled(300, 64), 0);
  core::T2VecConfig config = eval::DefaultBenchConfig();
  config.hidden = 48;
  config.max_iterations = eval::Scaled(120, 40);
  const core::T2Vec model = eval::GetOrTrainModel(
      "serve_bench", data.train.trajectories(), config);

  // Fresh store directory per run (reruns would otherwise hit duplicate-id
  // rejections from the durable store).
  const std::string dir = "bench_server_data";
  std::remove((dir + "/store.snapshot").c_str());
  std::remove((dir + "/wal.log").c_str());
  Result<std::unique_ptr<serve::DurableStore>> store =
      serve::DurableStore::Open(dir, config.hidden);
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
    return 1;
  }

  serve::ServerOptions options;
  options.port = 0;  // Ephemeral: the benchmark must not fight over a port.
  // Tight enough that the phase-3 slowloris reap is visible inside the run;
  // the closed-loop clients never idle, so they are unaffected.
  options.idle_timeout = std::chrono::milliseconds(5'000);
  options.read_timeout = std::chrono::milliseconds(1'000);
  serve::TcpServer server(&model, store.value().get(), options);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server: %s\n", status.ToString().c_str());
    return 1;
  }

  const size_t clients = 8;
  const size_t requests_per_client = eval::Scaled(150, 30);
  const std::vector<traj::Trajectory>& trips = data.train.trajectories();

  std::vector<std::unique_ptr<serve::TcpClient>> conns;
  for (size_t c = 0; c < clients; ++c) {
    Result<std::unique_ptr<serve::TcpClient>> conn =
        serve::TcpClient::Connect("127.0.0.1", server.port());
    if (!conn.ok()) {
      std::fprintf(stderr, "connect: %s\n", conn.status().ToString().c_str());
      return 1;
    }
    conns.push_back(std::move(conn).value());
  }

  std::printf("\nclosed loop over TCP: %zu clients x %zu requests/phase\n",
              clients, requests_per_client);

  const PhaseResult insert =
      RunPhase(clients, requests_per_client, [&](size_t c, size_t r) {
        traj::Trajectory trip = trips[(c + r * clients) % trips.size()];
        trip.id = static_cast<int64_t>(c * requests_per_client + r);
        Result<int64_t> result = conns[c]->Insert(trip);
        if (!result.ok()) {
          std::fprintf(stderr, "insert: %s\n",
                       result.status().ToString().c_str());
          return false;
        }
        return true;
      });
  const PhaseResult knn =
      RunPhase(clients, requests_per_client, [&](size_t c, size_t r) {
        const traj::Trajectory& trip = trips[(c + r * clients) % trips.size()];
        Result<serve::EmbeddingStore::Neighbors> result =
            conns[c]->Knn(trip, 10);
        if (!result.ok() || result.value().size() == 0) {
          std::fprintf(stderr, "knn failed at client %zu\n", c);
          return false;
        }
        return true;
      });

  // Phase 3: the same kNN mix through RetryingClients while ~10% of socket
  // sends and receives (client and server side alike — the registry is
  // process-global) fail with injected errnos, and a slowloris dribbler
  // leans on the reaper. The numbers to watch: how far p99 moves versus the
  // clean kNN phase, what fraction of ops still end in an error after
  // retries, and how fast the dribbler is evicted.
  std::vector<std::unique_ptr<serve::RetryingClient>> retriers;
  for (size_t c = 0; c < clients; ++c) {
    serve::RetryOptions retry;
    retry.initial_backoff = std::chrono::milliseconds(2);
    retry.max_backoff = std::chrono::milliseconds(50);
    retry.jitter_seed = c + 1;
    retriers.push_back(std::make_unique<serve::RetryingClient>(
        "127.0.0.1", server.port(), retry));
  }
  fault::ArmEvery("net.send", 10, EPIPE);
  fault::ArmEvery("net.recv", 10, ECONNRESET);
  std::atomic<int64_t> faulted_errors{0};
  std::atomic<int64_t> slowloris_reap_ms{-1};
  std::thread slowloris([&] {
    slowloris_reap_ms.store(MeasureSlowlorisReapMs(server.port()));
  });
  const PhaseResult faulted =
      RunPhase(clients, requests_per_client, [&](size_t c, size_t r) {
        const traj::Trajectory& trip = trips[(c + r * clients) % trips.size()];
        Result<serve::EmbeddingStore::Neighbors> result =
            retriers[c]->Knn(trip, 10);
        if (!result.ok()) faulted_errors.fetch_add(1);
        return true;  // Errors are data here, not a reason to stop.
      });
  slowloris.join();
  fault::DisarmAll();
  int64_t faulted_retries = 0;
  for (const auto& retrier : retriers) faulted_retries += retrier->retries();
  const double faulted_error_rate =
      static_cast<double>(faulted_errors.load()) /
      static_cast<double>(clients * requests_per_client);

  const double insert_rps = static_cast<double>(insert.requests) /
                            insert.seconds;
  const double knn_rps = static_cast<double>(knn.requests) / knn.seconds;
  const double faulted_rps =
      static_cast<double>(faulted.requests) / faulted.seconds;
  std::printf("%-12s %12s %12s %12s\n", "phase", "req/s", "p50_us", "p99_us");
  std::printf("%-12s %12.1f %12.1f %12.1f\n", "insert", insert_rps,
              insert.p50_us, insert.p99_us);
  std::printf("%-12s %12.1f %12.1f %12.1f\n", "knn", knn_rps, knn.p50_us,
              knn.p99_us);
  std::printf("%-12s %12.1f %12.1f %12.1f\n", "knn+faults", faulted_rps,
              faulted.p50_us, faulted.p99_us);
  std::printf(
      "faults: error rate %.4f, %lld retries, slowloris reaped in %lld ms\n",
      faulted_error_rate, static_cast<long long>(faulted_retries),
      static_cast<long long>(slowloris_reap_ms.load()));
  std::printf("store: %zu vectors, wal %llu bytes\n", store.value()->size(),
              static_cast<unsigned long long>(store.value()->wal_bytes()));

  retriers.clear();
  conns.clear();
  server.Stop();

  WriteBenchJson("BENCH_server.json",
                 {{"insert_throughput_rps", insert_rps},
                  {"insert_p50_us", insert.p50_us},
                  {"insert_p99_us", insert.p99_us},
                  {"knn_throughput_rps", knn_rps},
                  {"knn_p50_us", knn.p50_us},
                  {"knn_p99_us", knn.p99_us},
                  {"faulted_knn_throughput_rps", faulted_rps},
                  {"faulted_knn_p50_us", faulted.p50_us},
                  {"faulted_knn_p99_us", faulted.p99_us},
                  {"faulted_error_rate", faulted_error_rate},
                  {"faulted_retries", static_cast<double>(faulted_retries)},
                  {"slowloris_reap_ms",
                   static_cast<double>(slowloris_reap_ms.load())},
                  {"store_vectors", static_cast<double>(store.value()->size())}});
  std::printf("\nwrote BENCH_server.json\n");
  return 0;
}
