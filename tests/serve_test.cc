// Serving-layer tests: micro-batched EmbeddingService results must be
// bit-identical to sequential EncodeOne at every thread count and under
// randomized concurrent arrival; backpressure and deadlines must surface as
// statuses without wedging Shutdown; EmbeddingStore must round-trip through
// snapshots and answer kNN in trajectory-id space.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/t2vec.h"
#include "eval/experiments.h"
#include "serve/embedding_service.h"
#include "serve/embedding_store.h"
#include "traj/generator.h"

namespace t2vec::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  static const core::T2Vec& Model() {
    static core::T2Vec* model = [] {
      const eval::ExperimentData data =
          eval::MakeData(eval::DatasetKind::kPortoLike, 120, 0);
      core::T2VecConfig config;
      config.hidden = 24;
      config.embed_dim = 16;
      config.layers = 1;
      config.max_iterations = 8;
      config.validate_every = 100;
      config.pretrain_epochs = 1;
      config.r1_grid = {0.0, 0.4};
      config.r2_grid = {0.0};
      return new core::T2Vec(
          core::T2Vec::Train(data.train.trajectories(), config));
    }();
    return *model;
  }

  static const traj::Dataset& Trips() {
    static traj::Dataset* trips = [] {
      traj::SyntheticTrajectoryGenerator generator(
          traj::GeneratorConfig::PortoLike());
      return new traj::Dataset(generator.Generate(40));
    }();
    return *trips;
  }

  static bool BitIdentical(const std::vector<float>& a,
                           const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  }
};

// The core serving contract: whatever micro-batches form under concurrent
// randomized arrival, every returned vector matches EncodeOne bit for bit —
// at 1, 2, and 8 encoder threads.
TEST_F(ServeTest, SubmitBitIdenticalToEncodeOneAcrossThreadCounts) {
  std::vector<std::vector<float>> expected;
  expected.reserve(Trips().size());
  for (const traj::Trajectory& trip : Trips().trajectories()) {
    expected.push_back(Model().EncodeOne(trip));
  }

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    SetNumThreads(threads);
    ServiceOptions options;
    options.max_batch = 8;
    options.batch_window = std::chrono::microseconds(500);
    EmbeddingService service(&Model(), options);

    // Four clients submit disjoint slices in shuffled order with jittered
    // arrival times, so batches mix lengths and compositions every run.
    constexpr size_t kClients = 4;
    std::vector<std::vector<std::pair<size_t, std::future<
        EmbeddingService::EncodeResult>>>> futures(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937 rng(static_cast<unsigned>(1234 + c + threads));
        std::vector<size_t> order;
        for (size_t i = c; i < Trips().size(); i += kClients) {
          order.push_back(i);
        }
        std::shuffle(order.begin(), order.end(), rng);
        std::uniform_int_distribution<int> jitter_us(0, 200);
        for (const size_t i : order) {
          futures[c].emplace_back(i, service.Submit(Trips()[i]));
          std::this_thread::sleep_for(
              std::chrono::microseconds(jitter_us(rng)));
        }
      });
    }
    for (std::thread& t : clients) t.join();

    size_t fulfilled = 0;
    for (auto& per_client : futures) {
      for (auto& [i, future] : per_client) {
        EmbeddingService::EncodeResult result = future.get();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(BitIdentical(result.value(), expected[i]))
            << "trajectory " << i;
        ++fulfilled;
      }
    }
    EXPECT_EQ(fulfilled, Trips().size());
    service.Shutdown();
    EXPECT_EQ(service.metrics().completed.value(),
              static_cast<int64_t>(Trips().size()));
    EXPECT_GE(service.metrics().flushes.value(), 1);
    SetNumThreads(0);
  }
}

// Requests of different token lengths share a micro-batch: every trip
// submitted inside one window — an empty trajectory and a 1-token trip
// among them — lands in one packed flush, and every row still carries
// EncodeOne's bits.
TEST_F(ServeTest, MixedLengthBatchMatchesEncodeOne) {
  std::vector<traj::Trajectory> trips = Trips().trajectories();
  trips.push_back(traj::Trajectory{});
  traj::Trajectory one_point;
  one_point.points = {Trips()[0].points.front()};
  trips.push_back(one_point);
  ASSERT_EQ(Model().EncoderTokens(trips.back()).size(), 1u);
  ASSERT_TRUE(Model().EncoderTokens(trips[trips.size() - 2]).empty());

  std::vector<std::vector<float>> expected;
  for (const traj::Trajectory& trip : trips) {
    expected.push_back(Model().EncodeOne(trip));
  }

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    SetNumThreads(threads);
    ServiceOptions options;
    // The batch fills exactly when the last trip arrives; the long window
    // only bounds a stalled submitter.
    options.max_batch = trips.size();
    options.batch_window = std::chrono::seconds(10);
    EmbeddingService service(&Model(), options);
    std::vector<std::future<EmbeddingService::EncodeResult>> futures;
    for (const traj::Trajectory& trip : trips) {
      futures.push_back(service.Submit(trip));
    }
    for (size_t i = 0; i < trips.size(); ++i) {
      EmbeddingService::EncodeResult result = futures[i].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(BitIdentical(result.value(), expected[i])) << "trip " << i;
    }
    service.Shutdown();
    EXPECT_EQ(service.metrics().completed.value(),
              static_cast<int64_t>(trips.size()));
    // One flush carried every row, whatever its length.
    EXPECT_EQ(service.metrics().flushes.value(), 1);
    SetNumThreads(0);
  }
}

// Waiting for company only pays while requests queue behind a running
// flush. A request that finds the dispatcher idle for longer than a window
// is encoded at once; one that arrives right after a flush waits until a
// window has passed since that flush started.
TEST_F(ServeTest, LoneRequestAfterIdleWindowIsEncodedAtOnce) {
  const std::vector<float> expected0 = Model().EncodeOne(Trips()[0]);
  const std::vector<float> expected1 = Model().EncodeOne(Trips()[1]);
  ServiceOptions options;
  options.batch_window = std::chrono::milliseconds(400);
  EmbeddingService service(&Model(), options);
  std::this_thread::sleep_for(options.batch_window +
                              std::chrono::milliseconds(100));

  const EmbeddingService::Clock::time_point start =
      EmbeddingService::Clock::now();
  auto elapsed_ms = [start] {
    return std::chrono::duration<double, std::milli>(
               EmbeddingService::Clock::now() - start)
        .count();
  };
  EmbeddingService::EncodeResult first = service.Submit(Trips()[0]).get();
  const double first_ms = elapsed_ms();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(BitIdentical(first.value(), expected0));
  EXPECT_LT(first_ms, 200.0);

  // The first flush started after `start`, so the second request cannot
  // complete before a whole window has passed since then.
  EmbeddingService::EncodeResult second = service.Submit(Trips()[1]).get();
  EXPECT_GE(elapsed_ms(), 400.0);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(BitIdentical(second.value(), expected1));
  service.Shutdown();
  EXPECT_EQ(service.metrics().flushes.value(), 2);
}

TEST_F(ServeTest, QueueFullRejectsWithUnavailable) {
  ServiceOptions options;
  options.queue_capacity = 2;
  options.max_batch = 64;  // Never fills; dispatcher must wait the window.
  options.batch_window = std::chrono::milliseconds(200);
  EmbeddingService service(&Model(), options);

  std::vector<std::future<EmbeddingService::EncodeResult>> futures;
  for (size_t i = 0; i < 10; ++i) futures.push_back(service.Submit(Trips()[i]));

  size_t accepted = 0;
  size_t rejected = 0;
  for (auto& future : futures) {
    EmbeddingService::EncodeResult result = future.get();
    if (result.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  // The window is long enough that submissions far outpace the first flush:
  // exactly queue_capacity requests fit, the rest bounce.
  EXPECT_EQ(accepted, options.queue_capacity);
  EXPECT_EQ(rejected, futures.size() - options.queue_capacity);
  EXPECT_EQ(service.metrics().rejected_queue_full.value(),
            static_cast<int64_t>(rejected));
}

TEST_F(ServeTest, ExpiredDeadlineSurfacesWithoutWedgingShutdown) {
  ServiceOptions options;
  options.batch_window = std::chrono::milliseconds(50);
  EmbeddingService service(&Model(), options);

  // Already expired when submitted: must resolve to kDeadlineExceeded.
  auto expired = service.SubmitWithDeadline(
      Trips()[0], EmbeddingService::Clock::now() - std::chrono::seconds(1));
  // A generous deadline must not trip.
  auto live = service.SubmitWithDeadline(
      Trips()[1], EmbeddingService::Clock::now() + std::chrono::minutes(5));

  EmbeddingService::EncodeResult expired_result = expired.get();
  ASSERT_FALSE(expired_result.ok());
  EXPECT_EQ(expired_result.status().code(), StatusCode::kDeadlineExceeded);

  EmbeddingService::EncodeResult live_result = live.get();
  ASSERT_TRUE(live_result.ok()) << live_result.status().ToString();

  service.Shutdown();  // Must return despite the expired request.
  EXPECT_EQ(service.metrics().deadline_expired.value(), 1);
}

TEST_F(ServeTest, ShutdownDrainsQueuedWorkAndRejectsNewWork) {
  ServiceOptions options;
  options.batch_window = std::chrono::milliseconds(100);
  EmbeddingService service(&Model(), options);

  std::vector<std::future<EmbeddingService::EncodeResult>> futures;
  for (size_t i = 0; i < 12; ++i) futures.push_back(service.Submit(Trips()[i]));
  service.Shutdown();

  for (size_t i = 0; i < futures.size(); ++i) {
    EmbeddingService::EncodeResult result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(BitIdentical(result.value(), Model().EncodeOne(Trips()[i])));
  }

  EmbeddingService::EncodeResult late = service.Submit(Trips()[0]).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.metrics().rejected_shutdown.value(), 1);
  service.Shutdown();  // Idempotent.
}

TEST_F(ServeTest, MetricsJsonSnapshotIsWellFormed) {
  EmbeddingService service(&Model(), {});
  service.Submit(Trips()[0]).get();
  service.Shutdown();

  const std::string json = service.metrics().ToJson();
  for (const char* key :
       {"\"counters\"", "\"histograms\"", "\"submitted\"", "\"completed\"",
        "\"queue_depth\"", "\"batch_size\"", "\"flush_latency_us\"",
        "\"request_latency_us\"", "\"p50\"", "\"p99\"", "\"buckets\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"submitted\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\": 1"), std::string::npos) << json;
}

TEST(HistogramTest, QuantilesBracketObservations) {
  Histogram h(LatencyBucketsUs());
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  const double p50 = h.Quantile(0.5);
  const double p99 = h.Quantile(0.99);
  EXPECT_GT(p50, 300.0);
  EXPECT_LT(p50, 800.0);
  EXPECT_GT(p99, p50);
  EXPECT_LE(p99, 1000.0);
}

TEST_F(ServeTest, StoreAddFindKnnInIdSpace) {
  const nn::Matrix vectors = Model().Encode(Trips().trajectories());
  EmbeddingStore store(vectors.cols());
  for (size_t i = 0; i < vectors.rows(); ++i) {
    ASSERT_TRUE(
        store.Add(Trips()[i].id, {vectors.Row(i), vectors.cols()}).ok());
  }
  EXPECT_EQ(store.size(), Trips().size());
  EXPECT_TRUE(store.Contains(Trips()[3].id));
  EXPECT_FALSE(store.Contains(-999));
  EXPECT_EQ(store.Find(-999), nullptr);
  const float* found = store.Find(Trips()[3].id);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(std::memcmp(found, vectors.Row(3),
                        vectors.cols() * sizeof(float)),
            0);

  // The nearest stored vector to a stored vector is itself, reported under
  // its trajectory id with distance 0.
  const EmbeddingStore::Neighbors near =
      store.Knn({vectors.Row(5), vectors.cols()}, 3);
  ASSERT_EQ(near.size(), 3u);
  EXPECT_EQ(near.ids[0], Trips()[5].id);
  EXPECT_DOUBLE_EQ(near.distances[0], 0.0);
  EXPECT_LE(near.distances[1], near.distances[2]);
}

TEST_F(ServeTest, StoreRejectsDuplicateIdAndDimMismatch) {
  EmbeddingStore store(4);
  const std::vector<float> v{1.0f, 2.0f, 3.0f, 4.0f};
  ASSERT_TRUE(store.Add(7, v).ok());
  const Status dup = store.Add(7, v);
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  const Status bad_dim = store.Add(8, {v.data(), 3});
  EXPECT_EQ(bad_dim.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(ServeTest, StoreSaveLoadRoundTripsBitExactly) {
  const nn::Matrix vectors = Model().Encode(Trips().trajectories());
  EmbeddingStore store(vectors.cols());
  for (size_t i = 0; i < vectors.rows(); ++i) {
    ASSERT_TRUE(
        store.Add(Trips()[i].id, {vectors.Row(i), vectors.cols()}).ok());
  }

  const std::string path = ::testing::TempDir() + "/store.t2vstore";
  ASSERT_TRUE(store.Save(path).ok());
  Result<EmbeddingStore> mapped = EmbeddingStore::LoadMmap(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().size(), store.size());
  EXPECT_EQ(mapped.value().dim(), store.dim());
  // Zero-copy rows read back the exact bytes, and queries match the
  // original store bit for bit.
  for (size_t i = 0; i < vectors.rows(); ++i) {
    const float* vec = mapped.value().Find(Trips()[i].id);
    ASSERT_NE(vec, nullptr);
    EXPECT_EQ(
        std::memcmp(vec, vectors.Row(i), vectors.cols() * sizeof(float)), 0);
  }
  const EmbeddingStore::Neighbors a =
      store.Knn({vectors.Row(2), vectors.cols()}, 5);
  const EmbeddingStore::Neighbors b =
      mapped.value().Knn({vectors.Row(2), vectors.cols()}, 5);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.distances, b.distances);

  // A mapped store keeps growing (owned tail behind the borrowed prefix).
  std::vector<float> extra(vectors.cols(), 0.5f);
  ASSERT_TRUE(mapped.value().Add(-1, extra).ok());
  EXPECT_EQ(mapped.value().size(), store.size() + 1);
  const float* found = mapped.value().Find(-1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(std::memcmp(found, extra.data(), extra.size() * sizeof(float)),
            0);
  std::remove(path.c_str());
}

TEST_F(ServeTest, StoreEmbedsIvfIndexAcrossSnapshots) {
  // An IVF-configured store past the training threshold snapshots its
  // quantizer: reloading under the same config must not retrain (the
  // embedded structure is adopted) and must answer identically.
  core::IndexConfig config;
  config.kind = core::IndexKind::kIvf;
  config.ivf_nlist = 4;
  config.ivf_nprobe = 2;
  config.ivf_train_iters = 3;
  config.ivf_seed = 5;
  config.ivf_train_per_list = 8;

  const size_t d = 8, n = 64;
  Rng rng(77);
  std::vector<float> data(n * d);
  for (float& v : data) v = static_cast<float>(rng.Gaussian());

  EmbeddingStore store(d, config);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add(static_cast<int64_t>(i), {&data[i * d], d}).ok());
  }
  EXPECT_EQ(store.Stats().kind, core::IndexKind::kIvf);
  EXPECT_TRUE(store.Stats().trained);

  const std::string path = ::testing::TempDir() + "/store.ivf.t2vstore";
  ASSERT_TRUE(store.Save(path).ok());

  Result<EmbeddingStore> loaded = EmbeddingStore::LoadMmap(path, config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const core::IndexStats stats = loaded.value().Stats();
  EXPECT_EQ(stats.kind, core::IndexKind::kIvf);
  EXPECT_TRUE(stats.trained);
  EXPECT_EQ(stats.nlist, config.ivf_nlist);
  const std::vector<float> probe(d, 0.25f);
  const EmbeddingStore::Neighbors a = store.Knn(probe, 7);
  const EmbeddingStore::Neighbors b = loaded.value().Knn(probe, 7);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.distances, b.distances);

  // Loading the same snapshot under a different kind rebuilds from rows:
  // the artifact is not locked to the backend that wrote it.
  Result<EmbeddingStore> exact = EmbeddingStore::LoadMmap(path);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact.value().Stats().kind, core::IndexKind::kExact);
  EXPECT_EQ(exact.value().size(), n);
  std::remove(path.c_str());
}

TEST_F(ServeTest, StoreLoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.t2vstore";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a store snapshot", f);
  std::fclose(f);
  Result<EmbeddingStore> r = EmbeddingStore::LoadMmap(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

// End-to-end serving shape: encode through the service, ingest into the
// store, query back — ids and bits line up with the offline pipeline.
TEST_F(ServeTest, ServiceFeedsStoreEndToEnd) {
  EmbeddingService service(&Model(), {});
  EmbeddingStore store(Model().config().hidden);
  for (size_t i = 0; i < 10; ++i) {
    EmbeddingService::EncodeResult result = service.Submit(Trips()[i]).get();
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(store.Add(Trips()[i].id, result.value()).ok());
  }
  const std::vector<float> probe = Model().EncodeOne(Trips()[4]);
  const EmbeddingStore::Neighbors near = store.Knn(probe, 1);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near.ids[0], Trips()[4].id);
  EXPECT_DOUBLE_EQ(near.distances[0], 0.0);
}

// Regression: SizeBuckets(8) used to emit {1,2,4,8,8} — a duplicate final
// bound that tripped the strictly-ascending CHECK in the Histogram
// constructor. Sweep every max up to 64 and construct the histogram each
// time (the construction *is* the assertion).
TEST(HistogramTest, SizeBucketsAreStrictlyAscendingForEveryMax) {
  for (size_t max = 0; max <= 64; ++max) {
    const std::vector<double> bounds = SizeBuckets(max);
    ASSERT_FALSE(bounds.empty()) << "max " << max;
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]) << "max " << max << ", bound " << i;
    }
    EXPECT_DOUBLE_EQ(bounds.back(),
                     static_cast<double>(max < 1 ? 1 : max));
    Histogram h(bounds);  // Would CHECK-abort on a duplicate bound.
    h.Observe(static_cast<double>(max));
    EXPECT_EQ(h.count(), 1);
  }
}

// Regression: an empty histogram used to report "min": 0, "max": 0 —
// indistinguishable from a real observation at zero. Empty statistics must
// be null.
TEST(HistogramTest, EmptyHistogramReportsNullStats) {
  const Histogram empty(LatencyBucketsUs());
  const std::string json = empty.ToJson();
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos) << json;
  for (const char* key : {"\"min\"", "\"max\"", "\"p50\"", "\"p90\"",
                          "\"p99\""}) {
    EXPECT_NE(json.find(std::string(key) + ": null"), std::string::npos)
        << "missing " << key << ": null in " << json;
  }

  Histogram one(LatencyBucketsUs());
  one.Observe(75.0);
  const std::string filled = one.ToJson();
  EXPECT_EQ(filled.find("null"), std::string::npos) << filled;
  EXPECT_NE(filled.find("\"min\": 75"), std::string::npos) << filled;
  EXPECT_NE(filled.find("\"max\": 75"), std::string::npos) << filled;
}

TEST(HistogramTest, QuantileEdgesAreExactMinAndMax) {
  Histogram h(LatencyBucketsUs());
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);  // Empty: defined as 0.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.0);
  h.Observe(120.0);
  h.Observe(900.0);
  h.Observe(4500.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 120.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4500.0);
}

// The documented writer/reader contract under real contention: Observe
// takes the histogram mutex exclusively, snapshots (ToJson/count/Quantile)
// take it shared. Every observation must land — a torn update or a lost
// increment shows up as a wrong final count (and as a race under the TSan
// concurrency gate, which runs this binary).
TEST(HistogramTest, ConcurrentObserveAndSnapshotKeepExactCounts) {
  Histogram h(LatencyBucketsUs());
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 500;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&h, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        h.Observe(50.0 + static_cast<double>((w * kPerWriter + i) % 1000));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 50; ++i) {
        // Snapshots mid-stream must be internally consistent, never torn:
        // whatever count a reader sees, the JSON must parse back the same.
        const std::string json = h.ToJson();
        EXPECT_NE(json.find("\"count\": "), std::string::npos);
        (void)h.Quantile(0.5);
        (void)h.count();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kWriters * kPerWriter);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 50.0);
}

// Regression: the store's Knn inherited VectorIndex's CHECK-abort when a
// client asked for more neighbors than the store held (or queried an empty
// store).
TEST_F(ServeTest, StoreKnnClampsKAndHandlesEmptyStore) {
  const size_t dim = Model().config().hidden;
  EmbeddingStore empty(dim);
  const std::vector<float> probe = Model().EncodeOne(Trips()[0]);
  EXPECT_EQ(empty.Knn(probe, 10).size(), 0u);

  EmbeddingStore store(dim);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Add(Trips()[i].id, Model().EncodeOne(Trips()[i])).ok());
  }
  const EmbeddingStore::Neighbors all = store.Knn(probe, 100);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(all.ids[0], Trips()[0].id);
}

}  // namespace
}  // namespace t2vec::serve
