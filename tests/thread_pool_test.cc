// Tests of the deterministic parallelism subsystem (common/thread_pool.h):
// ParallelFor correctness under every partitioning, nesting and concurrent
// callers (the interesting cases under TSan — this binary is the designated
// thread-pool exercise when configured with -DT2VEC_SANITIZE=thread), and
// the headline guarantee: Encode, VectorIndex::Query, dist::KnnQuery, and
// trajectory generation produce bit-identical results at 1, 2, 3 and 8
// threads.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/t2vec.h"
#include "core/vec_index.h"
#include "dist/classic.h"
#include "dist/knn.h"
#include "traj/generator.h"

namespace t2vec {
namespace {

// Restores the process-wide thread count on scope exit so tests compose.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 3, 8}) {
    for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      for (size_t grain : {1u, 4u, 300u}) {
        std::vector<int> visits(n, 0);
        ParallelFor(0, n, grain, [&](size_t i) { visits[i]++; }, threads);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(visits[i], 1) << "threads=" << threads << " n=" << n
                                  << " grain=" << grain << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForHonorsSubrange) {
  std::vector<int> visits(100, 0);
  ParallelFor(10, 90, 1, [&](size_t i) { visits[i]++; }, 4);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(visits[i], (i >= 10 && i < 90) ? 1 : 0);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndStaysCorrect) {
  constexpr size_t kOuter = 16, kInner = 32;
  std::vector<uint64_t> sums(kOuter, 0);
  ParallelFor(0, kOuter, 1, [&](size_t i) {
    // The nested loop must run inline on the worker (deadlock-free) and
    // still cover its whole range.
    ParallelFor(0, kInner, 1, [&](size_t j) { sums[i] += j + i; }, 8);
  }, 8);
  for (size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(sums[i], kInner * i + kInner * (kInner - 1) / 2);
  }
}

TEST(ThreadPoolTest, ConcurrentCallersFromDistinctThreads) {
  // Two user threads issuing ParallelFor simultaneously must serialize on
  // the pool without corrupting either result.
  constexpr size_t kN = 4096;
  std::vector<uint32_t> a(kN, 0), b(kN, 0);
  std::thread ta([&] {
    ParallelFor(0, kN, 16, [&](size_t i) { a[i] = static_cast<uint32_t>(i); },
                4);
  });
  std::thread tb([&] {
    ParallelFor(0, kN, 16,
                [&](size_t i) { b[i] = static_cast<uint32_t>(2 * i); }, 4);
  });
  ta.join();
  tb.join();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i], i);
    ASSERT_EQ(b[i], 2 * i);
  }
}

TEST(ThreadPoolTest, SetNumThreadsOverridesAndRestores) {
  ThreadCountGuard guard;
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3);
  SetNumThreads(0);
  EXPECT_GE(GetNumThreads(), 1);
}

// Scoped overrides are per thread: two threads looping overlapping nested
// scopes each read only their own values, and neither leaks into the
// process-wide setting however the scopes interleave. SetNumThreads stays
// process-wide.
TEST(ThreadPoolTest, ScopedNumThreadsIsThreadLocal) {
  ThreadCountGuard guard;
  const int base = GetNumThreads();
  std::atomic<int> mismatches{0};
  auto loop_scopes = [&](int outer, int inner) {
    for (int i = 0; i < 2000; ++i) {
      const ScopedNumThreads outer_scope(outer);
      if (GetNumThreads() != outer) ++mismatches;
      {
        const ScopedNumThreads inner_scope(inner);
        if (GetNumThreads() != inner) ++mismatches;
        const ScopedNumThreads no_op(0);  // n <= 0 leaves the scope alone.
        if (GetNumThreads() != inner) ++mismatches;
      }
      if (GetNumThreads() != outer) ++mismatches;
    }
    if (GetNumThreads() != base) ++mismatches;
  };
  std::thread a(loop_scopes, 2, 3);
  std::thread b(loop_scopes, 3, 2);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(GetNumThreads(), base);

  SetNumThreads(5);
  int seen_by_other_thread = 0;
  std::thread reader([&] { seen_by_other_thread = GetNumThreads(); });
  reader.join();
  EXPECT_EQ(seen_by_other_thread, 5);
  {
    const ScopedNumThreads scope(2);
    EXPECT_EQ(GetNumThreads(), 2);  // The scope wins on its own thread.
  }
  EXPECT_EQ(GetNumThreads(), 5);
}

// The default count is resolved once, at first use: a later change to
// T2VEC_THREADS is ignored, so hot paths never re-read the environment.
TEST(ThreadPoolTest, DefaultIgnoresLaterEnvironmentChanges) {
  ThreadCountGuard guard;
  SetNumThreads(0);
  const int resolved = GetNumThreads();
  const char* prior = std::getenv("T2VEC_THREADS");
  const std::string saved = prior != nullptr ? prior : "";
  ASSERT_EQ(::setenv("T2VEC_THREADS", std::to_string(resolved + 3).c_str(),
                     /*overwrite=*/1),
            0);
  EXPECT_EQ(GetNumThreads(), resolved);
  if (prior != nullptr) {
    ::setenv("T2VEC_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("T2VEC_THREADS");
  }
}

// --- Bit-identical results across thread counts --------------------------

class DeterminismTest : public ::testing::Test {
 protected:
  static const traj::Dataset& Trips() {
    static traj::Dataset* trips = [] {
      traj::SyntheticTrajectoryGenerator generator(
          traj::GeneratorConfig::PortoLike());
      // > 256 trips so Encode spans multiple parallel slices.
      return new traj::Dataset(generator.Generate(300));
    }();
    return *trips;
  }

  static const core::T2Vec& Model() {
    static core::T2Vec* model = [] {
      core::T2VecConfig config;
      config.hidden = 24;
      config.embed_dim = 16;
      config.layers = 1;
      config.max_iterations = 8;
      config.validate_every = 100;
      config.pretrain_epochs = 1;
      config.r1_grid = {0.0, 0.4};
      config.r2_grid = {0.0};
      std::vector<traj::Trajectory> train(
          Trips().trajectories().begin(),
          Trips().trajectories().begin() + 120);
      return new core::T2Vec(core::T2Vec::Train(train, config));
    }();
    return *model;
  }

  template <typename Fn>
  static void ExpectIdenticalAcrossThreadCounts(const Fn& fn) {
    ThreadCountGuard guard;
    SetNumThreads(1);
    const auto serial = fn();
    for (int threads : {2, 3, 8}) {
      SetNumThreads(threads);
      const auto parallel = fn();
      ASSERT_EQ(serial, parallel) << "at " << threads << " threads";
    }
  }
};

TEST_F(DeterminismTest, EncodeIsBitIdentical) {
  ThreadCountGuard guard;
  SetNumThreads(1);
  const nn::Matrix serial = Model().Encode(Trips().trajectories());
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    const nn::Matrix parallel = Model().Encode(Trips().trajectories());
    ASSERT_EQ(serial.rows(), parallel.rows());
    ASSERT_EQ(serial.cols(), parallel.cols());
    ASSERT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(float)),
              0)
        << "Encode diverged at " << threads << " threads";
  }
}

TEST_F(DeterminismTest, VectorIndexKnnAndRankAreBitIdentical) {
  // The encoded trips, padded with uniform rows to a little over three scan
  // chunks, so the chunk-local top-k and its merge run at every thread
  // count. NaN rows sit on both sides of the first chunk boundary.
  const nn::Matrix encoded = Model().Encode(Trips().trajectories());
  const size_t d = encoded.cols();
  const size_t n = 3 * core::kScanChunkRows + 777;
  nn::Matrix vecs(n, d);
  Rng rng(29);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < d; ++j) {
      vecs(r, j) = r < encoded.rows()
                       ? encoded(r, j)
                       : static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  for (const size_t r : {core::kScanChunkRows - 2, core::kScanChunkRows - 1,
                         core::kScanChunkRows, core::kScanChunkRows + 1}) {
    vecs(r, r % d) = std::numeric_limits<float>::quiet_NaN();
  }
  const core::VectorIndex index{nn::Matrix(vecs)};
  // Ids, distance bits and ranks in one comparable vector.
  const auto append = [](const core::KnnResult& knn,
                         std::vector<uint64_t>* out) {
    for (size_t i = 0; i < knn.size(); ++i) {
      out->push_back(knn.ids[i]);
      out->push_back(std::bit_cast<uint64_t>(knn.distances[i]));
    }
  };
  ExpectIdenticalAcrossThreadCounts([&] {
    std::vector<uint64_t> out;
    for (size_t q = 0; q < 8; ++q) {
      append(index.Query({vecs.Row(q), d}, 10), &out);
      out.push_back(index.RankOf(vecs.Row(q), q));
    }
    // k = Size(): every chunk keeps all of its rows and the merge orders
    // the whole store, in O(n log n) rather than O(n * k).
    const core::KnnResult all = index.Query({vecs.Row(8), d}, index.Size());
    EXPECT_EQ(all.size(), n);
    EXPECT_EQ(all.ids.back(), core::kScanChunkRows + 1);  // NaNs order last.
    append(all, &out);
    return out;
  });
}

TEST_F(DeterminismTest, LshKnnIsBitIdentical) {
  const nn::Matrix vecs = Model().Encode(Trips().trajectories());
  ExpectIdenticalAcrossThreadCounts([&] {
    core::LshIndex lsh(vecs, /*num_tables=*/4, /*num_bits=*/8, /*seed=*/3);
    std::vector<size_t> out;
    for (size_t q = 0; q < 8; ++q) {
      const auto knn = lsh.Query({vecs.Row(q), vecs.cols()}, 10);
      out.insert(out.end(), knn.ids.begin(), knn.ids.end());
    }
    return out;
  });
}

TEST_F(DeterminismTest, ClassicalKnnSearchIsBitIdentical) {
  const std::vector<traj::Trajectory>& db = Trips().trajectories();
  const dist::DtwMeasure dtw;
  ExpectIdenticalAcrossThreadCounts([&] {
    std::vector<size_t> out;
    for (size_t q = 0; q < 4; ++q) {
      const auto knn = dist::KnnQuery(dtw, db[q], db, 5);
      out.insert(out.end(), knn.ids.begin(), knn.ids.end());
      out.push_back(dist::RankOf(dtw, db[q], db, q));
    }
    return out;
  });
}

TEST_F(DeterminismTest, GeneratorIsBitIdenticalAndOrderIndependent) {
  const traj::SyntheticTrajectoryGenerator generator(
      traj::GeneratorConfig::PortoLike());
  ThreadCountGuard guard;
  SetNumThreads(1);
  const traj::Dataset serial = generator.Generate(40);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    const traj::Dataset parallel = generator.Generate(40);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].points, parallel[i].points)
          << "trip " << i << " at " << threads << " threads";
    }
  }
  // Trip i is a pure function of (config, i): single-trip generation
  // reproduces the batch exactly.
  for (size_t i : {0u, 7u, 39u}) {
    const traj::Trajectory one =
        generator.GenerateOne(static_cast<int64_t>(i), nullptr);
    EXPECT_EQ(one.points, serial[i].points);
  }
}

}  // namespace
}  // namespace t2vec
