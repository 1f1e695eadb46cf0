#ifndef T2VEC_COMMON_THREAD_POOL_H_
#define T2VEC_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

/// \file
/// Deterministic data parallelism for the read-side hot paths.
///
/// The design goal is *bit-identical results at every thread count*. That is
/// achieved by restricting parallelism to loops whose iterations are
/// independent and write to disjoint outputs: `ParallelFor` splits the index
/// range into contiguous chunks by **static partitioning** (a pure function
/// of the range and the thread count, never of scheduling order), and all
/// cross-iteration combining — sorts, reductions over floating-point values —
/// stays serial at the call site. Under that contract the outputs of a
/// parallel run and a serial run are the same bytes, which keeps the model
/// cache, the benchmark tables, and every test reproducible regardless of
/// `T2VEC_THREADS`.
///
/// Thread-count resolution, in decreasing priority:
///   1. an explicit `num_threads` argument to `ParallelFor` (> 0),
///   2. the calling thread's innermost `ScopedNumThreads` (thread-local),
///   3. the process-wide value set by `SetNumThreads` (tests, config wiring),
///   4. the default: the `T2VEC_THREADS` environment variable, else
///      `std::thread::hardware_concurrency()`. It is resolved once, at first
///      use (the same moment the global pool is sized), so a later change to
///      the environment is ignored and no hot path re-reads it.
///
/// `ParallelFor` and the GEMM kernels consult the count only after their
/// cheap inline checks (tiny ranges, nested calls), so a call that runs
/// inline reads no global state at all.
///
/// Nested `ParallelFor` calls run inline on the calling worker: the inner
/// loop's work is already covered by the outer partitioning, and running it
/// inline makes nesting deadlock-free by construction.

namespace t2vec {

/// A fixed set of worker threads executing submitted closures. Construction
/// is cheap relative to the loops it serves; most code should use the
/// process-wide instance behind `ParallelFor` rather than building pools.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Number of worker threads.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs every task to completion before returning. The caller participates
  /// (it executes queued tasks too), so a pool of W workers gives W + 1
  /// concurrent lanes and `Run` never blocks on an idle queue.
  void Run(std::vector<std::function<void()>> tasks);

  /// Lazily constructed process-wide pool sized by the default thread count
  /// (`T2VEC_THREADS`, else hardware concurrency). Never destroyed before
  /// process exit.
  static ThreadPool& Global();

  /// True when called from inside a `Run` task (worker or participating
  /// caller); used to run nested parallel loops inline.
  static bool InParallelRegion();

 private:
  void WorkerLoop();
  /// Pops and runs queued tasks until the queue drains; returns when empty.
  /// Drops mu_ around each task body and reacquires it to pop the next.
  void DrainQueue() REQUIRES(mu_);

  std::vector<std::thread> workers_;
  /// Serializes concurrent Run() callers; held across the whole batch, so
  /// it is always taken before mu_.
  sync::Mutex run_mu_ ACQUIRED_BEFORE(mu_);
  sync::Mutex mu_;
  sync::CondVar work_cv_;  // Signals workers: task queued or stop.
  sync::CondVar done_cv_;  // Signals Run(): all tasks finished.
  std::vector<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t next_task_ GUARDED_BY(mu_) = 0;  // Queue front (popped in order).
  size_t in_flight_ GUARDED_BY(mu_) = 0;  // Queued but not yet finished.
  bool stop_ GUARDED_BY(mu_) = false;
};

/// Sets the process-wide thread count used when no explicit override is
/// given. `n <= 0` restores the default (`T2VEC_THREADS` env, then hardware
/// concurrency, resolved once). Thread-safe; mainly for tests and benchmark
/// harnesses.
void SetNumThreads(int n);

/// The thread count `ParallelFor` resolves to when `num_threads <= 0`: the
/// calling thread's scoped override, else the process-wide setting, else
/// the default.
int GetNumThreads();

/// RAII override of the thread count for the calling thread only (restores
/// the previous scoped value on destruction; scopes nest). `n <= 0` leaves
/// the current setting untouched. Other threads — including a concurrent
/// scope on another thread — never see it, so overlapping scopes on
/// different threads cannot leak into each other or into the process-wide
/// setting. Used by the trainer to scope `T2VecConfig::num_threads` to
/// RunBatch.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n);
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  bool active_;
  int prev_;
};

/// Applies `fn(i)` for every i in [begin, end), in parallel over at most
/// `num_threads` statically partitioned contiguous chunks.
///
/// Determinism contract: `fn` must write only to outputs owned by iteration
/// i (disjoint across iterations) and must not read outputs of other
/// iterations; under that contract the result is bit-identical to the serial
/// loop for every thread count. `grain` is the minimum chunk size — ranges
/// of at most `grain` iterations (and nested calls) run inline serially.
/// `num_threads <= 0` uses `GetNumThreads()`.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn, int num_threads = 0);

}  // namespace t2vec

#endif  // T2VEC_COMMON_THREAD_POOL_H_
