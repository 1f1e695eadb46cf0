#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/macros.h"

namespace t2vec {

namespace {

// Set while a thread (worker or participating caller) executes pool tasks.
thread_local bool tls_in_parallel_region = false;

// The calling thread's innermost ScopedNumThreads value; 0 = no scope.
thread_local int tls_scoped_threads = 0;

// Resolved once, at first use: reading the environment and probing the CPU
// cost microseconds per call, which the per-GEMM lookups cannot afford.
int DefaultNumThreads() {
  static const int resolved = [] {
    if (const char* env = std::getenv("T2VEC_THREADS")) {
      const int n = std::atoi(env);
      if (n > 0) return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return resolved;
}

// 0 means "unset, fall back to DefaultNumThreads()".
std::atomic<int> g_num_threads{0};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;
  mu_.Lock();
  for (;;) {
    while (!stop_ && next_task_ >= queue_.size()) work_cv_.Wait(&mu_);
    if (stop_) break;
    DrainQueue();
  }
  mu_.Unlock();
}

void ThreadPool::DrainQueue() {
  while (next_task_ < queue_.size()) {
    std::function<void()> task = std::move(queue_[next_task_++]);
    mu_.Unlock();
    task();
    mu_.Lock();
    if (--in_flight_ == 0) done_cv_.NotifyAll();
  }
}

void ThreadPool::Run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  // One batch at a time; a second caller waits here, not on a corrupt queue.
  sync::MutexLock run_lock(&run_mu_);
  mu_.Lock();
  T2VEC_CHECK(in_flight_ == 0 && next_task_ == queue_.size());
  queue_ = std::move(tasks);
  next_task_ = 0;
  in_flight_ = queue_.size();
  work_cv_.NotifyAll();

  // Participate instead of idling, then wait for stragglers.
  const bool was_in_region = tls_in_parallel_region;
  tls_in_parallel_region = true;
  DrainQueue();
  tls_in_parallel_region = was_in_region;
  while (in_flight_ != 0) done_cv_.Wait(&mu_);
  queue_.clear();
  next_task_ = 0;
  mu_.Unlock();
}

ThreadPool& ThreadPool::Global() {
  // Sized once at first use; SetNumThreads and ScopedNumThreads then only
  // change how many chunks ParallelFor creates, not the pool size.
  // Intentionally leaked so tasks running during static destruction never
  // touch a dead pool.
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void SetNumThreads(int n) { g_num_threads.store(n > 0 ? n : 0); }

int GetNumThreads() {
  if (tls_scoped_threads > 0) return tls_scoped_threads;
  const int n = g_num_threads.load();
  return n > 0 ? n : DefaultNumThreads();
}

ScopedNumThreads::ScopedNumThreads(int n)
    : active_(n > 0), prev_(tls_scoped_threads) {
  if (active_) tls_scoped_threads = n;
}

ScopedNumThreads::~ScopedNumThreads() {
  if (active_) tls_scoped_threads = prev_;
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn, int num_threads) {
  if (end <= begin) return;
  const size_t n = end - begin;
  // The cheap inline checks come first, so a loop that runs inline never
  // reads the thread count.
  int threads = 1;
  if (n > std::max<size_t>(grain, 1) && !ThreadPool::InParallelRegion()) {
    threads = num_threads > 0 ? num_threads : GetNumThreads();
  }
  if (threads <= 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Static partitioning: chunk boundaries depend only on (n, chunks), so the
  // work assignment — and with the disjoint-writes contract, the result —
  // is identical no matter how the chunks are scheduled onto workers.
  const size_t max_chunks = (n + grain - 1) / std::max<size_t>(grain, 1);
  const size_t chunks = std::min<size_t>(static_cast<size_t>(threads),
                                         std::max<size_t>(max_chunks, 1));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t chunk_begin = begin + (n * c) / chunks;
    const size_t chunk_end = begin + (n * (c + 1)) / chunks;
    tasks.emplace_back([chunk_begin, chunk_end, &fn] {
      for (size_t i = chunk_begin; i < chunk_end; ++i) fn(i);
    });
  }
  ThreadPool::Global().Run(std::move(tasks));
}

}  // namespace t2vec
