#include "serve/embedding_service.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/macros.h"
#include "nn/matrix.h"

namespace t2vec::serve {

namespace {

double ElapsedUs(EmbeddingService::Clock::time_point from,
                 EmbeddingService::Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

EmbeddingService::EmbeddingService(const core::T2Vec* model,
                                   ServiceOptions options)
    : model_(model), options_(options) {
  T2VEC_CHECK(model_ != nullptr);
  T2VEC_CHECK(options_.queue_capacity >= 1);
  T2VEC_CHECK(options_.max_batch >= 1);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

EmbeddingService::~EmbeddingService() { Shutdown(); }

std::future<EmbeddingService::EncodeResult> EmbeddingService::Submit(
    const traj::Trajectory& trip) {
  return SubmitInternal(trip, Clock::time_point{}, /*has_deadline=*/false);
}

std::future<EmbeddingService::EncodeResult>
EmbeddingService::SubmitWithDeadline(const traj::Trajectory& trip,
                                     Clock::time_point deadline) {
  return SubmitInternal(trip, deadline, /*has_deadline=*/true);
}

std::future<EmbeddingService::EncodeResult> EmbeddingService::SubmitInternal(
    const traj::Trajectory& trip, Clock::time_point deadline,
    bool has_deadline) {
  Request request;
  // Tokenize on the caller's thread: it is cheap relative to the encode and
  // keeps the dispatcher's critical path free of per-request work.
  request.tokens = model_->EncoderTokens(trip);
  request.enqueue_time = Clock::now();
  request.deadline = deadline;
  request.has_deadline = has_deadline;
  std::future<EncodeResult> future = request.promise.get_future();

  {
    sync::MutexLock lock(&mu_);
    if (stop_) {
      metrics_.rejected_shutdown.Increment();
      request.promise.set_value(
          Status::Unavailable("EmbeddingService is shut down"));
      return future;
    }
    if (queue_.size() >= options_.queue_capacity) {
      metrics_.rejected_queue_full.Increment();
      request.promise.set_value(Status::Unavailable(
          "EmbeddingService queue full (" +
          std::to_string(options_.queue_capacity) + " pending)"));
      return future;
    }
    queue_.push_back(std::move(request));
    metrics_.submitted.Increment();
    metrics_.queue_depth.Observe(static_cast<double>(queue_.size()));
  }
  work_cv_.NotifyOne();
  return future;
}

void EmbeddingService::Shutdown() {
  {
    sync::MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  // joinable() flips to false under join_mu_, making Shutdown idempotent
  // and safe to race with itself (and with the destructor).
  sync::MutexLock join_lock(&join_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::vector<EmbeddingService::Request> EmbeddingService::TakeBatchLocked() {
  // The FIFO head, whatever the token lengths: the packed forward gives
  // every row EncodeOne's bits in any batch.
  const size_t take = std::min(options_.max_batch, queue_.size());
  std::vector<Request> batch(std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(queue_.begin() + take));
  queue_.erase(queue_.begin(), queue_.begin() + take);
  return batch;
}

void EmbeddingService::Flush(std::vector<Request> batch) {
  const Clock::time_point now = Clock::now();
  // Expire overdue requests before paying for the encode. Deadlines are
  // checked here, at batch assembly — an expired request never reaches the
  // encoder and can never wedge the Shutdown() drain.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& request : batch) {
    if (request.has_deadline && request.deadline < now) {
      metrics_.deadline_expired.Increment();
      request.promise.set_value(
          Status::DeadlineExceeded("deadline passed before encoding"));
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  std::vector<traj::TokenSeq> seqs;
  seqs.reserve(live.size());
  for (const Request& request : live) seqs.push_back(request.tokens);

  const Clock::time_point flush_start = Clock::now();
  const nn::Matrix vectors = model_->EncodeTokenized(seqs);
  const Clock::time_point flush_end = Clock::now();

  metrics_.flushes.Increment();
  metrics_.batch_size.Observe(static_cast<double>(live.size()));
  metrics_.flush_latency_us.Observe(ElapsedUs(flush_start, flush_end));
  for (size_t i = 0; i < live.size(); ++i) {
    std::vector<float> vec(vectors.Row(i), vectors.Row(i) + vectors.cols());
    metrics_.request_latency_us.Observe(
        ElapsedUs(live[i].enqueue_time, flush_end));
    metrics_.completed.Increment();
    live[i].promise.set_value(std::move(vec));
  }
}

void EmbeddingService::DispatchLoop() {
  // The service's start counts as the first flush, so requests submitted
  // right after construction still wait a window for company.
  Clock::time_point last_flush = Clock::now();
  // Predicate loops are spelled out (common/sync.h): a wait lambda would be
  // analyzed as its own unlocked function and defeat the GUARDED_BY checks.
  mu_.Lock();
  for (;;) {
    while (!stop_ && queue_.empty()) work_cv_.Wait(&mu_);
    if (queue_.empty()) {
      if (stop_) break;
      continue;
    }
    // Flush when the queue could fill a micro-batch, on stop (drain mode
    // never waits), or one batch window past the earlier of the head
    // request's arrival and the previous flush's start. Waiting only pays
    // while requests queue behind a running flush, so a request that finds
    // the dispatcher idle for a window is encoded at once, and partial
    // flushes under load stay a window apart.
    if (!stop_ && options_.batch_window.count() > 0) {
      const Clock::time_point flush_at =
          std::min(queue_.front().enqueue_time, last_flush) +
          options_.batch_window;
      while (!stop_ && queue_.size() < options_.max_batch) {
        if (work_cv_.WaitUntil(&mu_, flush_at) == std::cv_status::timeout) {
          break;
        }
      }
      if (queue_.empty()) continue;  // Drained by a racing state change.
    }
    last_flush = Clock::now();
    std::vector<Request> batch = TakeBatchLocked();
    mu_.Unlock();
    Flush(std::move(batch));
    mu_.Lock();
  }
  mu_.Unlock();
}

}  // namespace t2vec::serve
