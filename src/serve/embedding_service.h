#ifndef T2VEC_SERVE_EMBEDDING_SERVICE_H_
#define T2VEC_SERVE_EMBEDDING_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/t2vec.h"
#include "serve/metrics.h"
#include "traj/trajectory.h"

/// \file
/// Online embedding service: the paper's encode-once/query-many deployment
/// shape (Sec. IV-D). A long-lived encoder is fronted by a bounded request
/// queue; a dispatcher thread coalesces concurrent Submit() calls into
/// micro-batches of the oldest pending requests, whatever their token
/// lengths, and flushes each through the encoder's packed batch forward
/// (nn/gru.h `ForwardPacked`).
///
/// Determinism contract (DESIGN.md "Serving"): the packed forward computes
/// each row over its own tokens only, and the encoder's per-row
/// floating-point chains never cross rows, so the vector returned for a
/// request is bit-identical to `T2Vec::EncodeOne` on the same trajectory —
/// at any thread count, any arrival order, and any batch composition.
///
/// Overload and cancellation are explicit:
///  - a full queue rejects new work immediately with kUnavailable,
///  - a Submit() after Shutdown() rejects with kUnavailable,
///  - a request whose deadline has passed when its batch is assembled is
///    completed with kDeadlineExceeded instead of being encoded (expired
///    requests can therefore never wedge Shutdown's drain).

namespace t2vec::serve {

/// Tuning knobs for the micro-batcher.
struct ServiceOptions {
  /// Max requests waiting to be encoded; Submit() beyond this rejects with
  /// kUnavailable (backpressure, never blocking the caller).
  size_t queue_capacity = 256;
  /// Max requests per micro-batch flush.
  size_t max_batch = 32;
  /// Spacing of partial flushes, and the longest a request waits for
  /// company: a batch that cannot fill is flushed one window after the
  /// earlier of its oldest request's arrival and the previous flush's start
  /// (the service's start counts as the first flush), so a request that
  /// finds the dispatcher idle for a window is encoded at once. 0 = flush
  /// eagerly.
  std::chrono::microseconds batch_window{500};
};

/// A single-model online encoder with micro-batching.
class EmbeddingService {
 public:
  using Clock = std::chrono::steady_clock;
  /// Every submitted request resolves to a representation vector or an
  /// error status (kUnavailable / kDeadlineExceeded).
  using EncodeResult = Result<std::vector<float>>;

  /// `model` must outlive the service.
  EmbeddingService(const core::T2Vec* model, ServiceOptions options = {});
  /// Drains in-flight work (equivalent to Shutdown()).
  ~EmbeddingService();

  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// Enqueues one trajectory for encoding. Never blocks: when the queue is
  /// full or the service is shut down, the returned future is immediately
  /// ready with a kUnavailable status.
  std::future<EncodeResult> Submit(const traj::Trajectory& trip);

  /// Like Submit, but the request is abandoned with kDeadlineExceeded if
  /// its micro-batch has not been assembled by `deadline`. This is what the
  /// TCP server maps the wire-level deadline_ms field onto.
  std::future<EncodeResult> SubmitWithDeadline(const traj::Trajectory& trip,
                                               Clock::time_point deadline);

  /// Stops accepting work, drains every queued request (encoding the live
  /// ones, expiring the late ones), and joins the dispatcher. Idempotent.
  void Shutdown();

  /// Serving metrics (live; snapshot with metrics().ToJson()).
  const ServeMetrics& metrics() const { return metrics_; }

  size_t queue_capacity() const { return options_.queue_capacity; }

 private:
  struct Request {
    traj::TokenSeq tokens;
    std::promise<EncodeResult> promise;
    Clock::time_point enqueue_time;
    Clock::time_point deadline;
    bool has_deadline = false;
  };

  std::future<EncodeResult> SubmitInternal(const traj::Trajectory& trip,
                                           Clock::time_point deadline,
                                           bool has_deadline);
  void DispatchLoop();
  /// Pops up to max_batch requests from the queue head (FIFO).
  std::vector<Request> TakeBatchLocked() REQUIRES(mu_);
  /// Encodes `batch` and fulfills its promises (no locks held).
  void Flush(std::vector<Request> batch) EXCLUDES(mu_);

  const core::T2Vec* model_;
  const ServiceOptions options_;
  ServeMetrics metrics_;

  sync::Mutex mu_;
  sync::CondVar work_cv_;  // Dispatcher: work queued or stop.
  std::deque<Request> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  /// Serializes the dispatcher join in Shutdown(); never taken with mu_.
  sync::Mutex join_mu_;
  std::thread dispatcher_;
};

}  // namespace t2vec::serve

#endif  // T2VEC_SERVE_EMBEDDING_SERVICE_H_
