#ifndef T2VEC_CORE_T2VEC_H_
#define T2VEC_CORE_T2VEC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/model.h"
#include "core/trainer.h"
#include "dist/measure.h"
#include "geo/vocab.h"
#include "traj/dataset.h"

/// \file
/// The library's main entry point: the end-to-end t2vec pipeline.
///
/// Training (T2Vec::Train) runs the paper's full recipe:
///   1. build the hot-cell vocabulary over the training trips (Sec. IV-B),
///   2. precompute the K-nearest-cell kernel table (Sec. IV-C),
///   3. pretrain cell embeddings with Algorithm 1 (unless disabled),
///   4. generate the r1 x r2 grid of (variant, original) pairs,
///   5. train the seq2seq model with the configured loss (L1/L2/L3),
///      Adam, gradient clipping, and validation early stopping.
///
/// A trained model encodes any trajectory into a |v|-dimensional vector in
/// O(n) and measures similarity as the Euclidean distance between vectors in
/// O(|v|) (Sec. IV-D).

namespace t2vec::core {

/// A trained t2vec model: vocabulary + encoder-decoder weights.
class T2Vec {
 public:
  /// Runs the full training pipeline on `trips` after validating the config
  /// and the inputs; invalid configs and empty training sets surface as an
  /// InvalidArgument status instead of aborting. `stats`, if non-null,
  /// receives the training run summary.
  static Result<T2Vec> TrainChecked(const std::vector<traj::Trajectory>& trips,
                                    const T2VecConfig& config,
                                    TrainStats* stats = nullptr);

  /// CHECK-failing convenience wrapper around TrainChecked for callers that
  /// treat a bad config as a programming error.
  static T2Vec Train(const std::vector<traj::Trajectory>& trips,
                     const T2VecConfig& config, TrainStats* stats = nullptr);

  /// Encodes trajectories into an N x hidden matrix of representations.
  nn::Matrix Encode(const std::vector<traj::Trajectory>& trips) const;

  /// Encodes a single trajectory.
  std::vector<float> EncodeOne(const traj::Trajectory& trip) const;

  /// Tokenizes a trajectory exactly the way the encoder consumes it
  /// (reversed when config().reverse_source). Tokenize once, then batch
  /// with EncodeTokenized — the serving layer tokenizes on the caller's
  /// thread this way and batches without re-tokenizing.
  traj::TokenSeq EncoderTokens(const traj::Trajectory& trip) const {
    return TokenizeForEncoder(trip);
  }

  /// Batch-encodes pre-tokenized sequences (one packed forward pass):
  /// returns an N x hidden matrix whose row i is the representation of
  /// seqs[i]. Row i depends only on seqs[i] — per-row results are
  /// bit-identical to EncodeOne across batch compositions of any lengths,
  /// which is the contract the serving layer's micro-batching relies on.
  nn::Matrix EncodeTokenized(const std::vector<traj::TokenSeq>& seqs) const;

  /// Euclidean distance between the two trajectories' representations.
  /// O(n + |v|) total (paper Sec. IV-D).
  double Distance(const traj::Trajectory& a, const traj::Trajectory& b) const;

  /// Reconstructs the most likely dense route of a sparse/noisy trajectory
  /// by greedy decoding (the paper's P(R|T) objective, Sec. IV-A): returns
  /// the decoded hot-cell centers. `max_len` bounds the decoded length
  /// (0 = 4x the input length).
  traj::Trajectory ReconstructRoute(const traj::Trajectory& sparse,
                                    size_t max_len = 0) const;

  /// Serializes config, vocabulary, and weights into one file.
  Status Save(const std::string& path) const;

  /// Restores a model written by Save().
  static Result<T2Vec> Load(const std::string& path);

  const T2VecConfig& config() const { return config_; }
  const geo::HotCellVocab& vocab() const { return *vocab_; }
  EncoderDecoder& model() { return *model_; }
  const EncoderDecoder& model() const { return *model_; }

  T2Vec(T2Vec&&) = default;
  T2Vec& operator=(T2Vec&&) = default;

 private:
  /// Tokenizes a trajectory the way the encoder expects (reversed when
  /// config_.reverse_source is set).
  traj::TokenSeq TokenizeForEncoder(const traj::Trajectory& trip) const;

  T2Vec(T2VecConfig config, std::unique_ptr<geo::HotCellVocab> vocab,
        std::unique_ptr<EncoderDecoder> model)
      : config_(config),
        vocab_(std::move(vocab)),
        model_(std::move(model)) {}

  T2VecConfig config_;
  std::unique_ptr<geo::HotCellVocab> vocab_;
  std::unique_ptr<EncoderDecoder> model_;
};

/// Adapter exposing a trained T2Vec as a dist::Measure so the evaluation
/// harness can rank it alongside the classical baselines. A bounded memo
/// cache keyed by a trajectory fingerprint stores recent representations,
/// so ranking loops that compare a query against a whole database encode
/// each trajectory once instead of O(n) times per pair. Thread-safe (the
/// harness calls Distance from parallel query loops); batch experiments
/// should still precompute vectors via T2Vec::Encode.
class T2VecMeasure : public dist::Measure {
 public:
  /// `capacity` bounds the memo cache (entries, FIFO eviction; 0 disables
  /// caching entirely).
  explicit T2VecMeasure(const T2Vec* model, size_t capacity = 1024);
  ~T2VecMeasure() override;

  double Distance(const traj::Trajectory& a,
                  const traj::Trajectory& b) const override;
  std::string Name() const override { return "t2vec"; }

  /// Cache diagnostics (for tests and tuning).
  size_t cache_hits() const;
  size_t cache_misses() const;

 private:
  struct Memo;
  /// The representation of `t`, from the memo cache when present.
  std::vector<float> Encoded(const traj::Trajectory& t) const;

  const T2Vec* model_;
  std::unique_ptr<Memo> memo_;
};

}  // namespace t2vec::core

#endif  // T2VEC_CORE_T2VEC_H_
