#ifndef T2VEC_CORE_MODEL_H_
#define T2VEC_CORE_MODEL_H_

#include <vector>

#include <memory>

#include "common/rng.h"
#include "core/config.h"
#include "core/loss.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/gru.h"
#include "traj/tokenizer.h"

/// \file
/// The t2vec sequence encoder-decoder (paper Sec. III-B, IV).
///
/// Encoder: token embedding -> multi-layer GRU; the trajectory
/// representation v is the top layer's final hidden state.
/// Decoder: a second multi-layer GRU whose per-layer initial states are the
/// encoder's final states; it is trained with teacher forcing to reproduce
/// the original (high-sampling-rate) token sequence, terminated by EOS.
/// The embedding table is shared between encoder and decoder inputs — both
/// sides speak the same cell vocabulary, and the shared table is what cell
/// pretraining (Algorithm 1) initializes.

namespace t2vec::core {

/// A padded batch of training pairs in step-major layout.
struct Batch {
  /// Encoder input tokens per step ([T_src] x B, kPadToken when exhausted).
  std::vector<std::vector<geo::Token>> src_steps;
  /// Encoder masks, aligned with src_steps (1 = active).
  std::vector<std::vector<float>> src_masks;
  /// Decoder input tokens per step: BOS, y_1, ..., y_{T-1}.
  std::vector<std::vector<geo::Token>> dec_input_steps;
  /// Decoder targets per step: y_1, ..., y_T, EOS (kPadToken when done).
  std::vector<std::vector<geo::Token>> target_steps;
  /// Decoder masks aligned with target_steps.
  std::vector<std::vector<float>> tgt_masks;
  size_t batch_size = 0;
  size_t target_tokens = 0;  ///< Active targets (for per-token loss).
};

/// Builds a padded batch from raw (src, tgt) token-sequence pairs.
/// `pairs[i]` pointers must outlive the call. EOS is appended to targets.
Batch BuildBatch(const std::vector<const struct TokenPair*>& pairs);

/// The encoder-decoder model.
class EncoderDecoder {
 public:
  EncoderDecoder(const T2VecConfig& config, geo::Token vocab_size, Rng& rng);

  /// Runs one teacher-forced pass over a batch. Returns the summed loss over
  /// all active target tokens. When `accumulate_grads` is true, gradients of
  /// all parameters are accumulated (call Params()/optimizer afterwards);
  /// when false (validation), parameters are untouched.
  double RunBatch(const Batch& batch, SeqLoss* loss, bool accumulate_grads);

  /// Encodes token sequences into representation vectors: returns an
  /// N x hidden matrix whose row i is v(seqs[i]) — the encoder top layer's
  /// final hidden state. Empty sequences yield the zero vector. Runs the
  /// packed, cache-free Gru::ForwardPacked, so row i has the same bits
  /// whatever the other sequences (and their lengths) are, at any thread
  /// count.
  nn::Matrix EncodeBatch(const std::vector<traj::TokenSeq>& seqs) const;

  OutputProjection& projection() { return proj_; }
  const OutputProjection& projection() const { return proj_; }
  nn::Embedding& embedding() { return embedding_; }
  const nn::Embedding& embedding() const { return embedding_; }
  const nn::Gru& encoder() const { return encoder_; }
  const nn::Gru& decoder() const { return decoder_; }
  bool has_attention() const { return attention_ != nullptr; }
  const nn::Attention* attention() const { return attention_.get(); }

  size_t hidden() const { return encoder_.hidden(); }

  /// All trainable parameters (embedding, both GRUs, projection).
  nn::ParamList Params();

 private:
  /// Embeds one batch step of token ids.
  void EmbedStep(const std::vector<geo::Token>& ids, nn::Matrix* out) const;

  nn::Embedding embedding_;
  nn::Gru encoder_;
  nn::Gru decoder_;
  /// Optional global attention over encoder outputs (config.use_attention).
  std::unique_ptr<nn::Attention> attention_;
  OutputProjection proj_;
  /// Thread-count override scoped to RunBatch (T2VecConfig::num_threads);
  /// the GEMM kernels partition output rows over the pool, bit-identically
  /// to serial at any count (nn/matrix.h).
  int num_threads_ = 0;
};

/// The packed, step-major inference forward behind every encoder: the t2vec
/// encoder and the VRNN baseline. Rows are stably sorted longest first;
/// step t embeds only the tokens of the rows still active and `gru` advances
/// that prefix, so no row is padded or masked. Returns an N x hidden matrix
/// whose row i is the top layer's state after the last token of seqs[i]
/// (the zero vector for an empty sequence), with the same bits whatever
/// the other sequences are, at any thread count.
nn::Matrix EncodePacked(const nn::Embedding& embedding, const nn::Gru& gru,
                        const std::vector<traj::TokenSeq>& seqs);

}  // namespace t2vec::core

#endif  // T2VEC_CORE_MODEL_H_
