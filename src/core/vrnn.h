#ifndef T2VEC_CORE_VRNN_H_
#define T2VEC_CORE_VRNN_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/loss.h"
#include "geo/vocab.h"
#include "nn/embedding.h"
#include "nn/gru.h"
#include "traj/tokenizer.h"

/// \file
/// The vanilla-RNN embedding baseline (paper Sec. V-A): the same GRU
/// architecture as the t2vec encoder, but trained as a language model — it
/// predicts the next cell given the cells already seen (plain NLL loss, no
/// spatial machinery, no encoder-decoder pairing). The representation is,
/// as in t2vec, the final hidden state of the top layer.

namespace t2vec::core {

/// The vRNN baseline model.
class VRnn {
 public:
  /// Architecture fields (embed_dim, hidden, layers) are taken from
  /// `config`, matching the paper's "same parameters as our encoder-RNN".
  VRnn(const T2VecConfig& config, geo::Token vocab_size, Rng& rng);

  /// Trains on the token sequences with next-cell prediction for
  /// `iterations` batches. Returns the final smoothed per-token loss.
  double Train(const std::vector<traj::TokenSeq>& seqs, size_t iterations,
               Rng& rng);

  /// Encodes sequences into an N x hidden matrix of final hidden states
  /// through the packed encoder forward (core/model.h EncodePacked).
  nn::Matrix EncodeBatch(const std::vector<traj::TokenSeq>& seqs) const;

  size_t hidden() const { return gru_.hidden(); }

  nn::ParamList Params();

 private:
  T2VecConfig config_;
  nn::Embedding embedding_;
  nn::Gru gru_;
  OutputProjection proj_;
};

}  // namespace t2vec::core

#endif  // T2VEC_CORE_VRNN_H_
