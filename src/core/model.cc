#include "core/model.h"

#include <algorithm>
#include <numeric>

#include "common/sort.h"
#include "common/thread_pool.h"
#include "core/pairs.h"

namespace t2vec::core {

Batch BuildBatch(const std::vector<const TokenPair*>& pairs) {
  Batch batch;
  batch.batch_size = pairs.size();
  T2VEC_CHECK(!pairs.empty());

  size_t max_src = 0, max_tgt = 0;
  for (const TokenPair* p : pairs) {
    max_src = std::max(max_src, p->src.size());
    max_tgt = std::max(max_tgt, p->tgt.size() + 1);  // +1 for EOS.
  }
  T2VEC_CHECK(max_src > 0);

  batch.src_steps.assign(max_src,
                         std::vector<geo::Token>(pairs.size(),
                                                 geo::kPadToken));
  batch.src_masks.assign(max_src, std::vector<float>(pairs.size(), 0.0f));
  batch.dec_input_steps.assign(
      max_tgt, std::vector<geo::Token>(pairs.size(), geo::kPadToken));
  batch.target_steps.assign(
      max_tgt, std::vector<geo::Token>(pairs.size(), geo::kPadToken));
  batch.tgt_masks.assign(max_tgt, std::vector<float>(pairs.size(), 0.0f));

  for (size_t b = 0; b < pairs.size(); ++b) {
    const traj::TokenSeq& src = pairs[b]->src;
    const traj::TokenSeq& tgt = pairs[b]->tgt;
    for (size_t t = 0; t < src.size(); ++t) {
      batch.src_steps[t][b] = src[t];
      batch.src_masks[t][b] = 1.0f;
    }
    // Decoder: input BOS, y_1..y_{T-1}; target y_1..y_T, EOS.
    const size_t tgt_len = tgt.size() + 1;
    for (size_t t = 0; t < tgt_len; ++t) {
      batch.dec_input_steps[t][b] =
          (t == 0) ? geo::kBosToken : tgt[t - 1];
      batch.target_steps[t][b] =
          (t < tgt.size()) ? tgt[t] : geo::kEosToken;
      batch.tgt_masks[t][b] = 1.0f;
    }
    batch.target_tokens += tgt_len;
  }
  return batch;
}

EncoderDecoder::EncoderDecoder(const T2VecConfig& config,
                               geo::Token vocab_size, Rng& rng)
    : embedding_(static_cast<size_t>(vocab_size), config.embed_dim, rng),
      encoder_("encoder", config.embed_dim, config.hidden, config.layers,
               rng),
      decoder_("decoder", config.embed_dim, config.hidden, config.layers,
               rng),
      proj_(static_cast<size_t>(vocab_size), config.hidden, rng),
      num_threads_(config.num_threads) {
  if (config.use_attention) {
    attention_ = std::make_unique<nn::Attention>("attn", config.hidden, rng);
  }
}

void EncoderDecoder::EmbedStep(const std::vector<geo::Token>& ids,
                               nn::Matrix* out) const {
  embedding_.Forward(ids, out);
}

double EncoderDecoder::RunBatch(const Batch& batch, SeqLoss* loss,
                                bool accumulate_grads) {
  T2VEC_CHECK(batch.batch_size > 0);
  const ScopedNumThreads thread_scope(num_threads_);
  loss->set_grad_scale(1.0f / static_cast<float>(batch.batch_size));

  // ---- Encoder forward ----
  std::vector<nn::Matrix> enc_xs(batch.src_steps.size());
  for (size_t t = 0; t < batch.src_steps.size(); ++t) {
    EmbedStep(batch.src_steps[t], &enc_xs[t]);
  }
  nn::Gru::ForwardResult enc_result;
  encoder_.Forward(enc_xs, nullptr, batch.src_masks, &enc_result);

  // ---- Decoder forward (teacher forcing) ----
  std::vector<nn::Matrix> dec_xs(batch.dec_input_steps.size());
  for (size_t t = 0; t < batch.dec_input_steps.size(); ++t) {
    EmbedStep(batch.dec_input_steps[t], &dec_xs[t]);
  }
  nn::Gru::ForwardResult dec_result;
  decoder_.Forward(dec_xs, &enc_result.final_state, batch.tgt_masks,
                   &dec_result);

  // ---- Optional attention over the encoder outputs ----
  const std::vector<nn::Matrix>& dec_hs = dec_result.TopOutputs();
  const std::vector<nn::Matrix>& enc_hs = enc_result.TopOutputs();
  nn::AttentionCache attn_cache;
  const std::vector<nn::Matrix>* loss_inputs = &dec_hs;
  if (attention_ != nullptr) {
    attention_->Forward(dec_hs, enc_hs, batch.src_masks, &attn_cache);
    loss_inputs = &attn_cache.output;
  }

  // ---- Loss over every decoder step ----
  std::vector<nn::Matrix> d_loss_inputs(loss_inputs->size());
  double total_loss = 0.0;
  for (size_t t = 0; t < loss_inputs->size(); ++t) {
    total_loss += loss->StepLossAndGrad((*loss_inputs)[t],
                                        batch.target_steps[t],
                                        accumulate_grads, &d_loss_inputs[t]);
  }
  if (!accumulate_grads) return total_loss;

  // ---- Attention backward (splits gradient between decoder and encoder
  //      per-step outputs) ----
  std::vector<nn::Matrix> d_dec_hs;
  std::vector<nn::Matrix> d_enc_hs;  // Empty when attention is off.
  if (attention_ != nullptr) {
    attention_->Backward(dec_hs, enc_hs, batch.src_masks, attn_cache,
                         d_loss_inputs, &d_dec_hs, &d_enc_hs);
  } else {
    d_dec_hs = std::move(d_loss_inputs);
  }

  // ---- Decoder backward ----
  std::vector<nn::Matrix> d_dec_xs;
  nn::GruState d_enc_final;
  decoder_.Backward(dec_xs, &enc_result.final_state, batch.tgt_masks,
                    dec_result, &d_dec_hs, nullptr, &d_dec_xs, &d_enc_final);
  for (size_t t = 0; t < d_dec_xs.size(); ++t) {
    embedding_.Backward(batch.dec_input_steps[t], d_dec_xs[t]);
  }

  // ---- Encoder backward (gradient arrives via its final states and, with
  //      attention, via its per-step outputs) ----
  std::vector<nn::Matrix> d_enc_xs;
  encoder_.Backward(enc_xs, nullptr, batch.src_masks, enc_result,
                    d_enc_hs.empty() ? nullptr : &d_enc_hs, &d_enc_final,
                    &d_enc_xs, nullptr);
  for (size_t t = 0; t < d_enc_xs.size(); ++t) {
    embedding_.Backward(batch.src_steps[t], d_enc_xs[t]);
  }
  return total_loss;
}

nn::Matrix EncodePacked(const nn::Embedding& embedding, const nn::Gru& gru,
                        const std::vector<traj::TokenSeq>& seqs) {
  nn::Matrix out(seqs.size(), gru.hidden());
  std::vector<size_t> order(seqs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  DeterministicSort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return seqs[a].size() != seqs[b].size() ? seqs[a].size() > seqs[b].size()
                                            : a < b;
  });
  if (order.empty() || seqs[order.front()].empty()) return out;

  // batch_sizes[t] = how many sequences are longer than t.
  std::vector<size_t> batch_sizes(seqs[order.front()].size());
  size_t active = order.size();
  for (size_t t = 0; t < batch_sizes.size(); ++t) {
    while (seqs[order[active - 1]].size() <= t) --active;
    batch_sizes[t] = active;
  }

  std::vector<geo::Token> ids;
  nn::Matrix final_h;
  gru.ForwardPacked(
      batch_sizes,
      [&](size_t t, nn::Matrix* x) {
        ids.resize(batch_sizes[t]);
        for (size_t b = 0; b < ids.size(); ++b) ids[b] = seqs[order[b]][t];
        embedding.Forward(ids, x);
      },
      &final_h);
  for (size_t b = 0; b < final_h.rows(); ++b) {
    std::copy(final_h.Row(b), final_h.Row(b) + final_h.cols(),
              out.Row(order[b]));
  }
  return out;
}

nn::Matrix EncoderDecoder::EncodeBatch(
    const std::vector<traj::TokenSeq>& seqs) const {
  return EncodePacked(embedding_, encoder_, seqs);
}

nn::ParamList EncoderDecoder::Params() {
  nn::ParamList params = embedding_.Params();
  for (nn::Parameter* p : encoder_.Params()) params.push_back(p);
  for (nn::Parameter* p : decoder_.Params()) params.push_back(p);
  if (attention_ != nullptr) {
    for (nn::Parameter* p : attention_->Params()) params.push_back(p);
  }
  for (nn::Parameter* p : proj_.Params()) params.push_back(p);
  return params;
}

}  // namespace t2vec::core
