#include "core/vrnn.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/sort.h"
#include "core/model.h"
#include "nn/optimizer.h"

namespace t2vec::core {

VRnn::VRnn(const T2VecConfig& config, geo::Token vocab_size, Rng& rng)
    : config_(config),
      embedding_(static_cast<size_t>(vocab_size), config.embed_dim, rng),
      gru_("vrnn", config.embed_dim, config.hidden, config.layers, rng),
      proj_(static_cast<size_t>(vocab_size), config.hidden, rng) {}

double VRnn::Train(const std::vector<traj::TokenSeq>& seqs, size_t iterations,
                   Rng& rng) {
  // Usable sequences need at least two tokens (one transition).
  std::vector<size_t> usable;
  for (size_t i = 0; i < seqs.size(); ++i) {
    if (seqs[i].size() >= 2) usable.push_back(i);
  }
  T2VEC_CHECK(!usable.empty());

  // Length-sorted contiguous batches, shuffled order (as in the trainer).
  // Equal-length ties feed batch composition, so the sort is pinned — same
  // rationale as MakeBatches in core/trainer.cc.
  DeterministicSort(usable.begin(), usable.end(), [&](size_t a, size_t b) {
    return seqs[a].size() < seqs[b].size();
  });
  std::vector<std::vector<size_t>> batches;
  for (size_t start = 0; start < usable.size();
       start += config_.batch_size) {
    const size_t end = std::min(start + config_.batch_size, usable.size());
    batches.emplace_back(usable.begin() + static_cast<long>(start),
                         usable.begin() + static_cast<long>(end));
  }
  std::vector<size_t> order(batches.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  NllLoss loss(&proj_);
  nn::Adam adam(Params(), config_.learning_rate);
  adam.ZeroGrad();

  double smoothed = 0.0;
  bool has_smoothed = false;
  size_t cursor = 0;
  for (size_t iter = 0; iter < iterations; ++iter) {
    if (cursor >= order.size()) {
      cursor = 0;
      rng.Shuffle(order);
    }
    const std::vector<size_t>& batch_ids = batches[order[cursor++]];
    const size_t batch_size = batch_ids.size();

    // Inputs: tokens[0..n-2]; targets: tokens[1..n-1].
    size_t max_steps = 0;
    for (size_t i : batch_ids) {
      max_steps = std::max(max_steps, seqs[i].size() - 1);
    }
    std::vector<std::vector<geo::Token>> in_steps(
        max_steps, std::vector<geo::Token>(batch_size, geo::kPadToken));
    std::vector<std::vector<geo::Token>> tgt_steps = in_steps;
    std::vector<std::vector<float>> masks(
        max_steps, std::vector<float>(batch_size, 0.0f));
    size_t target_tokens = 0;
    for (size_t b = 0; b < batch_size; ++b) {
      const traj::TokenSeq& s = seqs[batch_ids[b]];
      for (size_t t = 0; t + 1 < s.size(); ++t) {
        in_steps[t][b] = s[t];
        tgt_steps[t][b] = s[t + 1];
        masks[t][b] = 1.0f;
        ++target_tokens;
      }
    }

    loss.set_grad_scale(1.0f / static_cast<float>(batch_size));
    std::vector<nn::Matrix> xs(max_steps);
    for (size_t t = 0; t < max_steps; ++t) {
      embedding_.Forward(in_steps[t], &xs[t]);
    }
    nn::Gru::ForwardResult result;
    gru_.Forward(xs, nullptr, masks, &result);

    const std::vector<nn::Matrix>& hs = result.TopOutputs();
    std::vector<nn::Matrix> d_hs(hs.size());
    double batch_loss = 0.0;
    for (size_t t = 0; t < hs.size(); ++t) {
      batch_loss += loss.StepLossAndGrad(hs[t], tgt_steps[t],
                                         /*accumulate_grads=*/true, &d_hs[t]);
    }
    std::vector<nn::Matrix> d_xs;
    gru_.Backward(xs, nullptr, masks, result, &d_hs, nullptr, &d_xs, nullptr);
    for (size_t t = 0; t < d_xs.size(); ++t) {
      embedding_.Backward(in_steps[t], d_xs[t]);
    }

    nn::ClipGradNorm(Params(), config_.grad_clip);
    adam.Step();
    adam.ZeroGrad();

    const double per_token =
        batch_loss / static_cast<double>(std::max<size_t>(target_tokens, 1));
    smoothed = has_smoothed ? 0.98 * smoothed + 0.02 * per_token : per_token;
    has_smoothed = true;
  }
  return smoothed;
}

nn::Matrix VRnn::EncodeBatch(const std::vector<traj::TokenSeq>& seqs) const {
  return EncodePacked(embedding_, gru_, seqs);
}

nn::ParamList VRnn::Params() {
  nn::ParamList params = embedding_.Params();
  for (nn::Parameter* p : gru_.Params()) params.push_back(p);
  for (nn::Parameter* p : proj_.Params()) params.push_back(p);
  return params;
}

}  // namespace t2vec::core
