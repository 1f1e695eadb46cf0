#include "nn/attention.h"

#include <cmath>
#include <cstring>

#include "nn/ops.h"

// Built with -ffp-contract=off (nn/CMakeLists.txt): a multiply-add here
// is an FMA only where it is spelled std::fma, so the bits do not depend on
// what the optimizer or a sanitizer build chooses to contract. The two dot
// products (scores and dα) stay unfused.

namespace t2vec::nn {

Attention::Attention(const std::string& name, size_t hidden, Rng& rng)
    : wa_(name + ".Wa", hidden, hidden),
      wc_(name + ".Wc", 2 * hidden, hidden) {
  InitXavier(&wa_.value, rng);
  InitXavier(&wc_.value, rng);
}

void Attention::Forward(const std::vector<Matrix>& dec_hs,
                        const std::vector<Matrix>& enc_hs,
                        const std::vector<std::vector<float>>& src_masks,
                        AttentionCache* cache) const {
  T2VEC_CHECK(!dec_hs.empty() && !enc_hs.empty());
  const size_t batch = dec_hs.front().rows();
  const size_t dim = hidden();
  const size_t src_steps = enc_hs.size();
  T2VEC_CHECK(src_masks.empty() || src_masks.size() == src_steps);

  // Pack the encoder outputs step-major so keys (and later the weight
  // gradients) are single GEMMs over the whole source sequence.
  cache->enc_packed.Resize(src_steps * batch, dim);
  for (size_t s = 0; s < src_steps; ++s) {
    T2VEC_CHECK(enc_hs[s].rows() == batch && enc_hs[s].cols() == dim);
    std::memcpy(cache->enc_packed.Row(s * batch), enc_hs[s].data(),
                batch * dim * sizeof(float));
  }

  // Keys: k_s = e_s W_a, shared across decoder steps, as one GEMM over the
  // packed rows (rows are independent in a non-transposed GEMM).
  cache->keys.Resize(src_steps * batch, dim);
  GemmV(cache->enc_packed, wa_.value, cache->keys);

  const size_t dec_steps = dec_hs.size();
  cache->alphas.resize(dec_steps);
  cache->concat.Resize(dec_steps * batch, 2 * dim);
  cache->output.resize(dec_steps);

  Matrix scores(batch, src_steps);
  for (size_t t = 0; t < dec_steps; ++t) {
    const Matrix& h = dec_hs[t];
    // score[b][s] = h[b] · k_s[b]; masked positions get -inf equivalent.
    scores.Resize(batch, src_steps);
    for (size_t s = 0; s < src_steps; ++s) {
      const float* key = cache->keys.Row(s * batch);
      for (size_t b = 0; b < batch; ++b) {
        const float* __restrict hb = h.Row(b);
        const float* __restrict kb = key + b * dim;
        float acc = 0.0f;
        for (size_t j = 0; j < dim; ++j) acc += hb[j] * kb[j];
        const bool masked = !src_masks.empty() && src_masks[s][b] == 0.0f;
        scores(b, s) = masked ? -1e30f : acc;
      }
    }
    SoftmaxRows(scores, &cache->alphas[t]);

    // Context and concat [h ; c], written into the packed row block.
    const Matrix& alpha = cache->alphas[t];
    for (size_t b = 0; b < batch; ++b) {
      float* __restrict zb = cache->concat.Row(t * batch + b);
      const float* __restrict hb = h.Row(b);
      for (size_t j = 0; j < dim; ++j) {
        zb[j] = hb[j];
        zb[dim + j] = 0.0f;
      }
      for (size_t s = 0; s < src_steps; ++s) {
        const float a = alpha(b, s);
        if (a == 0.0f) continue;
        const float* __restrict eb = cache->enc_packed.Row(s * batch + b);
        for (size_t j = 0; j < dim; ++j) {
          zb[dim + j] = std::fma(a, eb[j], zb[dim + j]);
        }
      }
    }
  }

  // ĥ = tanh(z Wc): one GEMM over every decoder step.
  Matrix pre(dec_steps * batch, dim);
  GemmV(cache->concat, wc_.value, pre);
  for (size_t t = 0; t < dec_steps; ++t) {
    cache->output[t].Resize(batch, dim);
    TanhV(RowBlock(pre, t * batch, batch), cache->output[t]);
  }
}

void Attention::Backward(const std::vector<Matrix>& dec_hs,
                         const std::vector<Matrix>& enc_hs,
                         const std::vector<std::vector<float>>& src_masks,
                         const AttentionCache& cache,
                         const std::vector<Matrix>& d_output,
                         std::vector<Matrix>* d_dec_hs,
                         std::vector<Matrix>* d_enc_hs) {
  const size_t batch = dec_hs.front().rows();
  const size_t dim = hidden();
  const size_t src_steps = enc_hs.size();
  const size_t dec_steps = dec_hs.size();

  d_dec_hs->assign(dec_steps, Matrix());
  // Packed accumulators over the whole source sequence; unpacked into the
  // per-step outputs at the end (bitwise copies).
  Matrix d_enc(src_steps * batch, dim);
  Matrix d_keys(src_steps * batch, dim);

  // Through ĥ = tanh(z Wc), all decoder steps at once.
  Matrix d_pre(dec_steps * batch, dim);
  for (size_t t = 0; t < dec_steps; ++t) {
    TanhBackwardV(cache.output[t], d_output[t],
                  RowBlock(&d_pre, t * batch, batch));
  }
  // dWc += z^T d_pre, reducing rows in step-major ascending order;
  // dz = d_pre Wc^T.
  Matrix dz(dec_steps * batch, 2 * dim);
  GemmTransAV(cache.concat, d_pre, wc_.grad, 1.0f, 1.0f);
  GemmTransBV(d_pre, wc_.value, dz);

  Matrix d_alpha(batch, src_steps);
  Matrix d_scores(batch, src_steps);

  for (size_t t = 0; t < dec_steps; ++t) {
    const Matrix& alpha = cache.alphas[t];
    const Matrix& h = dec_hs[t];

    // Split dz into dh (direct) and dc (context).
    Matrix& dh = (*d_dec_hs)[t];
    dh.Resize(batch, dim);
    for (size_t b = 0; b < batch; ++b) {
      const float* __restrict dzb = dz.Row(t * batch + b);
      float* __restrict dhb = dh.Row(b);
      for (size_t j = 0; j < dim; ++j) dhb[j] = dzb[j];
    }

    // dc -> dα and d e_s (context path): c = Σ α_s e_s.
    d_alpha.Resize(batch, src_steps);
    for (size_t s = 0; s < src_steps; ++s) {
      for (size_t b = 0; b < batch; ++b) {
        const float* __restrict dcb = dz.Row(t * batch + b) + dim;
        const float* __restrict eb = cache.enc_packed.Row(s * batch + b);
        float* __restrict deb = d_enc.Row(s * batch + b);
        const float a = alpha(b, s);
        float acc = 0.0f;
        for (size_t j = 0; j < dim; ++j) {
          acc += dcb[j] * eb[j];
          deb[j] = std::fma(a, dcb[j], deb[j]);
        }
        d_alpha(b, s) = acc;
      }
    }

    // Softmax backward: ds = α ⊙ (dα - Σ_u α_u dα_u). Masked positions have
    // α = 0, so they produce no gradient automatically.
    d_scores.Resize(batch, src_steps);
    for (size_t b = 0; b < batch; ++b) {
      double inner = 0.0;
      for (size_t s = 0; s < src_steps; ++s) {
        inner = std::fma(static_cast<double>(alpha(b, s)), d_alpha(b, s),
                         inner);
      }
      for (size_t s = 0; s < src_steps; ++s) {
        d_scores(b, s) = alpha(b, s) *
                         (d_alpha(b, s) - static_cast<float>(inner));
      }
    }

    // score_s = h · k_s: dh += ds_s k_s; dk_s += ds_s h.
    for (size_t s = 0; s < src_steps; ++s) {
      for (size_t b = 0; b < batch; ++b) {
        const float ds = d_scores(b, s);
        if (ds == 0.0f) continue;
        const float* __restrict kb = cache.keys.Row(s * batch + b);
        const float* __restrict hb = h.Row(b);
        float* __restrict dhb = dh.Row(b);
        float* __restrict dkb = d_keys.Row(s * batch + b);
        for (size_t j = 0; j < dim; ++j) {
          dhb[j] = std::fma(ds, kb[j], dhb[j]);
          dkb[j] = std::fma(ds, hb[j], dkb[j]);
        }
      }
    }
  }

  // Keys: k_s = e_s W_a -> dW_a += e_s^T dk_s; d e_s += dk_s W_a^T, each
  // one GEMM over the packed source sequence.
  (void)src_masks;
  GemmTransAV(cache.enc_packed, d_keys, wa_.grad, 1.0f, 1.0f);
  GemmTransBV(d_keys, wa_.value, d_enc, 1.0f, 1.0f);

  d_enc_hs->assign(src_steps, Matrix(batch, dim));
  for (size_t s = 0; s < src_steps; ++s) {
    std::memcpy((*d_enc_hs)[s].data(), d_enc.Row(s * batch),
                batch * dim * sizeof(float));
  }
}

}  // namespace t2vec::nn
