#include "nn/gru.h"

#include <cstring>

#include "nn/ops.h"

namespace t2vec::nn {

namespace {

// h = m ⊙ h + (1 - m) ⊙ h_prev in place, mask broadcast across columns:
// masked-out rows carry h_prev through a training step.
void ApplyMask(const std::vector<float>& mask, const Matrix& h_prev,
               Matrix* h) {
  const size_t n = h->cols();
  for (size_t b = 0; b < h->rows(); ++b) {
    const float m = mask[b];
    const float* __restrict hp = h_prev.Row(b);
    float* __restrict hn = h->Row(b);
    for (size_t j = 0; j < n; ++j) hn[j] = m * hn[j] + (1.0f - m) * hp[j];
  }
}

// Copies the columns of each source side by side into `dst`
// (rows x sum-of-cols). Bitwise copies: packing/unpacking never rounds.
void PackColumns(std::initializer_list<const Matrix*> srcs, Matrix* dst) {
  size_t total = 0;
  const size_t rows = (*srcs.begin())->rows();
  for (const Matrix* s : srcs) total += s->cols();
  dst->Resize(rows, total);
  for (size_t r = 0; r < rows; ++r) {
    float* out = dst->Row(r);
    for (const Matrix* s : srcs) {
      std::memcpy(out, s->Row(r), s->cols() * sizeof(float));
      out += s->cols();
    }
  }
}

// Inverse of PackColumns.
void UnpackColumns(const Matrix& src, std::initializer_list<Matrix*> dsts) {
  for (size_t r = 0; r < src.rows(); ++r) {
    const float* in = src.Row(r);
    for (Matrix* d : dsts) {
      std::memcpy(d->Row(r), in, d->cols() * sizeof(float));
      in += d->cols();
    }
  }
}

// h = (1 − z) ⊙ h⁻ + z ⊙ c, the state update closing every GRU step. `h`
// may alias `h_prev`.
void GruStateUpdate(ConstMatrixView z, ConstMatrixView c,
                    ConstMatrixView h_prev, MatrixView h) {
  for (size_t b = 0; b < h.rows; ++b) {
    const float* __restrict zv = z.Row(b);
    const float* __restrict cv = c.Row(b);
    const float* hp = h_prev.Row(b);  // May alias h: no __restrict.
    float* hn = h.Row(b);
    for (size_t j = 0; j < h.cols; ++j) {
      hn[j] = (1.0f - zv[j]) * hp[j] + zv[j] * cv[j];
    }
  }
}

}  // namespace

GruLayer::GruLayer(const std::string& name, size_t in_dim, size_t hidden,
                   Rng& rng)
    : wz_(name + ".Wz", in_dim, hidden),
      wr_(name + ".Wr", in_dim, hidden),
      wc_(name + ".Wc", in_dim, hidden),
      uz_(name + ".Uz", hidden, hidden),
      ur_(name + ".Ur", hidden, hidden),
      uc_(name + ".Uc", hidden, hidden),
      bz_(name + ".bz", 1, hidden),
      br_(name + ".br", 1, hidden),
      bc_(name + ".bc", 1, hidden),
      packs_(std::make_unique<PackCache>()) {
  InitXavier(&wz_.value, rng);
  InitXavier(&wr_.value, rng);
  InitXavier(&wc_.value, rng);
  InitXavier(&uz_.value, rng);
  InitXavier(&ur_.value, rng);
  InitXavier(&uc_.value, rng);
}

void GruLayer::RefreshPacks() const {
  PackCache& pc = *packs_;
  const uint64_t version = ParamVersion();
  if (pc.version.load(std::memory_order_acquire) == version) return;
  sync::MutexLock lock(&pc.mu);
  if (pc.version.load(std::memory_order_relaxed) == version) return;
  PackColumns({&wc_.value, &wz_.value, &wr_.value}, &pc.w_pack);
  PackColumns({&uz_.value, &ur_.value}, &pc.u_pack);
  pc.version.store(version, std::memory_order_release);
}

void GruLayer::Step(ConstMatrixView x, ConstMatrixView h_prev,
                    MatrixView pre, const StepGates& g, MatrixView h) const {
  const size_t dim = hidden();
  T2VEC_CHECK(x.cols == in_dim() && h_prev.rows == x.rows &&
              h_prev.cols == dim && h.rows == x.rows && h.cols == dim &&
              pre.rows == x.rows && pre.cols == 3 * dim);

  RefreshPacks();
  const PackCache& pc = *packs_;
  // [pre_c | pre_z | pre_r] = x [Wc|Wz|Wr]; then the z/r blocks get the
  // hidden-state term in one GEMM over [Uz|Ur]. Each element's chain is the
  // x term, then the h term, then the bias, as in Cho et al.'s per-gate
  // equations (nn/gru.h).
  GemmV(x, pc.w_pack, pre);
  GemmV(h_prev, pc.u_pack, ColBlock(pre, dim, 2 * dim), 1.0f, 1.0f);

  AddRowBroadcastV(ColBlock(pre, dim, dim), bz_.value);
  SigmoidV(ColBlock(pre, dim, dim), g.z);

  AddRowBroadcastV(ColBlock(pre, 2 * dim, dim), br_.value);
  SigmoidV(ColBlock(pre, 2 * dim, dim), g.r);

  // c = tanh(x Wc + (r ⊙ h⁻) Uc + bc): Uc consumes r, so it runs last.
  HadamardV(g.r, h_prev, g.rh);
  GemmV(g.rh, uc_.value, ColBlock(pre, 0, dim), 1.0f, 1.0f);
  AddRowBroadcastV(ColBlock(pre, 0, dim), bc_.value);
  TanhV(ColBlock(pre, 0, dim), g.c);
  GruStateUpdate(g.z, g.c, h_prev, h);
}

void GruLayer::Forward(const std::vector<Matrix>& xs, const Matrix& h0,
                       const std::vector<std::vector<float>>& masks,
                       GruCache* cache) const {
  const size_t steps = xs.size();
  const size_t batch = h0.rows();
  const size_t dim = hidden();
  T2VEC_CHECK(h0.cols() == dim);
  T2VEC_CHECK(masks.empty() || masks.size() == steps);

  cache->z.resize(steps);
  cache->r.resize(steps);
  cache->c.resize(steps);
  cache->rh.resize(steps);
  cache->h.resize(steps);

  Matrix pre(batch, 3 * dim);  // Gate pre-activations, reused per step.
  for (size_t t = 0; t < steps; ++t) {
    const Matrix& x = xs[t];
    const Matrix& h_prev = (t == 0) ? h0 : cache->h[t - 1];
    T2VEC_CHECK(x.rows() == batch);
    for (Matrix* m : {&cache->z[t], &cache->r[t], &cache->c[t],
                      &cache->rh[t], &cache->h[t]}) {
      m->Resize(batch, dim);
    }
    Step(x, h_prev, pre,
         {cache->z[t], cache->r[t], cache->c[t], cache->rh[t]}, cache->h[t]);
    if (!masks.empty()) ApplyMask(masks[t], h_prev, &cache->h[t]);
  }
}

void GruLayer::Backward(const std::vector<Matrix>& xs, const Matrix& h0,
                        const std::vector<std::vector<float>>& masks,
                        const GruCache& cache, const std::vector<Matrix>* d_hs,
                        const Matrix* d_h_last, std::vector<Matrix>* d_xs,
                        Matrix* d_h0) {
  const size_t steps = xs.size();
  const size_t batch = h0.rows();
  const size_t dim = hidden();
  T2VEC_CHECK(cache.steps() == steps);

  d_xs->resize(steps);

  RefreshPacks();
  const PackCache& pc = *packs_;

  Matrix dh(batch, dim);        // Running gradient on h_t.
  Matrix dh_prev(batch, dim);   // Gradient flowing to h_{t-1}.
  Matrix dh_raw(batch, dim);    // Gradient on the pre-mask hidden.
  Matrix dz(batch, dim), dc(batch, dim), dr(batch, dim);
  Matrix drh(batch, dim);
  Matrix d3(batch, 3 * dim);    // [dc_pre | dz_pre | dr_pre], B x 3H.
  // Packed gradient accumulators, seeded from the named gradients so the
  // accumulation continues their per-element chains; copied back (bitwise)
  // after the loop.
  Matrix wg_pack, ug_pack;
  PackColumns({&wc_.grad, &wz_.grad, &wr_.grad}, &wg_pack);
  PackColumns({&uz_.grad, &ur_.grad}, &ug_pack);

  if (d_h_last != nullptr) {
    T2VEC_CHECK(SameShape(*d_h_last, dh));
    dh = *d_h_last;
  }

  for (size_t t = steps; t-- > 0;) {
    if (d_hs != nullptr && !(*d_hs)[t].empty()) {
      AddInPlace(&dh, (*d_hs)[t]);
    }
    const Matrix& h_prev = (t == 0) ? h0 : cache.h[t - 1];
    const Matrix& z = cache.z[t];
    const Matrix& r = cache.r[t];
    const Matrix& c = cache.c[t];
    const Matrix& x = xs[t];

    dh_prev.SetZero();

    // Undo the mask: gradient on h_raw is dh ⊙ m; the carried part dh ⊙
    // (1 - m) flows straight to h_prev.
    if (masks.empty()) {
      dh_raw = dh;
    } else {
      const std::vector<float>& m = masks[t];
      dh_raw.Resize(batch, dim);
      for (size_t b = 0; b < batch; ++b) {
        const float mb = m[b];
        const float* __restrict g = dh.Row(b);
        float* __restrict gr = dh_raw.Row(b);
        float* __restrict gp = dh_prev.Row(b);
        for (size_t j = 0; j < dim; ++j) {
          gr[j] = g[j] * mb;
          gp[j] += g[j] * (1.0f - mb);
        }
      }
    }

    // h_raw = (1 - z) ⊙ h_prev + z ⊙ c
    //   dz = dh_raw ⊙ (c - h_prev); dc = dh_raw ⊙ z;
    //   dh_prev += dh_raw ⊙ (1 - z)
    dz.Resize(batch, dim);
    dc.Resize(batch, dim);
    for (size_t b = 0; b < batch; ++b) {
      const float* __restrict g = dh_raw.Row(b);
      const float* __restrict zv = z.Row(b);
      const float* __restrict cv = c.Row(b);
      const float* __restrict hp = h_prev.Row(b);
      float* __restrict dzv = dz.Row(b);
      float* __restrict dcv = dc.Row(b);
      float* __restrict gp = dh_prev.Row(b);
      for (size_t j = 0; j < dim; ++j) {
        dzv[j] = g[j] * (cv[j] - hp[j]);
        dcv[j] = g[j] * zv[j];
        gp[j] += g[j] * (1.0f - zv[j]);
      }
    }

    Matrix& dx = (*d_xs)[t];
    dx.Resize(batch, in_dim());

    // Pre-activation gradients land directly in the packed d3 blocks.
    TanhBackwardV(c, dc, ColBlock(&d3, 0, dim));
    const ConstMatrixView dc_pre = ColBlock(d3, 0, dim);
    // rh = r ⊙ h_prev: drh = dc_pre Uc^T; dr = drh ⊙ h_prev;
    // dh_prev += drh ⊙ r.
    GemmTransBV(dc_pre, uc_.value, drh);
    Hadamard(drh, h_prev, &dr);
    HadamardAccum(drh, r, &dh_prev);
    SigmoidBackwardV(z, dz, ColBlock(&d3, dim, dim));
    SigmoidBackwardV(r, dr, ColBlock(&d3, 2 * dim, dim));

    // One TransA per operand: dW_pack += x^T d3, dU_pack += h⁻^T [dz|dr],
    // dUc += rh^T dc_pre.
    GemmTransAV(x, d3, wg_pack, 1.0f, 1.0f);
    GemmTransAV(h_prev, ColBlock(d3, dim, 2 * dim), ug_pack, 1.0f, 1.0f);
    GemmTransAV(cache.rh[t], dc_pre, uc_.grad, 1.0f, 1.0f);
    SumRowsIntoV(dc_pre, &bc_.grad);
    SumRowsIntoV(ColBlock(d3, dim, dim), &bz_.grad);
    SumRowsIntoV(ColBlock(d3, 2 * dim, dim), &br_.grad);

    // dx = d3 [Wc|Wz|Wr]^T and dh_prev += [dz|dr] [Uz|Ur]^T, each one GEMM
    // segmented per gate (nn/matrix.h GemmTransBV): the chain is candidate,
    // then update, then reset gate, the order the golden digests pin.
    GemmTransBV(d3, pc.w_pack, dx, 1.0f, 0.0f, dim);
    GemmTransBV(ColBlock(d3, dim, 2 * dim), pc.u_pack, dh_prev, 1.0f, 1.0f,
                dim);

    dh = dh_prev;
  }

  UnpackColumns(wg_pack, {&wc_.grad, &wz_.grad, &wr_.grad});
  UnpackColumns(ug_pack, {&uz_.grad, &ur_.grad});

  if (d_h0 != nullptr) *d_h0 = dh;
}

ParamList GruLayer::Params() {
  return {&wz_, &wr_, &wc_, &uz_, &ur_, &uc_, &bz_, &br_, &bc_};
}

Gru::Gru(const std::string& name, size_t in_dim, size_t hidden, size_t layers,
         Rng& rng) {
  T2VEC_CHECK(layers >= 1);
  layers_.reserve(layers);
  for (size_t l = 0; l < layers; ++l) {
    layers_.emplace_back(name + ".l" + std::to_string(l),
                         l == 0 ? in_dim : hidden, hidden, rng);
  }
}

void Gru::Forward(const std::vector<Matrix>& xs, const GruState* init,
                  const std::vector<std::vector<float>>& masks,
                  ForwardResult* result) const {
  T2VEC_CHECK(!xs.empty());
  const size_t batch = xs.front().rows();
  const size_t dim = hidden();
  if (init != nullptr) T2VEC_CHECK(init->layers() == layers());

  result->caches.assign(layers(), GruCache{});
  result->final_state.h.assign(layers(), Matrix());

  const Matrix zero_h0(batch, dim);
  const std::vector<Matrix>* layer_input = &xs;
  for (size_t l = 0; l < layers(); ++l) {
    const Matrix& h0 = (init != nullptr) ? init->h[l] : zero_h0;
    layers_[l].Forward(*layer_input, h0, masks, &result->caches[l]);
    result->final_state.h[l] = result->caches[l].h.back();
    layer_input = &result->caches[l].h;
  }
}

void Gru::Backward(const std::vector<Matrix>& xs, const GruState* init,
                   const std::vector<std::vector<float>>& masks,
                   const ForwardResult& result,
                   const std::vector<Matrix>* d_top, const GruState* d_final,
                   std::vector<Matrix>* d_xs, GruState* d_init) {
  const size_t batch = xs.front().rows();
  const size_t dim = hidden();
  const Matrix zero_h0(batch, dim);

  if (d_init != nullptr) d_init->h.assign(layers(), Matrix());

  // Gradient on the current layer's per-step outputs; starts as d_top for the
  // top layer and becomes the d_xs of the layer above for lower layers.
  std::vector<Matrix> d_out_storage;
  const std::vector<Matrix>* d_out = d_top;

  for (size_t l = layers(); l-- > 0;) {
    const std::vector<Matrix>& layer_input =
        (l == 0) ? xs : result.caches[l - 1].h;
    const Matrix& h0 = (init != nullptr) ? init->h[l] : zero_h0;
    const Matrix* d_h_last =
        (d_final != nullptr && !d_final->h[l].empty()) ? &d_final->h[l]
                                                       : nullptr;
    std::vector<Matrix> d_in;
    Matrix d_h0;
    layers_[l].Backward(layer_input, h0, masks, result.caches[l], d_out,
                        d_h_last, &d_in, &d_h0);
    if (d_init != nullptr) d_init->h[l] = std::move(d_h0);
    d_out_storage = std::move(d_in);
    d_out = &d_out_storage;
  }

  if (d_xs != nullptr) *d_xs = std::move(d_out_storage);
}

void Gru::ForwardPacked(const std::vector<size_t>& batch_sizes,
                        const PackedStepInput& input, Matrix* final_h) const {
  T2VEC_CHECK(!batch_sizes.empty());
  const size_t rows = batch_sizes.front();
  const size_t dim = hidden();
  std::vector<Matrix> hs(layers(), Matrix(rows, dim));  // Zero h0.
  Matrix x;
  Matrix pre(rows, 3 * dim);
  Matrix z(rows, dim), r(rows, dim), c(rows, dim), rh(rows, dim);
  size_t prev_active = rows;
  for (size_t t = 0; t < batch_sizes.size(); ++t) {
    // Step t advances only the leading `active` rows; the rest keep the
    // state of their own last step, so hs.back() ends up holding each row's
    // top-layer state after its last token.
    const size_t active = batch_sizes[t];
    T2VEC_CHECK(active >= 1 && active <= prev_active);
    prev_active = active;
    input(t, &x);
    T2VEC_CHECK(x.rows() == active);
    const GruLayer::StepGates gates{
        RowBlock(&z, 0, active), RowBlock(&r, 0, active),
        RowBlock(&c, 0, active), RowBlock(&rh, 0, active)};
    const MatrixView active_pre = RowBlock(&pre, 0, active);
    ConstMatrixView layer_in = x;
    for (size_t l = 0; l < layers(); ++l) {
      const MatrixView h = RowBlock(&hs[l], 0, active);
      layers_[l].Step(layer_in, h, active_pre, gates, h);
      layer_in = h;
    }
  }
  *final_h = std::move(hs.back());
}

ParamList Gru::Params() {
  ParamList out;
  for (GruLayer& layer : layers_) {
    for (Parameter* p : layer.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace t2vec::nn
