#ifndef T2VEC_NN_GRU_H_
#define T2VEC_NN_GRU_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "nn/parameter.h"

/// \file
/// Batched multi-layer GRU with hand-derived backpropagation through time.
///
/// Conventions:
///  - Sequences are batch-major per step: the input is a vector of T matrices,
///    each B x in_dim (step t holds the t-th token of every sequence).
///  - Training (`Forward`/`Backward`) handles variable lengths with per-step
///    masks (B floats, 1 = active): at a masked-out step the hidden state is
///    carried through unchanged, so the state at the last step is each
///    sequence's state at its own final valid token, and the per-step
///    activations are cached for BPTT.
///  - Inference (`ForwardPacked`) uses the packed layout of PyTorch's
///    `pack_padded_sequence` instead: rows sorted longest first, and at step
///    t only the prefix of rows still active is computed. No masks, no
///    padding rows and no per-step cache — one running h per layer.
///  - Both run the same per-step gate math, `GruLayer::Step`, and every
///    floating-point chain in it is row-local, so a row gets the same bits
///    whichever other rows share its batch.
///  - Gate equations (Cho et al. 2014):
///        z = σ(x·Wz + h⁻·Uz + bz)          update gate
///        r = σ(x·Wr + h⁻·Ur + br)          reset gate
///        c = tanh(x·Wc + (r ⊙ h⁻)·Uc + bc) candidate
///        h = (1 − z) ⊙ h⁻ + z ⊙ c
///
/// The paper uses a 3-layer GRU with hidden size 256; both are configurable.

namespace t2vec::nn {

/// Per-step activations saved by the forward pass for BPTT.
struct GruCache {
  std::vector<Matrix> z;   ///< update gate, per step, B x H
  std::vector<Matrix> r;   ///< reset gate
  std::vector<Matrix> c;   ///< candidate state
  std::vector<Matrix> rh;  ///< r ⊙ h_prev (input to the Uc product)
  std::vector<Matrix> h;   ///< post-mask hidden output

  size_t steps() const { return h.size(); }
};

/// One GRU layer operating on a full batched sequence.
class GruLayer {
 public:
  /// Creates a layer with Xavier-initialized weights.
  GruLayer(const std::string& name, size_t in_dim, size_t hidden, Rng& rng);

  /// Gate activations of one step, each B x H.
  struct StepGates {
    MatrixView z;   ///< update gate
    MatrixView r;   ///< reset gate
    MatrixView c;   ///< candidate state
    MatrixView rh;  ///< r ⊙ h⁻ (input to the Uc product)
  };

  /// One step of the gate math over the B rows of `x` (B x in_dim) from
  /// `h_prev` (B x H): fills `gates` and writes h = (1 − z) ⊙ h⁻ + z ⊙ c to
  /// `h`, which may alias `h_prev`. `pre` is B x 3H scratch. Row b of every
  /// output depends only on row b of the inputs (nn/matrix.h), so stepping a
  /// prefix of a batch's rows gives those rows the same bits as stepping all
  /// of them.
  void Step(ConstMatrixView x, ConstMatrixView h_prev, MatrixView pre,
            const StepGates& gates, MatrixView h) const;

  /// Runs the layer over the sequence `xs` ([T] of B x in_dim) starting from
  /// `h0` (B x H). `masks[t]` has B entries in {0,1}; pass an empty vector for
  /// an all-active batch. Fills `cache` (also the output: cache->h).
  void Forward(const std::vector<Matrix>& xs, const Matrix& h0,
               const std::vector<std::vector<float>>& masks,
               GruCache* cache) const;

  /// Backward through time. `d_hs` is the gradient w.r.t. each step's output
  /// (nullptr = zeros); `d_h_last` is an extra gradient flowing into the
  /// final hidden state (nullptr = none). Accumulates weight gradients and
  /// writes `d_xs` ([T] of B x in_dim) and `d_h0` (B x H).
  void Backward(const std::vector<Matrix>& xs, const Matrix& h0,
                const std::vector<std::vector<float>>& masks,
                const GruCache& cache, const std::vector<Matrix>* d_hs,
                const Matrix* d_h_last, std::vector<Matrix>* d_xs,
                Matrix* d_h0);

  size_t in_dim() const { return wz_.value.rows(); }
  size_t hidden() const { return uz_.value.rows(); }

  ParamList Params();

 private:
  /// Cached weight packs (`[Wc|Wz|Wr]` and `[Uz|Ur]`; candidate first, the
  /// dx accumulation order the golden digests pin). The named parameters
  /// stay the checkpoint format; the packs are a derived layout that lets
  /// Step/Backward issue one GEMM per input and one per hidden state instead
  /// of one per gate. Stamped with the global ParamVersion() they
  /// were built at and rebuilt lazily after any optimizer step / checkpoint
  /// load (nn/parameter.h). T2Vec::Encode runs Forward concurrently from
  /// pool workers, so rebuilds are double-checked: the packs are written
  /// under `mu`, then published by the release store to `version`; readers
  /// that acquire-load a current `version` may read the packs without the
  /// lock. That version handshake — not `mu` alone — is what protects
  /// w_pack/u_pack, so they carry a protocol comment instead of a
  /// GUARDED_BY annotation (DESIGN.md §5.4).
  struct PackCache {
    sync::Mutex mu;
    std::atomic<uint64_t> version{0};
    // Protocol-guarded (see above): written under mu before the release
    // store to version; read lock-free after an acquire load matches.
    Matrix w_pack;  ///< in_dim x 3H: [Wc | Wz | Wr]
    Matrix u_pack;  ///< H x 2H: [Uz | Ur] (Uc consumes r ⊙ h⁻, stays apart)
  };

  /// Rebuilds the packs if any parameter changed since they were built.
  void RefreshPacks() const;

  Parameter wz_, wr_, wc_;  // in_dim x H
  Parameter uz_, ur_, uc_;  // H x H
  Parameter bz_, br_, bc_;  // 1 x H
  mutable std::unique_ptr<PackCache> packs_;
};

/// Fills `x` with the inputs of packed step t: one row per active sequence,
/// in packed row order.
using PackedStepInput = std::function<void(size_t t, Matrix* x)>;

/// Per-layer hidden states (the seq2seq handoff between encoder and decoder).
struct GruState {
  std::vector<Matrix> h;  ///< one B x H matrix per layer

  size_t layers() const { return h.size(); }
};

/// Multi-layer GRU stack.
class Gru {
 public:
  /// Everything the forward pass computed; needed by Backward.
  struct ForwardResult {
    std::vector<GruCache> caches;  ///< per layer
    GruState final_state;          ///< h at the last step, per layer

    /// Output sequence of the top layer ([T] of B x H).
    const std::vector<Matrix>& TopOutputs() const {
      return caches.back().h;
    }
  };

  /// `layers` stacked GRU layers; layer 0 consumes `in_dim`, the rest consume
  /// `hidden`.
  Gru(const std::string& name, size_t in_dim, size_t hidden, size_t layers,
      Rng& rng);

  /// Runs the stack. `init` supplies per-layer initial states (nullptr =
  /// zeros).
  void Forward(const std::vector<Matrix>& xs, const GruState* init,
               const std::vector<std::vector<float>>& masks,
               ForwardResult* result) const;

  /// Inference-only packed forward from zero initial states, in the layout
  /// of PyTorch's pack_padded_sequence: rows are sorted by length, longest
  /// first, and `batch_sizes[t]` (non-increasing, at least 1) counts the
  /// leading rows still active at step t; `input` supplies each step's
  /// active rows. Keeps one running h per layer and no per-step cache.
  /// Writes each row's top-layer state after its last step to `final_h`
  /// (batch_sizes[0] x H); row b has the same bits as a one-row forward of
  /// its sequence alone, at any thread count.
  void ForwardPacked(const std::vector<size_t>& batch_sizes,
                     const PackedStepInput& input, Matrix* final_h) const;

  /// Backward through the stack. `d_top` is the gradient on the top layer's
  /// per-step outputs (nullptr = zeros); `d_final` on each layer's final
  /// state (nullptr = none). Writes `d_xs` and, if `d_init` is non-null, the
  /// gradient on the initial states.
  void Backward(const std::vector<Matrix>& xs, const GruState* init,
                const std::vector<std::vector<float>>& masks,
                const ForwardResult& result, const std::vector<Matrix>* d_top,
                const GruState* d_final, std::vector<Matrix>* d_xs,
                GruState* d_init);

  size_t layers() const { return layers_.size(); }
  size_t hidden() const { return layers_.front().hidden(); }
  size_t in_dim() const { return layers_.front().in_dim(); }
  const GruLayer& layer(size_t i) const { return layers_[i]; }

  ParamList Params();

 private:
  std::vector<GruLayer> layers_;
};

}  // namespace t2vec::nn

#endif  // T2VEC_NN_GRU_H_
