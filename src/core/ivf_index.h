#ifndef T2VEC_CORE_IVF_INDEX_H_
#define T2VEC_CORE_IVF_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/ann_index.h"

/// \file
/// Deterministic IVF (inverted-file) approximate k-NN index (DESIGN.md §4e).
///
/// A fixed-seed k-means coarse quantizer partitions the vectors into
/// `nlist` inverted lists; a query exactly scores only the lists whose
/// centroids are nearest (`nprobe` of them), turning the O(N) scan into
/// O(nlist + N·nprobe/nlist) — the structure that makes million-vector
/// stores servable (paper Sec. VI future work 3, via the KNN-guided
/// similarity-learning evaluation framing in PAPERS.md).
///
/// Determinism contract (DESIGN.md §5): training runs at a fixed point in
/// the row sequence (the moment `Size()` reaches `nlist × train_per_list`)
/// over exactly the rows present then, initialized by a fixed-seed
/// `common/rng.h` shuffle; Lloyd assignment parallelizes with disjoint
/// writes and breaks ties toward the lower centroid index, centroid updates
/// accumulate serially in ascending row order in double precision, and all
/// distances route through the dispatched `nn/kernels.h` `sqdist4_f64`
/// (the same bits as `sqdist_f64`), so the index is bit-identical at any
/// thread count and on every SIMD tier. Because training time is a pure
/// function of the row sequence, build-once, Add-one-at-a-time, and
/// snapshot-replay construction all execute the same training call at the
/// same point: grown ≡ built by construction, not by test luck.
///
/// Before training, queries run the base's exact scan over every row, the
/// same one `VectorIndex` runs: a small store answers exactly, and the
/// quantizer only kicks in once there is enough data to train it. After
/// training the same scan ranks the probed lists' rows.

namespace t2vec::core {

/// IVF index. Query is const and thread-safe; Add/Restore/set_nprobe are
/// not (same single-writer contract as the other indexes).
class IvfIndex : public AnnIndex {
 public:
  /// An empty IVF index for `dim`-dimensional vectors. `config`'s ivf_*
  /// fields must already be Validate()d (CreateIndex does this).
  IvfIndex(size_t dim, const IndexConfig& config);

  /// Approximate k nearest rows (exact before training; see file comment).
  /// Probes the `nprobe` nearest lists, then keeps widening to further
  /// lists until at least k candidates surfaced, so short answers only
  /// happen when the whole index holds fewer than k rows.
  KnnResult Query(std::span<const float> query, size_t k) const override;

  IndexKind kind() const override { return IndexKind::kIvf; }

  /// True once the coarse quantizer has been trained.
  bool trained() const { return trained_; }

  size_t nlist() const { return nlist_; }
  size_t nprobe() const { return nprobe_; }

  /// Adjusts the recall/latency knob for subsequent queries (benchmark
  /// sweeps). Not thread-safe against concurrent Query calls.
  void set_nprobe(size_t nprobe);

  /// Rows at which training triggers (nlist × train_per_list).
  size_t train_threshold() const { return nlist_ * train_per_list_; }

 protected:
  void OnAppend(size_t row) override;
  void SaveAux(BinaryWriter* writer) const override;
  Status LoadAux(BinaryReader* reader) override;
  void FillStats(IndexStats* stats) const override;

 private:
  /// Fixed-seed Lloyd k-means over rows [0, train_threshold()), then
  /// assigns those training rows to their inverted lists (later rows are
  /// assigned by their own OnAppend).
  void Train();

  /// Squared distances from `vec` to every centroid, scored four
  /// centroids per sqdist4_f64 call.
  std::vector<double> CentroidDistances(const float* vec) const;

  /// Index of the nearest centroid (squared Euclidean; ties and NaN rows
  /// resolve to the lowest centroid index).
  size_t NearestCentroid(const float* vec) const;

  size_t nlist_;
  size_t nprobe_;
  int train_iters_;
  uint64_t seed_;
  size_t train_per_list_;

  bool trained_ = false;
  std::vector<float> centroids_;            // nlist_ x dim()
  std::vector<std::vector<uint32_t>> lists_;  // row ids, ascending per list
};

}  // namespace t2vec::core

#endif  // T2VEC_CORE_IVF_INDEX_H_
