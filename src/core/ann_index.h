#ifndef T2VEC_CORE_ANN_INDEX_H_
#define T2VEC_CORE_ANN_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/serialize.h"
#include "common/status.h"
#include "dist/knn.h"
#include "nn/kernels.h"

/// \file
/// The polymorphic nearest-neighbor index interface (DESIGN.md §4e).
///
/// Every serving path constructs its index through `IndexConfig` +
/// `CreateIndex` and talks to it as an `AnnIndex`: exact scan
/// (`VectorIndex`), multi-probe LSH (`LshIndex`), or the IVF coarse
/// quantizer (`IvfIndex`). The base class owns the vector rows (`RowStore`)
/// and the non-virtual Add/Restore skeleton; backends only implement how a
/// new row enters their acceleration structure (`OnAppend`) and how that
/// structure round-trips a snapshot (`SaveAux`/`LoadAux`).
///
/// This template-method split is what makes the "incremental Add is
/// provably identical to build-once" guarantee structural rather than
/// per-backend: a bulk build, a one-at-a-time build, and a snapshot restore
/// without usable aux all funnel through the same `OnAppend(row)` calls in
/// the same ascending row order, so there is no second code path to drift.
///
/// An index has no file format of its own: the `EmbeddingStore` snapshot
/// (serve/embedding_store.h) is where its rows and aux structure persist,
/// through `AppendRowsTo`/`AppendAuxTo` on save and `Restore` on load. The
/// store's `LoadMmap` hands `Restore` rows borrowed from the mapping, and
/// the `RowStore` keeps that mapping alive for as long as any borrowed row
/// may be dereferenced (see `common/fs.h` MmapFile lifetime rules).
///
/// Every backend answers through one exact top-k scan owned by the base
/// (`ExactTopK`): the exact index over every row, IVF over its probed lists
/// (or every row before training), LSH over its bucket candidates. The scan
/// runs in `kScanChunkRows`-row chunks and two passes: the dispatched
/// `sqdist4_f32` kernel scores every row of a chunk, and `sqdist4_f64`
/// re-scores only the rows that `ScreenBound` cannot rule out of the
/// chunk's top-k. Each chunk keeps its own top-k of f64 scores, and the
/// chunk results merge on the calling thread (DESIGN.md §4b, §4e).

namespace t2vec::core {

using dist::KnnResult;

/// Rows per chunk of an exact scan. A scan of fewer than two chunks' worth
/// of rows runs inline on the calling thread (waking the pool costs more
/// than it saves there); a larger one gives the pool more chunks than
/// lanes, so a lane the OS deschedules holds up one chunk, not a fixed
/// share of the store.
inline constexpr size_t kScanChunkRows = 8192;

/// Squared distances from `q` to `count` rows of length `dim` through a
/// four-row kernel: `sqdist4_f64` (q widened to double; out[i] equals
/// `sqdist_f64(query, row(i), dim)` bit for bit) or `sqdist4_f32`. A
/// partial last group repeats its last row and drops the spare outputs.
template <typename Q, typename Out, typename RowFn>
void SqDistRows(void (*sqdist4)(const Q*, const float*, const float*,
                                const float*, const float*, size_t, Out*),
                const Q* q, size_t dim, size_t count, const RowFn& row,
                Out* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    sqdist4(q, row(i), row(i + 1), row(i + 2), row(i + 3), dim, out + i);
  }
  if (i == count) return;
  const float* last = row(count - 1);
  Out spare[4];
  sqdist4(q, row(i), i + 1 < count ? row(i + 1) : last,
          i + 2 < count ? row(i + 2) : last, last, dim, spare);
  std::copy(spare, spare + (count - i), out + i);
}

/// A written bound on how far a row's f64 score D (`sqdist4_f64`, which
/// every answer ranks by) can lie from its fp32 score F (`sqdist4_f32`)
/// at one `dim`, so the exact scan can settle most rows from F alone.
///
/// With u = 2^-24 and U = 2^-53, F is the exact sum S of squared
/// differences times at most K32 roundings of relative error u each, plus
/// at most 2^-150 per fma whose result falls below FLT_MIN (fp32 additions
/// and subtractions there are exact); D is S times at most K64 roundings of
/// relative error U, and cannot underflow or overflow. K32 and K64 count
/// the longest rounding chain of one term through each kernel's reduction
/// (nn/kernels.h), the squared difference included. Hence, for finite F,
///
///     F (1 - e) - a  <  D  <=  F (1 + e) + a,
///     e = 2 (K32 u + K64 U),  a = dim * 2^-149,
///
/// while K32 u <= 0.1; the factor 2 leaves a relative margin of at least
/// 4.8e-7 for the double roundings of the cuts below. Past that dim, e is
/// NaN and rules no row out. F = +inf means an fp32 input was infinite or
/// an fp32 step overflowed, so D >= FLT_MAX (1 - e) - a (or D = +inf).
/// F is NaN exactly when D is (some difference is NaN on both paths), and
/// a NaN F is never settled.
class ScreenBound {
 public:
  explicit ScreenBound(size_t dim);

  /// An upper bound on D for fp32 score `f`: +inf or NaN unless f is finite.
  double Upper(float f) const { return f * (1.0 + e_) + a_; }

  /// A cut c such that every row with F > c has D > `limit`. +inf or NaN
  /// when `limit` is not finite, so that no row is ruled out.
  float RulesOutAbove(double limit) const;

  /// A cut c such that every row with F < c has D < `limit`. NaN when
  /// `limit` is NaN, so that no row is settled.
  float SettlesBelow(double limit) const;

 private:
  double e_;  // relative term, NaN past the bound's range
  double a_;  // absolute term, for fp32 results below FLT_MIN
};

/// Which nearest-neighbor backend serves queries.
enum class IndexKind : uint32_t {
  kExact = 0,  // VectorIndex: exact linear scan
  kLsh = 1,    // LshIndex: random-hyperplane multi-probe LSH
  kIvf = 2,    // IvfIndex: k-means coarse quantizer + inverted lists
};

/// "exact" / "lsh" / "ivf" (stable CLI + stats-JSON names).
const char* IndexKindName(IndexKind kind);

/// Parses an IndexKindName; InvalidArgument for anything else.
Result<IndexKind> ParseIndexKind(const std::string& name);

/// Everything needed to construct an index, validated up front so a typo'd
/// CLI flag fails with a message instead of a CHECK later. Defaults are the
/// benchmark-tuned serving settings (BENCH_ann.json).
struct IndexConfig {
  IndexKind kind = IndexKind::kExact;

  // --- LSH (kind == kLsh) ---
  int lsh_tables = 6;       // hash tables; more -> higher recall, more memory
  int lsh_bits = 12;        // signature bits per table (1..24)
  uint64_t lsh_seed = 9;    // hyperplane RNG seed

  // --- IVF (kind == kIvf) ---
  size_t ivf_nlist = 256;        // inverted lists (k-means centroids)
  size_t ivf_nprobe = 8;         // lists scanned per query
  int ivf_train_iters = 10;      // Lloyd iterations
  uint64_t ivf_seed = 17;        // centroid-init RNG seed
  size_t ivf_train_per_list = 32;  // training starts at nlist * this rows

  /// OK, or InvalidArgument naming the offending field.
  Status Validate() const;
};

/// A point-in-time snapshot of index diagnostics for the stats endpoint.
struct IndexStats {
  IndexKind kind = IndexKind::kExact;
  size_t size = 0;   // rows indexed
  size_t dim = 0;
  int64_t queries = 0;           // Query() calls served
  int64_t candidates = 0;        // positions scanned across all queries
  bool trained = true;           // IVF: quantizer trained (others: always)
  size_t nlist = 0;              // IVF: inverted lists (0 otherwise)
  size_t nprobe = 0;             // IVF: lists probed per query (0 otherwise)

  /// Positions scanned per query on average — the work an approximate
  /// index saved relative to `size` rows for an exact scan.
  double MeanCandidates() const;

  /// One-line JSON object for the server stats endpoint.
  std::string ToJson() const;
};

/// Flat row-major storage for an index's vectors: an optional *borrowed*
/// prefix (rows inside an mmap'd snapshot, served zero-copy) plus an owned
/// tail for rows appended afterwards. Row r is stable for the life of the
/// store; the `keepalive` shared_ptr pins the mapping a borrowed prefix
/// points into.
class RowStore {
 public:
  explicit RowStore(size_t dim);

  size_t rows() const { return base_rows_ + tail_.size() / dim_; }
  size_t dim() const { return dim_; }

  /// Pointer to row `r` (length dim()). Borrowed rows point into the
  /// mapping; appended rows into owned storage.
  const float* Row(size_t r) const {
    return r < base_rows_ ? base_ + r * dim_
                          : tail_.data() + (r - base_rows_) * dim_;
  }

  /// Copies `vec` (length dim()) in as row rows(); returns its row id.
  size_t Append(std::span<const float> vec);

  /// Installs `n` borrowed rows as the base prefix (store must be empty).
  /// `keepalive` owns the bytes `base` points into.
  void InstallBorrowed(const float* base, size_t n,
                       std::shared_ptr<MmapFile> keepalive);

  /// Appends every row's raw bytes (no length prefix) to `writer` — at most
  /// two write calls (borrowed block + owned tail), not one per row.
  void AppendRawTo(BinaryWriter* writer) const;

 private:
  size_t dim_;
  const float* base_ = nullptr;  // borrowed prefix (nullptr if none)
  size_t base_rows_ = 0;
  std::vector<float> tail_;  // rows appended after the base
  std::shared_ptr<MmapFile> keepalive_;
};

/// Rows to install into a restored index: a pointer into a mapped snapshot
/// plus the mapping that keeps it alive.
struct RowBlock {
  size_t rows = 0;
  const float* borrowed = nullptr;
  std::shared_ptr<MmapFile> keepalive;
};

/// Abstract nearest-neighbor index. See the file comment for the
/// template-method contract; thread-safety matches the concrete indexes:
/// Query is const and safe to call concurrently, Add/Restore are not.
class AnnIndex {
 public:
  virtual ~AnnIndex() = default;
  AnnIndex(const AnnIndex&) = delete;
  AnnIndex& operator=(const AnnIndex&) = delete;

  /// Appends one vector (length dim()) as row Size() and registers it with
  /// the backend. An index grown by Add answers queries identically to one
  /// built from the same rows in any other way (bulk, restore, replay).
  void Add(std::span<const float> vec);

  /// The (approximate) k nearest rows with squared Euclidean distances,
  /// ascending, NaNs last. k is clamped to Size(): over-asking returns
  /// every row ranked and an empty index returns an empty result — k is
  /// client input on the serving path, so it must never abort.
  virtual KnnResult Query(std::span<const float> query, size_t k) const = 0;

  size_t Size() const { return rows_.rows(); }
  size_t size() const { return Size(); }
  size_t dim() const { return rows_.dim(); }
  virtual IndexKind kind() const = 0;

  /// Raw pointer to indexed row `r` — zero-copy for borrowed (mmap) rows.
  const float* RowPtr(size_t r) const { return rows_.Row(r); }

  /// Installs restored rows into an empty index, then rebuilds the backend
  /// structure: from `aux` (the snapshot's serialized structure) when given
  /// and loadable, otherwise by replaying OnAppend over every row in
  /// ascending order — the same calls Add makes, so a rebuilt index is
  /// bit-identical to one grown live. An InvalidArgument from the backend's
  /// LoadAux (aux written under different parameters) downgrades to the
  /// replay path; I/O and corruption errors propagate.
  Status Restore(RowBlock block, BinaryReader* aux);

  /// Diagnostics snapshot (kind, sizes, query/candidate counters).
  IndexStats Stats() const;

  /// Mean positions scanned per query so far.
  double MeanCandidates() const;

  /// Appends the raw row bytes to `writer` (store snapshots embed them).
  void AppendRowsTo(BinaryWriter* writer) const { rows_.AppendRawTo(writer); }

  /// Appends the backend structure bytes to `writer` (store snapshots embed
  /// them after the rows; Restore() consumes them as its `aux`).
  void AppendAuxTo(BinaryWriter* writer) const { SaveAux(writer); }

 protected:
  explicit AnnIndex(size_t dim) : rows_(dim) {}

  /// Registers row `row` (already present in rows()) with the backend's
  /// acceleration structure. Called with rows strictly ascending.
  virtual void OnAppend(size_t row) = 0;

  /// Serializes the backend structure after the row block. Must be a pure
  /// function of the index state with a deterministic byte layout.
  virtual void SaveAux(BinaryWriter* writer) const = 0;

  /// Restores the backend structure written by SaveAux, after the rows are
  /// already installed. Must mutate the index only on success so Restore
  /// can fall back to the replay path on InvalidArgument.
  virtual Status LoadAux(BinaryReader* reader) = 0;

  /// Fills backend-specific IndexStats fields (kind/size/dim/counters are
  /// filled by the base).
  virtual void FillStats(IndexStats* stats) const = 0;

  const RowStore& rows() const { return rows_; }

  /// Records one served query that scanned `candidates` positions.
  void CountQuery(size_t candidates) const;

  /// The exact k nearest rows to `query` (length dim()), with squared
  /// Euclidean distances, ascending under NanLastLess; k is clamped to
  /// Size(). (distance, row) under NanLastLess is a strict total order, so
  /// the k-prefix is unique and the answer is the same bytes at any
  /// chunking, thread count or SIMD tier.
  KnnResult ExactTopK(std::span<const float> query, size_t k) const;

  /// The same over `candidates` only (distinct row ids, in any order); k is
  /// clamped to candidates.size().
  KnnResult ExactTopK(std::span<const float> query, size_t k,
                      std::span<const uint32_t> candidates) const;

  /// Receives the fp32 scores of chunk `chunk`, scan positions
  /// [first, first + count), and appends to `rescore`, ascending, the
  /// positions whose f64 score the answer needs.
  using ChunkScreen =
      std::function<void(size_t chunk, size_t first, const float* scores,
                         size_t count, std::vector<size_t>* rescore)>;

  /// Receives the f64 scores of `count` positions of chunk `chunk` that its
  /// screen kept, in the order it kept them.
  using ScanVisitor =
      std::function<void(size_t chunk, const size_t* positions,
                         const double* distances, size_t count)>;

  /// Scores `n` scan positions against `query`: position p is row `ids[p]`,
  /// or row p when `ids` is null. Positions split into kScanChunkRows-row
  /// chunks (ScanChunks(n) of them); below 2 * kScanChunkRows positions the
  /// scan runs inline, otherwise each pool lane claims the next unscanned
  /// chunk. Per chunk, `sqdist4_f32` scores every position, `screen` picks
  /// the positions to re-score, and `sqdist4_f64` scores those (the query
  /// widened to double once) for `visit`. `screen` and `visit` must write
  /// only outputs owned by their chunk, which makes the result independent
  /// of the schedule.
  void ScanRows(std::span<const float> query, size_t n, const uint32_t* ids,
                const ChunkScreen& screen, const ScanVisitor& visit) const;

  /// Number of chunks ScanRows splits `n` positions into.
  static size_t ScanChunks(size_t n) {
    return (n + kScanChunkRows - 1) / kScanChunkRows;
  }

 private:
  /// Both ExactTopK overloads: the k nearest of `n` scan positions (see
  /// ScanRows for `ids`).
  KnnResult TopK(std::span<const float> query, size_t k, size_t n,
                 const uint32_t* ids) const;

  RowStore rows_;
  // Not mutex-guarded (DESIGN.md §5.4): relaxed atomic counters keep
  // concurrent Query diagnostics race-free, and no cross-field ordering is
  // needed — the neighbor results themselves are pure.
  mutable std::atomic<int64_t> queries_{0};
  mutable std::atomic<int64_t> candidates_{0};
};

/// Constructs an empty index for `dim`-dimensional vectors per `config`
/// (validated first). The only way serving code builds a concrete index.
Result<std::unique_ptr<AnnIndex>> CreateIndex(const IndexConfig& config,
                                              size_t dim);

}  // namespace t2vec::core

#endif  // T2VEC_CORE_ANN_INDEX_H_
