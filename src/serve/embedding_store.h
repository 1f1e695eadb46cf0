#ifndef T2VEC_SERVE_EMBEDDING_STORE_H_
#define T2VEC_SERVE_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/ann_index.h"

/// \file
/// Durable id -> embedding storage for the serving path: vectors produced by
/// EmbeddingService are registered under their stable trajectory ids, the
/// backing index grows incrementally, and the whole store snapshots to disk
/// via common/serialize.h.
///
/// The retrieval backend is an `AnnIndex` chosen by `core::IndexConfig`
/// (exact scan, LSH, or IVF) — the store never names a concrete index type,
/// so swapping backends is a config change, not a code change. The store
/// snapshot is the one on-disk form of the vectors and the backend's
/// structure, and `LoadMmap` is its one reader: it serves the vector block
/// zero-copy out of a memory mapping, so a million-vector store opens in
/// milliseconds.
///
/// Thread-compatibility: single writer, concurrent readers — Add/Save and
/// Knn/Find may not overlap. The service's typical shape (one ingest thread,
/// query threads gated by an external RW lock or epoch) satisfies this.

namespace t2vec::serve {

/// Maps stable trajectory ids to representation vectors with kNN retrieval.
class EmbeddingStore {
 public:
  /// Neighbor ids (stable trajectory ids, not row indices) with their
  /// squared Euclidean distances, ascending.
  struct Neighbors {
    std::vector<int64_t> ids;
    std::vector<double> distances;
    size_t size() const { return ids.size(); }
  };

  /// An empty store for `dim`-dimensional vectors whose retrieval index is
  /// built from `config`. `config` must be valid (callers on user-input
  /// paths run Validate() first; an invalid config here is a programming
  /// error and CHECK-fails).
  explicit EmbeddingStore(size_t dim, core::IndexConfig config = {});

  /// Registers `vec` under `id`. Fails with kInvalidArgument when the
  /// dimension mismatches or the id is already present.
  Status Add(int64_t id, std::span<const float> vec);

  bool Contains(int64_t id) const { return row_of_.count(id) > 0; }

  /// The stored vector for `id` (length dim()), or nullptr if absent.
  /// Valid until the next Add().
  const float* Find(int64_t id) const;

  /// The k nearest stored vectors to `query` (length dim()) under the
  /// configured index (exact for kExact, approximate otherwise). k is
  /// clamped to size() — asking a 5-vector store for 10 neighbors returns
  /// 5, and an empty store returns none (k comes straight from clients on
  /// the serving path, so it must never abort).
  Neighbors Knn(std::span<const float> query, size_t k) const;

  size_t size() const { return ids_.size(); }
  size_t dim() const { return index_->dim(); }

  /// Stored ids in insertion order — the order a WAL replay reproduces, and
  /// what the chaos soak walks to rebuild a fault-free comparison store.
  const std::vector<int64_t>& ids() const { return ids_; }

  /// The retrieval backend (kind, counters) for the stats endpoint.
  core::IndexStats Stats() const { return index_->Stats(); }

  const core::AnnIndex& index() const { return *index_; }

  /// Snapshots the store (magic + version + dim + index kind + ids +
  /// vectors + index structure, CRC-framed).
  Status Save(const std::string& path) const;

  /// Restores a store written by Save() by memory-mapping the snapshot and
  /// serving the vector block zero-copy: the CRC is verified once at open,
  /// no vector bytes are copied, and the mapping stays alive for the life
  /// of the store (see common/fs.h MmapFile lifetime rules). The retrieval
  /// index is built from `config`; when the snapshot was saved under the
  /// same index kind, its serialized structure is adopted instead of
  /// recomputed, otherwise the backend rebuilds from the rows.
  static Result<EmbeddingStore> LoadMmap(const std::string& path,
                                         core::IndexConfig config = {});

 private:
  std::unique_ptr<core::AnnIndex> index_;
  std::vector<int64_t> ids_;                  // Row -> trajectory id.
  std::unordered_map<int64_t, size_t> row_of_;  // Trajectory id -> row.
};

}  // namespace t2vec::serve

#endif  // T2VEC_SERVE_EMBEDDING_STORE_H_
