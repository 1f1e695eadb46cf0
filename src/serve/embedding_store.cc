#include "serve/embedding_store.h"

#include <utility>

#include "common/macros.h"
#include "common/serialize.h"

namespace t2vec::serve {

namespace {

// "t2vS" little-endian: distinguishes store snapshots from model files.
constexpr uint32_t kStoreMagic = 0x5376'3274;
// Version 2 added the atomic-write + CRC32C trailer framing (DESIGN.md §7).
// Version 3, the only one the loader reads, embeds the retrieval backend:
// an index-kind field after the dimension and the index's serialized
// structure after the vector block, so an IVF/LSH store reopens without
// retraining.
constexpr uint32_t kStoreVersion = 3;

}  // namespace

EmbeddingStore::EmbeddingStore(size_t dim, core::IndexConfig config) {
  auto created = core::CreateIndex(config, dim);
  // Config validity is a caller contract (user-input paths Validate first).
  T2VEC_CHECK(created.ok());
  index_ = std::move(created).value();
}

Status EmbeddingStore::Add(int64_t id, std::span<const float> vec) {
  if (vec.size() != dim()) {
    return Status::InvalidArgument(
        "EmbeddingStore::Add: vector has dimension " +
        std::to_string(vec.size()) + ", store holds " + std::to_string(dim()));
  }
  if (Contains(id)) {
    return Status::InvalidArgument("EmbeddingStore::Add: duplicate id " +
                                   std::to_string(id));
  }
  row_of_.emplace(id, ids_.size());
  ids_.push_back(id);
  index_->Add(vec);
  return Status::Ok();
}

const float* EmbeddingStore::Find(int64_t id) const {
  const auto it = row_of_.find(id);
  if (it == row_of_.end()) return nullptr;
  return index_->RowPtr(it->second);
}

EmbeddingStore::Neighbors EmbeddingStore::Knn(std::span<const float> query,
                                              size_t k) const {
  const core::KnnResult rows = index_->Query(query, k);
  Neighbors out;
  out.ids.reserve(rows.size());
  for (const size_t row : rows.ids) out.ids.push_back(ids_[row]);
  out.distances = rows.distances;
  return out;
}

Status EmbeddingStore::Save(const std::string& path) const {
  BinaryWriter writer(path);
  if (!writer.ok()) return writer.status();
  writer.WritePod(kStoreMagic);
  writer.WritePod(kStoreVersion);
  writer.WritePod<uint64_t>(dim());
  writer.WritePod<uint32_t>(static_cast<uint32_t>(index_->kind()));
  writer.WriteVector(ids_);
  // Same count-prefixed float block as WriteVector, but streamed straight
  // from the index's row storage (at most two large writes). The header
  // (20) + ids (8 + 8n) + count (8) layout keeps the floats 4-byte aligned
  // at offset 36 + 8n for the LoadMmap zero-copy path.
  writer.WritePod<uint64_t>(size() * dim());
  index_->AppendRowsTo(&writer);
  index_->AppendAuxTo(&writer);
  return writer.Finish();
}

Result<EmbeddingStore> EmbeddingStore::LoadMmap(const std::string& path,
                                                core::IndexConfig config) {
  if (Status st = config.Validate(); !st.ok()) return st;
  auto mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  auto keepalive = std::make_shared<MmapFile>(std::move(mapped).value());
  BinaryReader reader(keepalive->data(), keepalive->size(), path);
  if (!reader.ok()) return reader.status();
  const auto error = [&path](const std::string& what) {
    return Status::IoError("EmbeddingStore::LoadMmap: " + what + " in " +
                           path);
  };
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t dim = 0;
  uint32_t file_kind = 0;
  if (!reader.ReadPod(&magic) || magic != kStoreMagic) {
    return error("bad magic");
  }
  if (!reader.ReadPod(&version) || version != kStoreVersion) {
    return error("unsupported version " + std::to_string(version));
  }
  if (!reader.ReadPod(&dim) || dim == 0) return error("bad dimension");
  if (!reader.ReadPod(&file_kind) ||
      file_kind > static_cast<uint32_t>(core::IndexKind::kIvf)) {
    return error("bad index kind");
  }
  std::vector<int64_t> ids;
  uint64_t floats = 0;
  if (!reader.ReadVector(&ids) || !reader.ReadPod(&floats) ||
      floats != ids.size() * dim ||
      floats > reader.remaining() / sizeof(float)) {
    return error("truncated store");
  }

  // Zero-copy: rows point into the mapping; the store keeps it alive.
  core::RowBlock block;
  block.rows = ids.size();
  const char* raw = reader.ReadRaw(static_cast<size_t>(floats) *
                                   sizeof(float));
  if (raw == nullptr) return error("truncated store");
  T2VEC_CHECK(reinterpret_cast<uintptr_t>(raw) % alignof(float) == 0);
  block.borrowed = reinterpret_cast<const float*>(raw);
  block.keepalive = std::move(keepalive);

  EmbeddingStore store(static_cast<size_t>(dim), config);
  store.ids_ = std::move(ids);
  store.row_of_.reserve(store.ids_.size());
  for (size_t row = 0; row < store.ids_.size(); ++row) {
    if (!store.row_of_.emplace(store.ids_[row], row).second) {
      return error("duplicate id " + std::to_string(store.ids_[row]));
    }
  }
  // The embedded structure only matches when the snapshot was saved under
  // the configured kind; otherwise the rows load and the backend rebuilds.
  BinaryReader* aux =
      file_kind == static_cast<uint32_t>(config.kind) ? &reader : nullptr;
  if (Status st = store.index_->Restore(std::move(block), aux); !st.ok()) {
    return Status(st.code(),
                  "EmbeddingStore::LoadMmap: " + path + ": " + st.message());
  }
  return store;
}

}  // namespace t2vec::serve
