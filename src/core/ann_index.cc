#include "core/ann_index.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/order.h"
#include "common/sort.h"
#include "common/thread_pool.h"
#include "core/ivf_index.h"
#include "core/vec_index.h"

namespace t2vec::core {

namespace {

// Re-scored positions per f64 block: a block's distances stay in L1 while
// the scan's visitor consumes them.
constexpr size_t kScoreBlock = 256;

constexpr float kInf = std::numeric_limits<float>::infinity();

using Scored = std::pair<double, size_t>;

// The k smallest (distance, row) pairs offered so far under NanLastLess,
// kept as a max-heap whose root is the current k-th best. A row that loses
// to the root costs one comparison and one that enters costs O(log k);
// nothing is O(k) per row, because k is client input clamped only to the
// store size.
class BoundedTopK {
 public:
  explicit BoundedTopK(size_t k) : k_(k) { heap_.reserve(k); }

  void Offer(double distance, size_t row) {
    const Scored item{distance, row};
    if (heap_.size() < k_) {
      heap_.push_back(item);
      std::push_heap(heap_.begin(), heap_.end(), NanLastLess{});
    } else if (NanLastLess{}(item, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), NanLastLess{});
      heap_.back() = item;
      std::push_heap(heap_.begin(), heap_.end(), NanLastLess{});
    }
  }

  // The kept pairs, in heap order (not sorted).
  std::vector<Scored> Take() { return std::move(heap_); }

 private:
  size_t k_;
  std::vector<Scored> heap_;
};

// Scores KeepReachable compares with the cut together, without a branch,
// before looking at any one of them: once k scores are in, most runs of
// this many lie wholly above the cut.
constexpr size_t kSkipRun = 16;

// Appends to `rescore` the positions first + i, ascending, of the chunk
// rows whose fp32 score could still reach the chunk's k-th smallest f64
// score (0 < k < count). The cut is the one the chunk's k smallest fp32
// scores allow (NaN ranking above +inf). One pass keeps every row at or
// below a running cut, set by the k smallest scores seen so far, which
// only falls; the final cut then picks among the kept rows, so the set
// depends only on the chunk's scores.
void KeepReachable(const ScreenBound& bound, const float* scores,
                   size_t count, size_t k, size_t first,
                   std::vector<size_t>* rescore) {
  std::vector<float> heap;  // max-heap of the k smallest scores seen
  heap.reserve(k);
  std::vector<uint32_t> kept;
  float cut = kInf;
  const auto offer = [&](size_t i) {
    const float s = scores[i];
    if (s > cut) return;
    kept.push_back(static_cast<uint32_t>(i));
    if (heap.size() < k) {
      heap.push_back(std::isnan(s) ? kInf : s);
      std::push_heap(heap.begin(), heap.end());
      if (heap.size() < k) return;
    } else if (s < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = s;
      std::push_heap(heap.begin(), heap.end());
    } else {
      return;
    }
    cut = bound.RulesOutAbove(bound.Upper(heap.front()));
  };
  size_t run = 0;
  for (; run + kSkipRun <= count; run += kSkipRun) {
    bool any = false;
    for (size_t j = run; j < run + kSkipRun; ++j) any |= !(scores[j] > cut);
    if (!any) continue;
    for (size_t j = run; j < run + kSkipRun; ++j) offer(j);
  }
  for (; run < count; ++run) offer(run);
  for (const uint32_t i : kept) {
    if (!(scores[i] > cut)) rescore->push_back(first + i);
  }
}

}  // namespace

ScreenBound::ScreenBound(size_t dim) {
  const double k32 = static_cast<double>(std::max(dim / 8, dim % 8) + 10);
  const double k64 =
      static_cast<double>(std::max(dim / 8 + 4, dim % 8 + 2) + 2);
  e_ = k32 * 0x1p-24 <= 0.1 ? 2.0 * (k32 * 0x1p-24 + k64 * 0x1p-53)
                            : std::numeric_limits<double>::quiet_NaN();
  a_ = static_cast<double>(dim) * 0x1p-149;
}

float ScreenBound::RulesOutAbove(double limit) const {
  // Rounded up to a float; a limit past FLT_MAX gives +inf.
  return std::nextafter(static_cast<float>((limit + a_) / (1.0 - e_)), kInf);
}

float ScreenBound::SettlesBelow(double limit) const {
  // Rounded down to a float; a limit past FLT_MAX gives FLT_MAX or less.
  return std::nextafter(static_cast<float>((limit - a_) / (1.0 + e_)),
                        -kInf);
}

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kExact:
      return "exact";
    case IndexKind::kLsh:
      return "lsh";
    case IndexKind::kIvf:
      return "ivf";
  }
  return "unknown";
}

Result<IndexKind> ParseIndexKind(const std::string& name) {
  if (name == "exact") return IndexKind::kExact;
  if (name == "lsh") return IndexKind::kLsh;
  if (name == "ivf") return IndexKind::kIvf;
  return Status::InvalidArgument("unknown index kind \"" + name +
                                 "\" (expected exact, lsh, or ivf)");
}

Status IndexConfig::Validate() const {
  switch (kind) {
    case IndexKind::kExact:
      return Status::Ok();
    case IndexKind::kLsh:
      if (lsh_tables < 1) {
        return Status::InvalidArgument("lsh_tables must be >= 1");
      }
      if (lsh_bits < 1 || lsh_bits > 24) {
        return Status::InvalidArgument("lsh_bits must be in [1, 24]");
      }
      return Status::Ok();
    case IndexKind::kIvf:
      if (ivf_nlist < 1) {
        return Status::InvalidArgument("ivf_nlist must be >= 1");
      }
      if (ivf_nprobe < 1) {
        return Status::InvalidArgument("ivf_nprobe must be >= 1");
      }
      if (ivf_train_iters < 1) {
        return Status::InvalidArgument("ivf_train_iters must be >= 1");
      }
      if (ivf_train_per_list < 1) {
        return Status::InvalidArgument("ivf_train_per_list must be >= 1");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown index kind");
}

double IndexStats::MeanCandidates() const {
  if (queries == 0) return 0.0;
  return static_cast<double>(candidates) / static_cast<double>(queries);
}

std::string IndexStats::ToJson() const {
  char mean[32];
  std::snprintf(mean, sizeof(mean), "%.2f", MeanCandidates());
  std::string json = "{\"kind\":\"";
  json += IndexKindName(kind);
  json += "\",\"size\":" + std::to_string(size);
  json += ",\"dim\":" + std::to_string(dim);
  json += ",\"queries\":" + std::to_string(queries);
  json += ",\"candidates\":" + std::to_string(candidates);
  json += ",\"mean_candidates\":";
  json += mean;
  json += ",\"trained\":";
  json += trained ? "true" : "false";
  if (kind == IndexKind::kIvf) {
    json += ",\"nlist\":" + std::to_string(nlist);
    json += ",\"nprobe\":" + std::to_string(nprobe);
  }
  json += "}";
  return json;
}

RowStore::RowStore(size_t dim) : dim_(dim) { T2VEC_CHECK(dim > 0); }

size_t RowStore::Append(std::span<const float> vec) {
  T2VEC_CHECK(vec.size() == dim_);
  tail_.insert(tail_.end(), vec.begin(), vec.end());
  return rows() - 1;
}

void RowStore::InstallBorrowed(const float* base, size_t n,
                               std::shared_ptr<MmapFile> keepalive) {
  T2VEC_CHECK(rows() == 0);
  base_ = base;
  base_rows_ = n;
  keepalive_ = std::move(keepalive);
}

void RowStore::AppendRawTo(BinaryWriter* writer) const {
  if (base_rows_ > 0) {
    writer->WriteRaw(base_, base_rows_ * dim_ * sizeof(float));
  }
  if (!tail_.empty()) {
    writer->WriteRaw(tail_.data(), tail_.size() * sizeof(float));
  }
}

void AnnIndex::Add(std::span<const float> vec) {
  const size_t row = rows_.Append(vec);
  OnAppend(row);
}

Status AnnIndex::Restore(RowBlock block, BinaryReader* aux) {
  T2VEC_CHECK(Size() == 0);
  const size_t n = block.rows;
  rows_.InstallBorrowed(block.borrowed, n, std::move(block.keepalive));
  if (aux != nullptr) {
    Status st = LoadAux(aux);
    if (st.ok()) return st;
    if (st.code() != StatusCode::kInvalidArgument) return st;
    // Aux written under different parameters: fall through to the replay
    // rebuild (LoadAux left the index untouched).
  }
  for (size_t r = 0; r < n; ++r) OnAppend(r);
  return Status::Ok();
}

IndexStats AnnIndex::Stats() const {
  IndexStats stats;
  stats.kind = kind();
  stats.size = Size();
  stats.dim = dim();
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.candidates = candidates_.load(std::memory_order_relaxed);
  FillStats(&stats);
  return stats;
}

double AnnIndex::MeanCandidates() const { return Stats().MeanCandidates(); }

void AnnIndex::CountQuery(size_t candidates) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  candidates_.fetch_add(static_cast<int64_t>(candidates),
                        std::memory_order_relaxed);
}

void AnnIndex::ScanRows(std::span<const float> query, size_t n,
                        const uint32_t* ids, const ChunkScreen& screen,
                        const ScanVisitor& visit) const {
  T2VEC_CHECK(query.size() == dim());
  const nn::KernelOps& ops = nn::Kernels();
  const size_t d = dim();
  const std::vector<double> q(query.begin(), query.end());
  const auto row = [&](size_t pos) {
    return rows_.Row(ids != nullptr ? ids[pos] : pos);
  };
  const auto scan_chunk = [&](size_t chunk) {
    const size_t first = chunk * kScanChunkRows;
    const size_t count = std::min(n - first, kScanChunkRows);
    const auto scores = std::make_unique_for_overwrite<float[]>(count);
    if (ids != nullptr) {
      SqDistRows(
          ops.sqdist4_f32, query.data(), d, count,
          [&](size_t i) { return rows_.Row(ids[first + i]); }, scores.get());
    } else {
      SqDistRows(
          ops.sqdist4_f32, query.data(), d, count,
          [&](size_t i) { return rows_.Row(first + i); }, scores.get());
    }
    std::vector<size_t> rescore;
    screen(chunk, first, scores.get(), count, &rescore);
    double distances[kScoreBlock];
    for (size_t b = 0; b < rescore.size(); b += kScoreBlock) {
      const size_t m = std::min(kScoreBlock, rescore.size() - b);
      SqDistRows(
          ops.sqdist4_f64, q.data(), d, m,
          [&](size_t i) { return row(rescore[b + i]); }, distances);
      visit(chunk, rescore.data() + b, distances, m);
    }
  };
  const size_t chunks = ScanChunks(n);
  if (n < 2 * kScanChunkRows) {
    for (size_t chunk = 0; chunk < chunks; ++chunk) scan_chunk(chunk);
    return;
  }
  // Each lane claims the next unscanned chunk until none is left. What a
  // chunk writes depends only on the chunk, never on the lane that ran it.
  std::atomic<size_t> next{0};
  const size_t lanes =
      std::min(chunks, static_cast<size_t>(GetNumThreads()));
  ParallelFor(0, lanes, 1, [&](size_t /*lane*/) {
    for (size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
         chunk < chunks;
         chunk = next.fetch_add(1, std::memory_order_relaxed)) {
      scan_chunk(chunk);
    }
  });
}

KnnResult AnnIndex::ExactTopK(std::span<const float> query, size_t k) const {
  return TopK(query, k, Size(), nullptr);
}

KnnResult AnnIndex::ExactTopK(std::span<const float> query, size_t k,
                              std::span<const uint32_t> candidates) const {
  return TopK(query, k, candidates.size(), candidates.data());
}

KnnResult AnnIndex::TopK(std::span<const float> query, size_t k, size_t n,
                         const uint32_t* ids) const {
  k = std::min(k, n);
  if (k == 0) return {};
  std::vector<BoundedTopK> tops;
  tops.reserve(ScanChunks(n));
  for (size_t chunk = 0; chunk < ScanChunks(n); ++chunk) {
    tops.emplace_back(std::min(k, kScanChunkRows));
  }
  // A row whose fp32 score lies above the cut has an f64 score above the
  // upper bound of the chunk's k-th smallest fp32 score, so k of the
  // chunk's rows rank ahead of it and its f64 score is never needed. The
  // cut is +inf or NaN when that k-th score is not finite, and every row
  // stays.
  const ScreenBound bound(dim());
  const auto screen = [&](size_t /*chunk*/, size_t first, const float* scores,
                          size_t count, std::vector<size_t>* rescore) {
    if (k < count) {
      KeepReachable(bound, scores, count, k, first, rescore);
      return;
    }
    for (size_t i = 0; i < count; ++i) rescore->push_back(first + i);
  };
  ScanRows(query, n, ids, screen,
           [&](size_t chunk, const size_t* positions, const double* distances,
               size_t count) {
             BoundedTopK& top = tops[chunk];
             for (size_t i = 0; i < count; ++i) {
               const size_t pos = positions[i];
               top.Offer(distances[i], ids != nullptr ? ids[pos] : pos);
             }
           });
  // Between them the chunks hold the k-prefix of the whole order, and under
  // a strict total order that prefix is unique, so the merge gives the same
  // answer at any chunking, thread count or schedule.
  std::vector<Scored> merged = tops[0].Take();
  for (size_t chunk = 1; chunk < tops.size(); ++chunk) {
    const std::vector<Scored> part = tops[chunk].Take();
    merged.insert(merged.end(), part.begin(), part.end());
  }
  TotalOrderPartialSort(merged.begin(), merged.begin() + static_cast<long>(k),
                        merged.end(), NanLastLess{});
  KnnResult out;
  out.ids.reserve(k);
  out.distances.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    out.ids.push_back(merged[i].second);
    out.distances.push_back(merged[i].first);
  }
  return out;
}

Result<std::unique_ptr<AnnIndex>> CreateIndex(const IndexConfig& config,
                                              size_t dim) {
  if (Status st = config.Validate(); !st.ok()) return st;
  if (dim == 0) return Status::InvalidArgument("index dim must be > 0");
  switch (config.kind) {
    case IndexKind::kExact:
      return std::unique_ptr<AnnIndex>(new VectorIndex(dim));
    case IndexKind::kLsh:
      return std::unique_ptr<AnnIndex>(new LshIndex(
          dim, config.lsh_tables, config.lsh_bits, config.lsh_seed));
    case IndexKind::kIvf:
      return std::unique_ptr<AnnIndex>(new IvfIndex(dim, config));
  }
  return Status::InvalidArgument("unknown index kind");
}

}  // namespace t2vec::core
