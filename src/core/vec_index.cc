#include "core/vec_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/sort.h"
#include "nn/kernels.h"

namespace t2vec::core {

namespace {

// Rows RankOf's screen tests per branch.
constexpr size_t kOpenRun = 16;

}  // namespace

VectorIndex::VectorIndex(size_t dim) : AnnIndex(dim) {}

VectorIndex::VectorIndex(const nn::Matrix& vectors)
    : AnnIndex(vectors.cols()) {
  for (size_t i = 0; i < vectors.rows(); ++i) {
    Add(std::span<const float>(vectors.Row(i), vectors.cols()));
  }
}

double VectorIndex::Distance(const float* query, size_t i) const {
  // Dispatched 8-double-lane squared distance (nn/kernels.h sqdist_f64);
  // identical bits on every SIMD tier.
  return nn::Kernels().sqdist_f64(query, rows().Row(i), dim());
}

KnnResult VectorIndex::Query(std::span<const float> query, size_t k) const {
  T2VEC_CHECK(query.size() == dim());
  // k is a request parameter, not an invariant: ExactTopK clamps it, so
  // asking for more neighbors than the store holds (or querying an empty
  // store) degrades to a shorter answer and never aborts the process.
  CountQuery(Size());
  return ExactTopK(query, k);
}

size_t VectorIndex::RankOf(const float* query, size_t target) const {
  T2VEC_CHECK(target < Size());
  const double target_dist = Distance(query, target);
  // A row whose fp32 score lies below `closer_below` is strictly closer
  // than the target and one above `farther_above` is not, whatever its f64
  // score; only the rows between (the target among them) are re-scored. A
  // NaN target distance settles no row.
  const ScreenBound bound(dim());
  const float closer_below = bound.SettlesBelow(target_dist);
  const float farther_above = bound.RulesOutAbove(target_dist);
  // Strictly-closer rows counted per chunk; integer counts sum the same in
  // any order.
  std::vector<size_t> closer(ScanChunks(Size()), 0);
  ScanRows(
      {query, dim()}, Size(), nullptr,
      [&, closer_below, farther_above](size_t chunk, size_t first,
                                       const float* scores, size_t count,
                                       std::vector<size_t>* rescore) {
        // Runs of 16 rows are counted without a branch, since about half
        // the rows fall each way; a run holding a row the bound leaves
        // open is rare.
        const auto open = [&](size_t i) {
          return !(scores[i] < closer_below) & !(scores[i] > farther_above);
        };
        size_t n = 0;
        for (size_t run = 0; run < count; run += kOpenRun) {
          const size_t end = std::min(count, run + kOpenRun);
          bool any = false;
          for (size_t i = run; i < end; ++i) {
            n += scores[i] < closer_below;
            any |= open(i);
          }
          if (!any) continue;
          for (size_t i = run; i < end; ++i) {
            if (open(i)) rescore->push_back(first + i);
          }
        }
        closer[chunk] += n;
      },
      [&](size_t chunk, const size_t* positions, const double* distances,
          size_t count) {
        size_t n = 0;
        for (size_t i = 0; i < count; ++i) {
          if (positions[i] != target && distances[i] < target_dist) ++n;
        }
        closer[chunk] += n;
      });
  return std::accumulate(closer.begin(), closer.end(), size_t{1});
}

LshIndex::LshIndex(size_t dim, int num_tables, int num_bits, uint64_t seed)
    : AnnIndex(dim),
      num_tables_(num_tables),
      num_bits_(num_bits),
      seed_(seed) {
  T2VEC_CHECK(num_tables >= 1);
  T2VEC_CHECK(num_bits >= 1 && num_bits <= 24);
  Rng rng(seed);
  hyperplanes_.Resize(
      static_cast<size_t>(num_tables) * static_cast<size_t>(num_bits), dim);
  for (size_t i = 0; i < hyperplanes_.size(); ++i) {
    hyperplanes_.data()[i] = static_cast<float>(rng.Gaussian());
  }
  tables_.resize(static_cast<size_t>(num_tables));
}

LshIndex::LshIndex(const nn::Matrix& vectors, int num_tables, int num_bits,
                   uint64_t seed)
    : LshIndex(vectors.cols(), num_tables, num_bits, seed) {
  for (size_t i = 0; i < vectors.rows(); ++i) {
    Add(std::span<const float>(vectors.Row(i), vectors.cols()));
  }
}

void LshIndex::OnAppend(size_t row) {
  for (int t = 0; t < num_tables_; ++t) {
    tables_[static_cast<size_t>(t)][Signature(rows().Row(row), t)].push_back(
        static_cast<uint32_t>(row));
  }
}

uint32_t LshIndex::Signature(const float* vec, int table) const {
  uint32_t sig = 0;
  const size_t d = dim();
  const nn::KernelOps& ops = nn::Kernels();
  for (int b = 0; b < num_bits_; ++b) {
    const float* __restrict plane = hyperplanes_.Row(
        static_cast<size_t>(table) * static_cast<size_t>(num_bits_) +
        static_cast<size_t>(b));
    const double dot = ops.dot_f64(plane, vec, d);
    sig = (sig << 1) | (dot >= 0.0 ? 1u : 0u);
  }
  return sig;
}

KnnResult LshIndex::Query(std::span<const float> query, size_t k) const {
  T2VEC_CHECK(query.size() == dim());
  // Same clamp as VectorIndex::Query: over-asking returns every indexed row
  // ranked; an empty index returns an empty result.
  k = std::min(k, Size());
  if (k == 0) return {};
  std::vector<uint8_t> seen(Size(), 0);
  std::vector<uint32_t> candidates;

  auto gather = [&](int table, uint32_t sig) {
    auto it = tables_[static_cast<size_t>(table)].find(sig);
    if (it == tables_[static_cast<size_t>(table)].end()) return;
    for (uint32_t idx : it->second) {
      if (!seen[idx]) {
        seen[idx] = 1;
        candidates.push_back(idx);
      }
    }
  };

  for (int t = 0; t < num_tables_; ++t) {
    const uint32_t sig = Signature(query.data(), t);
    gather(t, sig);
    // Multi-probe: all 1-bit flips of the signature.
    for (int b = 0; b < num_bits_; ++b) gather(t, sig ^ (1u << b));
  }

  if (candidates.size() < k) {
    // Recall fallback: widen to a full scan.
    CountQuery(Size());
    return ExactTopK(query, k);
  }
  // Exact re-ranking of the deduplicated candidate set.
  CountQuery(candidates.size());
  return ExactTopK(query, k, candidates);
}

void LshIndex::SaveAux(BinaryWriter* writer) const {
  writer->WritePod<int32_t>(num_tables_);
  writer->WritePod<int32_t>(num_bits_);
  writer->WritePod<uint64_t>(seed_);
  // Buckets in deterministically sorted key order so equal indexes always
  // serialize to identical bytes (unordered_map iteration order is not part
  // of the index's logical state).
  std::vector<uint32_t> keys;
  for (const auto& table : tables_) {
    keys.clear();
    keys.reserve(table.size());
    for (const auto& [key, bucket] : table) keys.push_back(key);
    DeterministicSort(keys.begin(), keys.end());
    writer->WritePod<uint64_t>(keys.size());
    for (const uint32_t key : keys) {
      writer->WritePod<uint32_t>(key);
      writer->WriteVector(table.at(key));
    }
  }
}

Status LshIndex::LoadAux(BinaryReader* reader) {
  int32_t num_tables = 0, num_bits = 0;
  uint64_t seed = 0;
  if (!reader->ReadPod(&num_tables) || !reader->ReadPod(&num_bits) ||
      !reader->ReadPod(&seed)) {
    return Status::IoError("malformed LSH snapshot parameters");
  }
  if (num_tables != num_tables_ || num_bits != num_bits_ || seed != seed_) {
    // Written under a different configuration: the caller rebuilds by
    // replay under this index's own parameters.
    return Status::InvalidArgument("LSH snapshot parameters differ");
  }
  std::vector<std::unordered_map<uint32_t, std::vector<uint32_t>>> tables(
      static_cast<size_t>(num_tables));
  for (auto& table : tables) {
    uint64_t buckets = 0;
    if (!reader->ReadPod(&buckets)) {
      return Status::IoError("malformed LSH snapshot tables");
    }
    for (uint64_t b = 0; b < buckets; ++b) {
      uint32_t key = 0;
      std::vector<uint32_t> bucket;
      if (!reader->ReadPod(&key) || !reader->ReadVector(&bucket)) {
        return Status::IoError("malformed LSH snapshot bucket");
      }
      for (const uint32_t row : bucket) {
        if (row >= Size()) {
          return Status::IoError("LSH snapshot bucket references missing row");
        }
      }
      table.emplace(key, std::move(bucket));
    }
  }
  tables_ = std::move(tables);
  return Status::Ok();
}

}  // namespace t2vec::core
