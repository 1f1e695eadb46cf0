#include "core/ivf_index.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/macros.h"
#include "common/order.h"
#include "common/rng.h"
#include "common/sort.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"

namespace t2vec::core {

namespace {

// Lloyd assignment grain: each item scores every centroid, so a
// few-thousand-row training set still splits across cores.
constexpr size_t kAssignGrain = 16;

}  // namespace

IvfIndex::IvfIndex(size_t dim, const IndexConfig& config)
    : AnnIndex(dim),
      nlist_(config.ivf_nlist),
      nprobe_(config.ivf_nprobe),
      train_iters_(config.ivf_train_iters),
      seed_(config.ivf_seed),
      train_per_list_(config.ivf_train_per_list) {
  T2VEC_CHECK(nlist_ >= 1);
  T2VEC_CHECK(nprobe_ >= 1);
  T2VEC_CHECK(train_iters_ >= 1);
  T2VEC_CHECK(train_per_list_ >= 1);
}

void IvfIndex::set_nprobe(size_t nprobe) {
  T2VEC_CHECK(nprobe >= 1);
  nprobe_ = nprobe;
}

std::vector<double> IvfIndex::CentroidDistances(const float* vec) const {
  const size_t d = dim();
  const std::vector<double> q(vec, vec + d);
  std::vector<double> dist(nlist_);
  SqDistRows(
      nn::Kernels(), q.data(), d, nlist_,
      [&](size_t c) { return &centroids_[c * d]; }, dist.data());
  return dist;
}

size_t IvfIndex::NearestCentroid(const float* vec) const {
  const std::vector<double> dist = CentroidDistances(vec);
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < nlist_; ++c) {
    // Strict < keeps ties on the lower centroid index; a NaN distance never
    // wins, so an all-NaN row deterministically lands in list 0.
    if (dist[c] < best_dist) {
      best_dist = dist[c];
      best = c;
    }
  }
  return best;
}

void IvfIndex::OnAppend(size_t row) {
  if (trained_) {
    lists_[NearestCentroid(rows().Row(row))].push_back(
        static_cast<uint32_t>(row));
    return;
  }
  // Training fires when row threshold-1 registers — a pure function of the
  // row id, not of Size(), so a Restore replay (where all rows are already
  // installed before the first OnAppend) trains at exactly the same point
  // over exactly the same rows as a live one-at-a-time build.
  if (row + 1 == train_threshold()) Train();
}

void IvfIndex::Train() {
  // Exactly the first threshold rows: under a Restore replay more rows are
  // already installed, and they must not influence training (they get
  // assigned by the replay's later OnAppend calls, like live Adds).
  const size_t n = train_threshold();
  const size_t d = dim();

  // Fixed-seed init: a shuffled row permutation picks nlist_ distinct
  // seeding rows (n >= nlist_ because the threshold is nlist_ * per_list).
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  Rng(seed_).Shuffle(perm);
  centroids_.assign(nlist_ * d, 0.0f);
  for (size_t c = 0; c < nlist_; ++c) {
    const float* src = rows().Row(perm[c]);
    std::copy(src, src + d, &centroids_[c * d]);
  }

  std::vector<uint32_t> assign(n);
  const auto assign_all = [&] {
    // Each iteration writes only assign[i]: bit-identical to serial at any
    // thread count.
    ParallelFor(0, n, kAssignGrain, [&](size_t i) {
      assign[i] = static_cast<uint32_t>(NearestCentroid(rows().Row(i)));
    });
  };

  std::vector<double> sums(nlist_ * d);
  std::vector<uint64_t> counts(nlist_);
  for (int iter = 0; iter < train_iters_; ++iter) {
    assign_all();
    // Centroid update: serial ascending-row accumulation in double keeps
    // the floating-point reduction order fixed.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < n; ++i) {
      const float* v = rows().Row(i);
      double* sum = &sums[assign[i] * d];
      for (size_t j = 0; j < d; ++j) sum[j] += static_cast<double>(v[j]);
      ++counts[assign[i]];
    }
    for (size_t c = 0; c < nlist_; ++c) {
      if (counts[c] == 0) continue;  // Empty cluster keeps its centroid.
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < d; ++j) {
        centroids_[c * d + j] = static_cast<float>(sums[c * d + j] * inv);
      }
    }
  }

  // Final assignment under the final centroids — the same NearestCentroid
  // every later incremental Add uses, so list membership cannot depend on
  // whether a row arrived before or after training... except for the rows
  // that *defined* the centroids, which are assigned here, once, in
  // ascending order.
  assign_all();
  lists_.assign(nlist_, {});
  for (size_t i = 0; i < n; ++i) {
    lists_[assign[i]].push_back(static_cast<uint32_t>(i));
  }
  trained_ = true;
}

KnnResult IvfIndex::Query(std::span<const float> query, size_t k) const {
  T2VEC_CHECK(query.size() == dim());
  if (!trained_) {
    // Pre-training a small store answers exactly (identical to
    // VectorIndex), so approximation only ever trades recall at scale.
    CountQuery(Size());
    return ExactTopK(query, k);
  }
  // Same clamp as every index: over-asking degrades, never aborts.
  k = std::min(k, Size());
  if (k == 0) return {};

  // Rank every centroid, then probe lists in that order. The full sort
  // (not a partial one) keeps the widening step below deterministic: the
  // (nprobe+1)-th list is already decided.
  const std::vector<double> dist = CentroidDistances(query.data());
  std::vector<std::pair<double, size_t>> cdist(nlist_);
  for (size_t c = 0; c < nlist_; ++c) cdist[c] = {dist[c], c};
  DeterministicSort(cdist.begin(), cdist.end(), NanLastLess{});

  // Probe the nprobe nearest lists, widening deterministically to further
  // lists until k candidates surfaced (inverted lists are disjoint, so no
  // dedup is needed and the candidate rows stay distinct).
  std::vector<uint32_t> candidates;
  size_t probed = 0;
  for (const auto& [cd, c] : cdist) {
    if (probed >= nprobe_ && candidates.size() >= k) break;
    candidates.insert(candidates.end(), lists_[c].begin(), lists_[c].end());
    ++probed;
  }
  CountQuery(candidates.size());
  return ExactTopK(query, k, candidates);
}

void IvfIndex::SaveAux(BinaryWriter* writer) const {
  writer->WritePod<uint32_t>(trained_ ? 1 : 0);
  writer->WritePod<uint64_t>(nlist_);
  writer->WritePod<uint64_t>(train_per_list_);
  writer->WritePod<int32_t>(train_iters_);
  writer->WritePod<uint64_t>(seed_);
  if (!trained_) return;
  writer->WriteVector(centroids_);
  for (size_t c = 0; c < nlist_; ++c) writer->WriteVector(lists_[c]);
}

Status IvfIndex::LoadAux(BinaryReader* reader) {
  // Parse into locals and commit only at the end (Restore's contract).
  // Structural parameters are adopted from the snapshot — the quantizer
  // geometry lives with the data it was trained on; only the query-time
  // nprobe knob comes from the live config.
  uint32_t trained_flag = 0;
  uint64_t nlist = 0, per_list = 0, seed = 0;
  int32_t iters = 0;
  if (!reader->ReadPod(&trained_flag) || !reader->ReadPod(&nlist) ||
      !reader->ReadPod(&per_list) || !reader->ReadPod(&iters) ||
      !reader->ReadPod(&seed) || nlist == 0 || per_list == 0 || iters < 1) {
    return Status::IoError("malformed IVF snapshot parameters");
  }
  std::vector<float> centroids;
  std::vector<std::vector<uint32_t>> lists;
  if (trained_flag != 0) {
    if (!reader->ReadVector(&centroids) ||
        centroids.size() != static_cast<size_t>(nlist) * dim()) {
      return Status::IoError("malformed IVF snapshot centroids");
    }
    lists.resize(static_cast<size_t>(nlist));
    size_t total = 0;
    for (auto& list : lists) {
      if (!reader->ReadVector(&list)) {
        return Status::IoError("malformed IVF snapshot lists");
      }
      for (const uint32_t row : list) {
        if (row >= Size()) {
          return Status::IoError("IVF snapshot list references missing row");
        }
      }
      total += list.size();
    }
    if (total != Size()) {
      return Status::IoError("IVF snapshot lists do not cover the rows");
    }
  }
  nlist_ = static_cast<size_t>(nlist);
  train_per_list_ = static_cast<size_t>(per_list);
  train_iters_ = iters;
  seed_ = seed;
  trained_ = trained_flag != 0;
  centroids_ = std::move(centroids);
  lists_ = std::move(lists);
  return Status::Ok();
}

void IvfIndex::FillStats(IndexStats* stats) const {
  stats->trained = trained_;
  stats->nlist = nlist_;
  stats->nprobe = nprobe_;
}

}  // namespace t2vec::core
