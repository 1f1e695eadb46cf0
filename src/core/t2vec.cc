#include "core/t2vec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <unordered_map>

#include "common/logging.h"
#include "common/sync.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/decoder.h"
#include "core/cell_pretrain.h"
#include "core/pairs.h"
#include "geo/cell_knn.h"
#include "nn/checkpoint.h"
#include "nn/kernels.h"

namespace t2vec::core {

namespace {

constexpr uint32_t kModelMagic = 0x54325631;  // "T2V1"
// Version 2 added the atomic-write + CRC32C trailer framing (DESIGN.md §7);
// it is the only version the loader reads.
constexpr uint32_t kModelVersion = 2;

// Bounding box of all points, expanded by one cell so boundary clamping
// never moves a real point.
void BoundingBox(const std::vector<geo::Point>& points, double margin,
                 geo::Point* min_corner, geo::Point* max_corner) {
  T2VEC_CHECK(!points.empty());
  *min_corner = points.front();
  *max_corner = points.front();
  for (const geo::Point& p : points) {
    min_corner->x = std::min(min_corner->x, p.x);
    min_corner->y = std::min(min_corner->y, p.y);
    max_corner->x = std::max(max_corner->x, p.x);
    max_corner->y = std::max(max_corner->y, p.y);
  }
  min_corner->x -= margin;
  min_corner->y -= margin;
  max_corner->x += margin;
  max_corner->y += margin;
}

}  // namespace

Result<T2Vec> T2Vec::TrainChecked(const std::vector<traj::Trajectory>& trips,
                                  const T2VecConfig& config,
                                  TrainStats* stats) {
  if (Status status = config.Validate(); !status.ok()) return status;
  if (trips.empty()) {
    return Status::InvalidArgument("training set is empty");
  }
  bool any_points = false;
  for (const traj::Trajectory& t : trips) any_points |= !t.empty();
  if (!any_points) {
    return Status::InvalidArgument("no trajectory has any points");
  }
  Rng rng(config.seed);

  // 1. Hot-cell vocabulary over the training points.
  std::vector<geo::Point> all_points;
  for (const traj::Trajectory& t : trips) {
    all_points.insert(all_points.end(), t.points.begin(), t.points.end());
  }
  geo::Point min_corner, max_corner;
  BoundingBox(all_points, config.cell_size, &min_corner, &max_corner);
  geo::SpatialGrid grid(min_corner, max_corner, config.cell_size);
  auto vocab = std::make_unique<geo::HotCellVocab>(grid, all_points,
                                                   config.hot_cell_min_hits);
  T2VEC_LOG_INFO("vocab: %zu hot cells (grid %lld x %lld)",
                 vocab->num_hot_cells(),
                 static_cast<long long>(grid.rows()),
                 static_cast<long long>(grid.cols()));

  // 2. K-nearest-cell kernel table.
  geo::CellKnnTable knn(*vocab, config.knn_k, config.theta);

  // 3. Model; optionally seed the embedding with Algorithm 1.
  auto model =
      std::make_unique<EncoderDecoder>(config, vocab->vocab_size(), rng);
  if (config.pretrain_cells) {
    Rng pretrain_rng = rng.Fork();
    // The pretraining kernel (Eq. 8) may use its own θ.
    const geo::CellKnnTable* context_knn = &knn;
    std::unique_ptr<geo::CellKnnTable> alt_knn;
    if (config.pretrain_theta != config.theta) {
      alt_knn = std::make_unique<geo::CellKnnTable>(*vocab, config.knn_k,
                                                    config.pretrain_theta);
      context_knn = alt_knn.get();
    }
    model->embedding().table().value = PretrainCellEmbeddings(
        *vocab, *context_knn, config, pretrain_rng);
    T2VEC_LOG_INFO("cell pretraining done");
  }

  // 4. Training pairs (r1 x r2 grid of variants).
  Rng pair_rng = rng.Fork();
  std::vector<TokenPair> pairs =
      BuildTrainingPairs(trips, *vocab, config, pair_rng);
  T2VEC_LOG_INFO("training pairs: %zu", pairs.size());

  // 5. Train.
  Rng loss_rng = rng.Fork();
  std::unique_ptr<SeqLoss> loss =
      MakeLoss(config, &model->projection(), vocab.get(), &knn, loss_rng);
  Trainer trainer(model.get(), loss.get(), config);
  if (!config.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.checkpoint_dir, ec);
    if (ec) {
      return Status::IoError("cannot create checkpoint directory " +
                             config.checkpoint_dir + ": " + ec.message());
    }
    trainer.EnableCheckpoints(config.checkpoint_dir, config.checkpoint_every);
  }
  if (!config.resume_from.empty()) {
    // A broken snapshot may have already scribbled on the model weights, so
    // surface the error instead of silently training from a half-restored
    // state.
    if (Status status = trainer.Resume(config.resume_from); !status.ok()) {
      return status;
    }
  }
  Rng train_rng = rng.Fork();
  TrainStats local_stats = trainer.Train(std::move(pairs), train_rng);
  if (stats != nullptr) *stats = local_stats;
  T2VEC_LOG_INFO("training done: %zu iters, best val %.4f, %.0fs",
                 local_stats.iterations, local_stats.best_val_loss,
                 local_stats.train_seconds);

  return T2Vec(config, std::move(vocab), std::move(model));
}

T2Vec T2Vec::Train(const std::vector<traj::Trajectory>& trips,
                   const T2VecConfig& config, TrainStats* stats) {
  Result<T2Vec> result = TrainChecked(trips, config, stats);
  if (!result.ok()) {
    T2VEC_LOG_ERROR("T2Vec::Train: %s", result.status().ToString().c_str());
  }
  T2VEC_CHECK(result.ok());
  return std::move(result).value();
}

traj::TokenSeq T2Vec::TokenizeForEncoder(const traj::Trajectory& trip) const {
  traj::TokenSeq seq = traj::Tokenize(*vocab_, trip);
  if (config_.reverse_source) std::reverse(seq.begin(), seq.end());
  return seq;
}

nn::Matrix T2Vec::Encode(const std::vector<traj::Trajectory>& trips) const {
  // Encode in slices to bound the batch's buffers. Slices are independent
  // (the forward pass is const and each slice writes a disjoint row range of
  // `out`), so they parallelize with results bit-identical to a serial run.
  constexpr size_t kSlice = 256;
  nn::Matrix out(trips.size(), model_->hidden());
  const size_t num_slices = (trips.size() + kSlice - 1) / kSlice;
  ParallelFor(
      0, num_slices, 1,
      [&](size_t s) {
        const size_t start = s * kSlice;
        const size_t end = std::min(start + kSlice, trips.size());
        std::vector<traj::TokenSeq> seqs;
        seqs.reserve(end - start);
        for (size_t i = start; i < end; ++i) {
          seqs.push_back(TokenizeForEncoder(trips[i]));
        }
        const nn::Matrix block = model_->EncodeBatch(seqs);
        for (size_t i = start; i < end; ++i) {
          std::copy(block.Row(i - start), block.Row(i - start) + block.cols(),
                    out.Row(i));
        }
      },
      config_.num_threads);
  return out;
}

std::vector<float> T2Vec::EncodeOne(const traj::Trajectory& trip) const {
  const nn::Matrix m = model_->EncodeBatch({TokenizeForEncoder(trip)});
  return {m.Row(0), m.Row(0) + m.cols()};
}

nn::Matrix T2Vec::EncodeTokenized(
    const std::vector<traj::TokenSeq>& seqs) const {
  return model_->EncodeBatch(seqs);
}

double T2Vec::Distance(const traj::Trajectory& a,
                       const traj::Trajectory& b) const {
  const nn::Matrix m = model_->EncodeBatch(
      {TokenizeForEncoder(a), TokenizeForEncoder(b)});
  return std::sqrt(nn::Kernels().sqdist_f64(m.Row(0), m.Row(1), m.cols()));
}

traj::Trajectory T2Vec::ReconstructRoute(const traj::Trajectory& sparse,
                                         size_t max_len) const {
  if (max_len == 0) max_len = 4 * std::max<size_t>(sparse.size(), 8);
  SequenceDecoder decoder(model_.get());
  const traj::TokenSeq decoded =
      decoder.DecodeGreedy(TokenizeForEncoder(sparse), max_len);
  traj::Trajectory route;
  route.id = sparse.id;
  route.points.reserve(decoded.size());
  for (geo::Token token : decoded) {
    if (!geo::HotCellVocab::IsSpecial(token)) {
      route.points.push_back(vocab_->CenterOf(token));
    }
  }
  return route;
}

Status T2Vec::Save(const std::string& path) const {
  if (config_.use_attention) {
    return Status::InvalidArgument(
        "attention models cannot be serialized yet");
  }
  BinaryWriter writer(path);
  if (!writer.ok()) return writer.status();
  writer.WritePod(kModelMagic);
  writer.WritePod(kModelVersion);

  // Architecture fields needed to reconstruct the model.
  writer.WritePod<uint64_t>(config_.embed_dim);
  writer.WritePod<uint64_t>(config_.hidden);
  writer.WritePod<uint64_t>(config_.layers);
  writer.WritePod<uint8_t>(config_.reverse_source ? 1 : 0);
  writer.WritePod<double>(config_.cell_size);

  // Vocabulary: grid + hot cells + counts.
  const geo::SpatialGrid& grid = vocab_->grid();
  writer.WritePod<double>(grid.min_corner().x);
  writer.WritePod<double>(grid.min_corner().y);
  writer.WritePod<double>(grid.cell_size());
  writer.WritePod<int64_t>(grid.rows());
  writer.WritePod<int64_t>(grid.cols());
  writer.WriteVector(vocab_->hot_cells());
  std::vector<int64_t> counts(vocab_->num_hot_cells());
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = vocab_->HitCount(static_cast<geo::Token>(i) +
                                 geo::kNumSpecialTokens);
  }
  writer.WriteVector(counts);

  // Weights, in Params() order (stable by construction).
  nn::ParamList params = const_cast<EncoderDecoder*>(model_.get())->Params();
  nn::WriteParamBlock(&writer, params);
  return writer.Finish();
}

Result<T2Vec> T2Vec::Load(const std::string& path) {
  BinaryReader reader(path);
  if (!reader.ok()) return reader.status();
  uint32_t magic = 0, version = 0;
  if (!reader.ReadPod(&magic) || magic != kModelMagic) {
    return Status::IoError("bad model magic in " + path);
  }
  if (!reader.ReadPod(&version) || version != kModelVersion) {
    return Status::IoError("model file " + path + " has unsupported version " +
                           std::to_string(version));
  }

  T2VecConfig config;
  uint64_t embed_dim = 0, hidden = 0, layers = 0;
  uint8_t reverse_source = 0;
  if (!reader.ReadPod(&embed_dim) || !reader.ReadPod(&hidden) ||
      !reader.ReadPod(&layers) || !reader.ReadPod(&reverse_source) ||
      !reader.ReadPod(&config.cell_size)) {
    return Status::IoError("truncated model header in " + path);
  }
  config.embed_dim = embed_dim;
  config.hidden = hidden;
  config.layers = layers;
  config.reverse_source = (reverse_source != 0);

  double min_x = 0, min_y = 0, cell_size = 0;
  int64_t rows = 0, cols = 0;
  std::vector<geo::CellId> hot_cells;
  std::vector<int64_t> counts;
  if (!reader.ReadPod(&min_x) || !reader.ReadPod(&min_y) ||
      !reader.ReadPod(&cell_size) || !reader.ReadPod(&rows) ||
      !reader.ReadPod(&cols) || !reader.ReadVector(&hot_cells) ||
      !reader.ReadVector(&counts)) {
    return Status::IoError("truncated vocabulary section in " + path);
  }
  const geo::Point min_corner{min_x, min_y};
  const geo::Point max_corner{
      min_x + static_cast<double>(cols) * cell_size,
      min_y + static_cast<double>(rows) * cell_size};
  geo::SpatialGrid grid(min_corner, max_corner, cell_size);
  if (grid.rows() != rows || grid.cols() != cols) {
    return Status::Internal("grid reconstruction mismatch");
  }
  auto vocab = std::make_unique<geo::HotCellVocab>(grid, std::move(hot_cells),
                                                   std::move(counts));

  Rng rng(0);  // Weights are overwritten below.
  auto model =
      std::make_unique<EncoderDecoder>(config, vocab->vocab_size(), rng);
  nn::ParamList params = model->Params();
  if (Status status = nn::ReadParamBlock(&reader, params); !status.ok()) {
    return Status(status.code(), status.message() + " in " + path);
  }
  return T2Vec(config, std::move(vocab), std::move(model));
}

namespace {

/// Content fingerprint for the measure's memo cache: id, length, and the
/// bit patterns of the first/middle/last points (bit-pattern hashed so
/// negative coordinates and -0.0 are well-defined, as in eval's
/// DataFingerprint). Cheap, and collisions require equal id, length, and
/// three identical probe points.
uint64_t TrajFingerprint(const traj::Trajectory& t) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(static_cast<uint64_t>(t.id));
  mix(t.size());
  auto mix_point = [&](const geo::Point& p) {
    uint64_t bits = 0;
    std::memcpy(&bits, &p.x, sizeof(bits));
    mix(bits);
    std::memcpy(&bits, &p.y, sizeof(bits));
    mix(bits);
  };
  if (!t.empty()) {
    mix_point(t.points.front());
    mix_point(t.points[t.size() / 2]);
    mix_point(t.points.back());
  }
  return h;
}

}  // namespace

/// Memo cache state: a bounded fingerprint -> representation map with FIFO
/// eviction. Guarded by a mutex because the evaluation harness calls
/// Distance from parallel query loops; on a miss the encode itself runs
/// outside the lock (it is pure), so concurrent misses at worst encode the
/// same trajectory twice — with identical results.
struct T2VecMeasure::Memo {
  sync::Mutex mu;
  /// Immutable after construction — readable without the lock (Encoded's
  /// capacity == 0 fast path runs before any locking).
  const size_t capacity;
  std::unordered_map<uint64_t, std::vector<float>> entries GUARDED_BY(mu);
  std::deque<uint64_t> order GUARDED_BY(mu);  // Insertion order, for eviction.
  size_t hits GUARDED_BY(mu) = 0;
  size_t misses GUARDED_BY(mu) = 0;

  explicit Memo(size_t cap) : capacity(cap) {}
};

T2VecMeasure::T2VecMeasure(const T2Vec* model, size_t capacity)
    : model_(model), memo_(std::make_unique<Memo>(capacity)) {}

T2VecMeasure::~T2VecMeasure() = default;

std::vector<float> T2VecMeasure::Encoded(const traj::Trajectory& t) const {
  if (memo_->capacity == 0) return model_->EncodeOne(t);
  const uint64_t key = TrajFingerprint(t);
  {
    sync::MutexLock lock(&memo_->mu);
    auto it = memo_->entries.find(key);
    if (it != memo_->entries.end()) {
      ++memo_->hits;
      return it->second;
    }
    ++memo_->misses;
  }
  std::vector<float> vec = model_->EncodeOne(t);
  sync::MutexLock lock(&memo_->mu);
  if (memo_->entries.emplace(key, vec).second) {
    memo_->order.push_back(key);
    while (memo_->order.size() > memo_->capacity) {
      memo_->entries.erase(memo_->order.front());
      memo_->order.pop_front();
    }
  }
  return vec;
}

double T2VecMeasure::Distance(const traj::Trajectory& a,
                              const traj::Trajectory& b) const {
  const std::vector<float> va = Encoded(a);
  const std::vector<float> vb = Encoded(b);
  return std::sqrt(nn::Kernels().sqdist_f64(va.data(), vb.data(), va.size()));
}

size_t T2VecMeasure::cache_hits() const {
  sync::ReaderMutexLock lock(&memo_->mu);
  return memo_->hits;
}

size_t T2VecMeasure::cache_misses() const {
  sync::ReaderMutexLock lock(&memo_->mu);
  return memo_->misses;
}

}  // namespace t2vec::core
