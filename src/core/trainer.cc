#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <numeric>

#include "common/fault.h"
#include "common/fs.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/sort.h"
#include "common/stopwatch.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"

namespace t2vec::core {

namespace {

constexpr uint32_t kSnapshotMagic = 0x4E533254;  // "T2SN"
constexpr uint32_t kSnapshotVersion = 1;
constexpr char kSnapshotPrefix[] = "snapshot_";
constexpr char kSnapshotSuffix[] = ".t2vsnap";

std::string SnapshotName(uint64_t iteration) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%08llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(iteration), kSnapshotSuffix);
  return buf;
}

// Groups pair indices into batches of similar target length (cuts padding
// waste): sort by target length, then slice. Equal-length ties are common
// (every augmented variant of a trip shares the clean target's length), so
// the sort runs through the pinned algorithm in common/sort.h: `std::sort`
// places ties in an implementation-defined order, which would make batch
// composition — and hence the trained model — differ across standard
// libraries.
std::vector<std::vector<size_t>> MakeBatches(
    const std::vector<TokenPair>& pairs, size_t batch_size) {
  std::vector<size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  DeterministicSort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pairs[a].tgt.size() < pairs[b].tgt.size();
  });
  std::vector<std::vector<size_t>> batches;
  for (size_t start = 0; start < order.size(); start += batch_size) {
    const size_t end = std::min(start + batch_size, order.size());
    batches.emplace_back(order.begin() + static_cast<long>(start),
                         order.begin() + static_cast<long>(end));
  }
  return batches;
}

Batch BuildBatchFromIndices(const std::vector<TokenPair>& pairs,
                            const std::vector<size_t>& indices) {
  std::vector<const TokenPair*> selected;
  selected.reserve(indices.size());
  for (size_t i : indices) selected.push_back(&pairs[i]);
  return BuildBatch(selected);
}

}  // namespace

/// Every piece of mutable training state outside the model weights. The
/// weights themselves travel in the same file (a full parameter block), so
/// one snapshot is sufficient to continue the run bit-identically.
struct Trainer::Snapshot {
  uint64_t iteration = 0;
  uint64_t pairs_size = 0;   // Training pairs after the validation split.
  uint64_t batch_count = 0;  // Guards against resuming on different data.
  Rng::State train_rng{};
  uint8_t has_loss_rng = 0;
  Rng::State loss_rng{};
  double smoothed_loss = 0.0;
  uint8_t has_smoothed = 0;
  double best_val = 0.0;
  uint64_t checks_since_best = 0;
  uint64_t cursor = 0;
  std::vector<uint64_t> batch_order;
  std::vector<uint64_t> curve_iters;
  std::vector<double> curve_losses;
  nn::Adam::State adam;

  Status Write(const std::string& path, uint64_t config_fingerprint,
               const nn::ParamList& params) const;
  Status Read(const std::string& path, uint64_t config_fingerprint,
              const nn::ParamList& params);
};

Status Trainer::Snapshot::Write(const std::string& path,
                                uint64_t config_fingerprint,
                                const nn::ParamList& params) const {
  if (const int err = T2VEC_FAULT_POINT("trainer.snapshot.write")) {
    return Status::IoError(ErrnoMessage("snapshot write", path, err));
  }
  BinaryWriter writer(path);
  if (!writer.ok()) return writer.status();
  writer.WritePod(kSnapshotMagic);
  writer.WritePod(kSnapshotVersion);
  writer.WritePod<uint64_t>(config_fingerprint);
  writer.WritePod<uint64_t>(iteration);
  writer.WritePod<uint64_t>(pairs_size);
  writer.WritePod<uint64_t>(batch_count);
  writer.WritePod(train_rng);
  writer.WritePod<uint8_t>(has_loss_rng);
  writer.WritePod(loss_rng);
  writer.WritePod<double>(smoothed_loss);
  writer.WritePod<uint8_t>(has_smoothed);
  writer.WritePod<double>(best_val);
  writer.WritePod<uint64_t>(checks_since_best);
  writer.WritePod<uint64_t>(cursor);
  writer.WriteVector(batch_order);
  writer.WriteVector(curve_iters);
  writer.WriteVector(curve_losses);
  nn::WriteParamBlock(&writer, params);
  writer.WritePod<int64_t>(adam.step);
  writer.WritePod<uint64_t>(adam.m.size());
  for (size_t i = 0; i < adam.m.size(); ++i) {
    writer.WriteVector(adam.m[i]);
    writer.WriteVector(adam.v[i]);
  }
  return writer.Finish();
}

Status Trainer::Snapshot::Read(const std::string& path,
                               uint64_t config_fingerprint,
                               const nn::ParamList& params) {
  BinaryReader reader(path);
  if (!reader.ok()) return reader.status();
  uint32_t magic = 0, version = 0;
  if (!reader.ReadPod(&magic) || magic != kSnapshotMagic) {
    return Status::IoError("bad snapshot magic in " + path);
  }
  if (!reader.ReadPod(&version) || version != kSnapshotVersion) {
    return Status::IoError("snapshot " + path + " has unsupported version " +
                           std::to_string(version));
  }
  uint64_t fingerprint = 0;
  if (!reader.ReadPod(&fingerprint)) {
    return Status::IoError("truncated snapshot header in " + path);
  }
  if (fingerprint != config_fingerprint) {
    return Status::FailedPrecondition(
        "snapshot " + path +
        " was written under a different training config "
        "(fingerprint mismatch); resume requires the identical config");
  }
  if (!reader.ReadPod(&iteration) || !reader.ReadPod(&pairs_size) ||
      !reader.ReadPod(&batch_count) || !reader.ReadPod(&train_rng) ||
      !reader.ReadPod(&has_loss_rng) || !reader.ReadPod(&loss_rng) ||
      !reader.ReadPod(&smoothed_loss) || !reader.ReadPod(&has_smoothed) ||
      !reader.ReadPod(&best_val) || !reader.ReadPod(&checks_since_best) ||
      !reader.ReadPod(&cursor) || !reader.ReadVector(&batch_order) ||
      !reader.ReadVector(&curve_iters) || !reader.ReadVector(&curve_losses)) {
    return Status::IoError("truncated snapshot state in " + path);
  }
  if (curve_iters.size() != curve_losses.size()) {
    return Status::IoError("inconsistent validation curve in " + path);
  }
  if (Status status = nn::ReadParamBlock(&reader, params); !status.ok()) {
    return Status(status.code(), status.message() + " in " + path);
  }
  uint64_t moment_count = 0;
  if (!reader.ReadPod(&adam.step) || !reader.ReadPod(&moment_count)) {
    return Status::IoError("truncated optimizer state in " + path);
  }
  if (moment_count != params.size()) {
    return Status::IoError("optimizer moment count mismatch in " + path);
  }
  adam.m.resize(moment_count);
  adam.v.resize(moment_count);
  for (uint64_t i = 0; i < moment_count; ++i) {
    if (!reader.ReadVector(&adam.m[i]) || !reader.ReadVector(&adam.v[i])) {
      return Status::IoError("truncated optimizer moments in " + path);
    }
  }
  return Status::Ok();
}

Trainer::Trainer(EncoderDecoder* model, SeqLoss* loss,
                 const T2VecConfig& config)
    : model_(model), loss_(loss), config_(config) {}

Trainer::~Trainer() = default;

void Trainer::EnableCheckpoints(std::string dir, size_t every) {
  T2VEC_CHECK(every > 0);
  checkpoint_dir_ = std::move(dir);
  checkpoint_every_ = every;
}

Result<std::string> Trainer::LatestSnapshot(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list snapshot directory " + dir + ": " +
                           ec.message());
  }
  uint64_t best_iter = 0;
  std::string best_name;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    const size_t prefix_len = sizeof(kSnapshotPrefix) - 1;
    const size_t suffix_len = sizeof(kSnapshotSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kSnapshotPrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len,
                     kSnapshotSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    char* end = nullptr;
    const unsigned long long iter = std::strtoull(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;
    if (best_name.empty() || iter > best_iter) {
      best_iter = iter;
      best_name = name;
    }
  }
  if (best_name.empty()) {
    return Status::NotFound("no snapshot_*.t2vsnap files in " + dir);
  }
  return dir + "/" + best_name;
}

Status Trainer::Resume(const std::string& path) {
  std::string file = path;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    Result<std::string> latest = LatestSnapshot(path);
    if (!latest.ok()) return latest.status();
    file = latest.value();
  }
  auto snapshot = std::make_unique<Snapshot>();
  if (Status status =
          snapshot->Read(file, config_.Fingerprint(), model_->Params());
      !status.ok()) {
    return status;
  }
  T2VEC_LOG_INFO("resuming from %s (iteration %llu)", file.c_str(),
                 static_cast<unsigned long long>(snapshot->iteration));
  resume_ = std::move(snapshot);
  return Status::Ok();
}

double Trainer::ValidationLoss(const std::vector<TokenPair>& val_pairs) {
  if (val_pairs.empty()) return 0.0;
  double total_loss = 0.0;
  size_t total_tokens = 0;
  std::vector<size_t> indices;
  for (size_t start = 0; start < val_pairs.size();
       start += config_.batch_size) {
    const size_t end =
        std::min(start + config_.batch_size, val_pairs.size());
    indices.clear();
    for (size_t i = start; i < end; ++i) indices.push_back(i);
    const Batch batch = BuildBatchFromIndices(val_pairs, indices);
    total_loss += model_->RunBatch(batch, loss_, /*accumulate_grads=*/false);
    total_tokens += batch.target_tokens;
  }
  return total_loss / static_cast<double>(std::max<size_t>(total_tokens, 1));
}

TrainStats Trainer::Train(std::vector<TokenPair> pairs, Rng& rng) {
  T2VEC_CHECK(!pairs.empty());
  TrainStats stats;
  Stopwatch watch;

  // Hold out the validation split (paper: 10k trajectories; scaled).
  rng.Shuffle(pairs);
  const size_t val_count =
      std::min(config_.validation_pairs, pairs.size() / 5);
  std::vector<TokenPair> val_pairs(pairs.end() - static_cast<long>(val_count),
                                   pairs.end());
  pairs.resize(pairs.size() - val_count);
  T2VEC_CHECK(!pairs.empty());

  std::vector<std::vector<size_t>> batches =
      MakeBatches(pairs, config_.batch_size);
  std::vector<size_t> batch_order(batches.size());
  std::iota(batch_order.begin(), batch_order.end(), 0);
  rng.Shuffle(batch_order);

  nn::Adam adam(model_->Params(), config_.learning_rate);
  adam.ZeroGrad();

  double best_val = std::numeric_limits<double>::infinity();
  size_t checks_since_best = 0;
  double smoothed_loss = 0.0;
  bool has_smoothed = false;
  size_t cursor = 0;
  size_t start_iter = 1;

  if (resume_) {
    // The deterministic setup above (shuffle, split, batching, the first
    // batch-order permutation) replayed exactly as in the original run;
    // now overwrite every piece of mutable state with the snapshot's. The
    // model weights were already restored by Resume().
    if (resume_->pairs_size != pairs.size() ||
        resume_->batch_count != batches.size()) {
      T2VEC_LOG_ERROR(
          "resume snapshot was written against different training data "
          "(%llu pairs / %llu batches vs %zu / %zu); resume requires the "
          "identical dataset",
          static_cast<unsigned long long>(resume_->pairs_size),
          static_cast<unsigned long long>(resume_->batch_count), pairs.size(),
          batches.size());
      T2VEC_CHECK(false);
    }
    rng.SetState(resume_->train_rng);
    if (Rng* noise_rng = loss_->MutableNoiseRng();
        noise_rng != nullptr && resume_->has_loss_rng != 0) {
      noise_rng->SetState(resume_->loss_rng);
    }
    smoothed_loss = resume_->smoothed_loss;
    has_smoothed = resume_->has_smoothed != 0;
    best_val = resume_->best_val;
    checks_since_best = resume_->checks_since_best;
    cursor = resume_->cursor;
    batch_order.assign(resume_->batch_order.begin(),
                       resume_->batch_order.end());
    stats.val_curve.clear();
    for (size_t i = 0; i < resume_->curve_iters.size(); ++i) {
      stats.val_curve.emplace_back(resume_->curve_iters[i],
                                   resume_->curve_losses[i]);
    }
    const Status adam_status = adam.SetState(resume_->adam);
    if (!adam_status.ok()) {
      T2VEC_LOG_ERROR("resume: %s", adam_status.ToString().c_str());
      T2VEC_CHECK(false);
    }
    stats.iterations = resume_->iteration;
    start_iter = resume_->iteration + 1;
    resume_.reset();
  }

  // Captures the complete mutable training state and writes it atomically;
  // a failed write is logged and training continues (durability must never
  // kill the run it protects — the fault-injection tests pin this down).
  const auto write_snapshot = [&](size_t iter) {
    Snapshot snapshot;
    snapshot.iteration = iter;
    snapshot.pairs_size = pairs.size();
    snapshot.batch_count = batches.size();
    snapshot.train_rng = rng.GetState();
    if (Rng* noise_rng = loss_->MutableNoiseRng()) {
      snapshot.has_loss_rng = 1;
      snapshot.loss_rng = noise_rng->GetState();
    }
    snapshot.smoothed_loss = smoothed_loss;
    snapshot.has_smoothed = has_smoothed ? 1 : 0;
    snapshot.best_val = best_val;
    snapshot.checks_since_best = checks_since_best;
    snapshot.cursor = cursor;
    snapshot.batch_order.assign(batch_order.begin(), batch_order.end());
    for (const auto& [it_iter, it_loss] : stats.val_curve) {
      snapshot.curve_iters.push_back(it_iter);
      snapshot.curve_losses.push_back(it_loss);
    }
    snapshot.adam = adam.GetState();
    const std::string path = checkpoint_dir_ + "/" + SnapshotName(iter);
    const Status status =
        snapshot.Write(path, config_.Fingerprint(), model_->Params());
    if (!status.ok()) {
      T2VEC_LOG_WARN("snapshot write failed (training continues): %s",
                     status.ToString().c_str());
    }
  };

  for (size_t iter = start_iter; iter <= config_.max_iterations; ++iter) {
    if (cursor >= batch_order.size()) {
      cursor = 0;
      rng.Shuffle(batch_order);
    }
    const Batch batch =
        BuildBatchFromIndices(pairs, batches[batch_order[cursor++]]);
    const double loss =
        model_->RunBatch(batch, loss_, /*accumulate_grads=*/true);
    const double per_token =
        loss / static_cast<double>(std::max<size_t>(batch.target_tokens, 1));
    smoothed_loss = has_smoothed ? 0.98 * smoothed_loss + 0.02 * per_token
                                 : per_token;
    has_smoothed = true;

    nn::ClipGradNorm(model_->Params(), config_.grad_clip);
    adam.Step();
    adam.ZeroGrad();
    stats.iterations = iter;

    if (iter % config_.validate_every == 0 && !val_pairs.empty()) {
      const double val_loss = ValidationLoss(val_pairs);
      stats.val_curve.emplace_back(iter, val_loss);
      T2VEC_LOG_INFO("iter %zu: train %.4f, val %.4f (%.0fs)", iter,
                     smoothed_loss, val_loss, watch.ElapsedSeconds());
      if (val_loss < best_val - 1e-5) {
        best_val = val_loss;
        checks_since_best = 0;
      } else if (++checks_since_best >= config_.patience) {
        stats.early_stopped = true;
        break;
      }
    }

    if (checkpoint_every_ != 0 && iter % checkpoint_every_ == 0) {
      write_snapshot(iter);
    }
  }

  stats.train_seconds = watch.ElapsedSeconds();
  stats.best_val_loss =
      std::isfinite(best_val) ? best_val : ValidationLoss(val_pairs);
  stats.final_train_loss = smoothed_loss;
  return stats;
}

}  // namespace t2vec::core
