// Corruption matrix (DESIGN.md §7): every truncation and bit-flip of a
// valid durable artifact must fail its load with a clean Status — never a
// crash, an abort, or a silently wrong in-memory object.
//
// Checkpoints and embedding-store snapshots (exact, and a trained IVF store
// whose centroids and lists sit in the aux) are small enough to mutate
// exhaustively: truncation at every byte boundary (which includes every
// field boundary) and a bit flip in every byte. The larger model file is
// covered at every header/trailer byte plus a stride through the payload.
// Every artifact has one format version, so a CRC-valid file of an older
// version is rejected too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/ann_index.h"
#include "core/t2vec.h"
#include "eval/experiments.h"
#include "nn/checkpoint.h"
#include "serve/embedding_store.h"

namespace t2vec {
namespace {

std::string TestDir() {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "corruption_test")
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

std::string Slurp(const std::string& path) {
  std::string out;
  EXPECT_TRUE(ReadFileToString(path, &out).ok());
  return out;
}

// A two-iteration model: enough for a complete, loadable model file.
const core::T2Vec& TinyModel() {
  static const core::T2Vec* model = [] {
    const eval::ExperimentData data =
        eval::MakeData(eval::DatasetKind::kPortoLike, 60, 0);
    core::T2VecConfig config;
    config.hidden = 16;
    config.embed_dim = 12;
    config.layers = 1;
    config.max_iterations = 2;
    config.validate_every = 100;
    config.pretrain_cells = false;
    config.r1_grid = {0.0};
    config.r2_grid = {0.0};
    return new core::T2Vec(
        core::T2Vec::Train(data.train.trajectories(), config));
  }();
  return *model;
}

// Rewrites the artifact at `path` with its payload edited by `edit` and the
// format version (the u32 after the magic) set to `version`, then re-frames
// it through BinaryWriter, so the CRC trailer is valid again.
void WriteOlderVersion(const std::string& path, uint32_t version,
                       const std::function<void(std::string*)>& edit) {
  std::string payload = Slurp(path);
  ASSERT_GT(payload.size(), kCrcTrailerBytes + 8);
  payload.resize(payload.size() - kCrcTrailerBytes);
  edit(&payload);
  std::memcpy(payload.data() + 4, &version, sizeof(version));
  BinaryWriter writer(path);
  writer.WriteRaw(payload.data(), payload.size());
  ASSERT_TRUE(writer.Finish().ok());
}

// Applies `load` to every truncation and every per-byte bit flip of `bytes`,
// asserting each mutation is rejected. Returns the number of mutations.
size_t ExhaustiveMatrix(const std::string& bytes, const std::string& path,
                        const std::function<Status(const std::string&)>& load) {
  size_t mutations = 0;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_TRUE(WriteFileAtomic(path, bytes.substr(0, cut)).ok())
        << "setup failed";
    const Status status = load(path);
    EXPECT_FALSE(status.ok()) << "truncation at byte " << cut << " accepted";
    // A prefix of a framed file has no valid trailer, and the reader says so
    // before any owner parses a field.
    EXPECT_NE(status.message().find("checksum trailer"), std::string::npos)
        << "truncation at byte " << cut << ": " << status.ToString();
    ++mutations;
  }
  const size_t payload_end = bytes.size() - kCrcTrailerBytes;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    EXPECT_TRUE(WriteFileAtomic(path, mutated).ok()) << "setup failed";
    const Status status = load(path);
    EXPECT_FALSE(status.ok()) << "bit flip at byte " << i << " accepted";
    if (i < payload_end) {
      // Header and payload bytes are covered by the CRC, so the checksum —
      // not a lucky parse failure — must be what catches the flip.
      EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
          << "payload flip at byte " << i << ": " << status.ToString();
    }
    ++mutations;
  }
  return mutations;
}

TEST(CorruptionTest, CheckpointSurvivesFullMatrix) {
  const std::string path = TestDir() + "/matrix.ckpt";
  nn::Parameter a("encoder.weight", 3, 4);
  nn::Parameter b("decoder.bias", 1, 5);
  for (size_t i = 0; i < a.value.size(); ++i) {
    a.value.data()[i] = static_cast<float>(i) * 0.25f;
  }
  for (size_t i = 0; i < b.value.size(); ++i) {
    b.value.data()[i] = -static_cast<float>(i);
  }
  const nn::ParamList params = {&a, &b};
  ASSERT_TRUE(nn::SaveParams(params, path).ok());
  const std::string bytes = Slurp(path);
  ASSERT_GT(bytes.size(), kCrcTrailerBytes);

  // The pristine file loads.
  nn::Parameter a2("encoder.weight", 3, 4);
  nn::Parameter b2("decoder.bias", 1, 5);
  const nn::ParamList into = {&a2, &b2};
  ASSERT_TRUE(nn::LoadParams(into, path).ok());

  const size_t n = ExhaustiveMatrix(
      bytes, path,
      [&into](const std::string& p) { return nn::LoadParams(into, p); });
  EXPECT_EQ(n, 2 * bytes.size());
}

TEST(CorruptionTest, EmbeddingStoreSurvivesFullMatrix) {
  const std::string path = TestDir() + "/matrix.store";
  serve::EmbeddingStore store(4);
  const std::vector<float> v0 = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> v1 = {-1.0f, 0.5f, 0.0f, 9.0f};
  ASSERT_TRUE(store.Add(100, v0).ok());
  ASSERT_TRUE(store.Add(200, v1).ok());
  ASSERT_TRUE(store.Save(path).ok());
  const std::string bytes = Slurp(path);
  ASSERT_TRUE(serve::EmbeddingStore::LoadMmap(path).ok());

  const size_t n =
      ExhaustiveMatrix(bytes, path, [](const std::string& p) {
        return serve::EmbeddingStore::LoadMmap(p).status();
      });
  EXPECT_EQ(n, 2 * bytes.size());
}

TEST(CorruptionTest, IvfIndexSnapshotSurvivesFullMatrix) {
  // A trained IVF-kind store snapshot carries centroids and inverted lists
  // past the row block — a flip anywhere in that aux structure must be
  // caught by the CRC.
  const std::string path = TestDir() + "/matrix.ivf.store";
  core::IndexConfig config;
  config.kind = core::IndexKind::kIvf;
  config.ivf_nlist = 3;
  config.ivf_nprobe = 2;
  config.ivf_train_iters = 2;
  config.ivf_seed = 9;
  config.ivf_train_per_list = 4;

  serve::EmbeddingStore store(4, config);
  Rng rng(41);
  for (int64_t id = 0; id < 20; ++id) {
    std::vector<float> row(4);
    for (float& v : row) v = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(store.Add(id, row).ok());
  }
  ASSERT_TRUE(store.Stats().trained);
  ASSERT_TRUE(store.Save(path).ok());
  const std::string bytes = Slurp(path);
  ASSERT_TRUE(serve::EmbeddingStore::LoadMmap(path, config).ok());

  const size_t n = ExhaustiveMatrix(bytes, path, [&](const std::string& p) {
    return serve::EmbeddingStore::LoadMmap(p, config).status();
  });
  EXPECT_EQ(n, 2 * bytes.size());
}

TEST(CorruptionTest, ModelFileRejectsSampledCorruptions) {
  // The eval cache stores model files in exactly this format, so this also
  // covers the cache-entry case (eval/cache.cc additionally falls back to
  // retraining on a rejected entry).
  const std::string path = TestDir() + "/matrix.t2vec";
  ASSERT_TRUE(TinyModel().Save(path).ok());
  const std::string bytes = Slurp(path);
  ASSERT_TRUE(core::T2Vec::Load(path).ok());

  std::vector<size_t> offsets;
  // Every header byte, every trailer byte, and a stride through the payload.
  for (size_t i = 0; i < std::min<size_t>(64, bytes.size()); ++i) {
    offsets.push_back(i);
  }
  for (size_t i = bytes.size() - kCrcTrailerBytes; i < bytes.size(); ++i) {
    offsets.push_back(i);
  }
  for (size_t i = 64; i + kCrcTrailerBytes < bytes.size(); i += 997) {
    offsets.push_back(i);
  }

  for (const size_t cut : offsets) {
    ASSERT_TRUE(WriteFileAtomic(path, bytes.substr(0, cut)).ok());
    const Status status = core::T2Vec::Load(path).status();
    EXPECT_FALSE(status.ok()) << "truncation at byte " << cut << " accepted";
    EXPECT_NE(status.message().find("checksum trailer"), std::string::npos)
        << "truncation at byte " << cut << ": " << status.ToString();
  }
  for (const size_t i : offsets) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x04);
    ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());
    const Status status = core::T2Vec::Load(path).status();
    EXPECT_FALSE(status.ok()) << "bit flip at byte " << i << " accepted";
    if (i + kCrcTrailerBytes < bytes.size()) {
      EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
          << "payload flip at byte " << i << ": " << status.ToString();
    }
  }
}

TEST(CorruptionTest, EmptyAndGarbageFilesAreRejected) {
  const std::string path = TestDir() + "/noise.bin";
  nn::Parameter p("w", 2, 2);
  const nn::ParamList params = {&p};
  for (const std::string& contents :
       {std::string(), std::string("not a checkpoint"),
        std::string(1024, '\xFF')}) {
    ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
    EXPECT_FALSE(nn::LoadParams(params, path).ok());
    EXPECT_FALSE(serve::EmbeddingStore::LoadMmap(path).ok());
    EXPECT_FALSE(core::T2Vec::Load(path).ok());
  }
  EXPECT_FALSE(serve::EmbeddingStore::LoadMmap(TestDir() + "/missing").ok());

  // CRC-valid files of an older format version: each loader reads only the
  // version its writer emits.
  auto expect_unsupported = [](const Status& status) {
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("unsupported version"), std::string::npos)
        << status.ToString();
  };
  const auto unchanged = [](std::string*) {};
  // A v2 store: a v3 exact store without the index-kind field (bytes
  // 16..19; an exact index has no aux).
  serve::EmbeddingStore store(4);
  ASSERT_TRUE(store.Add(7, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}).ok());
  ASSERT_TRUE(store.Save(path).ok());
  WriteOlderVersion(path, 2,
                    [](std::string* payload) { payload->erase(16, 4); });
  expect_unsupported(serve::EmbeddingStore::LoadMmap(path).status());
  // A v1 checkpoint and a v1 model: same payload layout as v2.
  ASSERT_TRUE(nn::SaveParams(params, path).ok());
  WriteOlderVersion(path, 1, unchanged);
  expect_unsupported(nn::LoadParams(params, path));
  ASSERT_TRUE(TinyModel().Save(path).ok());
  WriteOlderVersion(path, 1, unchanged);
  expect_unsupported(core::T2Vec::Load(path).status());
}

}  // namespace
}  // namespace t2vec
