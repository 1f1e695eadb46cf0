// t2vec command-line tool: train, encode, search, and reconstruct over
// trajectory dataset files (the text format of traj::Dataset).
//
// Subcommands:
//   generate --out data.txt [--count N] [--preset porto|harbin]
//   train    --data data.txt --model out.t2vec [--iters N] [--hidden H]
//            [--loss l1|l2|l3] [--no-pretrain] [--checkpoint-dir D]
//            [--checkpoint-every N] [--resume snapshot-or-dir]
//   encode   --model m.t2vec --data data.txt --out vectors.txt
//   knn      --model m.t2vec --data db.txt --query-index I [--k K]
//   reconstruct --model m.t2vec --data db.txt --query-index I [--drop R]
//   server   --model m.t2vec --data-dir d/ [--port P] [--run-seconds S]
//
// knn, serve-bench, and server take an index configuration
// (--index exact|lsh|ivf plus --nlist/--nprobe/--lsh-tables/--lsh-bits):
// the retrieval backend is a config choice, never hard-coded.
//
// A flag the subcommand does not read is an error, and so are a number that
// does not parse whole or is out of range for its flag and an argument that
// is neither a flag nor a flag's value; all fail before any file is read.
// Exit status is non-zero on any error; diagnostics go to stderr.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.h"
#include "core/ann_index.h"
#include "core/t2vec.h"
#include "serve/durable_store.h"
#include "serve/embedding_service.h"
#include "serve/server.h"
#include "traj/generator.h"
#include "traj/transforms.h"

namespace {

using namespace t2vec;

// Parses all of `text` as a base-10 integer (no sign other than '-', no
// whitespace, no trailing junk); false on anything else or on overflow.
bool ParseInt(const std::string& text, long* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Like ParseInt, for a finite floating-point number.
bool ParseReal(const std::string& text, double* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

// What a flag's value must be.
enum class Arg {
  kText,
  kSwitch,       // No value: --no-pretrain.
  kPositive,     // An integer in [1, INT_MAX]: sizes, counts, timeouts.
  kNonNegative,  // An integer >= 0: indexes, seeds, 0-means-none values.
  kPort,         // An integer in [0, 65535].
  kReal,         // A finite number.
};

struct FlagSpec {
  std::string name;
  Arg arg = Arg::kText;
};

bool Valid(Arg arg, const std::string& value) {
  long n = 0;
  double x = 0.0;
  switch (arg) {
    case Arg::kText:
      return true;
    case Arg::kSwitch:
      return value.empty();
    case Arg::kPositive:
      return ParseInt(value, &n) && n >= 1 &&
             n <= std::numeric_limits<int>::max();
    case Arg::kNonNegative:
      return ParseInt(value, &n) && n >= 0;
    case Arg::kPort:
      return ParseInt(value, &n) && n >= 0 && n <= 65535;
    case Arg::kReal:
      return ParseReal(value, &x);
  }
  return false;
}

// Minimal --key value parser; flags must come in pairs.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        if (stray_.empty()) stray_ = argv[i];
        continue;
      }
      // A flag followed by another flag (or nothing) is boolean, e.g.
      // --no-pretrain, and has an empty value; otherwise it consumes the
      // next arg.
      // insert_or_assign: GCC 12's -Wrestrict miscounts the inlined
      // char-pointer operator= here at -O3.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_.insert_or_assign(argv[i] + 2, std::string(argv[i + 1]));
        ++i;
      } else {
        values_.insert_or_assign(argv[i] + 2, std::string());
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // The numeric getters read values that Check() has accepted.
  long GetInt(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    long value = fallback;
    if (it != values_.end()) ParseInt(it->second, &value);
    return value;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    double value = fallback;
    if (it != values_.end()) ParseReal(it->second, &value);
    return value;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// The error for an argument that is neither a flag nor a flag's value,
  /// or for the first flag given that is not in `specs` or whose value is
  /// not of its kind; "" when every argument is valid.
  std::string Check(const std::vector<FlagSpec>& specs) const {
    if (!stray_.empty()) return "unexpected argument " + stray_;
    for (const auto& [key, value] : values_) {
      const auto spec =
          std::find_if(specs.begin(), specs.end(),
                       [&key](const FlagSpec& s) { return s.name == key; });
      if (spec == specs.end()) return "unknown flag --" + key;
      if (!Valid(spec->arg, value)) {
        return "invalid value for --" + key + ": " + value;
      }
    }
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
  std::string stray_;  // The first argument that is not a flag or a value.
};

int Fail(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return 1;
}

// Shared --index/--nlist/--nprobe/--lsh-* parsing for every retrieval
// surface (knn, serve-bench, server). Validation happens here so a bad flag
// fails with a message before any work starts.
Result<core::IndexConfig> ParseIndexConfig(const Flags& flags) {
  core::IndexConfig config;
  Result<core::IndexKind> kind =
      core::ParseIndexKind(flags.Get("index", "exact"));
  if (!kind.ok()) return kind.status();
  config.kind = kind.value();
  config.lsh_tables =
      static_cast<int>(flags.GetInt("lsh-tables", config.lsh_tables));
  config.lsh_bits = static_cast<int>(flags.GetInt("lsh-bits", config.lsh_bits));
  config.ivf_nlist = static_cast<size_t>(
      flags.GetInt("nlist", static_cast<long>(config.ivf_nlist)));
  config.ivf_nprobe = static_cast<size_t>(
      flags.GetInt("nprobe", static_cast<long>(config.ivf_nprobe)));
  config.ivf_train_iters =
      static_cast<int>(flags.GetInt("ivf-iters", config.ivf_train_iters));
  if (Status status = config.Validate(); !status.ok()) return status;
  return config;
}

int CmdGenerate(const Flags& flags) {
  if (!flags.Has("out")) return Fail("generate requires --out");
  const std::string preset = flags.Get("preset", "porto");
  traj::GeneratorConfig config = (preset == "harbin")
                                     ? traj::GeneratorConfig::HarbinLike()
                                     : traj::GeneratorConfig::PortoLike();
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 101));
  traj::SyntheticTrajectoryGenerator generator(config);
  const traj::Dataset data =
      generator.Generate(static_cast<size_t>(flags.GetInt("count", 1000)));
  const Status status = data.Save(flags.Get("out", ""));
  if (!status.ok()) return Fail(status.ToString().c_str());
  std::printf("wrote %zu trips (%lld points, mean length %.1f) to %s\n",
              data.size(), static_cast<long long>(data.TotalPoints()),
              data.MeanLength(), flags.Get("out", "").c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  if (!flags.Has("data") || !flags.Has("model")) {
    return Fail("train requires --data and --model");
  }
  Result<traj::Dataset> data = traj::Dataset::Load(flags.Get("data", ""));
  if (!data.ok()) return Fail(data.status().ToString().c_str());

  core::T2VecConfig config;
  config.max_iterations =
      static_cast<size_t>(flags.GetInt("iters", 1000));
  config.hidden = static_cast<size_t>(flags.GetInt("hidden", 96));
  config.cell_size = flags.GetDouble("cell-size", 100.0);
  config.pretrain_cells = !flags.Has("no-pretrain");
  const std::string loss = flags.Get("loss", "l3");
  if (loss == "l1") {
    config.loss = core::LossKind::kL1;
  } else if (loss == "l2") {
    config.loss = core::LossKind::kL2;
  } else if (loss == "l3") {
    config.loss = core::LossKind::kL3;
  } else {
    return Fail("--loss must be l1, l2, or l3");
  }
  // Crash safety: periodic training-state snapshots, and resume from one.
  config.checkpoint_dir = flags.Get("checkpoint-dir", "");
  config.checkpoint_every =
      static_cast<size_t>(flags.GetInt("checkpoint-every", 500));
  config.resume_from = flags.Get("resume", "");
  if (flags.Has("resume") && config.resume_from.empty()) {
    return Fail("--resume requires a snapshot file or directory");
  }

  core::TrainStats stats;
  Result<core::T2Vec> model =
      core::T2Vec::TrainChecked(data.value().trajectories(), config, &stats);
  if (!model.ok()) return Fail(model.status().ToString().c_str());
  const Status status = model.value().Save(flags.Get("model", ""));
  if (!status.ok()) return Fail(status.ToString().c_str());
  std::printf("trained %zu iterations in %.0f s (best val %.4f); model "
              "saved to %s\n",
              stats.iterations, stats.train_seconds, stats.best_val_loss,
              flags.Get("model", "").c_str());
  return 0;
}

int CmdEncode(const Flags& flags) {
  if (!flags.Has("model") || !flags.Has("data") || !flags.Has("out")) {
    return Fail("encode requires --model, --data, --out");
  }
  Result<core::T2Vec> model = core::T2Vec::Load(flags.Get("model", ""));
  if (!model.ok()) return Fail(model.status().ToString().c_str());
  Result<traj::Dataset> data = traj::Dataset::Load(flags.Get("data", ""));
  if (!data.ok()) return Fail(data.status().ToString().c_str());

  const nn::Matrix vectors =
      model.value().Encode(data.value().trajectories());
  std::string text;
  char buf[64];
  for (size_t i = 0; i < vectors.rows(); ++i) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(data.value()[i].id));
    text += buf;
    for (size_t j = 0; j < vectors.cols(); ++j) {
      std::snprintf(buf, sizeof(buf), " %.6g", vectors.At(i, j));
      text += buf;
    }
    text += '\n';
  }
  if (Status status = WriteFileAtomic(flags.Get("out", ""), text);
      !status.ok()) {
    return Fail(status.ToString().c_str());
  }
  std::printf("encoded %zu trajectories into %zu-dim vectors -> %s\n",
              vectors.rows(), vectors.cols(),
              flags.Get("out", "").c_str());
  return 0;
}

int CmdKnn(const Flags& flags) {
  if (!flags.Has("model") || !flags.Has("data")) {
    return Fail("knn requires --model and --data");
  }
  Result<core::T2Vec> model = core::T2Vec::Load(flags.Get("model", ""));
  if (!model.ok()) return Fail(model.status().ToString().c_str());
  Result<traj::Dataset> data = traj::Dataset::Load(flags.Get("data", ""));
  if (!data.ok()) return Fail(data.status().ToString().c_str());

  const size_t query = static_cast<size_t>(flags.GetInt("query-index", 0));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  if (query >= data.value().size()) return Fail("query index out of range");
  if (k > data.value().size()) return Fail("k larger than the database");

  Result<core::IndexConfig> config = ParseIndexConfig(flags);
  if (!config.ok()) return Fail(config.status().ToString().c_str());
  const nn::Matrix vectors =
      model.value().Encode(data.value().trajectories());
  Result<std::unique_ptr<core::AnnIndex>> index =
      core::CreateIndex(config.value(), vectors.cols());
  if (!index.ok()) return Fail(index.status().ToString().c_str());
  for (size_t i = 0; i < vectors.rows(); ++i) {
    index.value()->Add({vectors.Row(i), vectors.cols()});
  }
  const core::KnnResult result =
      index.value()->Query({vectors.Row(query), vectors.cols()}, k);
  std::printf("%zu nearest trajectories to #%zu (id %lld):\n", k, query,
              static_cast<long long>(data.value()[query].id));
  for (size_t i = 0; i < result.size(); ++i) {
    const size_t idx = result.ids[i];
    std::printf("  #%zu (id %lld), distance %.4f\n", idx,
                static_cast<long long>(data.value()[idx].id),
                std::sqrt(result.distances[i]));
  }
  return 0;
}

int CmdReconstruct(const Flags& flags) {
  if (!flags.Has("model") || !flags.Has("data")) {
    return Fail("reconstruct requires --model and --data");
  }
  const double drop = flags.GetDouble("drop", 0.6);
  if (!(drop >= 0.0 && drop < 1.0)) return Fail("--drop must be in [0, 1)");
  Result<core::T2Vec> model = core::T2Vec::Load(flags.Get("model", ""));
  if (!model.ok()) return Fail(model.status().ToString().c_str());
  Result<traj::Dataset> data = traj::Dataset::Load(flags.Get("data", ""));
  if (!data.ok()) return Fail(data.status().ToString().c_str());

  const size_t query = static_cast<size_t>(flags.GetInt("query-index", 0));
  if (query >= data.value().size()) return Fail("query index out of range");

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 7)));
  const traj::Trajectory& dense = data.value()[query];
  const traj::Trajectory sparse = traj::Downsample(dense, drop, rng);
  const traj::Trajectory route = model.value().ReconstructRoute(sparse);

  std::printf("# original %zu points, kept %zu, reconstructed %zu cells\n",
              dense.size(), sparse.size(), route.size());
  for (const geo::Point& p : route.points) {
    std::printf("%.1f %.1f\n", p.x, p.y);
  }
  return 0;
}

// Drives the online embedding service closed-loop (each client keeps one
// request outstanding) and prints the service's metrics snapshot, so the
// micro-batching behavior is inspectable from the command line. A second
// phase loads every encoded vector into an EmbeddingStore under the
// configured index (--index/--nlist/--nprobe/...) and runs closed-loop kNN
// queries against it, so retrieval throughput is inspectable too.
int CmdServeBench(const Flags& flags) {
  if (!flags.Has("model") || !flags.Has("data")) {
    return Fail("serve-bench requires --model and --data");
  }
  Result<core::IndexConfig> index_config = ParseIndexConfig(flags);
  if (!index_config.ok()) {
    return Fail(index_config.status().ToString().c_str());
  }
  Result<core::T2Vec> model = core::T2Vec::Load(flags.Get("model", ""));
  if (!model.ok()) return Fail(model.status().ToString().c_str());
  Result<traj::Dataset> data = traj::Dataset::Load(flags.Get("data", ""));
  if (!data.ok()) return Fail(data.status().ToString().c_str());
  if (data.value().size() == 0) return Fail("dataset is empty");

  const size_t clients = static_cast<size_t>(flags.GetInt("clients", 8));
  const size_t requests = static_cast<size_t>(flags.GetInt("requests", 100));

  serve::ServiceOptions options;
  options.batch_window = std::chrono::microseconds(
      flags.GetInt("window-us", options.batch_window.count()));
  options.max_batch = static_cast<size_t>(
      flags.GetInt("max-batch", static_cast<long>(clients)));
  options.queue_capacity = 4 * clients;
  serve::EmbeddingService service(&model.value(), options);

  const std::vector<traj::Trajectory>& trips = data.value().trajectories();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (size_t r = 0; r < requests; ++r) {
        const traj::Trajectory& trip = trips[(c + r * clients) % trips.size()];
        (void)service.Submit(trip).get();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service.Shutdown();

  std::printf("%zu clients x %zu requests in %.3f s (%.1f req/s)\n", clients,
              requests, seconds,
              static_cast<double>(clients * requests) / seconds);
  std::printf("%s\n", service.metrics().ToJson().c_str());

  // kNN phase: every vector into a store under the configured index, then
  // the same closed-loop client shape against Knn.
  const nn::Matrix vectors = model.value().Encode(trips);
  serve::EmbeddingStore store(vectors.cols(), index_config.value());
  for (size_t i = 0; i < vectors.rows(); ++i) {
    if (Status status =
            store.Add(trips[i].id, {vectors.Row(i), vectors.cols()});
        !status.ok()) {
      return Fail(status.ToString().c_str());
    }
  }
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  const auto knn_start = std::chrono::steady_clock::now();
  std::vector<std::thread> queriers;
  for (size_t c = 0; c < clients; ++c) {
    queriers.emplace_back([&, c] {
      for (size_t r = 0; r < requests; ++r) {
        const size_t row = (c + r * clients) % vectors.rows();
        (void)store.Knn({vectors.Row(row), vectors.cols()}, k);
      }
    });
  }
  for (std::thread& w : queriers) w.join();
  const double knn_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    knn_start)
          .count();
  std::printf("knn: %zu clients x %zu queries (k=%zu) in %.3f s (%.1f q/s)\n",
              clients, requests, k, knn_seconds,
              static_cast<double>(clients * requests) / knn_seconds);
  std::printf("index: %s\n", store.Stats().ToJson().c_str());
  return 0;
}

// SIGINT flips this; the server loop polls it. sig_atomic_t + lock-free
// store is all a signal handler may touch.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

// Serves a model over TCP with WAL-backed ingestion: every insert is
// fsynced to <data-dir>/wal.log before it is acknowledged, and a restart
// replays the log back into the store (DESIGN.md §8).
int CmdServer(const Flags& flags) {
  if (!flags.Has("model") || !flags.Has("data-dir")) {
    return Fail("server requires --model and --data-dir");
  }
  Result<core::T2Vec> model = core::T2Vec::Load(flags.Get("model", ""));
  if (!model.ok()) return Fail(model.status().ToString().c_str());

  Result<core::IndexConfig> index_config = ParseIndexConfig(flags);
  if (!index_config.ok()) {
    return Fail(index_config.status().ToString().c_str());
  }
  serve::DurableStoreOptions store_options;
  store_options.compact_after_bytes = static_cast<uint64_t>(
      flags.GetInt("compact-bytes", 64 << 20));
  store_options.index_config = index_config.value();
  Result<std::unique_ptr<serve::DurableStore>> store =
      serve::DurableStore::Open(flags.Get("data-dir", ""),
                                model.value().config().hidden, store_options);
  if (!store.ok()) return Fail(store.status().ToString().c_str());
  std::fprintf(stderr,
               "store: %zu vectors (dim %zu, index %s), wal %llu bytes\n",
               store.value()->size(), store.value()->dim(),
               core::IndexKindName(index_config.value().kind),
               static_cast<unsigned long long>(store.value()->wal_bytes()));

  serve::ServerOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.service.batch_window = std::chrono::microseconds(
      flags.GetInt("window-us", options.service.batch_window.count()));
  options.service.max_batch = static_cast<size_t>(flags.GetInt(
      "max-batch", static_cast<long>(options.service.max_batch)));
  // Overload governance (DESIGN.md §8.4): connection cap and reaping
  // timeouts for slow or dead peers.
  options.max_connections =
      static_cast<size_t>(flags.GetInt("max-conns", 64));
  options.idle_timeout =
      std::chrono::milliseconds(flags.GetInt("idle-timeout-ms", 30'000));
  options.read_timeout =
      std::chrono::milliseconds(flags.GetInt("read-timeout-ms", 5'000));
  options.drain_timeout =
      std::chrono::milliseconds(flags.GetInt("drain-ms", 2'000));
  serve::TcpServer server(&model.value(), store.value().get(), options);
  if (Status status = server.Start(); !status.ok()) {
    return Fail(status.ToString().c_str());
  }
  std::printf("listening on port %u\n", server.port());
  std::fflush(stdout);

  const long run_seconds = flags.GetInt("run-seconds", 0);
  std::signal(SIGINT, HandleSigint);
  const auto started = std::chrono::steady_clock::now();
  while (!g_interrupted) {
    if (run_seconds > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(run_seconds)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::printf("%s\n", server.StatsJson().c_str());
  return 0;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: t2vec_cli "
      "<generate|train|encode|knn|reconstruct|serve-bench|server> "
      "[--flags]\n"
      "  generate    --out F [--count N] [--preset porto|harbin] [--seed S]\n"
      "  train       --data F --model F [--iters N] [--hidden H]\n"
      "              [--cell-size M] [--loss l1|l2|l3] [--no-pretrain]\n"
      "              [--checkpoint-dir D] [--checkpoint-every N]\n"
      "              [--resume SNAPSHOT|D]\n"
      "  encode      --model F --data F --out F\n"
      "  knn         --model F --data F [--query-index I] [--k K]\n"
      "              [index flags]\n"
      "  reconstruct --model F --data F [--query-index I] [--drop R]\n"
      "  serve-bench --model F --data F [--clients C] [--requests N]\n"
      "              [--window-us W] [--max-batch B] [--k K]\n"
      "              [index flags]\n"
      "  server      --model F --data-dir D [--port P] [--run-seconds S]\n"
      "              [--window-us W] [--max-batch B] [--compact-bytes N]\n"
      "              [--max-conns N] [--idle-timeout-ms T]\n"
      "              [--read-timeout-ms T] [--drain-ms T] [index flags]\n"
      "  index flags: --index exact|lsh|ivf [--nlist N] [--nprobe P]\n"
      "              [--ivf-iters I] [--lsh-tables T] [--lsh-bits B]\n");
}

// A subcommand and every flag it reads, with the kind of value each takes.
// Flags accepts any --key, so without this list a typo (--nprob), a retired
// flag or a malformed number would silently keep the default or read as 0.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::vector<FlagSpec> flags;
};

std::vector<Command> Commands() {
  auto with_index_flags = [](std::vector<FlagSpec> flags) {
    flags.insert(flags.end(), {{"index"},
                               {"nlist", Arg::kPositive},
                               {"nprobe", Arg::kPositive},
                               {"ivf-iters", Arg::kPositive},
                               {"lsh-tables", Arg::kPositive},
                               {"lsh-bits", Arg::kPositive}});
    return flags;
  };
  return {
      {"generate",
       CmdGenerate,
       {{"out"},
        {"count", Arg::kPositive},
        {"preset"},
        {"seed", Arg::kNonNegative}}},
      {"train",
       CmdTrain,
       {{"data"},
        {"model"},
        {"iters", Arg::kPositive},
        {"hidden", Arg::kPositive},
        {"cell-size", Arg::kReal},
        {"loss"},
        {"no-pretrain", Arg::kSwitch},
        {"checkpoint-dir"},
        {"checkpoint-every", Arg::kPositive},
        {"resume"}}},
      {"encode", CmdEncode, {{"model"}, {"data"}, {"out"}}},
      {"knn",
       CmdKnn,
       with_index_flags({{"model"},
                         {"data"},
                         {"query-index", Arg::kNonNegative},
                         {"k", Arg::kPositive}})},
      {"reconstruct",
       CmdReconstruct,
       {{"model"},
        {"data"},
        {"query-index", Arg::kNonNegative},
        {"drop", Arg::kReal},
        {"seed", Arg::kNonNegative}}},
      {"serve-bench",
       CmdServeBench,
       with_index_flags({{"model"},
                         {"data"},
                         {"clients", Arg::kPositive},
                         {"requests", Arg::kPositive},
                         {"window-us", Arg::kNonNegative},
                         {"max-batch", Arg::kPositive},
                         {"k", Arg::kPositive}})},
      {"server",
       CmdServer,
       with_index_flags({{"model"},
                         {"data-dir"},
                         {"port", Arg::kPort},
                         {"run-seconds", Arg::kNonNegative},
                         {"window-us", Arg::kNonNegative},
                         {"max-batch", Arg::kPositive},
                         {"compact-bytes", Arg::kNonNegative},
                         {"max-conns", Arg::kPositive},
                         {"idle-timeout-ms", Arg::kPositive},
                         {"read-timeout-ms", Arg::kPositive},
                         {"drain-ms", Arg::kNonNegative}})},
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  for (const Command& c : Commands()) {
    if (command != c.name) continue;
    const Flags flags(argc, argv, 2);
    if (const std::string error = flags.Check(c.flags); !error.empty()) {
      return Fail(error.c_str());
    }
    return c.run(flags);
  }
  PrintUsage();
  return 1;
}
