#include "nn/checkpoint.h"

#include <map>

#include "common/fault.h"
#include "common/fs.h"

namespace t2vec::nn {

namespace {
constexpr uint32_t kMagic = 0x54325643;  // "T2VC"
// Version 2 added the atomic-write + CRC32C trailer framing; it is the only
// version the loader reads.
constexpr uint32_t kVersion = 2;
}  // namespace

void WriteParamBlock(BinaryWriter* writer, const ParamList& params) {
  writer->WritePod<uint64_t>(params.size());
  for (const Parameter* p : params) {
    writer->WriteString(p->name);
    writer->WritePod<uint64_t>(p->value.rows());
    writer->WritePod<uint64_t>(p->value.cols());
    writer->WriteVector(p->value.storage());
  }
}

Status ReadParamBlock(BinaryReader* reader, const ParamList& params) {
  uint64_t count = 0;
  if (!reader->ReadPod(&count)) {
    return Status::IoError("truncated parameter block");
  }

  std::map<std::string, Parameter*> by_name;
  for (Parameter* p : params) by_name[p->name] = p;
  if (by_name.size() != params.size()) {
    return Status::InvalidArgument("duplicate parameter names");
  }
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter block has " + std::to_string(count) +
        " params, model has " + std::to_string(params.size()));
  }

  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t rows = 0, cols = 0;
    std::vector<float> values;
    if (!reader->ReadString(&name) || !reader->ReadPod(&rows) ||
        !reader->ReadPod(&cols) || !reader->ReadVector(&values)) {
      return Status::IoError("truncated parameter entry");
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound("parameter not in model: " + name);
    }
    Parameter* p = it->second;
    if (p->value.rows() != rows || p->value.cols() != cols ||
        values.size() != rows * cols) {
      return Status::InvalidArgument("shape mismatch for " + name);
    }
    p->value.storage() = std::move(values);
  }
  BumpParamVersion();
  return Status::Ok();
}

Status SaveParams(const ParamList& params, const std::string& path) {
  if (const int err = T2VEC_FAULT_POINT("checkpoint.write")) {
    return Status::IoError(ErrnoMessage("checkpoint write", path, err));
  }
  BinaryWriter writer(path);
  if (!writer.ok()) return writer.status();
  writer.WritePod(kMagic);
  writer.WritePod(kVersion);
  WriteParamBlock(&writer, params);
  return writer.Finish();
}

Status LoadParams(const ParamList& params, const std::string& path) {
  BinaryReader reader(path);
  if (!reader.ok()) return reader.status();
  uint32_t magic = 0, version = 0;
  if (!reader.ReadPod(&magic) || magic != kMagic) {
    return Status::IoError("bad checkpoint magic in " + path);
  }
  if (!reader.ReadPod(&version) || version != kVersion) {
    return Status::IoError("checkpoint " + path + " has unsupported version " +
                           std::to_string(version));
  }
  Status status = ReadParamBlock(&reader, params);
  if (!status.ok()) {
    return Status(status.code(), status.message() + " in " + path);
  }
  return Status::Ok();
}

}  // namespace t2vec::nn
