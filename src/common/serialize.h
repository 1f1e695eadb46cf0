#ifndef T2VEC_COMMON_SERIALIZE_H_
#define T2VEC_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fs.h"
#include "common/status.h"

/// \file
/// Binary (de)serialization for model checkpoints, training snapshots,
/// embedding-store snapshots, and caches.
///
/// The format is a flat little-endian stream; each composite type writes a
/// tag-free fixed layout, and streams are versioned by their owners (every
/// artifact writes a magic + version header). Not intended for cross-endian
/// portability.
///
/// Durability framing (DESIGN.md §7): the writer streams through
/// `AtomicFileWriter` (write `path.tmp`, fsync, rename) and `Finish()`
/// appends a 16-byte CRC32C trailer:
///
///     [payload bytes][payload_size u64][crc32c u32][trailer magic u32]
///
/// The reader verifies the trailer before any field is trusted: a valid
/// trailer bounds every read by the payload size, and a stream without one
/// (truncated, stripped, or never framed) or with a CRC mismatch fails the
/// whole file up front. There is no unchecked mode: every artifact has one
/// framed format.

namespace t2vec {

/// Marks the end of a CRC-framed stream ("CRC2" little-endian).
inline constexpr uint32_t kCrcTrailerMagic = 0x32435243;

/// Size of the checksum trailer appended by BinaryWriter::Finish().
inline constexpr size_t kCrcTrailerBytes = 16;

/// Appends primitive values and vectors to a binary output stream.
///
/// Bytes stream into `path + ".tmp"`; nothing appears at `path` until
/// `Finish()` has fsynced and renamed the complete, checksummed file. Check
/// `ok()` after construction for open errors (details in `status()`).
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path) : file_(path) {}

  bool ok() const { return file_.ok(); }

  /// OK, or the first I/O error (operation + path + strerror context).
  const Status& status() const { return file_.status(); }

  template <typename T>
  void WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(&value, sizeof(T));
  }

  void WriteString(const std::string& s) {
    WritePod<uint64_t>(s.size());
    Append(s.data(), s.size());
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WritePod<uint64_t>(v.size());
    Append(v.data(), v.size() * sizeof(T));
  }

  /// Appends `n` raw bytes with no length prefix. For large fixed-layout
  /// blocks (e.g. an index's vector rows) whose size an earlier field
  /// already records: one call is one `write(2)`, so writing a block this
  /// way instead of element-at-a-time keeps snapshot writes O(fields), not
  /// O(rows), in syscalls.
  void WriteRaw(const void* data, size_t n) { Append(data, n); }

  /// Appends the CRC32C trailer and atomically publishes the file. Returns
  /// the first error of the whole write sequence; on error the final path
  /// is untouched.
  Status Finish() {
    const uint64_t payload_size = payload_size_;
    const uint32_t crc = crc_;
    // The trailer describes the payload, so it is excluded from the CRC.
    file_.Append(&payload_size, sizeof(payload_size));
    file_.Append(&crc, sizeof(crc));
    file_.Append(&kCrcTrailerMagic, sizeof(kCrcTrailerMagic));
    return file_.Commit();
  }

 private:
  void Append(const void* data, size_t n) {
    crc_ = Crc32c(crc_, data, n);
    payload_size_ += n;
    file_.Append(data, n);
  }

  AtomicFileWriter file_;
  uint32_t crc_ = 0;
  uint64_t payload_size_ = 0;
};

/// Reads values written by BinaryWriter, in the same order.
///
/// The whole file is read up front and the CRC trailer is verified before
/// the first field is served; a missing trailer or a CRC mismatch fails the
/// reader at open. Every subsequent read is bounded by the verified payload
/// size, so a corrupt length field can never trigger a multi-GiB
/// allocation — it fails soft instead. Check `ok()` before use; `status()`
/// carries the open/verification error.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path) {
    status_ = ReadFileToString(path, &data_);
    if (!status_.ok()) {
      failed_ = true;
      return;
    }
    Init(data_.data(), data_.size(), path);
  }

  /// View mode: reads directly from `[data, data + size)` without copying —
  /// the mmap serving path. The CRC trailer is still verified up front (one
  /// sequential pass at open; the kernel faults the pages in once and they
  /// stay warm), and `ReadRaw` then serves large blocks as pointers into the
  /// mapping. The caller keeps the underlying bytes alive for as long as the
  /// reader and anything returned by `ReadRaw` are in use. `name` labels
  /// error messages (pass the file path).
  BinaryReader(const char* data, size_t size, const std::string& name) {
    Init(data, size, name);
  }

  bool ok() const { return !failed_; }

  /// OK, or the open / checksum-verification error.
  const Status& status() const { return status_; }

  /// Unread payload bytes.
  size_t remaining() const { return payload_end_ - pos_; }

  template <typename T>
  bool ReadPod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (failed_ || sizeof(T) > remaining()) return FailRead();
    std::memcpy(value, base_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* s) {
    uint64_t n = 0;
    if (!ReadPod(&n)) return false;
    // Bounding by the remaining byte count (not a fixed cap) makes a corrupt
    // length field fail soft instead of attempting a huge allocation.
    if (n > remaining()) return FailRead();
    s->assign(base_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }

  template <typename T>
  bool ReadVector(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    if (!ReadPod(&n)) return false;
    if (n > remaining() / sizeof(T)) return FailRead();
    v->resize(static_cast<size_t>(n));
    if (n > 0) {
      std::memcpy(v->data(), base_ + pos_,
                  static_cast<size_t>(n) * sizeof(T));
      pos_ += static_cast<size_t>(n) * sizeof(T);
    }
    return true;
  }

  /// Returns a pointer to the next `n` payload bytes without copying, or
  /// nullptr (and fails the reader) if fewer remain. In file mode the
  /// pointer lives as long as the reader; in view mode as long as the
  /// caller's backing bytes. The CRC covering these bytes was already
  /// verified at construction.
  const char* ReadRaw(size_t n) {
    if (failed_ || n > remaining()) {
      FailRead();
      return nullptr;
    }
    const char* p = base_ + pos_;
    pos_ += n;
    return p;
  }

 private:
  void Init(const char* data, size_t size, const std::string& name) {
    base_ = data;
    failed_ = true;  // Until the trailer checks out.
    uint64_t payload_size = 0;
    uint32_t crc = 0, magic = 0;
    if (size >= kCrcTrailerBytes) {
      const char* trailer = data + size - kCrcTrailerBytes;
      std::memcpy(&payload_size, trailer, sizeof(payload_size));
      std::memcpy(&crc, trailer + 8, sizeof(crc));
      std::memcpy(&magic, trailer + 12, sizeof(magic));
    }
    if (magic != kCrcTrailerMagic || payload_size != size - kCrcTrailerBytes) {
      status_ = Status::IoError(
          name + " is missing its checksum trailer (truncated?)");
      return;
    }
    if (Crc32c(0, data, payload_size) != crc) {
      status_ = Status::IoError("checksum mismatch in " + name +
                                ": file is corrupt");
      return;
    }
    failed_ = false;
    payload_end_ = payload_size;
  }

  bool FailRead() {
    failed_ = true;
    return false;
  }

  std::string data_;
  const char* base_ = nullptr;
  size_t pos_ = 0;
  size_t payload_end_ = 0;
  bool failed_ = false;
  Status status_;
};

}  // namespace t2vec

#endif  // T2VEC_COMMON_SERIALIZE_H_
