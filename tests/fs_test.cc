// Durability-layer tests (DESIGN.md §7): CRC32C correctness, atomic
// publication semantics of AtomicFileWriter, deterministic fault injection,
// and the CRC framing / bounded reads of BinaryWriter/BinaryReader.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/fs.h"
#include "common/serialize.h"

namespace t2vec {
namespace {

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("fs_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string Slurp(const std::string& path) {
    std::string out;
    EXPECT_TRUE(ReadFileToString(path, &out).ok());
    return out;
  }

  std::filesystem::path dir_;
};

// --- CRC32C ---

TEST_F(FsTest, Crc32cCheckValue) {
  // The standard CRC32C check value (RFC 3720 appendix, iSCSI).
  EXPECT_EQ(Crc32c(0, "123456789", 9), 0xE3069283u);
}

TEST_F(FsTest, Crc32cIncrementalMatchesOneShot) {
  const std::string data = "deterministic trajectory similarity";
  const uint32_t whole = Crc32c(0, data.data(), data.size());
  uint32_t running = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    const size_t n = std::min<size_t>(7, data.size() - i);
    running = Crc32c(running, data.data() + i, n);
  }
  EXPECT_EQ(running, whole);
  EXPECT_NE(Crc32c(0, "a", 1), Crc32c(0, "b", 1));
}

// --- AtomicFileWriter ---

TEST_F(FsTest, CommitPublishesAndRemovesTmp) {
  const std::string path = Path("artifact.bin");
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.ok());
  writer.Append("hello", 5);
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(Slurp(path), "hello");
  EXPECT_FALSE(std::filesystem::exists(writer.tmp_path()));
}

TEST_F(FsTest, AbandonLeavesPreviousFileUntouched) {
  const std::string path = Path("artifact.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old contents").ok());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.Append("new half-written", 16);
    // Destructor abandons: simulates a crash before Commit.
  }
  EXPECT_EQ(Slurp(path), "old contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FsTest, WriteFileAtomicReplaces) {
  const std::string path = Path("artifact.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "v1").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "v2 is longer").ok());
  EXPECT_EQ(Slurp(path), "v2 is longer");
}

TEST_F(FsTest, ErrnoMessageCarriesContext) {
  const std::string msg = ErrnoMessage("write", "/some/path", ENOSPC);
  EXPECT_NE(msg.find("write failed for /some/path"), std::string::npos) << msg;
  EXPECT_NE(msg.find("errno 28"), std::string::npos) << msg;
}

// --- Fault injection ---

TEST_F(FsTest, EveryFsFaultSiteFailsSoftAndPreservesTarget) {
  const std::string path = Path("artifact.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "survivor").ok());
  for (const char* site : {"fs.open", "fs.write", "fs.fsync", "fs.rename"}) {
    SCOPED_TRACE(site);
    fault::DisarmAll();
    fault::Arm(site, 1, EIO);
    const Status status = WriteFileAtomic(path, "doomed");
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("errno 5"), std::string::npos)
        << status.ToString();
    // The previous file is intact and no temporary is left behind.
    EXPECT_EQ(Slurp(path), "survivor");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }
  fault::DisarmAll();
  ASSERT_TRUE(WriteFileAtomic(path, "recovered").ok());
  EXPECT_EQ(Slurp(path), "recovered");
}

TEST_F(FsTest, FaultFiresOnNthHitExactlyOnce) {
  const std::string path = Path("artifact.bin");
  fault::Arm("fs.open", 2, ENOSPC);
  EXPECT_TRUE(WriteFileAtomic(path, "first").ok());    // Hit 1: passes.
  EXPECT_FALSE(WriteFileAtomic(path, "second").ok());  // Hit 2: fires.
  EXPECT_TRUE(WriteFileAtomic(path, "third").ok());    // Hit 3: passes again.
  EXPECT_EQ(fault::HitCount("fs.open"), 3u);
  EXPECT_EQ(Slurp(path), "third");
}

TEST_F(FsTest, ArmFromSpecParsesTriples) {
  EXPECT_TRUE(fault::ArmFromSpec("fs.write:1:EIO;fs.rename:2:28"));
  fault::Arm("fs.write", 1, EIO);  // Reset hit count for a clean assertion.
  EXPECT_FALSE(WriteFileAtomic(Path("a"), "x").ok());
  EXPECT_FALSE(fault::ArmFromSpec("missing-fields"));
  EXPECT_FALSE(fault::ArmFromSpec("site:1:EBOGUS"));
  EXPECT_FALSE(fault::ArmFromSpec("site:notanum:5"));
  EXPECT_FALSE(fault::ArmFromSpec("site:*:EIO"));  // Bare star: no period.
}

TEST_F(FsTest, PeriodicArmFiresOnEveryNthHit) {
  fault::ArmEvery("test.periodic", 3, EIO);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(T2VEC_FAULT_POINT("test.periodic"), 0) << round;
    EXPECT_EQ(T2VEC_FAULT_POINT("test.periodic"), 0) << round;
    EXPECT_EQ(T2VEC_FAULT_POINT("test.periodic"), EIO) << round;
  }
  EXPECT_EQ(fault::HitCount("test.periodic"), 9u);
}

TEST_F(FsTest, ArmFromSpecParsesPeriodicSites) {
  EXPECT_TRUE(fault::ArmFromSpec("test.rate:*2:ECONNRESET"));
  EXPECT_EQ(T2VEC_FAULT_POINT("test.rate"), 0);
  EXPECT_EQ(T2VEC_FAULT_POINT("test.rate"), ECONNRESET);
  EXPECT_EQ(T2VEC_FAULT_POINT("test.rate"), 0);
  EXPECT_EQ(T2VEC_FAULT_POINT("test.rate"), ECONNRESET);
}

TEST_F(FsTest, DisarmedFaultPointIsANoop) {
  EXPECT_EQ(T2VEC_FAULT_POINT("fs.write"), 0);
  EXPECT_EQ(fault::HitCount("fs.write"), 0u);
}

// --- BinaryWriter / BinaryReader framing ---

TEST_F(FsTest, RoundTripIsChecksummedAndExact) {
  const std::string path = Path("stream.bin");
  {
    BinaryWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WritePod<uint32_t>(0xABCD1234u);
    writer.WriteString("name");
    writer.WriteVector(std::vector<float>{1.5f, -2.5f, 3.0f});
    writer.WriteVector(std::vector<double>{});  // Empty vectors round-trip.
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  uint32_t tag = 0;
  std::string name;
  std::vector<float> floats;
  std::vector<double> empty;
  EXPECT_TRUE(reader.ReadPod(&tag));
  EXPECT_TRUE(reader.ReadString(&name));
  EXPECT_TRUE(reader.ReadVector(&floats));
  EXPECT_TRUE(reader.ReadVector(&empty));
  EXPECT_EQ(tag, 0xABCD1234u);
  EXPECT_EQ(name, "name");
  EXPECT_EQ(floats, (std::vector<float>{1.5f, -2.5f, 3.0f}));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(reader.remaining(), 0u);
  // Reading past the payload fails soft; the trailer is never served.
  uint8_t extra = 0;
  EXPECT_FALSE(reader.ReadPod(&extra));
}

// A reader that failed at open for lack of a trailer, naming it, and
// serving no field.
void ExpectMissingTrailer(BinaryReader& reader) {
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("missing its checksum trailer"),
            std::string::npos)
      << reader.status().ToString();
  uint64_t value = 0;
  EXPECT_FALSE(reader.ReadPod(&value));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST_F(FsTest, StreamWithoutTrailerIsRejectedAtOpen) {
  // Raw fields with no trailer (a stream no writer produces): one of 16
  // bytes, exactly a trailer's size, and shorter ones down to empty.
  std::string raw;
  const uint64_t n = 2;
  const int32_t values[2] = {7, -9};
  raw.append(reinterpret_cast<const char*>(&n), sizeof(n));
  raw.append(reinterpret_cast<const char*>(values), sizeof(values));
  const std::string path = Path("raw.bin");
  for (const std::string& contents : {raw, raw.substr(0, 5), std::string()}) {
    ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
    BinaryReader reader(path);
    ExpectMissingTrailer(reader);
    BinaryReader view(contents.data(), contents.size(), path);
    ExpectMissingTrailer(view);
  }
}

TEST_F(FsTest, PayloadBitFlipFailsUpFront) {
  const std::string path = Path("stream.bin");
  {
    BinaryWriter writer(path);
    writer.WriteVector(std::vector<uint64_t>{1, 2, 3, 4});
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::string bytes = Slurp(path);
  bytes[3] ^= 0x40;  // Flip one payload bit.
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  BinaryReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("checksum mismatch"),
            std::string::npos)
      << reader.status().ToString();
}

TEST_F(FsTest, StrippedTrailerIsRejectedAtOpen) {
  // Truncation that removes exactly the trailer leaves the payload intact;
  // the reader still refuses it, so no owner needs a check of its own.
  const std::string path = Path("stream.bin");
  {
    BinaryWriter writer(path);
    writer.WritePod<uint64_t>(42);
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::string bytes = Slurp(path);
  ASSERT_GE(bytes.size(), kCrcTrailerBytes);
  bytes.resize(bytes.size() - kCrcTrailerBytes);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  BinaryReader reader(path);
  ExpectMissingTrailer(reader);
}

TEST_F(FsTest, CorruptLengthFieldFailsSoftInsteadOfAllocating) {
  const std::string path = Path("stream.bin");
  // A CRC-valid stream whose vector length claims ~2^63 elements; the
  // bounded read must fail cleanly without attempting the allocation.
  {
    BinaryWriter writer(path);
    writer.WritePod<uint64_t>(uint64_t{1} << 63);
    writer.WriteRaw("short", 5);
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    BinaryReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<double> v;
    EXPECT_FALSE(reader.ReadVector(&v));
  }
  {
    BinaryReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::string s;
    EXPECT_FALSE(reader.ReadString(&s));
  }
}

TEST_F(FsTest, WriterSurfacesInjectedFaultThroughStatus) {
  fault::Arm("fs.write", 1, EDQUOT);
  const std::string path = Path("stream.bin");
  BinaryWriter writer(path);
  writer.WritePod<uint32_t>(1);
  const Status status = writer.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(writer.ok());
  EXPECT_NE(status.message().find("write failed"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace t2vec
