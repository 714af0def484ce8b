// Durability tests for the artifact store, the fault injector, and the
// append-only journal: every classified failure mode (missing, version
// mismatch, corruption at any byte) and every injected fault site must
// land in a recoverable state — quarantine + regeneration, never a wedge.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/artifact_store.h"
#include "common/fault_injection.h"
#include "common/journal.h"
#include "common/serialize.h"

namespace mmhar {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kKind = 0x54534554;  // "TEST"
constexpr std::uint32_t kKindVersion = 3;

class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    FaultInjector::instance().clear();
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// A small artifact with several field types so truncation can land in
  /// the middle of any of them.
  static void save_sample(const std::string& p,
                          std::uint32_t version = kKindVersion) {
    save_artifact(p, kKind, version, [](BinaryWriter& w) {
      w.write_u64(7);
      w.write_string("payload");
      w.write_f32_vec({1.0F, 2.0F, 3.0F});
      w.write_f64(0.25);
    });
  }

  static LoadResult load_sample(const std::string& p,
                                std::uint32_t version = kKindVersion) {
    return load_artifact(p, kKind, version, [](BinaryReader& r) {
      EXPECT_EQ(r.read_u64(), 7U);
      EXPECT_EQ(r.read_string(), "payload");
      EXPECT_EQ(r.read_f32_vec().size(), 3U);
      EXPECT_EQ(r.read_f64(), 0.25);
    });
  }

  std::string dir_ = "test_tmp_artifact_store";
};

TEST_F(ArtifactStoreTest, RoundTrip) {
  const std::string p = path("a.bin");
  save_sample(p);
  const LoadResult res = load_sample(p);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.status, LoadStatus::Ok);
  EXPECT_TRUE(res.quarantined_to.empty());
  // No temp residue from a clean save.
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(ArtifactStoreTest, MissingFileTouchesNothing) {
  const LoadResult res = load_sample(path("nope.bin"));
  EXPECT_EQ(res.status, LoadStatus::Missing);
  EXPECT_FALSE(fs::exists(path("nope.bin.corrupt")));
}

TEST_F(ArtifactStoreTest, VersionMismatchLeavesFileInPlace) {
  const std::string p = path("v.bin");
  save_sample(p, kKindVersion + 1);
  const LoadResult res = load_sample(p);
  EXPECT_EQ(res.status, LoadStatus::VersionMismatch);
  EXPECT_TRUE(fs::exists(p));  // a newer binary may still want it
  EXPECT_FALSE(fs::exists(p + ".corrupt"));
}

TEST_F(ArtifactStoreTest, TruncationAtEveryByteIsCorruptAndQuarantined) {
  const std::string ref = path("ref.bin");
  save_sample(ref);
  const auto full = fs::file_size(ref);
  ASSERT_GT(full, 0U);

  for (std::uintmax_t len = 0; len < full; ++len) {
    const std::string p = path("trunc.bin");
    fs::copy_file(ref, p, fs::copy_options::overwrite_existing);
    fs::resize_file(p, len);

    const LoadResult res = load_sample(p);
    EXPECT_EQ(res.status, LoadStatus::Corrupt) << "truncated to " << len;
    EXPECT_FALSE(fs::exists(p)) << "truncated to " << len;
    EXPECT_TRUE(fs::exists(p + ".corrupt")) << "truncated to " << len;

    // Regeneration at the same path must work immediately.
    save_sample(p);
    EXPECT_TRUE(load_sample(p).ok()) << "truncated to " << len;
    fs::remove(p);
    fs::remove(p + ".corrupt");
  }
}

TEST_F(ArtifactStoreTest, BitFlipAnywhereIsDetected) {
  const std::string ref = path("ref.bin");
  save_sample(ref);
  std::string bytes;
  {
    std::ifstream is(ref, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = buf.str();
  }

  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    const std::string p = path("flip.bin");
    std::string damaged = bytes;
    damaged[byte] ^= 0x10;
    {
      std::ofstream os(p, std::ios::binary | std::ios::trunc);
      os.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    const LoadResult res = load_sample(p);
    // A flip in the version fields reads as VersionMismatch; anywhere
    // else it must be Corrupt. Never Ok.
    EXPECT_FALSE(res.ok()) << "flipped byte " << byte;
    fs::remove(p);
    fs::remove(p + ".corrupt");
  }
}

TEST_F(ArtifactStoreTest, HostileLengthPrefixThrowsInsteadOfAllocating) {
  // A payload whose string length prefix claims ~2^60 bytes: the reader
  // must reject it against the remaining-byte budget, not allocate.
  const std::string p = path("hostile.bin");
  save_artifact(p, kKind, kKindVersion, [](BinaryWriter& w) {
    w.write_u64(0x1000000000000000ULL);  // read back as a string length
    w.write_u64(0);
  });
  const LoadResult res =
      load_artifact(p, kKind, kKindVersion, [](BinaryReader& r) {
        (void)r.read_string();
      });
  EXPECT_EQ(res.status, LoadStatus::Corrupt);
  EXPECT_NE(res.detail.find("deserialization"), std::string::npos);
}

TEST(BinaryReaderTest, LengthPrefixCappedByStreamBytes) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  BinaryWriter w(ss);
  w.write_u64(UINT64_MAX);  // hostile vector length
  BinaryReader r(ss);
  EXPECT_EQ(r.remaining(), sizeof(std::uint64_t));
  EXPECT_THROW((void)r.read_f32_vec(), IoError);
}

TEST(BinaryReaderTest, ExplicitLimitIsEnforced) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  BinaryWriter w(ss);
  w.write_u64(4);
  w.write_u32(0xAABBCCDD);
  BinaryReader r(ss, 8);  // only the length prefix is in budget
  EXPECT_THROW((void)r.read_f32_vec(), IoError);
}

TEST_F(ArtifactStoreTest, InjectedShortWriteLeavesFinalPathIntact) {
  const std::string p = path("short.bin");
  save_sample(p);  // good generation 1

  FaultInjector::instance().configure("artifact.short_write@1", 7);
  EXPECT_THROW(save_sample(p), IoError);
  FaultInjector::instance().clear();

  // Generation 1 is still readable; the next save replaces the temp.
  EXPECT_TRUE(load_sample(p).ok());
  save_sample(p);
  EXPECT_TRUE(load_sample(p).ok());
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(ArtifactStoreTest, InjectedRenameFailureLeavesNoResidue) {
  const std::string p = path("rename.bin");
  FaultInjector::instance().configure("artifact.rename_fail@1", 7);
  EXPECT_THROW(save_sample(p), IoError);
  FaultInjector::instance().clear();
  EXPECT_FALSE(fs::exists(p));
  EXPECT_FALSE(fs::exists(p + ".tmp"));
  save_sample(p);
  EXPECT_TRUE(load_sample(p).ok());
}

TEST_F(ArtifactStoreTest, InjectedTruncationCaughtOnLoad) {
  const std::string p = path("t.bin");
  FaultInjector::instance().configure("artifact.truncate@1", 7);
  save_sample(p);
  FaultInjector::instance().clear();
  const LoadResult res = load_sample(p);
  EXPECT_EQ(res.status, LoadStatus::Corrupt);
  EXPECT_TRUE(fs::exists(p + ".corrupt"));
}

TEST_F(ArtifactStoreTest, InjectedBitFlipCaughtOnLoad) {
  const std::string p = path("b.bin");
  FaultInjector::instance().configure("artifact.bitflip@1", 7);
  save_sample(p);
  FaultInjector::instance().clear();
  const LoadResult res = load_sample(p);
  EXPECT_EQ(res.status, LoadStatus::Corrupt);
  EXPECT_NE(res.detail.find("checksum"), std::string::npos);
}

TEST_F(ArtifactStoreTest, FaultInjectorIsDeterministic) {
  auto& fi = FaultInjector::instance();
  fi.configure("some.site=0.5", 1234);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(fi.should_fire("some.site"));
  fi.configure("some.site=0.5", 1234);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(fi.should_fire("some.site"), first[static_cast<std::size_t>(i)]);
  fi.clear();
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fault_should_fire("some.site"));
}

TEST_F(ArtifactStoreTest, NthCallRuleFiresExactlyOnce) {
  auto& fi = FaultInjector::instance();
  fi.configure("site.nth@3", 1);
  int fires = 0;
  for (int i = 0; i < 10; ++i)
    if (fi.should_fire("site.nth")) ++fires;
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fi.call_count("site.nth"), 10U);
  EXPECT_EQ(fi.fire_count("site.nth"), 1U);
  fi.clear();
}

TEST_F(ArtifactStoreTest, MalformedSpecThrows) {
  auto& fi = FaultInjector::instance();
  EXPECT_THROW(fi.configure("site@notanumber", 1), InvalidArgument);
  EXPECT_THROW(fi.configure("site=2.5", 1), InvalidArgument);
  // strtoull wraps "-1" to 2^64-1, a rule that would never fire.
  EXPECT_THROW(fi.configure("site@-1", 1), InvalidArgument);
  EXPECT_THROW(fi.configure("site@+3", 1), InvalidArgument);
  EXPECT_THROW(fi.configure("site@ 3", 1), InvalidArgument);
  EXPECT_THROW(fi.configure("site=-0", 1), InvalidArgument);
  EXPECT_THROW(fi.configure("site=+0.5", 1), InvalidArgument);
  EXPECT_THROW(fi.configure("site= 0.5", 1), InvalidArgument);
  // Both suffixes would arm a site literally named "a=0.5" (or "a@3").
  EXPECT_THROW(fi.configure("a=0.5@3", 1), InvalidArgument);
  EXPECT_THROW(fi.configure("a@3=0.5", 1), InvalidArgument);
  EXPECT_FALSE(fi.armed());
}

TEST_F(ArtifactStoreTest, JournalRoundTripAndTornTail) {
  const std::string jp = path("j.jnl");
  {
    AppendJournal j(jp);
    EXPECT_TRUE(j.load().empty());  // missing file = empty journal
    j.append("alpha");
    j.append("beta");
    j.append("gamma");
  }
  {
    AppendJournal j(jp);
    const auto recs = j.load();
    ASSERT_EQ(recs.size(), 3U);
    EXPECT_EQ(recs[0], "alpha");
    EXPECT_EQ(recs[1], "beta");
    EXPECT_EQ(recs[2], "gamma");
  }

  // Tear the tail: chop bytes off the last record. load() must return
  // the intact prefix and truncate the tear away on disk.
  const auto full = fs::file_size(jp);
  fs::resize_file(jp, full - 3);
  {
    AppendJournal j(jp);
    const auto recs = j.load();
    ASSERT_EQ(recs.size(), 2U);
    EXPECT_EQ(recs[1], "beta");
    // Appending after a tear extends the valid prefix.
    j.append("delta");
    const auto again = j.load();
    ASSERT_EQ(again.size(), 3U);
    EXPECT_EQ(again[2], "delta");
  }
}

TEST_F(ArtifactStoreTest, JournalTornAtEveryByteKeepsIntactPrefix) {
  const std::string ref = path("ref.jnl");
  {
    AppendJournal j(ref);
    j.append("one");
    j.append("two");
  }
  const auto full = fs::file_size(ref);
  // Size of record one's frame on disk: magic + len + payload + checksum.
  const std::uintmax_t rec1 = 4 + 8 + 3 + 8;

  for (std::uintmax_t len = 0; len < full; ++len) {
    const std::string jp = path("torn.jnl");
    fs::copy_file(ref, jp, fs::copy_options::overwrite_existing);
    fs::resize_file(jp, len);
    AppendJournal j(jp);
    const auto recs = j.load();
    if (len < rec1) {
      EXPECT_TRUE(recs.empty()) << "torn at " << len;
    } else if (len < full) {
      ASSERT_EQ(recs.size(), 1U) << "torn at " << len;
      EXPECT_EQ(recs[0], "one");
    }
    fs::remove(jp);
  }
}

TEST_F(ArtifactStoreTest, JournalGarbageTailIsDropped) {
  const std::string jp = path("g.jnl");
  {
    AppendJournal j(jp);
    j.append("keep");
  }
  {
    std::ofstream os(jp, std::ios::binary | std::ios::app);
    os << "not a record at all";
  }
  AppendJournal j(jp);
  const auto recs = j.load();
  ASSERT_EQ(recs.size(), 1U);
  EXPECT_EQ(recs[0], "keep");
}

TEST_F(ArtifactStoreTest, QuarantineFallsBackGracefully) {
  EXPECT_EQ(quarantine_file(path("absent.bin")), "");
  const std::string p = path("q.bin");
  { std::ofstream os(p); os << "x"; }
  const std::string where = quarantine_file(p);
  EXPECT_EQ(where, p + ".corrupt");
  EXPECT_FALSE(fs::exists(p));
  EXPECT_TRUE(fs::exists(where));
}

}  // namespace
}  // namespace mmhar
