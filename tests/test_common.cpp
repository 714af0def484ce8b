// Unit tests for the common substrate: RNG, hashing, serialization,
// thread pool, env parsing, logging, and the check macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/env.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/thread_pool.h"

namespace mmhar {
namespace {

TEST(Check, ThrowsWithContext) {
  EXPECT_THROW(MMHAR_CHECK(1 == 2), Error);
  try {
    MMHAR_CHECK_MSG(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(MMHAR_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(MMHAR_REQUIRE(true, "fine"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, IndexUnbiasedOverSmallRange) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  const int n = 25000;
  for (int i = 0; i < n; ++i) ++counts[rng.index(5)];
  for (const int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

TEST(Rng, IndexRejectsEmptyRange) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng parent(42);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(3);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto i : sample) EXPECT_LT(i, 100u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), InvalidArgument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<std::size_t> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

std::string saved_state(const Rng& rng) {
  std::ostringstream os;
  BinaryWriter w(os);
  rng.save(w);
  return os.str();
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// normal_fill gives the floats and the end state of n scalar
// normal(0, sigma) calls: odd and even n, block edges (256 pairs), and a
// spare pending at entry.
TEST(Rng, NormalFillMatchesScalarDraws) {
  const std::size_t sizes[] = {0, 1, 2, 3, 255, 256, 257, 511, 512, 513,
                               32769};
  for (const bool spare : {false, true}) {
    for (const double sigma : {0.02, 1.0, 3.7}) {
      for (const std::size_t n : sizes) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " sigma=" << sigma
                                          << " spare=" << spare);
        Rng fill(n * 31 + 7);
        if (spare) fill.normal();
        Rng scalar = fill;
        std::vector<float> got(n);
        std::vector<float> want(n);
        fill.normal_fill(sigma, got.data(), n);
        for (float& v : want) v = static_cast<float>(scalar.normal(0.0, sigma));
        EXPECT_TRUE(same_floats(got, want));
        EXPECT_EQ(saved_state(fill), saved_state(scalar));
        EXPECT_EQ(fill.next_u64(), scalar.next_u64());
      }
    }
  }
}

// normal_fill's own log and sincos against the host libm, relative to the
// libm value, on the inputs Box–Muller gives them: u = k * 2^-53 and
// theta = 2*pi*u. The certificate needs each within kCertificateSlack;
// ask for 16x less. 10^7 grid inputs plus the edges: the smallest and
// largest u1, the k = 0 band of the log just below 1 and around its
// sqrt(2)/2 cut, and theta nearest 0, pi/2, pi and 3*pi/2.
TEST(Rng, OwnLogSincosWithinSlack) {
  const double bound = rng_detail::kCertificateSlack / 16;
  double worst_log = 0.0;
  double worst_trig = 0.0;
  const auto rel = [](double own, double ref) {
    return own == ref ? 0.0 : std::abs(own - ref) / std::abs(ref);
  };
  const auto check_u1 = [&](double u1) {
    worst_log = std::max(worst_log, rel(rng_detail::log(u1), std::log(u1)));
  };
  const auto check_u2 = [&](double u2) {
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    double s = 0.0;
    double c = 0.0;
    rng_detail::sincos(theta, s, c);
    worst_trig = std::max({worst_trig, rel(s, std::sin(theta)),
                           rel(c, std::cos(theta))});
  };
  constexpr std::uint64_t kGrid = 5'000'000;
  constexpr std::uint64_t kStride = (std::uint64_t{1} << 53) / kGrid;
  for (std::uint64_t i = 0; i < kGrid; ++i) {
    const double u = static_cast<double>(1 + i * kStride) * 0x1p-53;
    check_u1(u);
    check_u2(u);
  }
  // Every binade of u1, and the edges.
  for (int e = -53; e < 0; ++e)
    for (int j = 0; j < 4096; ++j) check_u1(std::ldexp(1.0 + j / 4096.0, e));
  for (std::uint64_t m = 1; m <= 100'000; ++m) {
    check_u1(static_cast<double>(m) * 0x1p-53);
    check_u1(1.0 - static_cast<double>(m) * 0x1p-53);
    check_u1(0x1.6a09cp-1 + (static_cast<double>(m) - 50'000.0) * 0x1p-53);
  }
  for (int quarter = 0; quarter < 4; ++quarter) {
    for (int m = -50'000; m <= 50'000; ++m) {
      const double u2 = quarter * 0.25 + m * 0x1p-53;
      if (u2 >= 0.0) check_u2(u2);
    }
  }
  EXPECT_LE(worst_log, bound) << worst_log / 0x1p-52 << " x 2^-52";
  EXPECT_LE(worst_trig, bound) << worst_trig / 0x1p-52 << " x 2^-52";
}

// The certificate at scale: 2^30 pairs (> 10^9) of normal_fill against the
// scalar draws, over forked streams and three sigmas, with the number of
// pairs it left to the scalar fallback. About 10 s on 4 threads of an
// AVX-512 host, 20 s in a portable build.
TEST(Rng, DISABLED_NormalFillSweep) {
  constexpr std::size_t kChunks = 1024;
  constexpr std::size_t kPairs = std::size_t{1} << 20;
  const double sigmas[] = {0.02, 1.0, 3.7};
  std::vector<std::size_t> mismatched(kChunks, 0);
  std::vector<std::size_t> redone(kChunks, 0);
  global_pool().parallel_for(0, kChunks, [&](std::size_t c) {
    std::vector<float> got(2 * kPairs);
    std::vector<float> want(2 * kPairs);
    const double sigma = sigmas[c % 3];
    Rng fill = Rng(20260101).fork(c);
    Rng scalar = fill;
    redone[c] = fill.normal_fill(sigma, got.data(), got.size());
    for (float& v : want) v = static_cast<float>(scalar.normal(0.0, sigma));
    for (std::size_t i = 0; i < got.size(); ++i)
      if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) ++mismatched[c];
  });
  std::size_t total_mismatched = 0;
  std::size_t total_redone = 0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    total_mismatched += mismatched[c];
    total_redone += redone[c];
  }
  std::printf("normal_fill sweep: %zu pairs, %zu redone by the scalar path, "
              "%zu mismatched floats\n",
              kChunks * kPairs, total_redone, total_mismatched);
  EXPECT_EQ(total_mismatched, 0U);
}

TEST(Hasher, StableAndSensitive) {
  Hasher a;
  a.mix(1).mix(2.5).mix(std::string("x"));
  Hasher b;
  b.mix(1).mix(2.5).mix(std::string("x"));
  EXPECT_EQ(a.value(), b.value());
  Hasher c;
  c.mix(1).mix(2.5).mix(std::string("y"));
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Hasher, OrderMatters) {
  Hasher a;
  a.mix(1).mix(2);
  Hasher b;
  b.mix(2).mix(1);
  EXPECT_NE(a.value(), b.value());
}

TEST(Serialize, RoundTripsAllTypes) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u32(0xDEADBEEF);
    w.write_u64(1234567890123ULL);
    w.write_i64(-77);
    w.write_f32(1.5F);
    w.write_f64(-2.25);
    w.write_string("hello world");
    w.write_f32_vec({1.0F, 2.0F, 3.0F});
    w.write_u64_vec({9, 8});
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(r.read_u64(), 1234567890123ULL);
  EXPECT_EQ(r.read_i64(), -77);
  EXPECT_EQ(r.read_f32(), 1.5F);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_f32_vec(), (std::vector<float>{1.0F, 2.0F, 3.0F}));
  EXPECT_EQ(r.read_u64_vec(), (std::vector<std::uint64_t>{9, 8}));
}

TEST(Serialize, TruncationThrows) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u32(1);
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 1u);
  EXPECT_THROW(r.read_u64(), IoError);
}

TEST(Serialize, FileHelpers) {
  const std::string dir = "test_tmp_serialize";
  ensure_directory(dir);
  const std::string path = dir + "/file.bin";
  {
    auto os = open_for_write(path);
    BinaryWriter w(os);
    w.write_u32(7);
  }
  EXPECT_TRUE(file_exists(path));
  {
    auto is = open_for_read(path);
    BinaryReader r(is);
    EXPECT_EQ(r.read_u32(), 7u);
  }
  EXPECT_THROW(open_for_read(dir + "/missing.bin"), IoError);
  std::filesystem::remove_all(dir);
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 63) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ChunkedPartitionsAreContiguousAndDisjoint) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunked(10, 110, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expect = 10;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_LT(lo, hi);
    expect = hi;
  }
  EXPECT_EQ(expect, 110u);
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("MMHAR_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("MMHAR_TEST_INT", 7), 42);
  EXPECT_EQ(env_int("MMHAR_TEST_MISSING_INT", 7), 7);
  ::setenv("MMHAR_TEST_BAD", "4x2", 1);
  EXPECT_EQ(env_int("MMHAR_TEST_BAD", 9), 9);
  ::setenv("MMHAR_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("MMHAR_TEST_DBL", 0.0), 2.5);
  ::setenv("MMHAR_TEST_STR", "abc", 1);
  EXPECT_EQ(env_string("MMHAR_TEST_STR", "zzz"), "abc");
  EXPECT_EQ(env_string("MMHAR_TEST_MISSING_STR", "zzz"), "zzz");
}

TEST(Logging, ThresholdFilters) {
  const LogLevel prev = log_threshold();
  set_log_threshold(LogLevel::Error);
  MMHAR_LOG(Info) << "should be suppressed";
  set_log_threshold(prev);
  SUCCEED();
}

}  // namespace
}  // namespace mmhar
