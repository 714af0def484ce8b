// Tests for the opt-in NaN/Inf/denormal tripwires (common/finite_check.h)
// and their wiring into the pipeline stages.

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/finite_check.h"
#include "common/rng.h"
#include "core/global_position.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"
#include "xai/shapley.h"

namespace mmhar {
namespace {

class FiniteCheckTest : public ::testing::Test {
 protected:
  void SetUp() override { set_finite_checks_for_testing(1); }
  void TearDown() override { set_finite_checks_for_testing(-1); }
};

constexpr float kQNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST_F(FiniteCheckTest, CleanBufferPasses) {
  const std::vector<float> v(256, 1.5F);
  EXPECT_NO_THROW(check_finite(std::span<const float>(v), "v", "test"));
}

TEST_F(FiniteCheckTest, EmptyBufferPasses) {
  EXPECT_NO_THROW(check_finite(std::span<const float>(), "empty", "test"));
}

TEST_F(FiniteCheckTest, NanIsReportedWithNameStageAndIndex) {
  std::vector<float> v(64, 0.25F);
  v[17] = kQNaN;
  v[40] = kQNaN;
  try {
    check_finite(std::span<const float>(v), "activations", "forward");
    FAIL() << "expected mmhar::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'forward'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'activations'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flat index 17"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 NaN"), std::string::npos) << msg;
  }
}

TEST_F(FiniteCheckTest, InfTripsForFloatAndDouble) {
  std::vector<float> f(8, 1.0F);
  f[3] = -kInf;
  EXPECT_THROW(check_finite(std::span<const float>(f), "f", "t"), Error);
  std::vector<double> d(8, 1.0);
  d[5] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(check_finite(std::span<const double>(d), "d", "t"), Error);
}

TEST_F(FiniteCheckTest, ComplexBufferScansBothComponents) {
  std::vector<std::complex<float>> v(16, {1.0F, -1.0F});
  v[9] = {0.5F, kQNaN};  // imaginary part only
  try {
    check_finite(std::span<const std::complex<float>>(v), "spectra", "fft");
    FAIL() << "expected mmhar::Error";
  } catch (const Error& e) {
    // Interleaved scan: element 9's imaginary part is flat index 19.
    EXPECT_NE(std::string(e.what()).find("flat index 19"), std::string::npos)
        << e.what();
  }
}

TEST_F(FiniteCheckTest, IsolatedDenormalsAreTolerated) {
  std::vector<float> v(256, 1.0F);
  v[0] = std::numeric_limits<float>::denorm_min();
  v[100] = std::numeric_limits<float>::denorm_min() * 3.0F;
  EXPECT_NO_THROW(check_finite(std::span<const float>(v), "v", "t"));
}

TEST_F(FiniteCheckTest, DenormalStormTrips) {
  // More than kDenormalStormFraction of the buffer subnormal (and above
  // the absolute floor) => accumulator underflow, flagged.
  std::vector<float> v(256, std::numeric_limits<float>::denorm_min());
  try {
    check_finite(std::span<const float>(v), "acc", "t");
    FAIL() << "expected mmhar::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("denormal storm"), std::string::npos)
        << e.what();
  }
}

TEST_F(FiniteCheckTest, SmallAllDenormalBufferIsBelowAbsoluteFloor) {
  std::vector<float> v(kDenormalStormMinCount - 1,
                       std::numeric_limits<float>::denorm_min());
  EXPECT_NO_THROW(check_finite(std::span<const float>(v), "v", "t"));
}

TEST_F(FiniteCheckTest, DisabledChecksAreNoOps) {
  set_finite_checks_for_testing(0);
  std::vector<float> v(8, kQNaN);
  EXPECT_NO_THROW(check_finite(std::span<const float>(v), "v", "t"));
}

// ---- scan_finite against the reference loop ---------------------------------

// The classifying loop scan_finite runs after its vectorised pre-pass.
template <typename T>
FiniteScan reference_scan(const std::vector<T>& v) {
  FiniteScan scan;
  bool have_bad = false;
  bool have_denormal = false;
  std::size_t first_denormal = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::isnan(v[i]) || std::isinf(v[i])) {
      ++(std::isnan(v[i]) ? scan.nan_count : scan.inf_count);
      if (!have_bad) scan.first_bad_index = i;
      have_bad = true;
    } else if (v[i] != T{0} && std::fpclassify(v[i]) == FP_SUBNORMAL) {
      ++scan.denormal_count;
      if (!have_denormal) first_denormal = i;
      have_denormal = true;
    }
  }
  if (!have_bad && have_denormal) scan.first_bad_index = first_denormal;
  return scan;
}

// Seeded buffers of normal values, ±0 and ±min-normal (the edges of the
// pre-pass's integer tests), with the first `n_bad` of ±denormals, ±Inf
// and NaN injected at densities from none to all.
template <typename T>
std::vector<T> generated_buffer(Rng& rng, std::size_t n, double density,
                                std::size_t n_bad) {
  using L = std::numeric_limits<T>;
  const T edges[] = {T{0}, -T{0}, L::min(), -L::min(), L::max(), T{1}};
  const T bad[] = {L::denorm_min(), -L::denorm_min(),
                   L::min() - L::denorm_min(), L::infinity(),
                   -L::infinity(), L::quiet_NaN(), -L::quiet_NaN()};
  MMHAR_CHECK(n_bad <= std::size(bad));
  std::vector<T> v(n);
  for (T& x : v) {
    if (rng.bernoulli(density)) {
      x = bad[rng.index(n_bad)];
    } else if (rng.bernoulli(0.1)) {
      x = edges[rng.index(std::size(edges))];
    } else {
      x = static_cast<T>(rng.uniform(-3.0, 3.0));
    }
  }
  return v;
}

template <typename T>
void expect_scans_match_reference(std::uint64_t seed) {
  Rng rng(seed);
  for (const std::size_t n : {1, 7, 16, 33, 256, 1000, 4096}) {
    for (const double density : {0.0, 0.001, 0.05, 0.3, 1.0}) {
      // Denormals only, then with ±Inf, then with NaN too.
      const std::size_t n_bad = 3 + 2 * rng.index(3);
      const std::vector<T> v = generated_buffer<T>(rng, n, density, n_bad);
      const FiniteScan got = detail::scan_finite(v.data(), n);
      const FiniteScan ref = reference_scan(v);
      ASSERT_EQ(got.nan_count, ref.nan_count) << "n=" << n << " d=" << density;
      ASSERT_EQ(got.inf_count, ref.inf_count) << "n=" << n << " d=" << density;
      ASSERT_EQ(got.denormal_count, ref.denormal_count)
          << "n=" << n << " d=" << density;
      ASSERT_EQ(got.first_bad_index, ref.first_bad_index)
          << "n=" << n << " d=" << density;
      // The storm threshold, through the public check.
      const bool storm = ref.denormal_count >= kDenormalStormMinCount &&
                         static_cast<double>(ref.denormal_count) >
                             kDenormalStormFraction * static_cast<double>(n);
      const bool trips = ref.has_nan_or_inf() || storm;
      bool threw = false;
      try {
        check_finite(std::span<const T>(v), "v", "t");
      } catch (const Error&) {
        threw = true;
      }
      ASSERT_EQ(threw, trips) << "n=" << n << " d=" << density;
    }
  }
}

TEST_F(FiniteCheckTest, ScanMatchesReferenceLoopFloat) {
  expect_scans_match_reference<float>(501);
}

TEST_F(FiniteCheckTest, ScanMatchesReferenceLoopDouble) {
  expect_scans_match_reference<double>(502);
}

// Only denormals, at counts around the storm threshold of a 64-value
// buffer (16 = both the floor and a quarter).
TEST_F(FiniteCheckTest, StormThresholdIsExclusiveOfTheFraction) {
  for (const std::size_t count : {15, 16, 17}) {
    std::vector<float> v(64, 1.0F);
    for (std::size_t i = 0; i < count; ++i)
      v[63 - 3 * i] = std::numeric_limits<float>::denorm_min();
    const FiniteScan scan = detail::scan_finite(v.data(), v.size());
    EXPECT_EQ(scan.denormal_count, count);
    EXPECT_EQ(scan.first_bad_index, 63 - 3 * (count - 1));
    if (count > 16) {
      EXPECT_THROW(check_finite(std::span<const float>(v), "v", "t"), Error);
    } else {
      EXPECT_NO_THROW(check_finite(std::span<const float>(v), "v", "t"));
    }
  }
}

// ---- Stage wiring ----------------------------------------------------------

TEST_F(FiniteCheckTest, SequentialForwardTripsOnNanInput) {
  nn::Sequential net;
  Rng rng(7);
  net.emplace<nn::Dense>(4, 3, rng);
  net.emplace<nn::ReLU>();
  Tensor bad({2, 4});
  bad[5] = kQNaN;
  EXPECT_THROW(net.forward(bad, /*training=*/false), Error);
  Tensor good({2, 4});
  EXPECT_NO_THROW(net.forward(good, /*training=*/false));
}

TEST_F(FiniteCheckTest, ExactShapleyTripsOnNonFiniteValueFunction) {
  const auto bad_value = [](const std::vector<bool>& mask) {
    double acc = 0.0;
    for (std::size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) acc += 1.0;
    return mask[0] ? std::numeric_limits<double>::quiet_NaN() : acc;
  };
  EXPECT_THROW(xai::exact_shapley(3, bad_value), Error);
  const auto good_value = [](const std::vector<bool>& mask) {
    double acc = 0.0;
    for (std::size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) acc += static_cast<double>(i + 1);
    return acc;
  };
  EXPECT_NO_THROW(xai::exact_shapley(3, good_value));
}

TEST_F(FiniteCheckTest, WeiszfeldCleanRunPassesUnderChecks) {
  const std::vector<mesh::Vec3> pts = {
      {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {1.0, 1.0, 0.0}};
  const std::vector<double> w = {1.0, 1.0, 1.0, 1.0};
  const auto median =
      core::weighted_geometric_median(pts, w, core::WeiszfeldOptions{});
  EXPECT_TRUE(std::isfinite(median.x));
  EXPECT_TRUE(std::isfinite(median.y));
  EXPECT_TRUE(std::isfinite(median.z));
}

}  // namespace
}  // namespace mmhar
