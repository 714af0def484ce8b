// Unit tests for the tensor substrate: shapes, arithmetic, reductions,
// GEMM kernels vs a naive oracle, ops, and serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace mmhar {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(2), 4u);
  EXPECT_EQ(t.shape_string(), "[2, 3, 4]");
  for (const float v : t.flat()) EXPECT_EQ(v, 0.0F);
}

TEST(Tensor, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), InvalidArgument);
}

TEST(Tensor, MultiDimAccessors) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0F;
  EXPECT_EQ(t.at(1, 2), 5.0F);
  EXPECT_EQ(t[1 * 3 + 2], 5.0F);
  Tensor u({2, 2, 2, 2});
  u.at(1, 0, 1, 0) = 3.0F;
  EXPECT_EQ(u.at(1, 0, 1, 0), 3.0F);
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0), Error);  // wrong rank
}

TEST(Tensor, ReshapePreservesDataAndChecksSize) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped({4, 2}), InvalidArgument);
}

// Every at() arity must reject both a rank mismatch and an out-of-bounds
// index on each axis — on the mutable and the const overload. The error
// paths are what MMHAR_CHECK buys us over raw data(); they must not rot.
TEST(Tensor, AtRejectsWrongRankOnAllArities) {
  Tensor r1({4});
  Tensor r2({2, 3});
  Tensor r3({2, 3, 4});
  Tensor r4({2, 3, 4, 5});
  const Tensor& c1 = r1;
  const Tensor& c2 = r2;
  const Tensor& c3 = r3;
  const Tensor& c4 = r4;

  // Each tensor accepts only its own arity.
  EXPECT_THROW(r1.at(0, 0), Error);
  EXPECT_THROW(r1.at(0, 0, 0), Error);
  EXPECT_THROW(r1.at(0, 0, 0, 0), Error);
  EXPECT_THROW(r2.at(0), Error);
  EXPECT_THROW(r2.at(0, 0, 0), Error);
  EXPECT_THROW(r2.at(0, 0, 0, 0), Error);
  EXPECT_THROW(r3.at(0), Error);
  EXPECT_THROW(r3.at(0, 0), Error);
  EXPECT_THROW(r3.at(0, 0, 0, 0), Error);
  EXPECT_THROW(r4.at(0), Error);
  EXPECT_THROW(r4.at(0, 0), Error);
  EXPECT_THROW(r4.at(0, 0, 0), Error);

  EXPECT_THROW(c1.at(0, 0), Error);
  EXPECT_THROW(c2.at(0), Error);
  EXPECT_THROW(c3.at(0, 0, 0, 0), Error);
  EXPECT_THROW(c4.at(0, 0, 0), Error);

  // Rank-0 (default-constructed) accepts nothing.
  Tensor empty;
  EXPECT_THROW(empty.at(0), Error);
  EXPECT_THROW(empty.at(0, 0), Error);
  EXPECT_THROW(empty.at(0, 0, 0), Error);
  EXPECT_THROW(empty.at(0, 0, 0, 0), Error);
}

TEST(Tensor, AtRejectsOutOfBoundsOnEveryAxis) {
  Tensor r1({4});
  Tensor r2({2, 3});
  Tensor r3({2, 3, 4});
  Tensor r4({2, 3, 4, 5});
  const Tensor& c4 = r4;

  EXPECT_THROW(r1.at(4), Error);
  EXPECT_THROW(r2.at(2, 0), Error);
  EXPECT_THROW(r2.at(0, 3), Error);
  EXPECT_THROW(r3.at(2, 0, 0), Error);
  EXPECT_THROW(r3.at(0, 3, 0), Error);
  EXPECT_THROW(r3.at(0, 0, 4), Error);
  EXPECT_THROW(r4.at(2, 0, 0, 0), Error);
  EXPECT_THROW(r4.at(0, 3, 0, 0), Error);
  EXPECT_THROW(r4.at(0, 0, 4, 0), Error);
  EXPECT_THROW(r4.at(0, 0, 0, 5), Error);
  EXPECT_THROW(c4.at(0, 0, 0, 5), Error);

  // The exact boundary indices are valid.
  EXPECT_NO_THROW(r1.at(3));
  EXPECT_NO_THROW(r2.at(1, 2));
  EXPECT_NO_THROW(r3.at(1, 2, 3));
  EXPECT_NO_THROW(r4.at(1, 2, 3, 4));

  // flat operator[] bounds.
  EXPECT_THROW(r1[4], Error);
  EXPECT_NO_THROW(r1[3]);
}

TEST(Tensor, ReshapeElementCountMismatchVariants) {
  const Tensor t({2, 3, 4});
  EXPECT_NO_THROW(t.reshaped({24}));
  EXPECT_NO_THROW(t.reshaped({4, 3, 2}));
  EXPECT_NO_THROW(t.reshaped({2, 2, 2, 3}));
  EXPECT_THROW(t.reshaped({23}), InvalidArgument);
  EXPECT_THROW(t.reshaped({2, 3}), InvalidArgument);
  EXPECT_THROW(t.reshaped({}), InvalidArgument);       // empty shape -> 0
  EXPECT_THROW(t.reshaped({0, 24}), InvalidArgument);  // zero-dim
  // The thrown message names the original shape for diagnosis.
  try {
    t.reshaped({5, 5});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("[2, 3, 4]"), std::string::npos)
        << e.what();
  }
}

TEST(Tensor, Arithmetic) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a += b;
  EXPECT_EQ(a[2], 33.0F);
  a -= b;
  EXPECT_EQ(a[2], 3.0F);
  a *= 2.0F;
  EXPECT_EQ(a[0], 2.0F);
  a.add_scaled(b, 0.5F);
  EXPECT_EQ(a[1], 14.0F);
  a.mul_elementwise(b);
  EXPECT_EQ(a[0], 70.0F);
  Tensor c({2}, {1, 1});
  EXPECT_THROW(a += c, InvalidArgument);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, {-1, 2, 0, 3});
  EXPECT_FLOAT_EQ(t.sum(), 4.0F);
  EXPECT_FLOAT_EQ(t.mean(), 1.0F);
  EXPECT_FLOAT_EQ(t.min(), -1.0F);
  EXPECT_FLOAT_EQ(t.max(), 3.0F);
  EXPECT_EQ(t.argmax(), 3u);
  EXPECT_FLOAT_EQ(t.l2_norm(), std::sqrt(14.0F));
}

TEST(Tensor, DistanceAndDot) {
  Tensor a({3}, {1, 0, 0});
  Tensor b({3}, {0, 1, 0});
  EXPECT_FLOAT_EQ(Tensor::l2_distance(a, b), std::sqrt(2.0F));
  EXPECT_FLOAT_EQ(Tensor::dot(a, b), 0.0F);
  EXPECT_FLOAT_EQ(Tensor::dot(a, a), 1.0F);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng, 2.0F, 0.5F);
  EXPECT_NEAR(t.mean(), 2.0F, 0.05F);
}

TEST(Tensor, SaveLoadRoundTrip) {
  Rng rng(9);
  Tensor t = Tensor::randn({3, 5}, rng);
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    t.save(w);
  }
  BinaryReader r(ss);
  const Tensor u = Tensor::load(r);
  ASSERT_TRUE(t.same_shape(u));
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], u[i]);
}

// ---- GEMM vs naive oracle ----

void naive_gemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
                const float* a, const float* b, float beta, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

struct GemmDims {
  std::size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c = Tensor::randn({m, n}, rng);
  Tensor c_ref = c;
  sgemm(m, k, n, 1.5F, a.data(), b.data(), 0.5F, c.data());
  naive_gemm(m, k, n, 1.5F, a.data(), b.data(), 0.5F, c_ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], c_ref[i], 1e-3F * (1.0F + std::abs(c_ref[i])))
        << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmDims{1, 1, 1}, GemmDims{3, 4, 5},
                      GemmDims{16, 16, 16}, GemmDims{1, 64, 32},
                      GemmDims{33, 17, 65}, GemmDims{64, 200, 48},
                      GemmDims{128, 300, 64}));

TEST(Gemm, TransposedVariantsMatchNaive) {
  const std::size_t m = 13;
  const std::size_t k = 21;
  const std::size_t n = 17;
  Rng rng(77);
  // A stored as [k x m] for sgemm_at.
  Tensor a_t = Tensor::randn({k, m}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  sgemm_at(m, k, n, 1.0F, a_t.data(), b.data(), 0.0F, c.data());

  Tensor a({m, k});
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t i = 0; i < m; ++i) a.at(i, p) = a_t.at(p, i);
  Tensor c_ref({m, n});
  naive_gemm(m, k, n, 1.0F, a.data(), b.data(), 0.0F, c_ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], c_ref[i], 1e-3F);

  // B stored as [n x k] for sgemm_bt.
  Tensor b_t({n, k});
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) b_t.at(j, p) = b.at(p, j);
  Tensor c2({m, n});
  sgemm_bt(m, k, n, 1.0F, a.data(), b_t.data(), 0.0F, c2.data());
  for (std::size_t i = 0; i < c2.size(); ++i)
    EXPECT_NEAR(c2[i], c_ref[i], 1e-3F);
}

// ---- ops ----

TEST(Ops, SoftmaxRowsSumToOne) {
  Tensor x({2, 3}, {1, 2, 3, -1, 0, 1});
  const Tensor p = softmax_rows(x);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0F;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(p.at(r, c), 0.0F);
      sum += p.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
  EXPECT_GT(p.at(0, 2), p.at(0, 0));
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  Tensor a({3}, {1000.0F, 1001.0F, 1002.0F});
  const Tensor p = softmax(a);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0F, 1e-5F);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Ops, ReluTanhSigmoid) {
  Tensor x({3}, {-2.0F, 0.0F, 2.0F});
  const Tensor r = relu(x);
  EXPECT_EQ(r[0], 0.0F);
  EXPECT_EQ(r[2], 2.0F);
  const Tensor t = tanh_elem(x);
  EXPECT_NEAR(t[2], std::tanh(2.0F), 1e-6F);
  const Tensor s = sigmoid(x);
  EXPECT_NEAR(s[1], 0.5F, 1e-6F);
  EXPECT_NEAR(s[0] + s[2], 1.0F, 1e-6F);  // sigmoid symmetry
}

TEST(Ops, Normalize01) {
  Tensor x({4}, {2, 4, 6, 10});
  const Tensor n = normalize01(x);
  EXPECT_FLOAT_EQ(n.min(), 0.0F);
  EXPECT_FLOAT_EQ(n.max(), 1.0F);
  EXPECT_FLOAT_EQ(n[1], 0.25F);
  Tensor flat({3}, {5, 5, 5});
  const Tensor nf = normalize01(flat);
  EXPECT_FLOAT_EQ(nf.max(), 0.0F);
}

TEST(Ops, ToDbMonotoneWithFloor) {
  Tensor x({3}, {0.0F, 1.0F, 10.0F});
  const Tensor db = to_db(x, 1e-3F);
  EXPECT_FLOAT_EQ(db[1], 0.0F);
  EXPECT_NEAR(db[2], 20.0F, 1e-4F);
  EXPECT_FLOAT_EQ(db[0], -60.0F);  // clamped at the floor
}

// Seeded arrays of `n` floats of one of eight kinds, for the min_max
// properties: spread values; positive values (min and max nonzero, the
// lane path); constants; values sprinkled with specials; specials only;
// magnitudes and negated magnitudes with ±0 sprinkled in (a zero
// extremum tied across signs); and specials without NaN.
constexpr std::size_t kFloatKinds = 8;

std::vector<float> generated_floats(Rng& rng, std::size_t n, std::size_t kind) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDen = std::numeric_limits<float>::denorm_min();
  const float specials[] = {kNaN,  -0.0F, 0.0F,  kInf, -kInf, kDen,
                            -kDen, 3 * kDen, std::numeric_limits<float>::min(),
                            1.0F};
  const auto special = [&] { return specials[rng.index(std::size(specials))]; };
  const auto zero = [&] { return rng.bernoulli(0.5) ? 0.0F : -0.0F; };
  std::vector<float> x(n);
  const float c = special();
  for (float& v : x) {
    switch (kind) {
      case 0: v = static_cast<float>(rng.uniform(-2.0, 2.0)); break;
      case 1: v = static_cast<float>(rng.uniform(1e-3, 4.0)); break;
      case 2: v = c; break;
      case 3:
        v = rng.bernoulli(0.05) ? special()
                                : static_cast<float>(rng.uniform(-1.0, 1.0));
        break;
      case 4: v = special(); break;
      case 5:
        v = rng.bernoulli(0.1) ? zero()
                               : static_cast<float>(rng.uniform(0.0, 1.0));
        break;
      case 6:
        v = rng.bernoulli(0.1) ? zero()
                               : static_cast<float>(rng.uniform(-1.0, 0.0));
        break;
      default:
        v = special();
        while (v != v) v = special();
        break;
    }
  }
  return x;
}

std::uint32_t float_bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// min_max must pick the very elements std::min_element / max_element
// pick: NaN first, middle, last and in the first lanes, ±0 ties, ±Inf, denormals, constant
// arrays, and lengths off the 16-float step.
TEST(Ops, MinMaxMatchesStdAlgorithmsBitwise) {
  Rng rng(2024);
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  std::size_t checked = 0;
  for (const std::size_t n : {1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                              100, 1023, 4099}) {
    for (std::size_t trial = 0; trial < 40; ++trial) {
      std::vector<float> x = generated_floats(rng, n, trial % kFloatKinds);
      // None, first, middle, last, or among the first 16 (where it
      // seeds a lane and would hide that lane's later values).
      const std::size_t nan_at = trial / kFloatKinds % 5;
      if (nan_at == 1) x.front() = kNaN;
      if (nan_at == 2) x[n / 2] = kNaN;
      if (nan_at == 3) x.back() = kNaN;
      if (nan_at == 4) x[rng.index(std::min<std::size_t>(n, 16))] = kNaN;
      const MinMax got = min_max(x.data(), n);
      const float lo = *std::min_element(x.begin(), x.end());
      const float hi = *std::max_element(x.begin(), x.end());
      ASSERT_EQ(float_bits(got.lo), float_bits(lo))
          << "n=" << n << " trial=" << trial;
      ASSERT_EQ(float_bits(got.hi), float_bits(hi))
          << "n=" << n << " trial=" << trial;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 15U * 40U);
}

// normalize01_inplace against the two-pass form it replaced in both
// compute_drai_sequence and serving: std::min_element / max_element,
// then (v - lo) / range, all-zeros for a constant input.
TEST(Ops, Normalize01InplaceMatchesTwoPassReference) {
  Rng rng(77);
  for (const std::size_t n : {1, 17, 64, 1000, 32768}) {
    for (std::size_t kind = 0; kind < kFloatKinds; ++kind) {
      std::vector<float> x = generated_floats(rng, n, kind);
      std::vector<float> ref = x;
      const float lo = *std::min_element(ref.begin(), ref.end());
      const float hi = *std::max_element(ref.begin(), ref.end());
      const float range = hi - lo;
      if (range <= 0.0F) {
        std::fill(ref.begin(), ref.end(), 0.0F);
      } else {
        const float inv = 1.0F / range;
        for (float& v : ref) v = (v - lo) * inv;
      }
      normalize01_inplace(x.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(float_bits(x[i]), float_bits(ref[i]))
            << "n=" << n << " kind=" << kind << " i=" << i;
    }
  }
}

TEST(Ops, MeanRowsAndConcat) {
  Tensor x({2, 3}, {1, 2, 3, 3, 4, 5});
  const Tensor m = mean_rows(x);
  EXPECT_FLOAT_EQ(m[0], 2.0F);
  EXPECT_FLOAT_EQ(m[2], 4.0F);
  const Tensor c = concat({Tensor({2}, {1, 2}), Tensor({1}, {3})});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_FLOAT_EQ(c[2], 3.0F);
}

TEST(Ops, CosineAndPearson) {
  Tensor a({3}, {1, 0, 0});
  EXPECT_FLOAT_EQ(cosine_similarity(a, a), 1.0F);
  Tensor b({3}, {0, 1, 0});
  EXPECT_FLOAT_EQ(cosine_similarity(a, b), 0.0F);
  Tensor x({4}, {1, 2, 3, 4});
  Tensor y({4}, {2, 4, 6, 8});
  EXPECT_NEAR(pearson_correlation(x, y), 1.0F, 1e-5F);
  Tensor z({4}, {8, 6, 4, 2});
  EXPECT_NEAR(pearson_correlation(x, z), -1.0F, 1e-5F);
}

}  // namespace
}  // namespace mmhar
