// Tests for the packed GEMM microkernel, the packed conv kernel and the SoA
// IF-synthesis kernel: property tests against a naive reference, bit-exact
// determinism across thread-pool sizes, nested-parallelism safety, and the
// single-frame sequence edge case.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "mesh/primitives.h"
#include "radar/simulator.h"
#include "tensor/gemm.h"

namespace mmhar {
namespace {

// Route global_pool() to a locally constructed pool for the duration of a
// scope; restores the real pool on exit.
struct PoolOverride {
  explicit PoolOverride(ThreadPool* p) { set_global_pool_for_testing(p); }
  ~PoolOverride() { set_global_pool_for_testing(nullptr); }
};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Naive triple-loop reference with a double accumulator.
std::vector<float> naive_gemm(std::size_t m, std::size_t k, std::size_t n,
                              float alpha, const std::vector<float>& a,
                              const std::vector<float>& b, float beta,
                              const std::vector<float>& c0) {
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      c[i * n + j] = static_cast<float>(
          static_cast<double>(alpha) * acc +
          static_cast<double>(beta) * static_cast<double>(c0[i * n + j]));
    }
  }
  return c;
}

void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double tol =
        1e-3 * std::max(1.0, std::abs(static_cast<double>(ref[i])));
    EXPECT_NEAR(ref[i], got[i], tol) << what << " element " << i;
  }
}

struct Shape {
  std::size_t m, k, n;
};

// Includes m == 1 (the gemv fast path), odd microkernel tails in every
// dimension, and k/n extents that cross the cache-block boundaries.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 5},      {2, 3, 4},     {4, 32, 32},
    {5, 17, 33},  {7, 3, 65},     {8, 64, 48},   {33, 129, 65},
    {64, 64, 64}, {3, 300, 37},   {2, 5, 1050},  {61, 257, 31},
};

TEST(GemmMicrokernel, MatchesNaiveReferenceAcrossShapes) {
  Rng rng(101);
  const float alphas[] = {1.0F, 2.5F, -0.75F};
  const float betas[] = {0.0F, 1.0F, 0.5F};
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.m * s.k, rng);
    const auto b = random_vec(s.k * s.n, rng);
    const auto c0 = random_vec(s.m * s.n, rng);
    for (float alpha : alphas) {
      for (float beta : betas) {
        auto c = c0;
        sgemm(s.m, s.k, s.n, alpha, a.data(), b.data(), beta, c.data());
        expect_close(naive_gemm(s.m, s.k, s.n, alpha, a, b, beta, c0), c,
                     "sgemm");
      }
    }
  }
}

TEST(GemmMicrokernel, AlphaZeroOnlyScalesC) {
  Rng rng(102);
  const auto a = random_vec(6 * 9, rng);
  const auto b = random_vec(9 * 11, rng);
  const auto c0 = random_vec(6 * 11, rng);
  auto c = c0;
  sgemm(6, 9, 11, 0.0F, a.data(), b.data(), 0.5F, c.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_FLOAT_EQ(0.5F * c0[i], c[i]);
}

TEST(GemmMicrokernel, TransposedVariantsMatchNaiveReference) {
  Rng rng(103);
  for (const auto& s : kShapes) {
    // A^T path: A stored k x m.
    const auto at_store = random_vec(s.k * s.m, rng);
    std::vector<float> a(s.m * s.k);
    for (std::size_t p = 0; p < s.k; ++p)
      for (std::size_t i = 0; i < s.m; ++i)
        a[i * s.k + p] = at_store[p * s.m + i];
    const auto b = random_vec(s.k * s.n, rng);
    const auto c0 = random_vec(s.m * s.n, rng);
    auto c = c0;
    sgemm_at(s.m, s.k, s.n, 1.5F, at_store.data(), b.data(), 0.5F, c.data());
    expect_close(naive_gemm(s.m, s.k, s.n, 1.5F, a, b, 0.5F, c0), c,
                 "sgemm_at");

    // B^T path: B stored n x k.
    const auto bt_store = random_vec(s.n * s.k, rng);
    std::vector<float> bb(s.k * s.n);
    for (std::size_t j = 0; j < s.n; ++j)
      for (std::size_t p = 0; p < s.k; ++p)
        bb[p * s.n + j] = bt_store[j * s.k + p];
    auto c2 = c0;
    sgemm_bt(s.m, s.k, s.n, 1.0F, a.data(), bt_store.data(), 1.0F, c2.data());
    expect_close(naive_gemm(s.m, s.k, s.n, 1.0F, a, bb, 1.0F, c0), c2,
                 "sgemm_bt");
  }
}

TEST(GemmMicrokernel, PrepackedAMatchesSgemmBitwise) {
  Rng rng(104);
  for (const auto& s : kShapes) {
    if (s.m == 1) continue;  // sgemm's m==1 path reduces in another order
    const auto a = random_vec(s.m * s.k, rng);
    const auto b = random_vec(s.k * s.n, rng);
    std::vector<float> c_plain(s.m * s.n, 0.0F);
    std::vector<float> c_packed(s.m * s.n, 0.0F);
    sgemm(s.m, s.k, s.n, 1.25F, a.data(), b.data(), 0.0F, c_plain.data());
    const PackedA packed = pack_a(s.m, s.k, a.data());
    sgemm_packed_a(packed, s.n, 1.25F, b.data(), 0.0F, c_packed.data());
    EXPECT_EQ(c_plain, c_packed) << s.m << "x" << s.k << "x" << s.n;

    // pack_at from transposed storage matches sgemm_at bitwise too.
    std::vector<float> at_store(s.k * s.m);
    for (std::size_t p = 0; p < s.k; ++p)
      for (std::size_t i = 0; i < s.m; ++i)
        at_store[p * s.m + i] = a[i * s.k + p];
    std::vector<float> c_at(s.m * s.n, 0.0F);
    std::vector<float> c_atp(s.m * s.n, 0.0F);
    sgemm_at(s.m, s.k, s.n, 1.0F, at_store.data(), b.data(), 0.0F,
             c_at.data());
    const PackedA packed_t = pack_at(s.m, s.k, at_store.data());
    sgemm_packed_a(packed_t, s.n, 1.0F, b.data(), 0.0F, c_atp.data());
    EXPECT_EQ(c_at, c_atp);
  }
}

// Reference conv: a materialized im2col matrix ([C*K*K, OH*OW], zero
// outside the input) through sgemm_packed_a, then bias and optional ReLU —
// the formulation conv2d_frame replaces.
std::vector<float> im2col_conv(const PackedA& w, const ConvGeometry& g,
                               const std::vector<float>& in,
                               const std::vector<float>& bias, bool relu) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t n = oh * ow;
  std::vector<float> col(g.fan_in() * n);
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c)
    for (std::size_t ky = 0; ky < g.kernel; ++ky)
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::size_t y = oy * g.stride + ky;
            const std::size_t x = ox * g.stride + kx;
            const bool inside = y >= g.pad && y < g.pad + g.height &&
                                x >= g.pad && x < g.pad + g.width;
            col[row * n + oy * ow + ox] =
                inside ? in[(c * g.height + y - g.pad) * g.width + x - g.pad]
                       : 0.0F;
          }
  std::vector<float> out(w.m * n, 0.0F);
  sgemm_packed_a(w, n, 1.0F, col.data(), 0.0F, out.data());
  for (std::size_t oc = 0; oc < w.m; ++oc)
    for (std::size_t i = 0; i < n; ++i) {
      float& v = out[oc * n + i];
      v += bias[oc];
      if (relu && !(v > 0.0F)) v = 0.0F;
    }
  return out;
}

// conv2d_frame must equal the im2col reference byte for byte. Random
// geometries cover M, K and N tails (channel counts off the 4-row tile,
// panels that span partial output rows), strides 1-3 and pads 0-2; the
// fixed list adds the HAR layers, output widths 6 and 12, K past one
// 256-deep block and N past the GEMM's 1024-column block.
TEST(ConvKernel, MatchesIm2colGemmBitwise) {
  Rng rng(106);
  struct Case {
    ConvGeometry g;
    std::size_t out_channels;
  };
  std::vector<Case> cases = {
      {{1, 32, 32, 5, 2, 2}, 8},   {{8, 16, 16, 3, 2, 1}, 16},
      {{1, 32, 32, 5, 2, 2}, 6},   {{6, 16, 16, 3, 2, 1}, 12},
      {{1, 24, 24, 5, 2, 2}, 8},   {{8, 12, 12, 3, 2, 1}, 16},
      {{3, 12, 12, 1, 1, 0}, 5},   {{30, 9, 9, 3, 1, 1}, 7},
      {{1, 41, 37, 3, 1, 1}, 3},   {{2, 7, 11, 7, 3, 2}, 9},
  };
  for (int i = 0; i < 60; ++i) {
    ConvGeometry g;
    g.in_channels = 1 + rng.index(9);
    g.kernel = 1 + rng.index(5);
    g.stride = 1 + rng.index(3);
    g.pad = rng.index(3);
    g.height = g.kernel + rng.index(20);
    g.width = g.kernel + rng.index(20);
    cases.push_back({g, 1 + rng.index(13)});
  }
  for (const Case& cs : cases) {
    const ConvGeometry& g = cs.g;
    const auto in = random_vec(g.in_channels * g.height * g.width, rng);
    const auto weights = random_vec(cs.out_channels * g.fan_in(), rng);
    const auto bias = random_vec(cs.out_channels, rng);
    const PackedA w = pack_a(cs.out_channels, g.fan_in(), weights.data());
    std::vector<float> bordered(g.bordered_floats());
    std::vector<float> panel(g.panel_floats());
    for (const bool relu : {false, true}) {
      const auto ref = im2col_conv(w, g, in, bias, relu);
      std::vector<float> got(ref.size(), -1.0F);
      conv2d_frame(w, g, in.data(), bias.data(), relu, bordered.data(),
                   panel.data(), got.data());
      EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                               ref.size() * sizeof(float)))
          << "C=" << g.in_channels << " H=" << g.height << " W=" << g.width
          << " K=" << g.kernel << " s=" << g.stride << " p=" << g.pad
          << " M=" << cs.out_channels << " relu=" << relu;
    }
  }
}

TEST(Determinism, GemmBitIdenticalAcrossPoolSizes) {
  Rng rng(105);
  // Big enough to clear the parallel threshold (m*n*k >= 2^18).
  const std::size_t m = 96, k = 160, n = 128;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    PoolOverride ov(&pool);
    std::vector<float> c(m * n, 0.0F);
    sgemm(m, k, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
    return c;
  };
  const auto c1 = run(1);
  EXPECT_EQ(c1, run(2));
  EXPECT_EQ(c1, run(8));
}

TEST(Determinism, SynthesizeBitIdenticalAcrossPoolSizes) {
  radar::FmcwConfig cfg;
  cfg.noise_std = 0.0;
  const radar::Simulator sim(cfg);
  Rng rng(106);
  std::vector<radar::Scatterer> scatterers;
  for (int i = 0; i < 40; ++i) {
    radar::Scatterer s;
    s.position = {1.0 + rng.uniform(), rng.uniform(-0.5, 0.5),
                  rng.uniform(-0.5, 0.5)};
    s.amplitude = rng.uniform(0.1, 1.0);
    s.radial_velocity = rng.uniform(-1.0, 1.0);
    scatterers.push_back(s);
  }
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    PoolOverride ov(&pool);
    return sim.synthesize(scatterers);
  };
  const auto c1 = run(1);
  EXPECT_EQ(c1.raw(), run(2).raw());
  EXPECT_EQ(c1.raw(), run(8).raw());
}

TEST(Determinism, SimulateSequenceBitIdenticalAcrossPoolSizes) {
  radar::FmcwConfig cfg;
  cfg.noise_std = 0.01;
  const radar::Simulator sim(cfg);
  std::vector<mesh::TriMesh> frames;
  for (int f = 0; f < 5; ++f)
    frames.push_back(mesh::make_plate({1.2 + 0.01 * f, 0, 0}, {-1, 0, 0},
                                      {0, 0, 1}, 0.05, 0.05,
                                      mesh::Material::skin(), 1));
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    PoolOverride ov(&pool);
    Rng rng(7);
    return sim.simulate_sequence(frames, nullptr, 0.016, &rng);
  };
  const auto r1 = run(1);
  const auto r2 = run(2);
  const auto r8 = run(8);
  ASSERT_EQ(r1.size(), r2.size());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t f = 0; f < r1.size(); ++f) {
    EXPECT_EQ(r1[f].raw(), r2[f].raw()) << "frame " << f;
    EXPECT_EQ(r1[f].raw(), r8[f].raw()) << "frame " << f;
  }
}

TEST(ThreadPoolNesting, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  PoolOverride ov(&pool);
  std::atomic<int> count{0};
  parallel_for(0, 4, [&](std::size_t) {
    // Issued from inside a pool worker (or the caller): must not block on
    // pool capacity.
    parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(SimulateSequence, SingleFrameSequenceMatchesStaticSynthesis) {
  radar::FmcwConfig cfg;
  cfg.noise_std = 0.0;
  const radar::Simulator sim(cfg);
  const mesh::TriMesh plate = mesh::make_plate(
      {1.3, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.05, 0.05,
      mesh::Material::skin(), 1);
  const auto cubes =
      sim.simulate_sequence({plate}, nullptr, 0.016, nullptr);
  ASSERT_EQ(cubes.size(), 1u);
  const auto expected =
      sim.synthesize(sim.extract_scatterers(plate, nullptr, 0.0));
  EXPECT_EQ(cubes[0].raw(), expected.raw());
}

}  // namespace
}  // namespace mmhar
