// Tests for the packed GEMM microkernel, the packed conv kernel, the SoA
// IF-synthesis kernel and the detmath gate nonlinearities: property tests
// against a naive reference, bitwise sweeps against libm and against the
// scalar std:: LSTM gate loop detmath replaced, bit-exact determinism
// across thread-pool sizes, nested-parallelism safety, and the
// single-frame sequence edge case.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "mesh/primitives.h"
#include "nn/lstm.h"
#include "radar/simulator.h"
#include "tensor/detmath.h"
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

// ---- detmath: tanh and sigmoid, bitwise ----

// detmath reproduces glibc's fdlibm tanhf and the FMA variant of its
// expf. libm runs exactly those on x86-64 glibc before 2.41 (2.41 ships
// a correctly rounded tanhf) with a CPU that has FMA; elsewhere detmath
// keeps its bits but libm is no longer the reference.
bool libm_is_reference() {
#if defined(__x86_64__) && defined(__GLIBC__)
  return (__GLIBC__ == 2 && __GLIBC_MINOR__ < 41) &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#define SKIP_UNLESS_LIBM_IS_REFERENCE()                                   \
  if (!libm_is_reference())                                               \
  GTEST_SKIP() << "libm here is not glibc's fdlibm tanhf / FMA expf"

float libm_sigmoid(float x) { return 1.0F / (1.0F + std::exp(-x)); }

// Same bits, with every NaN equal to every other.
bool same_bits(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

// Compare detmath with libm over bit patterns lo, lo+step, ... < hi in
// blocks, through all three kernels; returns the number of mismatches and
// reports the first few.
std::uint64_t sweep_against_libm(std::uint64_t lo, std::uint64_t hi,
                                 std::uint64_t step) {
  constexpr std::size_t kBlock = 4096;
  std::vector<float> in(kBlock), t_to(kBlock), t_in(kBlock), sg(kBlock);
  std::uint64_t bad = 0;
  for (std::uint64_t base = lo; base < hi; base += kBlock * step) {
    std::size_t n = 0;
    for (; n < kBlock && base + n * step < hi; ++n)
      in[n] = std::bit_cast<float>(static_cast<std::uint32_t>(base + n * step));
    detmath::tanh_to(in.data(), t_to.data(), n);
    std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(n),
              t_in.begin());
    detmath::tanh_inplace(t_in.data(), n);
    std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(n),
              sg.begin());
    detmath::sigmoid_inplace(sg.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float want_t = std::tanh(in[i]);
      const float want_s = libm_sigmoid(in[i]);
      if (same_bits(t_to[i], want_t) && same_bits(t_in[i], want_t) &&
          same_bits(sg[i], want_s))
        continue;
      if (++bad <= 5)
        ADD_FAILURE() << "x = " << std::hexfloat << in[i] << ": tanh "
                      << t_to[i] << " / " << t_in[i] << " vs " << want_t
                      << ", sigmoid " << sg[i] << " vs " << want_s;
    }
  }
  return bad;
}

TEST(DetMath, MatchesLibmOnStridedSweep) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  // Every 61st bit pattern: all exponents, both signs, NaN payloads.
  EXPECT_EQ(sweep_against_libm(0, std::uint64_t{1} << 32, 61), 0u);
}

TEST(DetMath, MatchesLibmAtBranchConstants) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  // The thresholds where tanhf, expm1f (at 2|x|) and expf change path.
  const float ln2 = 0x1.62e43p-1F;
  const float constants[] = {
      0.0F,          FLT_TRUE_MIN,   0x1.fffffcp-127F, FLT_MIN,
      0x1p-55F,      0x1p-26F,       0x1p-25F,         0.5F * ln2,
      1.5F * ln2,    1.0F,           22.0F,            27.0F * ln2,
      88.0F,         0x1.62e42ep6F,  0x1.9d1d9ep6F,    0x1.9fe368p6F,
      FLT_MAX,       HUGE_VALF,      std::numeric_limits<float>::quiet_NaN(),
  };
  std::vector<float> xs;
  for (const float c : constants) {
    for (const float v : {c, 0.5F * c, 2.0F * c}) {
      for (const float s : {v, -v}) {
        xs.push_back(s);
        xs.push_back(std::nextafter(s, HUGE_VALF));
        xs.push_back(std::nextafter(s, -HUGE_VALF));
      }
    }
  }
  std::vector<float> t(xs.size()), sg = xs;
  detmath::tanh_to(xs.data(), t.data(), xs.size());
  detmath::sigmoid_inplace(sg.data(), sg.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(same_bits(t[i], std::tanh(xs[i])))
        << "tanh(" << std::hexfloat << xs[i] << ") = " << t[i] << ", libm "
        << std::tanh(xs[i]);
    EXPECT_TRUE(same_bits(sg[i], libm_sigmoid(xs[i])))
        << "sigmoid(" << std::hexfloat << xs[i] << ") = " << sg[i]
        << ", libm " << libm_sigmoid(xs[i]);
  }
}

TEST(DetMath, VectorBodyAndRemainderAgree) {
  // Each length 1..67 at a few start offsets puts a given element in the
  // vector body, the peeled head or the scalar tail; it must come out the
  // same everywhere (and as libm gives it, where libm is the reference).
  Rng rng(61);
  std::vector<float> src(80);
  for (auto& v : src) v = static_cast<float>(rng.normal() * 8.0);
  std::vector<float> one_t(src.size()), one_s(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    detmath::tanh_to(&src[i], &one_t[i], 1);
    one_s[i] = src[i];
    detmath::sigmoid_inplace(&one_s[i], 1);
    if (libm_is_reference()) {
      ASSERT_TRUE(same_bits(one_t[i], std::tanh(src[i])));
      ASSERT_TRUE(same_bits(one_s[i], libm_sigmoid(src[i])));
    }
  }
  for (std::size_t off = 0; off < 4; ++off) {
    for (std::size_t n = 1; n <= 67; ++n) {
      std::vector<float> t_to(n), t_in(src.begin() + off,
                                       src.begin() + off + n),
          sg = t_in;
      detmath::tanh_to(src.data() + off, t_to.data(), n);
      detmath::tanh_inplace(t_in.data(), n);
      detmath::sigmoid_inplace(sg.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(t_to[i], one_t[off + i])) << off << " " << n;
        ASSERT_TRUE(same_bits(t_in[i], one_t[off + i])) << off << " " << n;
        ASSERT_TRUE(same_bits(sg[i], one_s[off + i])) << off << " " << n;
      }
    }
  }
}

// nn::LSTM as it stood before detmath: the scalar gate loop over
// std::exp / std::tanh, with the same GEMMs in the same order. The layer
// must reproduce it to the bit, forward and backward.
struct ReferenceLstm {
  static float sigmoidf(float x) { return 1.0F / (1.0F + std::exp(-x)); }

  ReferenceLstm(nn::LSTM& layer, bool return_sequence)
      : w_x(*layer.parameters()[0]),
        w_h(*layer.parameters()[1]),
        bias(*layer.parameters()[2]),
        return_sequence(return_sequence) {}

  Tensor forward(const Tensor& in) {
    input = in;
    const std::size_t batch = in.dim(0), steps = in.dim(1), d = in.dim(2);
    const std::size_t h_dim = w_h.dim(1), g4 = 4 * h_dim;
    gates.assign(steps, Tensor({batch, g4}));
    cells.assign(steps, Tensor({batch, h_dim}));
    hiddens.assign(steps, Tensor({batch, h_dim}));
    Tensor h_prev({batch, h_dim});
    Tensor c_prev({batch, h_dim});
    for (std::size_t t = 0; t < steps; ++t) {
      Tensor& z = gates[t];
      Tensor x_step({batch, d});
      for (std::size_t b = 0; b < batch; ++b)
        std::copy_n(in.data() + (b * steps + t) * d, d,
                    x_step.data() + b * d);
      sgemm_bt(batch, d, g4, 1.0F, x_step.data(), w_x.data(), 0.0F,
               z.data());
      sgemm_bt(batch, h_dim, g4, 1.0F, h_prev.data(), w_h.data(), 1.0F,
               z.data());
      for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t j = 0; j < g4; ++j) z.data()[b * g4 + j] += bias[j];
      for (std::size_t b = 0; b < batch; ++b) {
        float* zr = z.data() + b * g4;
        const float* cp = c_prev.data() + b * h_dim;
        float* cr = cells[t].data() + b * h_dim;
        float* hr = hiddens[t].data() + b * h_dim;
        for (std::size_t j = 0; j < h_dim; ++j) {
          const float ig = sigmoidf(zr[j]);
          const float fg = sigmoidf(zr[h_dim + j]);
          const float gg = std::tanh(zr[2 * h_dim + j]);
          const float og = sigmoidf(zr[3 * h_dim + j]);
          zr[j] = ig;
          zr[h_dim + j] = fg;
          zr[2 * h_dim + j] = gg;
          zr[3 * h_dim + j] = og;
          cr[j] = fg * cp[j] + ig * gg;
          hr[j] = og * std::tanh(cr[j]);
        }
      }
      h_prev = hiddens[t];
      c_prev = cells[t];
    }
    if (!return_sequence) return hiddens.back();
    Tensor out({batch, steps, h_dim});
    for (std::size_t t = 0; t < steps; ++t)
      for (std::size_t b = 0; b < batch; ++b)
        std::copy_n(hiddens[t].data() + b * h_dim, h_dim,
                    out.data() + (b * steps + t) * h_dim);
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const std::size_t batch = input.dim(0), steps = input.dim(1),
                      d = input.dim(2);
    const std::size_t h_dim = w_h.dim(1), g4 = 4 * h_dim;
    grad_w_x = Tensor(w_x.shape());
    grad_w_h = Tensor(w_h.shape());
    grad_bias = Tensor(bias.shape());
    Tensor grad_input({batch, steps, d});
    Tensor dh({batch, h_dim}), dc({batch, h_dim}), dz({batch, g4});
    Tensor x_step({batch, d}), dx_step({batch, d});
    for (std::size_t t = steps; t-- > 0;) {
      for (std::size_t b = 0; b < batch; ++b) {
        const float* zr = gates[t].data() + b * g4;
        const float* cr = cells[t].data() + b * h_dim;
        float* dhr = dh.data() + b * h_dim;
        float* dcr = dc.data() + b * h_dim;
        float* dzr = dz.data() + b * g4;
        for (std::size_t j = 0; j < h_dim; ++j) {
          const float ig = zr[j];
          const float fg = zr[h_dim + j];
          const float gg = zr[2 * h_dim + j];
          const float og = zr[3 * h_dim + j];
          const float tc = std::tanh(cr[j]);
          const float seed =
              return_sequence ? grad_output[(b * steps + t) * h_dim + j]
              : t == steps - 1 ? grad_output[b * h_dim + j]
                               : 0.0F;
          const float dh_total = dhr[j] + seed;
          const float dc_total = dcr[j] + dh_total * og * (1.0F - tc * tc);
          const float cp = t > 0 ? cells[t - 1].at(b, j) : 0.0F;
          dzr[j] = dc_total * gg * ig * (1.0F - ig);
          dzr[h_dim + j] = dc_total * cp * fg * (1.0F - fg);
          dzr[2 * h_dim + j] = dc_total * ig * (1.0F - gg * gg);
          dzr[3 * h_dim + j] = dh_total * tc * og * (1.0F - og);
          dcr[j] = dc_total * fg;
        }
      }
      for (std::size_t b = 0; b < batch; ++b)
        std::copy_n(input.data() + (b * steps + t) * d, d,
                    x_step.data() + b * d);
      sgemm_at(g4, batch, d, 1.0F, dz.data(), x_step.data(), 1.0F,
               grad_w_x.data());
      if (t > 0)
        sgemm_at(g4, batch, h_dim, 1.0F, dz.data(), hiddens[t - 1].data(),
                 1.0F, grad_w_h.data());
      for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t j = 0; j < g4; ++j)
          grad_bias[j] += dz.data()[b * g4 + j];
      sgemm(batch, g4, d, 1.0F, dz.data(), w_x.data(), 0.0F, dx_step.data());
      for (std::size_t b = 0; b < batch; ++b)
        std::copy_n(dx_step.data() + b * d, d,
                    grad_input.data() + (b * steps + t) * d);
      if (t > 0)
        sgemm(batch, g4, h_dim, 1.0F, dz.data(), w_h.data(), 0.0F, dh.data());
    }
    return grad_input;
  }

  Tensor w_x, w_h, bias;
  bool return_sequence;
  Tensor input;
  std::vector<Tensor> gates, cells, hiddens;
  Tensor grad_w_x, grad_w_h, grad_bias;
};

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(DetMath, LstmMatchesScalarStdGateLoopBitwise) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  constexpr std::size_t kInput = 20, kSteps = 6;
  for (const std::size_t h : {48, 64, 13}) {
    for (const std::size_t batch : {1, 3, 8}) {
      for (const bool seq : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "H " << h << " batch " << batch
                                          << " sequence " << seq);
        Rng rng(1000 * h + 10 * batch + (seq ? 1 : 0));
        nn::LSTM lstm(kInput, h, rng, seq);
        ReferenceLstm ref(lstm, seq);
        // Wide inputs push gate pre-activations into every expm1f/expf
        // range, saturation included.
        const Tensor in = Tensor::randn({batch, kSteps, kInput}, rng, 0.0F,
                                        3.0F);
        const Tensor out = lstm.forward(in, true);
        ASSERT_TRUE(same_tensor(out, ref.forward(in)));
        const Tensor g = Tensor::randn(out.shape(), rng);
        const Tensor gin = lstm.backward(g);
        EXPECT_TRUE(same_tensor(gin, ref.backward(g)));
        const std::vector<Tensor*> grads = lstm.gradients();
        EXPECT_TRUE(same_tensor(*grads[0], ref.grad_w_x));
        EXPECT_TRUE(same_tensor(*grads[1], ref.grad_w_h));
        EXPECT_TRUE(same_tensor(*grads[2], ref.grad_bias));
      }
    }
  }
}

// The same at the limits of a packed weight operand (k <= 256, 4H <= 1024),
// where the forward packs W_x/W_h once, and just past them, where it falls
// back to sgemm_bt per step. At batch 8 the reference's larger gate products
// split their rows over the pool; the packed ones run on one thread.
TEST(DetMath, LstmMatchesReferenceAtPackedOperandLimits) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  constexpr std::size_t kSteps = 3;
  struct Dims {
    std::size_t input, hidden;
  };
  for (const Dims dims : {Dims{256, 256}, Dims{300, 8}, Dims{20, 257}}) {
    for (const std::size_t batch : {1, 8}) {
      SCOPED_TRACE(::testing::Message() << "input " << dims.input << " H "
                                        << dims.hidden << " batch " << batch);
      Rng rng(dims.input + 7 * dims.hidden + batch);
      nn::LSTM lstm(dims.input, dims.hidden, rng, false);
      ReferenceLstm ref(lstm, false);
      const Tensor in =
          Tensor::randn({batch, kSteps, dims.input}, rng, 0.0F, 1.0F);
      const Tensor out = lstm.forward(in, true);
      ASSERT_TRUE(same_tensor(out, ref.forward(in)));
      const Tensor g = Tensor::randn(out.shape(), rng);
      EXPECT_TRUE(same_tensor(lstm.backward(g), ref.backward(g)));
    }
  }
}

// The full 2^32 sweep, ~20 s on 4 threads; run with
// --gtest_also_run_disabled_tests (the CI Release leg does).
TEST(DetMath, DISABLED_ExhaustiveAllFloats) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
  constexpr std::uint64_t kParts = 4;
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> workers;
  for (std::uint64_t p = 0; p < kParts; ++p)
    workers.emplace_back([&, p] {
      bad += sweep_against_libm(p * kAll / kParts, (p + 1) * kAll / kParts,
                                1);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0u);
}

}  // namespace
}  // namespace mmhar
