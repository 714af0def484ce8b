// Tests for the Eq.-3 IF-signal simulator: visibility, amplitude model,
// and — via the FFT pipeline — exact range/angle/Doppler localization of
// known point scatterers.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "common/hash.h"
#include "dsp/heatmap.h"
#include "mesh/primitives.h"
#include "radar/simulator.h"

namespace mmhar::radar {
namespace {

FmcwConfig quiet_config() {
  FmcwConfig cfg;
  cfg.noise_std = 0.0;
  return cfg;
}

dsp::HeatmapConfig heatmap_config(bool clutter = false) {
  dsp::HeatmapConfig cfg;
  cfg.range_bins = 32;
  cfg.angle_bins = 32;
  cfg.remove_clutter = clutter;
  cfg.normalize = false;
  return cfg;
}

TEST(FmcwConfig, DerivedQuantities) {
  const FmcwConfig cfg;
  EXPECT_NEAR(cfg.range_resolution_m(), 0.075, 1e-4);
  EXPECT_NEAR(cfg.wavelength_m(), 0.00384, 1e-4);
  EXPECT_NEAR(cfg.max_range_m(32), 2.4, 5e-3);
  EXPECT_NEAR(cfg.range_bin_of(1.5), 20.0, 0.1);
  EXPECT_NEAR(cfg.angle_bin_of(0.0, 32), 16.0, 1e-9);
  EXPECT_GT(cfg.max_unambiguous_velocity_mps(), 1.0);
  // ULA centered on the origin with lambda/2 spacing.
  const double spacing = mesh::distance(cfg.antenna_position(0),
                                        cfg.antenna_position(1));
  EXPECT_NEAR(spacing, 0.5 * cfg.wavelength_m(), 1e-9);
  mesh::Vec3 centroid{0, 0, 0};
  for (std::size_t k = 0; k < cfg.num_virtual_antennas; ++k)
    centroid += cfg.antenna_position(k);
  EXPECT_NEAR(mesh::norm(centroid), 0.0, 1e-12);
}

TEST(Scatterers, BackfaceCullingDropsAwayFacingTriangles) {
  // A closed box: roughly half the faces look away from the radar.
  const mesh::TriMesh box = mesh::make_box({1.0, -0.2, -0.2}, {1.4, 0.2, 0.2},
                                           mesh::Material::wood());
  const Simulator sim(quiet_config());
  const auto scatterers = sim.extract_scatterers(box, nullptr, 0.0);
  EXPECT_LT(scatterers.size(), box.num_triangles());
  EXPECT_GT(scatterers.size(), 0u);
  for (const auto& s : scatterers) EXPECT_GT(s.amplitude, 0.0);
}

TEST(Scatterers, AmplitudeFollowsInverseSquare) {
  const mesh::Material mat = mesh::Material::aluminum();
  const Simulator sim(quiet_config());
  const auto amp_at = [&](double d) {
    const mesh::TriMesh plate = mesh::make_plate(
        {d, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.05, 0.05, mat, 1);
    const auto s = sim.extract_scatterers(plate, nullptr, 0.0);
    double total = 0.0;
    for (const auto& x : s) total += x.amplitude;
    return total;
  };
  const double near = amp_at(1.0);
  const double far = amp_at(2.0);
  EXPECT_NEAR(near / far, 4.0, 0.1);  // 1/d^2 spreading
}

TEST(Scatterers, SectorOcclusionHidesGeometryBehindBlocker) {
  // A large plate at 1 m fully blocks a small plate directly behind it.
  mesh::TriMesh scene = mesh::make_plate({1.0, 0, 0}, {-1, 0, 0}, {0, 0, 1},
                                         0.5, 0.5, mesh::Material::wood(), 2);
  const std::size_t front_tris = scene.num_triangles();
  scene.merge(mesh::make_plate({1.5, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.1, 0.1,
                               mesh::Material::aluminum(), 1));
  SimulatorOptions opts;
  opts.sector_occlusion = true;
  const Simulator sim(quiet_config(), opts);
  const auto visible = sim.extract_scatterers(scene, nullptr, 0.0);
  // Only the front plate's triangles survive.
  EXPECT_EQ(visible.size(), front_tris);
  for (const auto& s : visible) EXPECT_LT(s.position.x, 1.2);

  SimulatorOptions no_occ;
  no_occ.sector_occlusion = false;
  const Simulator sim2(quiet_config(), no_occ);
  EXPECT_GT(sim2.extract_scatterers(scene, nullptr, 0.0).size(),
            visible.size());
}

TEST(Scatterers, RadialVelocityFromFrameDifference) {
  const auto plate_at = [](double x) {
    return mesh::make_plate({x, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.05, 0.05,
                            mesh::Material::skin(), 1);
  };
  const mesh::TriMesh now = plate_at(1.5);
  const mesh::TriMesh next = plate_at(1.52);
  const Simulator sim(quiet_config());
  const auto s = sim.extract_scatterers(now, &next, 0.02);
  ASSERT_FALSE(s.empty());
  for (const auto& x : s) EXPECT_NEAR(x.radial_velocity, 1.0, 1e-3);
  EXPECT_THROW(sim.extract_scatterers(now, &next, 0.0), InvalidArgument);
}

TEST(Scatterers, TopologyMismatchRejected) {
  const mesh::TriMesh a = mesh::make_plate({1, 0, 0}, {-1, 0, 0}, {0, 0, 1},
                                           0.1, 0.1, mesh::Material::skin(), 1);
  const mesh::TriMesh b = mesh::make_plate({1, 0, 0}, {-1, 0, 0}, {0, 0, 1},
                                           0.1, 0.1, mesh::Material::skin(), 2);
  const Simulator sim(quiet_config());
  EXPECT_THROW(sim.extract_scatterers(a, &b, 0.1), InvalidArgument);
}

TEST(Synthesis, PointTargetLandsOnPredictedRangeBin) {
  const FmcwConfig cfg = quiet_config();
  const Simulator sim(cfg);
  const double d = 1.5;
  std::vector<Scatterer> s{{mesh::Vec3{d, 0, 0}, 1.0, 0.0}};
  const dsp::RadarCube cube = sim.synthesize(s);
  const Tensor profile = dsp::range_profile(cube, heatmap_config());
  EXPECT_EQ(profile.argmax(),
            static_cast<std::size_t>(std::lround(cfg.range_bin_of(d))));
}

class AngleCases : public ::testing::TestWithParam<double> {};

TEST_P(AngleCases, PointTargetLandsOnPredictedAngleBin) {
  const double az_deg = GetParam();
  const FmcwConfig cfg = quiet_config();
  const Simulator sim(cfg);
  const double az = mesh::deg2rad(az_deg);
  const double d = 1.5;
  std::vector<Scatterer> s{
      {mesh::Vec3{d * std::cos(az), d * std::sin(az), 0.0}, 1.0, 0.0}};
  const Tensor drai = dsp::compute_drai(sim.synthesize(s), heatmap_config());
  const std::size_t angle_bin = drai.argmax() % 32;
  const double expected = cfg.angle_bin_of(az, 32);
  EXPECT_NEAR(static_cast<double>(angle_bin), expected, 1.0)
      << "azimuth " << az_deg;
}

INSTANTIATE_TEST_SUITE_P(Azimuths, AngleCases,
                         ::testing::Values(-30.0, -15.0, 0.0, 15.0, 30.0));

TEST(Synthesis, ApproachingTargetShowsPositiveDoppler) {
  const FmcwConfig cfg = quiet_config();
  const Simulator sim(cfg);
  // Approaching: radial velocity negative (range shrinking).
  std::vector<Scatterer> s{{mesh::Vec3{1.5, 0, 0}, 1.0, -0.8}};
  auto hm_cfg = heatmap_config();
  const Tensor rdi = dsp::compute_rdi(sim.synthesize(s), hm_cfg);
  const std::size_t row = rdi.argmax() / 32;
  EXPECT_GT(row, rdi.dim(0) / 2);  // above center = approaching
  std::vector<Scatterer> r{{mesh::Vec3{1.5, 0, 0}, 1.0, 0.8}};
  const Tensor rdi2 = dsp::compute_rdi(sim.synthesize(r), hm_cfg);
  EXPECT_LT(rdi2.argmax() / 32, rdi2.dim(0) / 2);
}

TEST(Synthesis, NoiseIsDeterministicPerSeed) {
  FmcwConfig cfg;
  cfg.noise_std = 0.05;
  const Simulator sim(cfg);
  std::vector<Scatterer> s{{mesh::Vec3{1.0, 0, 0}, 1.0, 0.0}};
  Rng a(42);
  Rng b(42);
  const auto ca = sim.synthesize(s, &a);
  const auto cb = sim.synthesize(s, &b);
  EXPECT_EQ(ca.raw(), cb.raw());
  Rng c(43);
  const auto cc = sim.synthesize(s, &c);
  EXPECT_NE(ca.raw(), cc.raw());
}

TEST(Synthesis, StrongerMaterialYieldsStrongerReturn) {
  const Simulator sim(quiet_config());
  const auto energy_of = [&](const mesh::Material& mat) {
    const mesh::TriMesh plate = mesh::make_plate(
        {1.2, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.05, 0.05, mat, 1);
    const auto cube =
        sim.synthesize(sim.extract_scatterers(plate, nullptr, 0.0));
    double e = 0.0;
    for (const auto& v : cube.raw()) e += std::norm(v);
    return e;
  };
  EXPECT_GT(energy_of(mesh::Material::aluminum()),
            10.0 * energy_of(mesh::Material::skin()));
}

TEST(Sequence, ParallelFramesMatchDeterministicReplay) {
  FmcwConfig cfg;
  cfg.noise_std = 0.01;
  const Simulator sim(cfg);
  std::vector<mesh::TriMesh> frames;
  for (int f = 0; f < 6; ++f) {
    frames.push_back(mesh::make_plate({1.2 + 0.01 * f, 0, 0}, {-1, 0, 0},
                                      {0, 0, 1}, 0.05, 0.05,
                                      mesh::Material::skin(), 1));
  }
  Rng a(7);
  const auto run1 = sim.simulate_sequence(frames, nullptr, 0.016, &a);
  Rng b(7);
  const auto run2 = sim.simulate_sequence(frames, nullptr, 0.016, &b);
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t f = 0; f < run1.size(); ++f)
    EXPECT_EQ(run1[f].raw(), run2[f].raw()) << "frame " << f;
}

TEST(Sequence, StaticEnvironmentVanishesAfterClutterRemoval) {
  FmcwConfig cfg = quiet_config();
  const Simulator sim(cfg);
  const mesh::TriMesh env = build_environment(EnvironmentKind::Classroom);
  // Single moving plate plus the static room.
  std::vector<mesh::TriMesh> frames;
  for (int f = 0; f < 4; ++f)
    frames.push_back(mesh::make_plate({1.2 + 0.02 * f, 0, 0}, {-1, 0, 0},
                                      {0, 0, 1}, 0.08, 0.08,
                                      mesh::Material::skin(), 1));
  const auto cubes = sim.simulate_sequence(frames, &env, 0.016, nullptr);
  const Tensor drai = dsp::compute_drai(cubes[1], heatmap_config(true));
  // All remaining energy concentrates near the moving plate's range.
  const std::size_t peak_range = drai.argmax() / 32;
  EXPECT_NEAR(static_cast<double>(peak_range), cfg.range_bin_of(1.24), 1.5);
}

TEST(Environment, PresetsProduceGeometry) {
  EXPECT_EQ(build_environment(EnvironmentKind::None).num_triangles(), 0u);
  EXPECT_GT(build_environment(EnvironmentKind::Hallway).num_triangles(), 10u);
  EXPECT_GT(build_environment(EnvironmentKind::Classroom).num_triangles(),
            10u);
  EXPECT_STREQ(environment_name(EnvironmentKind::Hallway), "hallway");
}

TEST(Simulator, RejectsBadConfig) {
  FmcwConfig bad;
  bad.num_samples = 48;
  EXPECT_THROW(Simulator{bad}, InvalidArgument);
  FmcwConfig bad2;
  bad2.num_chirps = 12;
  EXPECT_THROW(Simulator{bad2}, InvalidArgument);
}

// The IF-synthesis kernel as it stood before blocking and register tiling:
// one scatterer at a time, a rank-1 update of every chirp row. It is kept
// verbatim except for its complex products, which go through ref_mul_re /
// ref_mul_im below. Those spell out the contraction GCC 12 gave the plain
// expressions in the -O3 -march=native library build. A fully verbatim
// copy reproduces that build's cubes only where GCC fuses it the same way.
// In this file at -O3 it did so only inside the pool lambda, and at -O2
// (a RelWithDebInfo sanitizer build) not at all. The library, which
// spells the forms out, gave the release bits in both builds.
constexpr double kRefSpeedOfLight = 299792458.0;
constexpr double kRefPi = 3.14159265358979323846;
constexpr std::size_t kPhasorLanes = 16;
constexpr std::size_t kRenormInterval = 4096;

// (a + ib)(c + id).
template <typename T>
T ref_mul_re(T a, T b, T c, T d) {
#ifdef __FMA__
  return std::fma(a, c, -(b * d));
#else
  return a * c - b * d;
#endif
}

template <typename T>
T ref_mul_im(T a, T b, T c, T d) {
#ifdef __FMA__
  return std::fma(b, c, a * d);
#else
  return a * d + b * c;
#endif
}

std::complex<double> ref_mul(std::complex<double> x, std::complex<double> y) {
  return {ref_mul_re(x.real(), x.imag(), y.real(), y.imag()),
          ref_mul_im(x.real(), x.imag(), y.real(), y.imag())};
}

void fill_phasor_table(std::size_t count, double dphi, float* tab_re,
                       float* tab_im) {
  const std::complex<double> rot1(std::cos(dphi), std::sin(dphi));
  std::complex<double> anchor(1.0, 0.0);
  std::complex<double> rot_interval(1.0, 0.0);
  if (count > kRenormInterval)
    rot_interval = std::polar(1.0, dphi * static_cast<double>(kRenormInterval));

  for (std::size_t n0 = 0; n0 < count; n0 += kRenormInterval) {
    const std::size_t nend = std::min(count, n0 + kRenormInterval);
    float lane_re[kPhasorLanes];
    float lane_im[kPhasorLanes];
    std::complex<double> w(1.0, 0.0);
    for (std::size_t l = 0; l < kPhasorLanes; ++l) {
      const std::complex<double> v = ref_mul(anchor, w);  // anchor * w
      lane_re[l] = static_cast<float>(v.real());
      lane_im[l] = static_cast<float>(v.imag());
      w = ref_mul(w, rot1);  // w *= rot1
    }
    const float rot_re = static_cast<float>(w.real());
    const float rot_im = static_cast<float>(w.imag());

    std::size_t n = n0;
    for (; n + kPhasorLanes <= nend; n += kPhasorLanes) {
      for (std::size_t l = 0; l < kPhasorLanes; ++l) {
        tab_re[n + l] = lane_re[l];
        tab_im[n + l] = lane_im[l];
      }
      for (std::size_t l = 0; l < kPhasorLanes; ++l) {
        // lane_re[l] * rot_re - lane_im[l] * rot_im, and the imaginary part
        const float nr = ref_mul_re(rot_re, rot_im, lane_re[l], lane_im[l]);
        const float ni = ref_mul_im(rot_re, rot_im, lane_re[l], lane_im[l]);
        lane_re[l] = nr;
        lane_im[l] = ni;
      }
    }
    for (std::size_t l = 0; n < nend; ++n, ++l) {
      tab_re[n] = lane_re[l];
      tab_im[n] = lane_im[l];
    }
    anchor = ref_mul(anchor, rot_interval);  // anchor *= rot_interval
  }
}

dsp::RadarCube reference_synthesize(const FmcwConfig& config_,
                                    const std::vector<Scatterer>& scatterers,
                                    Rng* rng) {
  const std::size_t q_n = config_.num_chirps;
  const std::size_t k_n = config_.num_virtual_antennas;
  const std::size_t n_n = config_.num_samples;
  dsp::RadarCube cube(q_n, k_n, n_n);

  const double f_c = config_.center_freq_hz();
  const double slope = config_.slope_hz_per_s();
  const double ts = 1.0 / config_.sample_rate_hz();
  const double tc = config_.chirp_time_s;
  constexpr double kPi = kRefPi;
  constexpr double kSpeedOfLight = kRefSpeedOfLight;

  std::vector<mesh::Vec3> antennas(k_n);
  for (std::size_t k = 0; k < k_n; ++k)
    antennas[k] = config_.antenna_position(k);

  struct TxTerms {
    const Scatterer* s;
    double d_tx;
    std::complex<double> rot_q;
  };
  std::vector<TxTerms> tx;
  tx.reserve(scatterers.size());
  for (const auto& s : scatterers) {
    const double d_tx = mesh::norm(s.position);
    if (d_tx < 1e-6) continue;
    const double dphi_q = -2.0 * kPi * f_c *
                          (2.0 * s.radial_velocity * tc) /
                          kSpeedOfLight;
    tx.push_back({&s, d_tx, {std::cos(dphi_q), std::sin(dphi_q)}});
  }

  if (!tx.empty()) {
    std::vector<float> re(q_n * n_n);
    std::vector<float> im(q_n * n_n);
    std::vector<float> tab_re(n_n);
    std::vector<float> tab_im(n_n);
    float* const re_plane = re.data();
    float* const im_plane = im.data();
    for (std::size_t k = 0; k < k_n; ++k) {
      std::fill(re.begin(), re.end(), 0.0F);
      std::fill(im.begin(), im.end(), 0.0F);
      for (const TxTerms& term : tx) {
        const double path =
            term.d_tx + mesh::distance(term.s->position, antennas[k]);
        const double phi0 = -2.0 * kPi * f_c * path / kSpeedOfLight;
        const double dphi_n = 2.0 * kPi * slope * path / kSpeedOfLight * ts;
        fill_phasor_table(n_n, dphi_n, tab_re.data(), tab_im.data());

        std::complex<double> base = std::polar(term.s->amplitude, phi0);
        for (std::size_t q = 0; q < q_n; ++q) {
          const float br = static_cast<float>(base.real());
          const float bi = static_cast<float>(base.imag());
          float* row_re = re_plane + q * n_n;
          float* row_im = im_plane + q * n_n;
          for (std::size_t n = 0; n < n_n; ++n) {
            // br * tab_re[n] - bi * tab_im[n], and the imaginary part
            row_re[n] += ref_mul_re(tab_re[n], tab_im[n], br, bi);
            row_im[n] += ref_mul_im(tab_re[n], tab_im[n], br, bi);
          }
          base = ref_mul(base, term.rot_q);  // base *= term.rot_q
        }
      }
      for (std::size_t q = 0; q < q_n; ++q) {
        dsp::cfloat* row = cube.row(q, k);
        const float* row_re = re_plane + q * n_n;
        const float* row_im = im_plane + q * n_n;
        for (std::size_t n = 0; n < n_n; ++n)
          row[n] = dsp::cfloat(row_re[n], row_im[n]);
      }
    }
  }

  if (rng != nullptr && config_.noise_std > 0.0) {
    const double sigma = config_.noise_std;
    for (auto& v : cube.raw()) {
      // The first draw is the imaginary part: the order GCC gave the
      // unsequenced cfloat(normal(), normal()) the pinned hashes come from.
      const float im = static_cast<float>(rng->normal(0.0, sigma));
      const float re = static_cast<float>(rng->normal(0.0, sigma));
      v += dsp::cfloat(re, im);
    }
  }
  return cube;
}

bool same_bits(const dsp::RadarCube& a, const dsp::RadarCube& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(dsp::cfloat)) == 0;
}

TEST(Synthesis, BlockedKernelMatchesReferenceBitwise) {
  struct Shape {
    std::size_t chirps, antennas, samples;
  };
  // Paper shape, narrower than one register tile, one spanning several
  // tiles, and one long enough to take the lane re-seeding path.
  const Shape shapes[] = {{16, 16, 64}, {4, 3, 16}, {8, 5, 128}, {2, 2, 8192}};
  // Empty, one, around one block (64) and several blocks.
  const std::size_t counts[] = {0, 1, 63, 64, 65, 200, 1200};
  for (const Shape& shape : shapes) {
    FmcwConfig cfg;
    cfg.num_chirps = shape.chirps;
    cfg.num_virtual_antennas = shape.antennas;
    cfg.num_samples = shape.samples;
    const Simulator sim(cfg);
    for (const std::size_t count : counts) {
      SCOPED_TRACE(::testing::Message()
                   << shape.chirps << "x" << shape.antennas << "x"
                   << shape.samples << ", " << count << " scatterers");
      std::mt19937_64 gen(count * 7919 + shape.samples);
      std::uniform_real_distribution<double> u(-1.0, 1.0);
      std::vector<Scatterer> scatterers;
      for (std::size_t i = 0; i < count; ++i)
        scatterers.push_back({{1.5 + u(gen), u(gen), 0.5 * u(gen)},
                              0.01 * (1.1 + u(gen)), 2.0 * u(gen)});
      // One scatterer at the radar origin, which contributes nothing.
      if (count > 1) scatterers[count / 2].position = {0.0, 0.0, 0.0};

      EXPECT_TRUE(same_bits(sim.synthesize(scatterers),
                            reference_synthesize(cfg, scatterers, nullptr)));
      Rng rng_a(3);
      Rng rng_b(3);
      EXPECT_TRUE(same_bits(sim.synthesize(scatterers, &rng_a),
                            reference_synthesize(cfg, scatterers, &rng_b)));
    }
  }
}

// The cubes themselves, not just their agreement with the reference above:
// FNV-1a of fixed synthesize calls, with and without noise, as the
// one-scatterer-at-a-time kernel gave them. The dataset caches are keyed on
// the configuration, not on these bits, so a change to any complex product
// that moved every cube would leave them stale without this. The values
// hold for GCC on x86-64 glibc on a CPU with FMA (libm picks its FMA sin,
// cos and log there), one pair per setting of __FMA__.
bool cube_bits_are_pinned() {
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && \
    !defined(__clang__)
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::uint64_t cube_fnv(const dsp::RadarCube& cube) {
  Hasher h;
  h.mix_bytes(cube.raw().data(), cube.raw().size() * sizeof(dsp::cfloat));
  return h.value();
}

// A deterministic scene with no library distribution in it; the middle
// scatterer sits at the radar origin.
std::vector<Scatterer> pinned_scene(std::size_t count) {
  std::vector<Scatterer> scatterers;
  for (std::size_t i = 0; i < count; ++i) {
    const auto mod = [i](std::size_t m) { return static_cast<double>(i % m); };
    scatterers.push_back(
        {{1.0 + 0.011 * mod(89), -0.7 + 0.0047 * mod(301),
          -0.4 + 0.0031 * mod(257)},
         0.002 + 0.00013 * mod(37),
         -1.5 + 0.01 * mod(300)});
  }
  scatterers[count / 2].position = {0.0, 0.0, 0.0};
  return scatterers;
}

TEST(Synthesis, CubeBitsArePinned) {
  if (!cube_bits_are_pinned())
    GTEST_SKIP() << "cube bits are pinned for GCC on x86-64 glibc with FMA";
  struct Pin {
    std::size_t chirps, antennas, samples, scatterers;
    std::uint64_t clean, noisy;
  };
  // The paper shape, and a chirp long enough to re-seed its lanes.
#ifdef __FMA__
  const Pin pins[] = {
      {16, 16, 64, 300, 0x39ea690af2b0b16aULL, 0x31ba138a685e0a3aULL},
      {2, 2, 8192, 40, 0x0e10e03d4e485f60ULL, 0x9565bf847e5744c3ULL}};
#else
  const Pin pins[] = {
      {16, 16, 64, 300, 0x503b5881c08dad08ULL, 0x5b08b4e893562ac3ULL},
      {2, 2, 8192, 40, 0xdde8bb581c78a34fULL, 0x7c99cd57e97f267eULL}};
#endif
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.samples);
    FmcwConfig cfg;
    cfg.num_chirps = pin.chirps;
    cfg.num_virtual_antennas = pin.antennas;
    cfg.num_samples = pin.samples;
    const Simulator sim(cfg);
    const auto scatterers = pinned_scene(pin.scatterers);
    EXPECT_EQ(cube_fnv(sim.synthesize(scatterers)), pin.clean);
    Rng rng(11);
    EXPECT_EQ(cube_fnv(sim.synthesize(scatterers, &rng)), pin.noisy);
  }
}

}  // namespace
}  // namespace mmhar::radar
