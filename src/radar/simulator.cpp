#include "radar/simulator.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace mmhar::radar {
namespace {

constexpr double kSpeedOfLight = 299792458.0;
constexpr double kPi = 3.14159265358979323846;
constexpr double kFourPiSq = (4.0 * kPi) * (4.0 * kPi);

// IF-synthesis kernel geometry. The per-sample phasor recurrence advances
// kPhasorLanes independent lanes at once (lane l holds exp(i dphi (n+l)),
// each step multiplies every lane by exp(i dphi L)), which turns the
// serial complex-multiply chain into straight-line vectorizable code.
constexpr std::size_t kPhasorLanes = 16;
// Lanes are re-seeded from a double-precision anchor every
// kRenormInterval samples, bounding single-precision magnitude/phase
// drift regardless of num_samples.
constexpr std::size_t kRenormInterval = 4096;
// Scatterers are tabulated kBlockScatterers at a time, so the per-scatterer
// double-precision chains (lane seeds, chirp bases) of a whole block run
// side by side. Long chirps shrink the block so its phasor table stays
// within kBlockTableFloats per plane.
constexpr std::size_t kBlockScatterers = 64;
constexpr std::size_t kBlockTableFloats = kBlockScatterers * 256;
// Register tile: kTileChirps chirp rows x kTileSamples samples of both
// accumulation planes stay in registers across a whole block.
constexpr std::size_t kTileChirps = 2;
#ifdef __AVX512F__
constexpr std::size_t kTileSamples = 64;
#else
constexpr std::size_t kTileSamples = 32;
#endif

// The complex product (a + ib)(c + id) — std::complex<double>'s, the lane
// rotation's and the accumulator update's — with its FMA contraction
// written out. Under __FMA__ these are the forms GCC 12 gave the plain
// expressions at -O3 -march=native, so the kernel's output does not depend
// on where the compiler chooses to fuse; without FMA nothing fuses.
template <typename T>
[[gnu::always_inline]] inline T mul_re(T a, T b, T c, T d) {
#ifdef __FMA__
  return std::fma(a, c, -(b * d));
#else
  return a * c - b * d;
#endif
}

template <typename T>
[[gnu::always_inline]] inline T mul_im(T a, T b, T c, T d) {
#ifdef __FMA__
  return std::fma(b, c, a * d);
#else
  return a * d + b * c;
#endif
}

std::complex<double> mul(std::complex<double> x, std::complex<double> y) {
  return {mul_re(x.real(), x.imag(), y.real(), y.imag()),
          mul_im(x.real(), x.imag(), y.real(), y.imag())};
}

// Per-scatterer terms the kernel needs for every antenna.
struct TxTerms {
  const Scatterer* s;
  double d_tx;
  std::complex<double> rot_q;
};

// One block's tables, structure-of-arrays across the block: chirp bases
// base[q * kBlockScatterers + j] and sample phasors tab[j * num_samples + n]
// of scatterer j, plus the double-precision chain state behind them.
struct BlockTables {
  BlockTables(std::size_t q_n, std::size_t tab_floats)
      : base_re(q_n * kBlockScatterers),
        base_im(q_n * kBlockScatterers),
        tab_re(tab_floats),
        tab_im(tab_floats) {}

  std::vector<float> base_re, base_im, tab_re, tab_im;
  double phi0[kBlockScatterers];
  double dphi[kBlockScatterers];
  double step_re[kBlockScatterers];
  double step_im[kBlockScatterers];
  double anchor_re[kBlockScatterers];
  double anchor_im[kBlockScatterers];
  double w_re[kBlockScatterers];
  double w_im[kBlockScatterers];
};

// Phase (a): tabulate block `terms[0, count)` for the antenna at `antenna`.
void tabulate_block(const TxTerms* terms, std::size_t count,
                    const mesh::Vec3& antenna, double f_c, double slope,
                    double ts, std::size_t q_n, std::size_t n_n,
                    BlockTables& b) {
  MMHAR_CHECK(count <= kBlockScatterers && count * n_n <= b.tab_re.size() &&
              q_n * kBlockScatterers <= b.base_re.size());
  float* const tab_re = b.tab_re.data();
  float* const tab_im = b.tab_im.data();
  float* const base_re = b.base_re.data();
  float* const base_im = b.base_im.data();
  for (std::size_t j = 0; j < count; ++j) {
    // Carrier phase (angle information) and beat step (range
    // information) over the TX + RX path.
    const double path =
        terms[j].d_tx + mesh::distance(terms[j].s->position, antenna);
    b.phi0[j] = -2.0 * kPi * f_c * path / kSpeedOfLight;
    b.dphi[j] = 2.0 * kPi * slope * path / kSpeedOfLight * ts;
  }

  // Sample phasors tab[n] = exp(i dphi n), one re-seeding interval of span
  // samples at a time. Each interval's lanes are seeded from the double
  // anchor exp(i dphi n0) as anchor * w_l, with w_{l+1} = w_l * exp(i dphi)
  // run one chain step for the whole block at a time; w_L is the lane step.
  // The float lane recurrence tab[n] = tab[n - L] * w_L fills the rest of
  // the interval. The anchor advances by exp(i dphi span) between intervals.
  const std::size_t span = std::min(n_n, kRenormInterval);
  for (std::size_t j = 0; j < count; ++j) {
    b.step_re[j] = std::cos(b.dphi[j]);
    b.step_im[j] = std::sin(b.dphi[j]);
    b.anchor_re[j] = 1.0;
    b.anchor_im[j] = 0.0;
  }
  for (std::size_t n0 = 0; n0 < n_n; n0 += span) {
    std::fill_n(b.w_re, count, 1.0);
    std::fill_n(b.w_im, count, 0.0);
    for (std::size_t l = 0; l < kPhasorLanes; ++l) {
      for (std::size_t j = 0; j < count; ++j) {
        const double ar = b.anchor_re[j];
        const double ai = b.anchor_im[j];
        const double wr = b.w_re[j];
        const double wi = b.w_im[j];
        if (l < span) {
          tab_re[j * n_n + n0 + l] = static_cast<float>(mul_re(ar, ai, wr, wi));
          tab_im[j * n_n + n0 + l] = static_cast<float>(mul_im(ar, ai, wr, wi));
        }
        b.w_re[j] = mul_re(wr, wi, b.step_re[j], b.step_im[j]);
        b.w_im[j] = mul_im(wr, wi, b.step_re[j], b.step_im[j]);
      }
    }
    for (std::size_t j = 0; j < count; ++j) {
      const float rr = static_cast<float>(b.w_re[j]);
      const float ri = static_cast<float>(b.w_im[j]);
      float* const tr = tab_re + j * n_n;
      float* const ti = tab_im + j * n_n;
      for (std::size_t n = n0 + kPhasorLanes; n < n0 + span;
           n += kPhasorLanes) {
        for (std::size_t l = 0; l < kPhasorLanes; ++l) {
          const float lr = tr[n - kPhasorLanes + l];
          const float li = ti[n - kPhasorLanes + l];
          tr[n + l] = mul_re(rr, ri, lr, li);
          ti[n + l] = mul_im(rr, ri, lr, li);
        }
      }
    }
    if (n0 + span < n_n) {
      for (std::size_t j = 0; j < count; ++j) {
        const std::complex<double> anchor =
            mul({b.anchor_re[j], b.anchor_im[j]},
                std::polar(1.0, b.dphi[j] * static_cast<double>(span)));
        b.anchor_re[j] = anchor.real();
        b.anchor_im[j] = anchor.imag();
      }
    }
  }

  // Chirp bases: amplitude * exp(i phi0) advanced by the Doppler rotation
  // in double precision (drift-free for any chirp count).
  for (std::size_t j = 0; j < count; ++j) {
    const std::complex<double> base =
        std::polar(terms[j].s->amplitude, b.phi0[j]);
    b.w_re[j] = base.real();
    b.w_im[j] = base.imag();
  }
  for (std::size_t q = 0; q < q_n; ++q) {
    for (std::size_t j = 0; j < count; ++j) {
      const double br = b.w_re[j];
      const double bi = b.w_im[j];
      const std::complex<double> rot = terms[j].rot_q;
      base_re[q * kBlockScatterers + j] = static_cast<float>(br);
      base_im[q * kBlockScatterers + j] = static_cast<float>(bi);
      b.w_re[j] = mul_re(br, bi, rot.real(), rot.imag());
      b.w_im[j] = mul_im(br, bi, rot.real(), rot.imag());
    }
  }
}

// Phase (b): acc[q][n] += base_q * tab[n] for every scatterer of the block
// in order, over chirps [q0, q0 + rows) x samples [n0, n0 + width); acc
// holds that span, row stride acc_stride.
[[gnu::always_inline]] inline void accumulate_block(
    const BlockTables& b, std::size_t count, std::size_t q0, std::size_t n0,
    std::size_t n_n, std::size_t rows, std::size_t width, float* acc_re,
    float* acc_im, std::size_t acc_stride) {
  MMHAR_CHECK(count * n_n <= b.tab_re.size() && n0 + width <= n_n &&
              (q0 + rows) * kBlockScatterers <= b.base_re.size());
  for (std::size_t j = 0; j < count; ++j) {
    const float* const tr = b.tab_re.data() + j * n_n + n0;
    const float* const ti = b.tab_im.data() + j * n_n + n0;
    for (std::size_t q = 0; q < rows; ++q) {
      const float br = b.base_re[(q0 + q) * kBlockScatterers + j];
      const float bi = b.base_im[(q0 + q) * kBlockScatterers + j];
      float* const ar = acc_re + q * acc_stride;
      float* const ai = acc_im + q * acc_stride;
      for (std::size_t n = 0; n < width; ++n) {
        ar[n] += mul_re(tr[n], ti[n], br, bi);
        ai[n] += mul_im(tr[n], ti[n], br, bi);
      }
    }
  }
}

// One register tile: chirps [q0, q0 + kTileChirps) x samples
// [n0, n0 + kTileSamples) of the planes, held in locals across the block.
void accumulate_tile(const BlockTables& b, std::size_t count, std::size_t q0,
                     std::size_t n0, std::size_t n_n, float* re_plane,
                     float* im_plane) {
  float acc_re[kTileChirps * kTileSamples];
  float acc_im[kTileChirps * kTileSamples];
  for (std::size_t q = 0; q < kTileChirps; ++q) {
    const std::size_t off = (q0 + q) * n_n + n0;
    std::copy_n(re_plane + off, kTileSamples, acc_re + q * kTileSamples);
    std::copy_n(im_plane + off, kTileSamples, acc_im + q * kTileSamples);
  }
  accumulate_block(b, count, q0, n0, n_n, kTileChirps, kTileSamples, acc_re,
                   acc_im, kTileSamples);
  for (std::size_t q = 0; q < kTileChirps; ++q) {
    const std::size_t off = (q0 + q) * n_n + n0;
    std::copy_n(acc_re + q * kTileSamples, kTileSamples, re_plane + off);
    std::copy_n(acc_im + q * kTileSamples, kTileSamples, im_plane + off);
  }
}

}  // namespace

Simulator::Simulator(FmcwConfig config, SimulatorOptions options)
    : config_(config), options_(options) {
  MMHAR_REQUIRE(dsp::is_power_of_two(config_.num_samples),
                "num_samples must be a power of two");
  MMHAR_REQUIRE(dsp::is_power_of_two(config_.num_chirps),
                "num_chirps must be a power of two");
  MMHAR_REQUIRE(config_.num_virtual_antennas >= 1, "need >= 1 antenna");
}

std::vector<Scatterer> Simulator::extract_scatterers(
    const mesh::TriMesh& now, const mesh::TriMesh* next,
    double frame_dt) const {
  if (next != nullptr) {
    MMHAR_REQUIRE(next->num_triangles() == now.num_triangles(),
                  "frame topology mismatch: " << now.num_triangles() << " vs "
                                              << next->num_triangles());
    MMHAR_REQUIRE(frame_dt != 0.0, "frame_dt must be nonzero with motion");
  }

  const std::size_t t_count = now.num_triangles();
  std::vector<Scatterer> scatterers;
  scatterers.reserve(t_count / 2);

  struct Candidate {
    Scatterer s;
    double range;
    double azimuth;
    double elevation;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(t_count / 2);

  for (std::size_t t = 0; t < t_count; ++t) {
    const mesh::Vec3 p = now.triangle_centroid(t);
    const double d = mesh::norm(p);
    if (d < 1e-6) continue;  // coincident with the radar
    const mesh::Vec3 to_radar = p * (-1.0 / d);
    const double cos_inc = mesh::dot(now.triangle_normal(t), to_radar);
    if (options_.cull_backfaces && cos_inc <= 0.0) continue;

    const double a_g = std::abs(cos_inc);  // geometric gain factor
    const double a_m = now.triangle_material(t).reflectivity;
    const double a_a = now.triangle_area(t);
    const double amp =
        config_.tx_power_gain * a_g * a_m * a_a / (kFourPiSq * d * d);
    if (amp <= 0.0) continue;

    double v_r = 0.0;
    if (next != nullptr) {
      const double d2 = mesh::norm(next->triangle_centroid(t));
      v_r = (d2 - d) / frame_dt;
    }

    candidates.push_back({Scatterer{p, amp, v_r}, d, std::atan2(p.y, p.x),
                          std::asin(std::clamp(p.z / d, -1.0, 1.0))});
  }

  if (!options_.sector_occlusion) {
    for (const auto& c : candidates) scatterers.push_back(c.s);
    return scatterers;
  }

  // Coarse occlusion: per angular sector keep only scatterers within
  // `occlusion_margin_m` of the sector's nearest hit.
  const std::size_t az_n = options_.occlusion_azimuth_sectors;
  const std::size_t el_n = options_.occlusion_elevation_sectors;
  std::vector<double> nearest(az_n * el_n,
                              std::numeric_limits<double>::infinity());
  const auto sector_of = [&](const Candidate& c) {
    const double az01 = (c.azimuth + kPi) / (2.0 * kPi);
    const double el01 = (c.elevation + kPi / 2.0) / kPi;
    const std::size_t ai = std::min<std::size_t>(
        az_n - 1, static_cast<std::size_t>(az01 * static_cast<double>(az_n)));
    const std::size_t ei = std::min<std::size_t>(
        el_n - 1, static_cast<std::size_t>(el01 * static_cast<double>(el_n)));
    return ai * el_n + ei;
  };
  for (const auto& c : candidates) {
    double& d = nearest[sector_of(c)];
    d = std::min(d, c.range);
  }
  for (const auto& c : candidates) {
    if (c.range <= nearest[sector_of(c)] + options_.occlusion_margin_m)
      scatterers.push_back(c.s);
  }
  return scatterers;
}

dsp::RadarCube Simulator::synthesize(const std::vector<Scatterer>& scatterers,
                                     Rng* rng) const {
  const std::size_t q_n = config_.num_chirps;
  const std::size_t k_n = config_.num_virtual_antennas;
  const std::size_t n_n = config_.num_samples;
  dsp::RadarCube cube(q_n, k_n, n_n);

  const double f_c = config_.center_freq_hz();
  const double slope = config_.slope_hz_per_s();
  const double ts = 1.0 / config_.sample_rate_hz();
  const double tc = config_.chirp_time_s;

  std::vector<mesh::Vec3> antennas(k_n);
  for (std::size_t k = 0; k < k_n; ++k)
    antennas[k] = config_.antenna_position(k);

  // Antenna-invariant per-scatterer terms, once per frame: the TX leg and
  // the per-chirp Doppler rotation from the radial velocity (two-way
  // path). A scatterer at the radar origin contributes nothing.
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

  // Structure-of-arrays kernel, parallel over antennas so even a single
  // frame (the shape the Eq. 2 candidate-position search issues) uses the
  // whole pool. One task owns a contiguous antenna range and accumulates
  // all scatterers in their given order, so the per-element reduction
  // order — and therefore the output — is identical for any MMHAR_THREADS.
  // Scatterers go in blocks: tabulate the block's chirp bases and sample
  // phasors, then sweep register tiles of the accumulation planes across
  // it. Every element still sees every scatterer, in order.
  const std::size_t block =
      std::clamp<std::size_t>(kBlockTableFloats / n_n, 1, kBlockScatterers);
  const bool tiled = q_n % kTileChirps == 0 && n_n % kTileSamples == 0;
  if (!tx.empty()) {
    global_pool().parallel_for_chunked(0, k_n, [&](std::size_t klo,
                                                   std::size_t khi) {
      // Split real/imag accumulation planes for this antenna's chirps:
      // plain float arrays the compiler vectorizes.
      std::vector<float> re(q_n * n_n);
      std::vector<float> im(q_n * n_n);
      BlockTables tables(q_n, block * n_n);
      MMHAR_REQUIRE(re.size() == q_n * n_n && im.size() == q_n * n_n,
                    "IF plane size mismatch");
      float* const re_plane = re.data();
      float* const im_plane = im.data();
      for (std::size_t k = klo; k < khi; ++k) {
        std::fill(re.begin(), re.end(), 0.0F);
        std::fill(im.begin(), im.end(), 0.0F);
        for (std::size_t j0 = 0; j0 < tx.size(); j0 += block) {
          const std::size_t count = std::min(block, tx.size() - j0);
          tabulate_block(tx.data() + j0, count, antennas[k], f_c, slope, ts,
                         q_n, n_n, tables);
          if (tiled) {
            for (std::size_t q0 = 0; q0 < q_n; q0 += kTileChirps)
              for (std::size_t n0 = 0; n0 < n_n; n0 += kTileSamples)
                accumulate_tile(tables, count, q0, n0, n_n, re_plane,
                                im_plane);
          } else {
            accumulate_block(tables, count, 0, 0, n_n, q_n, n_n, re_plane,
                             im_plane, n_n);
          }
        }
        // Interleave the planes back into the cube, one write per row.
        for (std::size_t q = 0; q < q_n; ++q) {
          dsp::cfloat* row = cube.row(q, k);
          const float* row_re = re_plane + q * n_n;
          const float* row_im = im_plane + q * n_n;
          for (std::size_t n = 0; n < n_n; ++n)
            row[n] = dsp::cfloat(row_re[n], row_im[n]);
        }
      }
    });
  }

  if (rng != nullptr && config_.noise_std > 0.0) {
    // Two draws per sample, the imaginary part's first (DESIGN §6d).
    constexpr std::size_t kChunk = 1024;  // samples per normal_fill call
    float draws[2 * kChunk] = {};
    std::vector<dsp::cfloat>& iq = cube.raw();
    for (std::size_t i0 = 0; i0 < iq.size(); i0 += kChunk) {
      const std::size_t m = std::min(kChunk, iq.size() - i0);
      rng->normal_fill(config_.noise_std, draws, 2 * m);
      for (std::size_t i = 0; i < m; ++i)
        iq[i0 + i] += dsp::cfloat(draws[2 * i + 1], draws[2 * i]);
    }
  }
  return cube;
}

dsp::RadarCube Simulator::simulate_frame(const SceneFrame& frame,
                                         const mesh::TriMesh* next_dynamic,
                                         double frame_dt, Rng* rng) const {
  auto scatterers =
      extract_scatterers(frame.dynamic_mesh, next_dynamic, frame_dt);
  if (frame.static_mesh != nullptr) {
    const auto env = extract_scatterers(*frame.static_mesh, nullptr, 0.0);
    scatterers.insert(scatterers.end(), env.begin(), env.end());
  }
  return synthesize(scatterers, rng);
}

std::vector<dsp::RadarCube> Simulator::simulate_sequence(
    const std::vector<mesh::TriMesh>& dynamic_frames,
    const mesh::TriMesh* static_mesh, double frame_dt, Rng* rng) const {
  MMHAR_REQUIRE(!dynamic_frames.empty(), "empty dynamic frame sequence");
  const std::size_t f_n = dynamic_frames.size();

  // Environment scatterers are static: extract once, share across frames.
  std::vector<Scatterer> env;
  if (static_mesh != nullptr)
    env = extract_scatterers(*static_mesh, nullptr, 0.0);

  // Fork one RNG per frame up front so parallel execution is deterministic.
  std::vector<Rng> frame_rngs;
  if (rng != nullptr) {
    frame_rngs.reserve(f_n);
    for (std::size_t f = 0; f < f_n; ++f)
      frame_rngs.push_back(rng->fork(f + 1));
  }

  std::vector<dsp::RadarCube> cubes;
  cubes.reserve(f_n);
  for (std::size_t f = 0; f < f_n; ++f)
    cubes.emplace_back(config_.num_chirps, config_.num_virtual_antennas,
                       config_.num_samples);

  parallel_for(0, f_n, [&](std::size_t f) {
    // Velocities come from the forward difference; the last frame reuses
    // the backward difference so every frame has consistent Doppler. A
    // single-frame sequence has no neighbor at all — don't form
    // &dynamic_frames[f - 1] (index -1) in that case.
    std::vector<Scatterer> scatterers;
    if (f_n == 1) {
      scatterers = extract_scatterers(dynamic_frames[f], nullptr, 0.0);
    } else {
      const bool last = f + 1 == f_n;
      const mesh::TriMesh* next =
          last ? &dynamic_frames[f - 1] : &dynamic_frames[f + 1];
      const double dt = last ? -frame_dt : frame_dt;
      scatterers = extract_scatterers(dynamic_frames[f], next, dt);
    }
    scatterers.insert(scatterers.end(), env.begin(), env.end());
    Rng* frame_rng = rng != nullptr ? &frame_rngs[f] : nullptr;
    cubes[f] = synthesize(scatterers, frame_rng);
  });
  return cubes;
}

}  // namespace mmhar::radar
