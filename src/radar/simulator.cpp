#include "radar/simulator.h"

#include <cmath>
#include <complex>
#include <limits>

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

// Fill tab_re/tab_im[n] = exp(i * dphi * n) for n in [0, count).
void fill_phasor_table(std::size_t count, double dphi, float* tab_re,
                       float* tab_im) {
  const std::complex<double> rot1(std::cos(dphi), std::sin(dphi));
  std::complex<double> anchor(1.0, 0.0);
  std::complex<double> rot_interval(1.0, 0.0);
  if (count > kRenormInterval)
    rot_interval = std::polar(1.0, dphi * static_cast<double>(kRenormInterval));

  for (std::size_t n0 = 0; n0 < count; n0 += kRenormInterval) {
    const std::size_t nend = std::min(count, n0 + kRenormInterval);
    // Seed the lanes (and the per-step lane rotation rot1^L) from the
    // double-precision anchor.
    float lane_re[kPhasorLanes];
    float lane_im[kPhasorLanes];
    std::complex<double> w(1.0, 0.0);
    for (std::size_t l = 0; l < kPhasorLanes; ++l) {
      const std::complex<double> v = anchor * w;
      lane_re[l] = static_cast<float>(v.real());
      lane_im[l] = static_cast<float>(v.imag());
      w *= rot1;
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
        const float nr = lane_re[l] * rot_re - lane_im[l] * rot_im;
        const float ni = lane_re[l] * rot_im + lane_im[l] * rot_re;
        lane_re[l] = nr;
        lane_im[l] = ni;
      }
    }
    for (std::size_t l = 0; n < nend; ++n, ++l) {
      tab_re[n] = lane_re[l];
      tab_im[n] = lane_im[l];
    }
    anchor *= rot_interval;
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

    Candidate c;
    c.s = Scatterer{p, amp, v_r};
    c.range = d;
    c.azimuth = std::atan2(p.y, p.x);
    c.elevation = std::asin(std::clamp(p.z / d, -1.0, 1.0));
    candidates.push_back(c);
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

  // Structure-of-arrays kernel, parallel over antennas so even a single
  // frame (the shape the Eq. 2 candidate-position search issues) uses the
  // whole pool. One task owns a contiguous antenna range and accumulates
  // all scatterers in their given order, so the per-element reduction
  // order — and therefore the output — is identical for any MMHAR_THREADS.
  if (!tx.empty()) {
    global_pool().parallel_for_chunked(0, k_n, [&](std::size_t klo,
                                                   std::size_t khi) {
      // Split real/imag accumulation planes for this antenna's chirps,
      // plus the per-(scatterer, antenna) sample-phasor table
      // exp(i dphi_n n): all plain float arrays the compiler vectorizes.
      std::vector<float> re(q_n * n_n);
      std::vector<float> im(q_n * n_n);
      std::vector<float> tab_re(n_n);
      std::vector<float> tab_im(n_n);
      MMHAR_REQUIRE(re.size() == q_n * n_n && im.size() == q_n * n_n &&
                        tab_re.size() == n_n,
                    "IF plane size mismatch");
      float* const re_plane = re.data();
      float* const im_plane = im.data();
      for (std::size_t k = klo; k < khi; ++k) {
        std::fill(re.begin(), re.end(), 0.0F);
        std::fill(im.begin(), im.end(), 0.0F);
        for (const TxTerms& term : tx) {
          // Carrier phase (angle information) and beat step (range
          // information) over the TX + RX path.
          const double path =
              term.d_tx + mesh::distance(term.s->position, antennas[k]);
          const double phi0 = -2.0 * kPi * f_c * path / kSpeedOfLight;
          const double dphi_n = 2.0 * kPi * slope * path / kSpeedOfLight * ts;
          fill_phasor_table(n_n, dphi_n, tab_re.data(), tab_im.data());

          // The chirp base advances in double precision (drift-free for
          // any chirp count); each chirp row is then a rank-1 complex
          // update row[n] += base_q * tab[n] with no loop-carried
          // dependency.
          std::complex<double> base = std::polar(term.s->amplitude, phi0);
          for (std::size_t q = 0; q < q_n; ++q) {
            const float br = static_cast<float>(base.real());
            const float bi = static_cast<float>(base.imag());
            float* row_re = re_plane + q * n_n;
            float* row_im = im_plane + q * n_n;
            for (std::size_t n = 0; n < n_n; ++n) {
              row_re[n] += br * tab_re[n] - bi * tab_im[n];
              row_im[n] += br * tab_im[n] + bi * tab_re[n];
            }
            base *= term.rot_q;
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
    const double sigma = config_.noise_std;
    for (auto& v : cube.raw()) {
      v += dsp::cfloat(static_cast<float>(rng->normal(0.0, sigma)),
                       static_cast<float>(rng->normal(0.0, sigma)));
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
