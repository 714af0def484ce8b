// FMCW IF-signal simulator — the function R_e of the paper (Eq. 2/3).
//
// Implements Eq. 3: the IF signal at time t on virtual antenna k is the
// coherent sum over visible reflective triangles i of
//
//     (ω A_g A_m A_a / (4π)^2 d_Ti d_iR) · exp(j φ_i(t, k, q))
//
// with amplitude factors: A_g the geometric gain (cosine of the incidence
// angle), A_m the material reflectivity, A_a the triangle area, and the
// two-way spreading loss. The phase combines the carrier term
// −2π f_c (d_Ti + d_iR)/c (exact per virtual antenna — this carries the
// angle information), the beat term +2π S τ t (this carries range), and a
// per-chirp Doppler rotation derived from the triangle's radial velocity
// between consecutive frames.
//
// Per-triangle contributions factorize as rank-1 phasor products over
// (antenna, chirp, sample). The synthesis kernel is structure-of-arrays
// and works on blocks of scatterers: per antenna it tabulates each
// block's chirp bases and sample phasors exp(i dphi_n n) (a multi-lane
// rotation recurrence, re-seeded from a double-precision anchor every
// few thousand samples to bound float drift), then sweeps register tiles
// of the split real/imag planes across the block, each element adding
// the block's scatterers in their given order. Complex products spell
// out their FMA contraction, so cubes do not depend on where the
// compiler fuses (DESIGN.md §6d). Antennas are distributed over the
// thread pool inside a single frame, and frames of a sequence are
// distributed over it as well (nested calls run inline); outputs are
// bit-identical for any MMHAR_THREADS. Visibility = back-face culling
// toward the radar plus an optional coarse spherical-sector occlusion
// test.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "dsp/heatmap.h"
#include "mesh/trimesh.h"
#include "radar/fmcw.h"
#include "radar/scene.h"

namespace mmhar::radar {

struct SimulatorOptions {
  bool cull_backfaces = true;
  /// Coarse occlusion: drop triangles whose line of sight passes close to
  /// a nearer triangle in the same angular sector. Cheap but effective
  /// for a single body in front of walls.
  bool sector_occlusion = true;
  std::size_t occlusion_azimuth_sectors = 64;
  std::size_t occlusion_elevation_sectors = 32;
  double occlusion_margin_m = 0.15;
};

/// A triangle reduced to its radar-relevant parameters.
struct Scatterer {
  mesh::Vec3 position;   ///< centroid, world frame
  double amplitude = 0;  ///< ω A_g A_m A_a / ((4π)^2 d^2), at the TX
  double radial_velocity = 0.0;  ///< m/s, + receding
};

class Simulator {
 public:
  explicit Simulator(FmcwConfig config, SimulatorOptions options = {});

  const FmcwConfig& config() const { return config_; }

  /// Reduce a world-frame mesh to visible scatterers. `next` (same
  /// topology, the geometry one frame later) supplies per-triangle radial
  /// velocities; pass nullptr for a static snapshot.
  std::vector<Scatterer> extract_scatterers(const mesh::TriMesh& now,
                                            const mesh::TriMesh* next,
                                            double frame_dt) const;

  /// Synthesize one frame of IF samples from explicit scatterers.
  /// `rng` (optional) adds complex AWGN of std config.noise_std.
  dsp::RadarCube synthesize(const std::vector<Scatterer>& scatterers,
                            Rng* rng = nullptr) const MMHAR_DETERMINISTIC;

  /// Convenience: scatterer extraction + synthesis for one scene frame.
  dsp::RadarCube simulate_frame(const SceneFrame& frame,
                                const mesh::TriMesh* next_dynamic,
                                double frame_dt, Rng* rng = nullptr) const;

  /// Simulate a whole activity: `dynamic_frames` share topology; the
  /// static environment (optional) is appended to every frame. Frames are
  /// processed in parallel on the global thread pool. Returns one
  /// RadarCube per frame.
  std::vector<dsp::RadarCube> simulate_sequence(
      const std::vector<mesh::TriMesh>& dynamic_frames,
      const mesh::TriMesh* static_mesh, double frame_dt,
      Rng* rng = nullptr) const MMHAR_DETERMINISTIC;

 private:
  FmcwConfig config_;
  SimulatorOptions options_;
};

}  // namespace mmhar::radar
