#include "dsp/heatmap.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/finite_check.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace mmhar::dsp {
namespace {

// Angle-FFT + fftshift + |.| accumulation over chirps for one frame,
// written straight into a [range_bins x angle_bins] row-major block. The
// chirp axis folds serially inside the engine, so the result is
// bit-identical for any thread count.
void drai_accum_into(const RangeSpectra& spectra, std::size_t a_bins,
                     float* out) {
  MMHAR_REQUIRE(is_power_of_two(a_bins) && a_bins >= spectra.num_antennas,
                "angle_bins must be a power of two >= num_antennas");
  FftManyJob job;
  job.n = a_bins;
  job.in = spectra.data.data();
  job.in_len = spectra.num_antennas;
  job.lanes = spectra.range_bins;
  job.in_lane_stride = 1;
  job.in_elem_stride = spectra.range_bins;
  job.reps = spectra.num_chirps;
  job.in_rep_stride = spectra.num_antennas * spectra.range_bins;
  fft_many_mag_accum(job, /*shift=*/true, out, a_bins, 1);
}

}  // namespace

RadarCube::RadarCube(std::size_t num_chirps, std::size_t num_antennas,
                     std::size_t num_samples)
    : num_chirps_(num_chirps),
      num_antennas_(num_antennas),
      num_samples_(num_samples),
      data_(num_chirps * num_antennas * num_samples, cfloat{0.0F, 0.0F}) {
  MMHAR_REQUIRE(num_chirps > 0 && num_antennas > 0 && num_samples > 0,
                "RadarCube dimensions must be positive");
}

cfloat& RadarCube::at(std::size_t chirp, std::size_t antenna,
                      std::size_t sample) {
  MMHAR_CHECK(chirp < num_chirps_ && antenna < num_antennas_ &&
              sample < num_samples_);
  return data_[(chirp * num_antennas_ + antenna) * num_samples_ + sample];
}

const cfloat& RadarCube::at(std::size_t chirp, std::size_t antenna,
                            std::size_t sample) const {
  MMHAR_CHECK(chirp < num_chirps_ && antenna < num_antennas_ &&
              sample < num_samples_);
  return data_[(chirp * num_antennas_ + antenna) * num_samples_ + sample];
}

cfloat* RadarCube::row(std::size_t chirp, std::size_t antenna) {
  return data_.data() + (chirp * num_antennas_ + antenna) * num_samples_;
}

const cfloat* RadarCube::row(std::size_t chirp, std::size_t antenna) const {
  return data_.data() + (chirp * num_antennas_ + antenna) * num_samples_;
}

void range_fft(const RadarCube& cube, const HeatmapConfig& cfg,
               RangeSpectra& out) {
  const std::size_t n = cube.num_samples();
  MMHAR_REQUIRE(is_power_of_two(n), "ADC sample count must be a power of two");
  MMHAR_REQUIRE(cfg.range_bins > 0 && cfg.range_bins <= n,
                "range_bins must be in (0, num_samples]");

  out.num_chirps = cube.num_chirps();
  out.num_antennas = cube.num_antennas();
  out.range_bins = cfg.range_bins;
  out.data.resize(out.num_chirps * out.num_antennas * out.range_bins);

  // Window multiply, FFT, and the range-bin crop run as one fused batched
  // pass: one transform per (chirp, antenna) row.
  FftManyJob job;
  job.n = n;
  job.in = cube.raw().data();
  job.in_len = n;
  job.window = cached_window(cfg.range_window, n).data();
  job.lanes = out.num_chirps * out.num_antennas;
  job.in_lane_stride = n;
  job.in_elem_stride = 1;
  fft_many_crop(job, cfg.range_bins, out.data.data(), cfg.range_bins, 1);

  check_finite(std::span<const cfloat>(out.data), "RangeSpectra",
               "range_fft/post-fft");
  if (cfg.remove_clutter) {
    remove_static_clutter(out);
    check_finite(std::span<const cfloat>(out.data), "RangeSpectra",
                 "range_fft/post-clutter-removal");
  }
}

RangeSpectra range_fft(const RadarCube& cube, const HeatmapConfig& cfg) {
  RangeSpectra out;
  range_fft(cube, cfg, out);
  return out;
}

namespace {

// Column range [lo, hi) of the clutter-removal sweep: per-column mean over
// chirps, then subtract. [chirp][antenna][range] layout makes every
// (antenna, range) cell one column of a [q_total x cols] matrix, so the
// sweeps run vectorized across contiguous columns. Columns are
// independent, which keeps the output bit-identical for any partitioning
// (pooled chunks or one serial call).
void clutter_columns(cfloat* base, std::size_t cols, std::size_t q_total,
                     float inv_q, std::size_t lo, std::size_t hi) {
  constexpr std::size_t kTile = 64;
  float mean_re[kTile];
  float mean_im[kTile];
  for (std::size_t c0 = lo; c0 < hi; c0 += kTile) {
    const std::size_t w = std::min(kTile, hi - c0);
    for (std::size_t t = 0; t < w; ++t) {
      mean_re[t] = 0.0F;
      mean_im[t] = 0.0F;
    }
    for (std::size_t q = 0; q < q_total; ++q) {
      const cfloat* row = base + q * cols + c0;
      for (std::size_t t = 0; t < w; ++t) {
        mean_re[t] += row[t].real();
        mean_im[t] += row[t].imag();
      }
    }
    for (std::size_t t = 0; t < w; ++t) {
      mean_re[t] *= inv_q;
      mean_im[t] *= inv_q;
    }
    for (std::size_t q = 0; q < q_total; ++q) {
      cfloat* row = base + q * cols + c0;
      for (std::size_t t = 0; t < w; ++t)
        row[t] -= cfloat(mean_re[t], mean_im[t]);
    }
  }
}

}  // namespace

void remove_static_clutter(RangeSpectra& spectra) {
  const std::size_t q_total = spectra.num_chirps;
  if (q_total < 2) return;  // nothing to average against
  const float inv_q = 1.0F / static_cast<float>(q_total);
  const std::size_t cols = spectra.num_antennas * spectra.range_bins;
  MMHAR_CHECK(spectra.data.size() == q_total * cols);
  cfloat* const base = spectra.data.data();
  global_pool().parallel_for_chunked(
      0, cols, [base, cols, q_total, inv_q](std::size_t lo, std::size_t hi) {
        clutter_columns(base, cols, q_total, inv_q, lo, hi);
      });
}

void remove_static_clutter_serial(cfloat* data, std::size_t num_chirps,
                                  std::size_t num_antennas,
                                  std::size_t range_bins) {
  if (num_chirps < 2) return;  // nothing to average against
  const float inv_q = 1.0F / static_cast<float>(num_chirps);
  const std::size_t cols = num_antennas * range_bins;
  clutter_columns(data, cols, num_chirps, inv_q, 0, cols);
}

void remove_static_clutter_serial(RangeSpectra& spectra) {
  MMHAR_CHECK(spectra.data.size() ==
              spectra.num_chirps * spectra.num_antennas * spectra.range_bins);
  remove_static_clutter_serial(spectra.data.data(), spectra.num_chirps,
                               spectra.num_antennas, spectra.range_bins);
}

Tensor compute_rdi(const RangeSpectra& spectra, const HeatmapConfig& cfg) {
  const std::size_t q_total = spectra.num_chirps;
  const std::size_t d_bins = cfg.doppler_bins == 0 ? q_total : cfg.doppler_bins;
  MMHAR_REQUIRE(is_power_of_two(d_bins) && d_bins >= q_total,
                "doppler_bins must be a power of two >= num_chirps");

  // Doppler FFT along the chirp axis: one transform per (antenna, range)
  // cell; the antenna axis folds as the engine's accumulation dimension.
  Tensor rdi({d_bins, spectra.range_bins});
  FftManyJob job;
  job.n = d_bins;
  job.in = spectra.data.data();
  job.in_len = q_total;
  job.window = cached_window(cfg.doppler_window, q_total).data();
  job.lanes = spectra.range_bins;
  job.in_lane_stride = 1;
  job.in_elem_stride = spectra.num_antennas * spectra.range_bins;
  job.reps = spectra.num_antennas;
  job.in_rep_stride = spectra.range_bins;
  fft_many_mag_accum(job, /*shift=*/true, rdi.data(), 1, spectra.range_bins);

  if (cfg.normalize) normalize01_inplace(rdi.data(), rdi.size());
  check_finite(rdi.flat(), "RDI", "compute_rdi");
  return rdi;
}

Tensor compute_rdi(const RadarCube& cube, const HeatmapConfig& cfg) {
  return compute_rdi(range_fft(cube, cfg), cfg);
}

Tensor compute_drai(const RangeSpectra& spectra, const HeatmapConfig& cfg) {
  MMHAR_REQUIRE(cfg.angle_bins >= spectra.num_antennas &&
                    is_power_of_two(cfg.angle_bins),
                "angle_bins must be a power of two >= num_antennas");
  Tensor drai({spectra.range_bins, cfg.angle_bins});
  drai_accum_into(spectra, cfg.angle_bins, drai.data());
  if (cfg.log_scale) to_db_inplace(drai.data(), drai.size(), cfg.db_floor);
  if (cfg.normalize) normalize01_inplace(drai.data(), drai.size());
  check_finite(drai.flat(), "DRAI", "compute_drai");
  return drai;
}

Tensor compute_drai(const RadarCube& cube, const HeatmapConfig& cfg) {
  return compute_drai(range_fft(cube, cfg), cfg);
}

Tensor range_profile(const RangeSpectra& spectra) {
  Tensor profile({spectra.range_bins});
  const std::size_t rows = spectra.num_chirps * spectra.num_antennas;
  const std::size_t bins = spectra.range_bins;
  MMHAR_CHECK(spectra.data.size() == rows * bins);
  const cfloat* const base = spectra.data.data();
  float* const out = profile.data();
  for (std::size_t row = 0; row < rows; ++row) {
    const cfloat* src = base + row * bins;
    for (std::size_t r = 0; r < bins; ++r) {
      const float re = src[r].real();
      const float im = src[r].imag();
      out[r] += std::sqrt(re * re + im * im);
    }
  }
  return profile;
}

Tensor range_profile(const RadarCube& cube, const HeatmapConfig& cfg) {
  return range_profile(range_fft(cube, cfg));
}

std::vector<RangeSpectra> compute_range_spectra(
    const std::vector<RadarCube>& frames, const HeatmapConfig& cfg) {
  MMHAR_REQUIRE(!frames.empty(), "empty frame sequence");
  std::vector<RangeSpectra> out(frames.size());
  parallel_for(0, frames.size(),
               [&](std::size_t f) { range_fft(frames[f], cfg, out[f]); });
  return out;
}

namespace {

// Shared tail of the two compute_drai_sequence overloads. `frame_fn`
// produces (a reference to) frame f's RangeSpectra; per-frame work is
// independent and lands in disjoint slices of `seq`, so the sequence is
// bit-identical for any thread count.
template <typename FrameFn>
Tensor drai_sequence_impl(std::size_t num_frames, const HeatmapConfig& cfg,
                          const FrameFn& frame_fn) {
  MMHAR_REQUIRE(num_frames > 0, "empty frame sequence");
  HeatmapConfig frame_cfg = cfg;
  if (cfg.normalize_per_sequence) {
    frame_cfg.normalize = false;
    frame_cfg.log_scale = false;  // applied once over the whole sequence
  }
  const std::size_t hw = cfg.range_bins * cfg.angle_bins;
  Tensor seq({num_frames, cfg.range_bins, cfg.angle_bins});
  MMHAR_CHECK(seq.size() == num_frames * hw);
  float* const seq_base = seq.data();
  global_pool().parallel_for_chunked(
      0, num_frames, [&](std::size_t lo, std::size_t hi) {
        // One reused spectra buffer per chunk: after the first frame the
        // Range-FFT stage runs allocation-free.
        RangeSpectra scratch;
        for (std::size_t f = lo; f < hi; ++f) {
          const RangeSpectra& spectra = frame_fn(f, scratch);
          if (frame_cfg.log_scale || frame_cfg.normalize) {
            // Per-frame post-ops (normalize_per_sequence == false).
            const Tensor h = compute_drai(spectra, frame_cfg);
            MMHAR_CHECK(h.size() == hw);
            std::copy(h.data(), h.data() + hw, seq_base + f * hw);
          } else {
            drai_accum_into(spectra, frame_cfg.angle_bins, seq_base + f * hw);
          }
        }
      });
  if (cfg.normalize_per_sequence) {
    if (cfg.log_scale) to_db_inplace(seq.data(), seq.size(), cfg.db_floor);
    if (cfg.normalize) normalize01_inplace(seq.data(), seq.size());
  }
  check_finite(seq.flat(), "DRAI-sequence", "compute_drai_sequence");
  return seq;
}

}  // namespace

Tensor compute_drai_sequence(const std::vector<RadarCube>& frames,
                             const HeatmapConfig& cfg) {
  return drai_sequence_impl(
      frames.size(), cfg,
      [&frames, &cfg](std::size_t f, RangeSpectra& scratch) -> const RangeSpectra& {
        range_fft(frames[f], cfg, scratch);
        return scratch;
      });
}

Tensor compute_drai_sequence(const std::vector<RangeSpectra>& frames,
                             const HeatmapConfig& cfg) {
  return drai_sequence_impl(
      frames.size(), cfg,
      [&frames](std::size_t f, RangeSpectra&) -> const RangeSpectra& {
        return frames[f];
      });
}

}  // namespace mmhar::dsp
