// Tests for the DSP extras: the micro-Doppler spectrum, spectrogram and
// centroid track, including an end-to-end check on simulated gestures.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/microdoppler.h"
#include "har/generator.h"
#include "radar/simulator.h"

namespace mmhar::dsp {
namespace {

RadarCube doppler_cube(double cycles_per_chirp, std::size_t chirps = 16) {
  RadarCube cube(chirps, 2, 64);
  constexpr double kPi = 3.14159265358979323846;
  for (std::size_t q = 0; q < chirps; ++q)
    for (std::size_t k = 0; k < 2; ++k)
      for (std::size_t n = 0; n < 64; ++n) {
        const double phase =
            2.0 * kPi * (10.0 * n / 64.0 + cycles_per_chirp * q);
        cube.at(q, k, n) += cfloat(static_cast<float>(std::cos(phase)),
                                   static_cast<float>(std::sin(phase)));
      }
  return cube;
}

TEST(MicroDoppler, SpectrumPeaksAtInjectedShift) {
  const RadarCube cube = doppler_cube(0.25);
  MicroDopplerConfig cfg;
  cfg.remove_clutter = false;
  cfg.window = WindowKind::Rect;
  const Tensor spectrum = doppler_spectrum(cube, cfg);
  EXPECT_EQ(spectrum.size(), 16u);
  EXPECT_EQ(spectrum.argmax(), 8u + 4u);  // center + 0.25*16
}

TEST(MicroDoppler, SpectrogramShapeAndNormalization) {
  std::vector<RadarCube> frames{doppler_cube(0.1), doppler_cube(-0.1),
                                doppler_cube(0.2)};
  MicroDopplerConfig cfg;
  cfg.remove_clutter = false;
  const Tensor gram = micro_doppler_spectrogram(frames, cfg);
  EXPECT_EQ(gram.shape(), (std::vector<std::size_t>{3, 16}));
  EXPECT_FLOAT_EQ(gram.max(), 1.0F);
  EXPECT_GE(gram.min(), 0.0F);
}

TEST(MicroDoppler, CentroidTrackFollowsShiftSign) {
  std::vector<RadarCube> frames{doppler_cube(0.2), doppler_cube(-0.2)};
  MicroDopplerConfig cfg;
  cfg.remove_clutter = false;
  cfg.window = WindowKind::Rect;
  const Tensor gram = micro_doppler_spectrogram(frames, cfg);
  const auto track = doppler_centroid_track(gram);
  ASSERT_EQ(track.size(), 2u);
  EXPECT_GT(track[0], 0.5);   // positive shift above center
  EXPECT_LT(track[1], -0.5);  // negative shift below center
}

TEST(MicroDoppler, RangeGateValidation) {
  const RadarCube cube = doppler_cube(0.1);
  MicroDopplerConfig cfg;
  cfg.min_range_bin = 10;
  cfg.max_range_bin = 10;
  EXPECT_THROW(doppler_spectrum(cube, cfg), InvalidArgument);
}

TEST(MicroDoppler, PushAndPullHaveOppositeEarlyCentroids) {
  // Physical property the classifier exploits: Push starts with motion
  // toward the radar (positive Doppler), Pull with motion away.
  har::GeneratorConfig gc;
  gc.num_frames = 8;
  gc.radar.num_chirps = 16;
  gc.radar.num_virtual_antennas = 8;
  gc.environment = radar::EnvironmentKind::None;
  gc.jitter.amplitude_sigma = 0.0;
  gc.jitter.phase_sigma = 0.0;
  gc.jitter.tremor_sigma = 0.0;
  gc.jitter.sway_amplitude_m = 0.0;  // isolate the hand motion
  const har::SampleGenerator gen(gc);

  MicroDopplerConfig cfg;
  cfg.min_range_bin = 0;
  cfg.max_range_bin = 32;

  har::SampleSpec spec;
  spec.distance_m = 1.2;
  spec.activity = mesh::Activity::Push;
  const auto push_track = doppler_centroid_track(
      micro_doppler_spectrogram(gen.generate_cubes(spec), cfg));
  spec.activity = mesh::Activity::Pull;
  const auto pull_track = doppler_centroid_track(
      micro_doppler_spectrogram(gen.generate_cubes(spec), cfg));

  // Compare the dominant early-gesture direction.
  const double push_early = push_track[1] + push_track[2];
  const double pull_early = pull_track[1] + pull_track[2];
  EXPECT_GT(push_early * pull_early, -100.0);  // both finite
  EXPECT_NE(push_early > 0, pull_early > 0)
      << "push early " << push_early << ", pull early " << pull_early;
}

}  // namespace
}  // namespace mmhar::dsp
