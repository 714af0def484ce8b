// Machine-readable perf tracker for the acceptance-gated hot paths.
//
// Emits BENCH_perf_micro.json (path overridable via argv[1]) with the
// GEMM throughput, the per-antenna IF-synthesis time, and the batched-FFT
// DSP pipeline figures (BM_RangeFft / BM_DraiFrame / BM_DraiSequence32)
// so the perf trajectory is comparable across PRs without parsing
// google-benchmark console output. The DSP sequence entry also carries
// the speedup over a retained scalar per-transform reference (the pre-
// engine implementation). BM_InferForward/{1,8,48} is the eval
// forward (har::infer_forward, default HarModelConfig) per window at
// micro-batches of 1, 8 and 48 windows. BM_DetTanh / BM_DetSigmoid are
// the LSTM gate nonlinearities per element, detmath next to the scalar
// std:: loop it replaced. BM_NoiseFill is the receiver noise of one
// paper-shape frame (Rng::normal_fill) next to the scalar normal() loop
// it replaced. Numbers are best-of-N wall time on the current
// MMHAR_THREADS setting.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dsp/heatmap.h"
#include "har/generator.h"
#include "har/infer.h"
#include "har/model.h"
#include "tensor/detmath.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace {

using namespace mmhar;

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::vector<dsp::RadarCube> paper_frames(std::size_t count) {
  Rng rng(7);
  std::vector<dsp::RadarCube> frames;
  frames.reserve(count);
  for (std::size_t f = 0; f < count; ++f) {
    dsp::RadarCube cube(16, 16, 64);
    for (auto& v : cube.raw()) {
      const float im = static_cast<float>(rng.normal());  // drawn first
      v = dsp::cfloat(static_cast<float>(rng.normal()), im);
    }
    frames.push_back(std::move(cube));
  }
  return frames;
}

// Scalar per-transform DRAI sequence, structured like the pre-engine
// implementation (one fft_inplace per row, std::abs magnitudes, serial
// frames). Kept as the in-binary reference the speedup figure is measured
// against.
Tensor scalar_drai_sequence(const std::vector<dsp::RadarCube>& frames,
                            const dsp::HeatmapConfig& cfg) {
  const std::size_t R = cfg.range_bins;
  const std::size_t A = cfg.angle_bins;
  Tensor seq({frames.size(), R, A});
  const auto range_window =
      dsp::make_window(cfg.range_window, frames.front().num_samples());
  std::vector<dsp::cfloat> buf;      // hoisted per-row FFT scratch
  std::vector<dsp::cfloat> abuf(A);  // hoisted angle-FFT scratch
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const dsp::RadarCube& cube = frames[f];
    const std::size_t n = cube.num_samples();
    dsp::RangeSpectra s;
    s.num_chirps = cube.num_chirps();
    s.num_antennas = cube.num_antennas();
    s.range_bins = R;
    s.data.resize(s.num_chirps * s.num_antennas * R);
    buf.resize(n);
    for (std::size_t q = 0; q < s.num_chirps; ++q) {
      for (std::size_t k = 0; k < s.num_antennas; ++k) {
        const dsp::cfloat* row = cube.row(q, k);
        for (std::size_t i = 0; i < n; ++i) buf[i] = row[i] * range_window[i];
        dsp::fft_inplace(buf);
        for (std::size_t r = 0; r < R; ++r) s.at(q, k, r) = buf[r];
      }
    }
    if (cfg.remove_clutter) {
      for (std::size_t k = 0; k < s.num_antennas; ++k) {
        for (std::size_t r = 0; r < R; ++r) {
          dsp::cfloat mean{0.0F, 0.0F};
          for (std::size_t q = 0; q < s.num_chirps; ++q) mean += s.at(q, k, r);
          mean /= static_cast<float>(s.num_chirps);
          for (std::size_t q = 0; q < s.num_chirps; ++q) s.at(q, k, r) -= mean;
        }
      }
    }
    for (std::size_t q = 0; q < s.num_chirps; ++q) {
      for (std::size_t r = 0; r < R; ++r) {
        std::fill(abuf.begin(), abuf.end(), dsp::cfloat{0.0F, 0.0F});
        for (std::size_t k = 0; k < s.num_antennas; ++k)
          abuf[k] = s.at(q, k, r);
        dsp::fft_inplace(abuf);
        dsp::fftshift_inplace(std::span<dsp::cfloat>(abuf));
        for (std::size_t a = 0; a < A; ++a)
          seq.at(f, r, a) += std::abs(abuf[a]);
      }
    }
  }
  if (cfg.log_scale) seq = to_db(seq, cfg.db_floor);
  if (cfg.normalize) seq = normalize01(seq);
  return seq;
}

// Best-of-15 wall seconds per window of one infer_forward call over
// `batch` uniform-random windows.
double infer_seconds_per_window(std::size_t batch) {
  har::HarModel model{har::HarModelConfig{}};
  const har::InferencePlan plan = har::build_inference_plan(model);
  const har::HarModelConfig& mc = plan.config;
  Rng rng(11);
  const Tensor input = Tensor::rand_uniform(
      {batch, mc.frames, mc.height, mc.width}, rng, 0.0F, 1.0F);
  std::vector<float> logits(batch * mc.num_classes);
  har::InferenceScratch scratch;
  scratch.reserve(plan, batch);
  const auto run = [&] {
    har::infer_forward(plan, scratch, input.data(), batch, logits.data());
  };
  run();  // warm-up
  return best_seconds(15, run) / static_cast<double>(batch);
}

// Best-of-200 wall nanoseconds per element of `fn` over 4096 N(0, 3)
// gate pre-activations; fn(in, x) transforms x, which starts as a copy of
// in.
template <typename Fn>
double gate_ns_per_elem(Fn&& fn) {
  Rng rng(13);
  std::vector<float> in(4096);
  for (auto& v : in) v = static_cast<float>(3.0 * rng.normal());
  std::vector<float> x(in.size());
  const double s = best_seconds(200, [&] {
    x = in;
    fn(in, x);
  });
  return s * 1e9 / static_cast<double>(in.size());
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_perf_micro.json";

  // GEMM: square 256 product, the BM_Gemm/256 configuration.
  const std::size_t n = 256;
  Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  sgemm(n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());  // warm-up
  const double gemm_s = best_seconds(30, [&] {
    sgemm(n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
  });
  const double gflops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n) / gemm_s / 1e9;

  // IF synthesis: full activity (BM_IfSynthesisPerAntenna configuration),
  // normalized per virtual antenna.
  har::GeneratorConfig gc;
  gc.environment = radar::EnvironmentKind::Hallway;
  const har::SampleGenerator gen(gc);
  auto cubes = gen.generate_cubes(har::SampleSpec{});  // warm-up
  const double synth_s = best_seconds(5, [&] {
    cubes = gen.generate_cubes(har::SampleSpec{});
  });
  const double s_per_antenna =
      synth_s /
      static_cast<double>(gen.config().radar.num_virtual_antennas);

  // Receiver noise for one 16x16x64 frame, two draws per sample.
  std::vector<float> draws(2 * 16 * 16 * 64);
  Rng noise_rng(17);
  const double noise_s = best_seconds(200, [&] {
    noise_rng.normal_fill(0.02, draws.data(), draws.size());
  });
  const double noise_scalar_s = best_seconds(200, [&] {
    for (float& v : draws) v = static_cast<float>(noise_rng.normal(0.0, 0.02));
  });

  // Batched-FFT DSP pipeline at paper dimensions (32 frames of
  // 16 chirps x 16 antennas x 64 samples), log-scaled DRAI sequence.
  const auto frames = paper_frames(32);
  dsp::HeatmapConfig hm;
  hm.log_scale = true;
  dsp::RangeSpectra spectra;
  dsp::range_fft(frames[0], hm, spectra);  // warm-up (plan + window caches)
  const double range_fft_s =
      best_seconds(200, [&] { dsp::range_fft(frames[0], hm, spectra); });
  Tensor drai = dsp::compute_drai(frames[0], hm);
  const double drai_frame_s =
      best_seconds(200, [&] { drai = dsp::compute_drai(frames[0], hm); });
  Tensor seq = dsp::compute_drai_sequence(frames, hm);
  const double seq_s = best_seconds(
      20, [&] { seq = dsp::compute_drai_sequence(frames, hm); });
  Tensor seq_ref = scalar_drai_sequence(frames, hm);
  const double seq_scalar_s =
      best_seconds(3, [&] { seq_ref = scalar_drai_sequence(frames, hm); });
  // The two paths must agree (sqrt(re^2+im^2) vs std::abs differ by at
  // most rounding); a mismatch means the engine drifted, so fail loudly.
  double max_dev = 0.0;
  for (std::size_t i = 0; i < seq.size(); ++i)
    max_dev = std::max(max_dev,
                       std::abs(static_cast<double>(seq[i] - seq_ref[i])));
  if (max_dev > 1e-3) {
    std::fprintf(stderr,
                 "engine/scalar DRAI mismatch: max deviation %.3e\n", max_dev);
    return 1;
  }
  const double seq_speedup = seq_scalar_s / seq_s;

  const double infer1_s = infer_seconds_per_window(1);
  const double infer8_s = infer_seconds_per_window(8);
  const double infer48_s = infer_seconds_per_window(48);

  using Vec = std::vector<float>;
  const double tanh_ns = gate_ns_per_elem([](const Vec& in, Vec& x) {
    detmath::tanh_to(in.data(), x.data(), in.size());
  });
  const double tanh_std_ns = gate_ns_per_elem([](const Vec& in, Vec& x) {
    for (std::size_t i = 0; i < in.size(); ++i) x[i] = std::tanh(in[i]);
  });
  const double sigmoid_ns = gate_ns_per_elem([](const Vec&, Vec& x) {
    detmath::sigmoid_inplace(x.data(), x.size());
  });
  const double sigmoid_std_ns = gate_ns_per_elem([](const Vec&, Vec& x) {
    for (float& v : x) v = 1.0F / (1.0F + std::exp(-v));
  });

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_micro\",\n"
               "  \"threads\": %ld,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"pool_threads\": %zu,\n"
               "  \"BM_Gemm/256\": {\"seconds\": %.6e, \"gflops\": %.3f},\n"
               "  \"BM_IfSynthesisPerAntenna\": {\"s_per_antenna\": %.6e},\n"
               "  \"BM_NoiseFill\": {\"seconds\": %.6e, "
               "\"scalar_reference_seconds\": %.6e},\n"
               "  \"BM_RangeFft\": {\"seconds\": %.6e},\n"
               "  \"BM_DraiFrame\": {\"seconds\": %.6e},\n"
               "  \"BM_DraiSequence32\": {\"seconds\": %.6e, "
               "\"scalar_reference_seconds\": %.6e, \"speedup\": %.2f},\n"
               "  \"BM_InferForward/1\": {\"seconds_per_window\": %.6e},\n"
               "  \"BM_InferForward/8\": {\"seconds_per_window\": %.6e},\n"
               "  \"BM_InferForward/48\": {\"seconds_per_window\": %.6e},\n"
               "  \"BM_DetTanh\": {\"ns_per_elem\": %.3f, "
               "\"std_ns_per_elem\": %.3f},\n"
               "  \"BM_DetSigmoid\": {\"ns_per_elem\": %.3f, "
               "\"std_ns_per_elem\": %.3f}\n"
               "}\n",
               env_int("MMHAR_THREADS", 0),
               std::thread::hardware_concurrency(), global_pool().size(),
               gemm_s, gflops,
               s_per_antenna, noise_s, noise_scalar_s, range_fft_s,
               drai_frame_s, seq_s, seq_scalar_s, seq_speedup, infer1_s,
               infer8_s, infer48_s, tanh_ns, tanh_std_ns, sigmoid_ns,
               sigmoid_std_ns);
  std::fclose(f);
  std::printf(
      "gemm256: %.3f GFLOP/s   if-synthesis: %.6f s/antenna   "
      "noise: %.1f us/frame (scalar %.1f us)\n"
      "range_fft: %.6f s   drai_frame: %.6f s   drai_seq32: %.6f s "
      "(scalar %.6f s, %.1fx)\n"
      "infer_forward per window: batch 1 %.1f us   batch 8 %.1f us   "
      "batch 48 %.1f us\n"
      "tanh %.2f ns/elem (std %.2f)   sigmoid %.2f ns/elem (std %.2f) -> %s\n",
      gflops, s_per_antenna, noise_s * 1e6, noise_scalar_s * 1e6,
      range_fft_s, drai_frame_s, seq_s, seq_scalar_s,
      seq_speedup, infer1_s * 1e6, infer8_s * 1e6, infer48_s * 1e6, tanh_ns,
      tanh_std_ns, sigmoid_ns, sigmoid_std_ns, out_path);
  return 0;
}
