// Microbenchmarks (google-benchmark) for the computational substrates.
//
// The paper's §VI-D reports ~0.87 s to simulate one TX-RX pair of a full
// activity on a GPU; `IfSynthesisPerAntenna` reports the CPU-equivalent
// figure for this implementation (per virtual antenna, per activity).
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "dsp/heatmap.h"
#include "har/generator.h"
#include "har/infer.h"
#include "har/model.h"
#include "nn/loss.h"
#include "tensor/detmath.h"
#include "tensor/gemm.h"
#include "xai/shapley.h"

namespace {

using namespace mmhar;

// Cases whose body runs work on the global pool register with
// UseRealTime(): Google Benchmark otherwise times them, and divides their
// kIsRate counters, by the main thread's CPU time alone, which leaves out
// the workers' share.

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<dsp::cfloat> data(n);
  for (auto& v : data) {
    const float im = static_cast<float>(rng.normal());  // drawn first
    v = dsp::cfloat(static_cast<float>(rng.normal()), im);
  }
  for (auto _ : state) {
    dsp::fft_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(256)->Arg(1024);

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    sgemm(n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

har::GeneratorConfig bench_generator_config() {
  har::GeneratorConfig gc;
  gc.environment = radar::EnvironmentKind::Hallway;
  return gc;
}

void BM_ScattererExtraction(benchmark::State& state) {
  const har::SampleGenerator gen(bench_generator_config());
  const auto meshes = gen.build_world_meshes(har::SampleSpec{}, nullptr);
  const radar::Simulator sim(gen.config().radar);
  for (auto _ : state) {
    auto s = sim.extract_scatterers(meshes[0], &meshes[1], 0.016);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_ScattererExtraction);

void BM_IfSynthesisPerFrame(benchmark::State& state) {
  const har::SampleGenerator gen(bench_generator_config());
  const auto meshes = gen.build_world_meshes(har::SampleSpec{}, nullptr);
  const radar::Simulator sim(gen.config().radar);
  const auto scatterers =
      sim.extract_scatterers(meshes[0], &meshes[1], 0.016);
  for (auto _ : state) {
    auto cube = sim.synthesize(scatterers);
    benchmark::DoNotOptimize(cube.raw().data());
  }
  state.counters["scatterers"] =
      static_cast<double>(scatterers.size());
}
BENCHMARK(BM_IfSynthesisPerFrame)->UseRealTime();

// Paper §VI-D analog: IF-signal synthesis for a full 32-frame activity,
// normalized per virtual antenna (their GPU figure: ~0.87 s per TX-RX
// pair).
void BM_IfSynthesisPerAntenna(benchmark::State& state) {
  const har::SampleGenerator gen(bench_generator_config());
  for (auto _ : state) {
    auto cubes = gen.generate_cubes(har::SampleSpec{});
    benchmark::DoNotOptimize(cubes.data());
  }
  const double antennas =
      static_cast<double>(gen.config().radar.num_virtual_antennas);
  state.counters["s_per_antenna"] = benchmark::Counter(
      antennas * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_IfSynthesisPerAntenna)->Unit(benchmark::kMillisecond)->UseRealTime();

// Receiver noise for one paper-shape frame (16 chirps x 16 antennas x 64
// samples, two draws per sample): the Rng::normal_fill call
// Simulator::synthesize makes per frame.
void BM_NoiseFill(benchmark::State& state) {
  Rng rng(17);
  std::vector<float> draws(2 * 16 * 16 * 64);
  for (auto _ : state) {
    rng.normal_fill(0.02, draws.data(), draws.size());
    benchmark::DoNotOptimize(draws.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(draws.size()));
}
BENCHMARK(BM_NoiseFill);

void BM_DraiPipeline(benchmark::State& state) {
  const har::SampleGenerator gen(bench_generator_config());
  const auto cubes = gen.generate_cubes(har::SampleSpec{});
  for (auto _ : state) {
    auto hm = dsp::compute_drai(cubes[0], gen.config().heatmap);
    benchmark::DoNotOptimize(hm.data());
  }
}
BENCHMARK(BM_DraiPipeline)->UseRealTime();

// Paper-dimension radar cubes (16 chirps x 16 virtual antennas x 64 ADC
// samples) filled with noise — the DSP stages see the same shapes as the
// real pipeline without paying mesh/simulator time.
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

void BM_RangeFft(benchmark::State& state) {
  const auto frames = paper_frames(1);
  const dsp::HeatmapConfig cfg;
  dsp::RangeSpectra spectra;
  for (auto _ : state) {
    dsp::range_fft(frames[0], cfg, spectra);
    benchmark::DoNotOptimize(spectra.data.data());
  }
}
BENCHMARK(BM_RangeFft)->UseRealTime();

void BM_DraiFrame(benchmark::State& state) {
  const auto frames = paper_frames(1);
  dsp::HeatmapConfig cfg;
  cfg.log_scale = true;
  for (auto _ : state) {
    auto hm = dsp::compute_drai(frames[0], cfg);
    benchmark::DoNotOptimize(hm.data());
  }
}
BENCHMARK(BM_DraiFrame)->UseRealTime();

// Acceptance-gated end-to-end DSP figure: a full 32-frame activity through
// Range-FFT + clutter removal + angle FFT + dB + sequence normalization.
void BM_DraiSequence32(benchmark::State& state) {
  const auto frames = paper_frames(32);
  dsp::HeatmapConfig cfg;
  cfg.log_scale = true;
  for (auto _ : state) {
    auto seq = dsp::compute_drai_sequence(frames, cfg);
    benchmark::DoNotOptimize(seq.data());
  }
  state.counters["frames/s"] = benchmark::Counter(
      32.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DraiSequence32)->Unit(benchmark::kMillisecond)->UseRealTime();

har::HarModelConfig bench_model_config() {
  har::HarModelConfig mc;
  mc.conv1_channels = 6;
  mc.conv2_channels = 12;
  mc.feature_dim = 48;
  mc.lstm_hidden = 48;
  return mc;
}

void BM_ModelTrainStep(benchmark::State& state) {
  har::HarModel model(bench_model_config());
  Rng rng(4);
  const Tensor batch = Tensor::rand_uniform({8, 32, 32, 32}, rng, 0.0F, 1.0F);
  const std::vector<std::size_t> labels{0, 1, 2, 3, 4, 5, 0, 1};
  for (auto _ : state) {
    model.zero_gradients();
    const Tensor logits = model.forward(batch, true);
    const auto loss = nn::softmax_cross_entropy(logits, labels);
    model.backward(loss.grad_logits);
    benchmark::DoNotOptimize(loss.loss);
  }
  state.counters["samples/s"] = benchmark::Counter(
      8.0 * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelTrainStep)->Unit(benchmark::kMillisecond)->UseRealTime();

// The serving forward per window at micro-batches of 1, 8 and 48 windows
// (default HarModelConfig); bench_json_report records the same three
// points as BM_InferForward/{1,8,48}.
void BM_InferForward(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  har::HarModel model{har::HarModelConfig{}};
  const har::InferencePlan plan = har::build_inference_plan(model);
  const har::HarModelConfig& mc = plan.config;
  Rng rng(11);
  const Tensor input = Tensor::rand_uniform(
      {batch, mc.frames, mc.height, mc.width}, rng, 0.0F, 1.0F);
  std::vector<float> logits(batch * mc.num_classes);
  har::InferenceScratch scratch;
  scratch.reserve(plan, batch);
  for (auto _ : state) {
    har::infer_forward(plan, scratch, input.data(), batch, logits.data());
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.counters["s/window"] = benchmark::Counter(
      static_cast<double>(batch) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_InferForward)->Arg(1)->Arg(8)->Arg(48)->Unit(benchmark::kMicrosecond);

// The LSTM gate nonlinearities over 4096 N(0, 3) pre-activations, per
// element: arg 0 is detmath, arg 1 the scalar std:: loop it replaced
// (same bits). bench_json_report records both under the same names.
std::vector<float> gate_preactivations() {
  Rng rng(13);
  std::vector<float> v(4096);
  for (auto& x : v) x = static_cast<float>(3.0 * rng.normal());
  return v;
}

void set_per_element(benchmark::State& state, std::size_t n, bool use_std) {
  state.SetLabel(use_std ? "std" : "detmath");
  state.counters["s/elem"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_DetTanh(benchmark::State& state) {
  const bool use_std = state.range(0) != 0;
  const std::vector<float> in = gate_preactivations();
  std::vector<float> out(in.size());
  for (auto _ : state) {
    if (use_std) {
      for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::tanh(in[i]);
    } else {
      detmath::tanh_to(in.data(), out.data(), in.size());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_per_element(state, in.size(), use_std);
}
BENCHMARK(BM_DetTanh)->Arg(0)->Arg(1);

void BM_DetSigmoid(benchmark::State& state) {
  const bool use_std = state.range(0) != 0;
  const std::vector<float> in = gate_preactivations();
  std::vector<float> x(in.size());
  for (auto _ : state) {
    x = in;
    if (use_std) {
      for (float& v : x) v = 1.0F / (1.0F + std::exp(-v));
    } else {
      detmath::sigmoid_inplace(x.data(), x.size());
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  set_per_element(state, in.size(), use_std);
}
BENCHMARK(BM_DetSigmoid)->Arg(0)->Arg(1);

void BM_SamplingShapley(benchmark::State& state) {
  const std::size_t players = 32;
  const xai::ValueFunction v = [](const std::vector<bool>& mask) {
    double acc = 0.0;
    for (std::size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) acc += static_cast<double>(i % 5);
    return acc;
  };
  Rng rng(5);
  for (auto _ : state) {
    auto phi = xai::sampling_shapley(players, v, 4, rng);
    benchmark::DoNotOptimize(phi.data());
  }
}
BENCHMARK(BM_SamplingShapley);

}  // namespace

BENCHMARK_MAIN();
