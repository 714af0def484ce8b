// The two serving workloads.
//
//  serve_paced     open loop: one producer submits 32 streams at 30 frames/s,
//                  each stream at its own phase within the frame period (drawn
//                  from the seed), against 4 shard workers with deadline
//                  scheduling armed at the 50 ms limit and one model.
//                  Latency runs from when a window's newest frame was due.
//  serve_saturate  closed loop: 64 streams submitted round-robin, lossless
//                  (kNewest + retry on refusal), streams split between two
//                  model versions (clean vs backdoored A/B), 2 shard workers.
//
// Shard counts are fixed per workload: 4 for the paced load (each shard
// stays mostly idle, so latency is not queueing), 2 for the saturated one
// (throughput steadier than with 4 on a 4-core host, where the producer
// would contend with the shards).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "dsp/heatmap.h"
#include "dsp/window.h"
#include "har/infer.h"
#include "har/model.h"
#include "serving/serving.h"

namespace perfbench {
namespace {

using namespace mmhar;
using serving::Classification;

constexpr std::size_t kSetups = 5;        // set-ups per run; median reported
constexpr std::size_t kFramePool = 61;    // prime, > T: windows all differ
constexpr std::size_t kChecksPerStream = 4;
constexpr long kSloMs = 50;
constexpr double kRateHz = 30.0;

struct Workload {
  const char* name;
  std::size_t streams;
  std::size_t models;  // streams alternate between model ids
  std::size_t shards;
  bool paced;
};

std::vector<dsp::RadarCube> make_frames(const serving::ServingConfig& cfg,
                                        Rng& rng) {
  std::vector<dsp::RadarCube> pool;
  pool.reserve(kFramePool);
  for (std::size_t i = 0; i < kFramePool; ++i) {
    dsp::RadarCube cube(cfg.num_chirps, cfg.num_antennas, cfg.num_samples);
    for (dsp::cfloat& v : cube.raw())
      v = dsp::cfloat(static_cast<float>(rng.normal()),
                      static_cast<float>(rng.normal()));
    pool.push_back(std::move(cube));
  }
  return pool;
}

har::HarModelConfig model_config(std::size_t model_id) {
  har::HarModelConfig mc;  // paper-scale: T=32 frames of 32x32
  mc.seed = 42 + 1000 * model_id;
  return mc;
}

// Everything one service instance needs; rebuilt for every set-up.
struct Rig {
  std::vector<std::unique_ptr<har::HarModel>> models;
  std::unique_ptr<serving::StreamingHarService> svc;
  std::vector<std::size_t> sids;
};

// Frames the shards have finished with: processed or dropped at their
// deadline (before any window fills, no result exists to drop).
std::uint64_t frames_consumed(const serving::StreamingHarService& svc) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < svc.config().num_shards; ++s) {
    const serving::ShardStats st = svc.shard_stats(s);
    n += st.frames + st.deadline_dropped;
  }
  return n;
}

// Construct the models and the service, register the streams, start the
// shard workers and fill every stream's window (T frames, one round per
// frame, each round consumed before the next is submitted).
void set_up(Rig& rig, const Workload& wl, const serving::ServingConfig& cfg,
              const std::vector<dsp::RadarCube>& pool,
              const std::vector<std::size_t>& offsets, Tracer& tracer) {
  ScopedSpan span(tracer, "serving.setup");
  rig.models.clear();
  for (std::size_t m = 0; m < wl.models; ++m)
    rig.models.push_back(std::make_unique<har::HarModel>(model_config(m)));
  rig.svc = std::make_unique<serving::StreamingHarService>(cfg,
                                                           *rig.models[0]);
  for (std::size_t m = 1; m < wl.models; ++m) rig.svc->add_model(*rig.models[m]);
  rig.sids.clear();
  for (std::size_t s = 0; s < wl.streams; ++s)
    rig.sids.push_back(rig.svc->add_stream(s % wl.models));
  rig.svc->start();

  const std::size_t T = rig.models[0]->config().frames;
  for (std::size_t seq = 0; seq < T; ++seq) {
    for (std::size_t s = 0; s < wl.streams; ++s)
      rig.svc->submit_frame(rig.sids[s],
                            pool[(offsets[s] + seq) % pool.size()]);
    const std::uint64_t target = (seq + 1) * wl.streams;
    const Clock::time_point wait0 = Clock::now();
    while (frames_consumed(*rig.svc) < target && seconds_since(wait0) < 5.0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

struct StreamLog {
  bool warm = false;  // the warm-up filled the window: frames 0..T-1 all processed
  std::vector<Classification> results;  // timed region only
  std::vector<std::int64_t> due_ns;     // per timed seq, relative to t0
  std::vector<std::int64_t> submit_ns;  // per timed seq, relative to t0
};

std::size_t argmax(const float* v, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (v[i] > v[best]) best = i;
  return best;
}

// Offline reference for one delivered result: compute_drai_sequence over
// the window's T frames plus HarModel::forward. Returns false on any bit
// difference in the logits or the prediction.
bool matches_offline(har::HarModel& model, const serving::ServingConfig& cfg,
                     const std::vector<dsp::RadarCube>& pool,
                     std::size_t offset, const Classification& r,
                     Tensor* window_out) {
  const har::HarModelConfig& mc = model.config();
  const std::size_t T = mc.frames;
  if (r.frame_seq + 1 < T) return false;
  std::vector<dsp::RadarCube> frames;
  frames.reserve(T);
  for (std::uint64_t q = r.frame_seq + 1 - T; q <= r.frame_seq; ++q)
    frames.push_back(pool[(offset + q) % pool.size()]);
  const Tensor seq = dsp::compute_drai_sequence(frames, cfg.heatmap);
  const Tensor in({1, T, mc.height, mc.width},
                  std::vector<float>(seq.flat().begin(), seq.flat().end()));
  const Tensor logits = model.forward(in, /*training=*/false);
  if (window_out != nullptr) *window_out = in;
  if (logits.size() != mc.num_classes) return false;
  if (std::memcmp(logits.data(), r.logits, mc.num_classes * sizeof(float)) != 0)
    return false;
  return r.predicted == argmax(logits.data(), mc.num_classes);
}

// Per-window CNN-LSTM cost at a given micro-batch, replayed through the
// public prepacked-plan entry point on a real window.
double infer_us_per_window(har::HarModel& model, const Tensor& window,
                           std::size_t batch, double budget_s) {
  const har::InferencePlan plan = har::build_inference_plan(model);
  har::InferenceScratch scratch;
  scratch.reserve(plan, batch);
  const std::size_t wlen = window.size();
  std::vector<float> input(batch * wlen);
  for (std::size_t b = 0; b < batch; ++b)
    std::copy(window.data(), window.data() + wlen, input.data() + b * wlen);
  std::vector<float> logits(batch * model.config().num_classes);
  har::infer_forward(plan, scratch, input.data(), batch, logits.data());
  std::vector<double> per_call;
  const Clock::time_point t0 = Clock::now();
  while (per_call.size() < 5 || seconds_since(t0) < budget_s) {
    const Clock::time_point c0 = Clock::now();
    har::infer_forward(plan, scratch, input.data(), batch, logits.data());
    per_call.push_back(seconds_since(c0));
  }
  return median(per_call) * 1e6 / static_cast<double>(batch);
}

// Per-frame DSP cost at a given batch through the fused entry points the
// serving cycle uses: Range-FFT crop, clutter removal, Angle-FFT to DRAI.
double dsp_us_per_frame(const serving::ServingConfig& cfg,
                        const std::vector<dsp::RadarCube>& pool,
                        std::size_t batch, double budget_s) {
  const dsp::HeatmapConfig& hm = cfg.heatmap;
  const std::size_t spectra_elems =
      cfg.num_chirps * cfg.num_antennas * hm.range_bins;
  const std::size_t hw = hm.range_bins * hm.angle_bins;
  std::vector<dsp::cfloat> spectra(batch * spectra_elems);
  std::vector<float> drai(batch * hw);
  std::vector<dsp::FftManyIo> range_ios(batch);
  std::vector<dsp::FftManyMagIo> angle_ios(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    range_ios[i] = {pool[i % pool.size()].raw().data(),
                    spectra.data() + i * spectra_elems};
    angle_ios[i] = {spectra.data() + i * spectra_elems, drai.data() + i * hw};
  }
  dsp::FftManyJob range_job;
  range_job.n = cfg.num_samples;
  range_job.in_len = cfg.num_samples;
  range_job.window = dsp::cached_window(hm.range_window, cfg.num_samples).data();
  range_job.lanes = cfg.num_chirps * cfg.num_antennas;
  range_job.in_lane_stride = cfg.num_samples;
  dsp::FftManyJob angle_job;
  angle_job.n = hm.angle_bins;
  angle_job.in_len = cfg.num_antennas;
  angle_job.lanes = hm.range_bins;
  angle_job.in_lane_stride = 1;
  angle_job.in_elem_stride = hm.range_bins;
  angle_job.reps = cfg.num_chirps;
  angle_job.in_rep_stride = cfg.num_antennas * hm.range_bins;
  const auto once = [&] {
    dsp::fft_many_crop_multi(range_job, hm.range_bins,
                             std::span<const dsp::FftManyIo>(range_ios),
                             hm.range_bins, 1);
    if (hm.remove_clutter)
      for (std::size_t i = 0; i < batch; ++i)
        dsp::remove_static_clutter_serial(spectra.data() + i * spectra_elems,
                                          cfg.num_chirps, cfg.num_antennas,
                                          hm.range_bins);
    dsp::fft_many_mag_accum_multi(angle_job, /*shift=*/true,
                                  std::span<const dsp::FftManyMagIo>(angle_ios),
                                  hm.angle_bins, 1);
  };
  once();
  std::vector<double> per_call;
  const Clock::time_point t0 = Clock::now();
  while (per_call.size() < 5 || seconds_since(t0) < budget_s) {
    const Clock::time_point c0 = Clock::now();
    once();
    per_call.push_back(seconds_since(c0));
  }
  return median(per_call) * 1e6 / static_cast<double>(batch);
}

std::int64_t ns_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
}

Outcome run_serving(const Workload& wl, const Options& opt, Tracer& tracer) {
  Outcome out;
  out.shards = wl.shards;

  serving::ServingConfig cfg;  // defaults; the benchmark reads no env knobs
  cfg.max_streams = wl.streams;
  cfg.num_shards = wl.shards;
  cfg.slo_ms = wl.paced ? kSloMs : 0;
  cfg.drop_policy =
      wl.paced ? serving::DropPolicy::kOldest : serving::DropPolicy::kNewest;

  // Inputs: the frame pool, each stream's offset into it, and (paced) each
  // stream's phase within the frame period — all from the seed.
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + (wl.paced ? 1 : 2));
  const std::vector<dsp::RadarCube> pool = make_frames(cfg, rng);
  std::vector<std::size_t> offsets(wl.streams);
  for (auto& o : offsets) o = rng.index(pool.size());
  const double period_s = 1.0 / kRateHz;
  std::vector<double> phase_s(wl.streams);
  for (auto& p : phase_s) p = rng.uniform(0.0, period_s);

  Rig rig;
  std::vector<Stage> setups(kSetups);
  for (Stage& st : setups) {
    if (rig.svc) rig.svc->stop();
    rig.svc.reset();
    const StageTimer timed(st);
    set_up(rig, wl, cfg, pool, offsets, tracer);
  }
  serving::StreamingHarService& svc = *rig.svc;
  const std::size_t T = rig.models[0]->config().frames;

  std::vector<serving::StreamStats> before(wl.streams);
  for (std::size_t s = 0; s < wl.streams; ++s)
    before[s] = svc.stream_stats(rig.sids[s]);
  std::vector<serving::ShardStats> shard_before(wl.shards);
  for (std::size_t i = 0; i < wl.shards; ++i)
    shard_before[i] = svc.shard_stats(i);

  const double seconds = opt.smoke ? std::min(opt.seconds, 2.0) : opt.seconds;
  std::vector<StreamLog> logs(wl.streams);
  std::vector<Classification> buf(cfg.result_depth);
  std::vector<double> lag_ms;
  std::uint64_t due_windows = 0;

  std::uint64_t collected = 0;
  const auto drain = [&](std::size_t s) {
    ScopedSpan span(tracer, "serving.poll", s);
    std::size_t n = 0;
    do {
      n = svc.poll(rig.sids[s], std::span<Classification>(buf));
      for (std::size_t i = 0; i < n; ++i) {
        if (buf[i].frame_seq + 1 == T) logs[s].warm = true;
        if (buf[i].frame_seq < T) continue;
        logs[s].results.push_back(buf[i]);
        ++collected;
      }
    } while (n == buf.size());
  };

  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  if (wl.paced) {
    // Events ordered by due time: every period, the streams in phase order.
    std::vector<std::size_t> order(wl.streams);
    for (std::size_t s = 0; s < wl.streams; ++s) order[s] = s;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return phase_s[a] < phase_s[b]; });
    for (std::size_t k = 0;; ++k) {
      const double base = static_cast<double>(k) * period_s;
      if (base >= seconds) break;
      for (const std::size_t s : order) {
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(base + phase_s[s]));
        std::this_thread::sleep_until(due);
        const std::uint64_t seq = T + k;
        const Clock::time_point sub = Clock::now();
        {
          ScopedSpan span(tracer, "serving.submit_frame", (s << 32) | seq);
          svc.submit_frame(rig.sids[s], pool[(offsets[s] + seq) % pool.size()]);
        }
        logs[s].due_ns.push_back(ns_since(t0, due));
        logs[s].submit_ns.push_back(ns_since(t0, sub));
        lag_ms.push_back(static_cast<double>(ns_since(due, sub)) / 1e6);
        ++due_windows;
        drain(s);
      }
    }
    // Late results can only arrive within the limit; wait that long.
    const Clock::time_point end = Clock::now();
    while (collected < due_windows &&
           seconds_since(end) < 2.0 * kSloMs / 1000.0) {
      for (std::size_t s = 0; s < wl.streams; ++s) drain(s);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } else {
    std::uint64_t seq = T;
    for (; seconds_since(t0) < seconds; ++seq) {
      for (std::size_t s = 0; s < wl.streams; ++s) {
        {
          ScopedSpan span(tracer, "serving.submit_frame", (s << 32) | seq);
          const dsp::RadarCube& cube = pool[(offsets[s] + seq) % pool.size()];
          // A refused frame is retried after a short sleep: a blocked
          // client waits rather than spinning a core the shards need.
          while (!svc.submit_frame(rig.sids[s], cube))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        ++due_windows;
        drain(s);
      }
    }
    const Clock::time_point end = Clock::now();
    while (collected < due_windows && seconds_since(end) < 10.0) {
      for (std::size_t s = 0; s < wl.streams; ++s) drain(s);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const double elapsed = seconds_since(t0);
  const double cpu = process_cpu_s() - cpu0;
  svc.stop();
  for (std::size_t s = 0; s < wl.streams; ++s) drain(s);

  // ---- Delivery accounting ----
  std::vector<double> lat_ms;
  std::uint64_t on_time = 0;
  std::uint64_t delivered = 0;
  // Paced windows missed (late or never delivered), by the second of the
  // timed region they were due in: shows whether misses cluster.
  std::vector<std::uint64_t> missed_by_s(
      wl.paced ? static_cast<std::size_t>(std::ceil(seconds)) : 0, 0);
  for (std::size_t s = 0; s < wl.streams; ++s) {
    std::vector<std::uint8_t> met(logs[s].due_ns.size(), 0);
    for (const Classification& r : logs[s].results) {
      ++delivered;
      if (!wl.paced) {
        lat_ms.push_back(static_cast<double>(r.latency_ns) / 1e6);
        continue;
      }
      const std::size_t k = static_cast<std::size_t>(r.frame_seq - T);
      if (k >= logs[s].due_ns.size()) continue;
      const double ms =
          static_cast<double>(logs[s].submit_ns[k] - logs[s].due_ns[k] +
                              r.latency_ns) / 1e6;
      lat_ms.push_back(ms);
      if (ms <= static_cast<double>(kSloMs)) {
        ++on_time;
        met[k] = 1;
      }
    }
    for (std::size_t k = 0; k < met.size(); ++k)
      if (!met[k])
        ++missed_by_s[std::min<std::size_t>(
            static_cast<std::size_t>(logs[s].due_ns[k] / 1000000000),
            missed_by_s.size() - 1)];
  }
  if (!wl.paced) on_time = delivered;
  out.attempted = due_windows;
  out.failed = due_windows - std::min(on_time, due_windows);

  // ---- Stats ----
  serving::StreamStats sum;
  for (std::size_t s = 0; s < wl.streams; ++s) {
    const serving::StreamStats a = svc.stream_stats(rig.sids[s]);
    const serving::StreamStats& b = before[s];
    sum.submitted += a.submitted - b.submitted;
    sum.dropped_frames += a.dropped_frames - b.dropped_frames;
    sum.rejected_frames += a.rejected_frames - b.rejected_frames;
    sum.deadline_dropped += a.deadline_dropped - b.deadline_dropped;
    sum.dropped_results += a.dropped_results - b.dropped_results;
    sum.quarantined += a.quarantined - b.quarantined;
    sum.errors += a.errors - b.errors;
    sum.deepest_queue = std::max(sum.deepest_queue, a.deepest_queue);
  }
  std::uint64_t cycles = 0;
  std::uint64_t frames = 0;
  std::vector<double> shard_frames;
  for (std::size_t i = 0; i < wl.shards; ++i) {
    const serving::ShardStats st = svc.shard_stats(i);
    cycles += st.cycles - shard_before[i].cycles;
    frames += st.frames - shard_before[i].frames;
    shard_frames.push_back(
        static_cast<double>(st.frames - shard_before[i].frames));
  }
  const double frames_per_cycle =
      cycles > 0 ? static_cast<double>(frames) / static_cast<double>(cycles)
                 : 0.0;

  // ---- Correctness: sampled streams against the offline pipeline ----
  // A delivered result is checkable when its whole window is known: the
  // service skips a dropped frame, so the window is the T consecutive
  // frames ending at the result's frame only if each of them is known to
  // have been processed (it produced a result, or the warm-up filled the
  // window). Per (shard, model) pair the first stream with checkable
  // results is checked.
  Tensor window;
  std::size_t checked = 0;
  {
    ScopedSpan span(tracer, "serving.verify");
    Rng pick(opt.seed ^ 0xC0FFEEULL);
    const auto checkable = [&](std::size_t s) {
      const StreamLog& log = logs[s];
      std::vector<std::uint8_t> known(T, log.warm ? 1 : 0);
      for (const Classification& r : log.results) {
        known.resize(std::max<std::size_t>(known.size(), r.frame_seq + 1), 0);
        known[r.frame_seq] = 1;
      }
      std::vector<std::size_t> prefix(known.size() + 1, 0);  // known frames < q
      for (std::size_t q = 0; q < known.size(); ++q)
        prefix[q + 1] = prefix[q] + known[q];
      std::vector<std::size_t> idx;
      for (std::size_t j = 0; j < log.results.size(); ++j) {
        const std::size_t q = log.results[j].frame_seq;
        if (prefix[q + 1] - prefix[q + 1 - T] == T) idx.push_back(j);
      }
      return idx;
    };
    for (std::size_t sh = 0; sh < wl.shards; ++sh) {
      for (std::size_t m = 0; m < wl.models; ++m) {
        std::optional<std::size_t> chosen;
        std::vector<std::size_t> ok;
        for (std::size_t s = 0; s < wl.streams && !chosen; ++s) {
          if (s % wl.models != m || svc.shard_of_stream(rig.sids[s]) != sh)
            continue;
          ok = checkable(s);
          if (!ok.empty()) chosen = s;
        }
        if (!chosen) {
          out.mismatch(std::string(wl.name) + ": no checkable stream on shard " +
                       std::to_string(sh) + " for model " + std::to_string(m));
          continue;
        }
        const std::size_t s = *chosen;
        std::vector<Classification>& rs = logs[s].results;
        std::vector<std::size_t> idx{ok.front(), ok.back()};
        while (idx.size() < kChecksPerStream) idx.push_back(ok[pick.index(ok.size())]);
        if (opt.force_mismatch && checked == 0) rs[idx.front()].logits[0] += 1.0F;
        for (const std::size_t i : idx) {
          ++checked;
          if (!matches_offline(*rig.models[m], cfg, pool, offsets[s], rs[i], &window))
            out.mismatch(std::string(wl.name) + " stream " + std::to_string(s) +
                         " seq " + std::to_string(rs[i].frame_seq) +
                         " differs from the offline pipeline");
        }
      }
    }
  }

  // ---- Metrics ----
  std::sort(lat_ms.begin(), lat_ms.end());
  std::sort(lag_ms.begin(), lag_ms.end());
  const double ok = static_cast<double>(std::max<std::uint64_t>(on_time, 1));
  out.set("setup_s", median_cpu_s(setups));
  out.set("peak_rss_mb", peak_rss_mb());
  out.set("cpu_ms_per_op", cpu * 1e3 / ok);
  out.set("ops_per_s", static_cast<double>(on_time) / elapsed);
  out.set("cpu_util", cpu / elapsed);
  out.set("setup_wall_s", median_wall_s(setups));
  out.set("latency_p50_ms", quantile(lat_ms, 0.50, 0).value_or(NAN));
  out.set("latency_p99_ms", quantile(lat_ms, 0.99, 0).value_or(NAN));
  out.set("har.windows_per_call", frames_per_cycle);

  std::ostringstream d;
  d << "{\"workload\": " << json_str(wl.name) << ", \"streams\": " << wl.streams
    << ", \"models\": " << wl.models << ", \"shards\": " << wl.shards
    << ", \"seconds\": " << json_num(elapsed)
    << ", \"windows_due\": " << due_windows << ", \"delivered\": " << delivered
    << ", \"on_time\": " << on_time << ", \"verified_results\": " << checked
    << ", \"latency_p50_ms\": " << json_num(quantile(lat_ms, 0.50))
    << ", \"latency_p99_ms\": " << json_num(quantile(lat_ms, 0.99))
    << ", \"latency_samples\": " << lat_ms.size()
    << ", \"lag_p99_ms\": " << json_num(quantile(lag_ms, 0.99))
    << ", \"lag_samples\": " << lag_ms.size()
    << ", \"setup_runs\": " << setups.size()
    << ", \"missed_by_second\": [";
  for (std::size_t i = 0; i < missed_by_s.size(); ++i)
    d << (i ? ", " : "") << missed_by_s[i];
  d << "]}";
  out.detail.push_back(d.str());

  // The service's own counters over the timed region.
  const double mean_shard = static_cast<double>(frames) / static_cast<double>(wl.shards);
  std::ostringstream c;
  c << "{\"serving\": {\"frames_per_cycle\": " << json_num(frames_per_cycle)
    << ", \"cpu_us_per_result\": "
    << json_num(cpu * 1e6 / static_cast<double>(std::max<std::uint64_t>(delivered, 1)))
    << ", \"shard_frames_max_over_mean\": "
    << json_num(mean_shard > 0.0
                    ? *std::max_element(shard_frames.begin(), shard_frames.end()) / mean_shard
                    : 0.0)
    << ", \"submitted\": " << sum.submitted
    << ", \"rejected_frames\": " << sum.rejected_frames
    << ", \"deadline_dropped\": " << sum.deadline_dropped
    << ", \"dropped_frames\": " << sum.dropped_frames
    << ", \"dropped_results\": " << sum.dropped_results
    << ", \"deepest_queue\": " << sum.deepest_queue
    << ", \"errors\": " << sum.errors << ", \"quarantined\": " << sum.quarantined
    << "}}";
  out.detail.push_back(c.str());

  if (tracer.enabled()) {
    std::vector<double> sub_us;
    for (const std::int64_t ns : tracer.durations_ns("serving.submit_frame"))
      sub_us.push_back(static_cast<double>(ns) / 1e3);
    std::vector<double> poll_us;
    for (const std::int64_t ns : tracer.durations_ns("serving.poll"))
      poll_us.push_back(static_cast<double>(ns) / 1e3);
    std::sort(sub_us.begin(), sub_us.end());
    std::sort(poll_us.begin(), poll_us.end());
    std::ostringstream t;
    t << "{\"spans\": {\"submit_us_p50\": " << json_num(quantile(sub_us, 0.50))
      << ", \"submit_us_p99\": " << json_num(quantile(sub_us, 0.99))
      << ", \"submit_samples\": " << sub_us.size()
      << ", \"poll_us_p50\": " << json_num(quantile(poll_us, 0.50))
      << ", \"poll_samples\": " << poll_us.size() << "}}";
    out.detail.push_back(t.str());

    // Kernel replays at the batch this workload's cycles actually ran.
    const std::size_t batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(frames_per_cycle)));
    const double budget = opt.smoke ? 0.05 : 0.5;
    double infer_us = NAN;
    double dsp_us = 0.0;
    if (window.size() > 0) {
      ScopedSpan span(tracer, "har.infer_forward.replay", batch);
      infer_us = infer_us_per_window(*rig.models[0], window, batch, budget);
    }
    {
      ScopedSpan span(tracer, "dsp.fft_many.replay", batch);
      dsp_us = dsp_us_per_frame(cfg, pool, batch, budget);
    }
    out.set("har.infer_us_per_window", infer_us);
    out.set("dsp.frame_us", dsp_us);
    out.set("kernel_cpu_share", (static_cast<double>(delivered) * infer_us +
                                 static_cast<double>(frames) * dsp_us) /
                                    (cpu * 1e6));
  }
  return out;
}

}  // namespace

Outcome run_serve_paced(const Options& opt, Tracer& tracer) {
  return run_serving({"serve_paced", 32, 1, 4, /*paced=*/true}, opt, tracer);
}

Outcome run_serve_saturate(const Options& opt, Tracer& tracer) {
  return run_serving({"serve_saturate", 64, 2, 2, /*paced=*/false}, opt, tracer);
}

}  // namespace perfbench
