// Streaming-serving benchmark: throughput and latency at N concurrent
// radar streams, swept across batcher shard counts.
//
// Emits BENCH_serving.json (path overridable via argv[1]). For each
// stream count N in MMHAR_SERVING_STREAMS (default "1,8,64"):
//
//  * "N{n}_S{s}" rows, one per shard count s in MMHAR_SERVING_BENCH_SHARDS
//    (default "1,2,4"): the sharded StreamingHarService driven lossless
//    (kNewest policy + submit retry, so producers self-pace to shard
//    capacity and every frame is classified) over the identical frame
//    schedule as the baseline.
//      - baseline_classifications_per_sec — an in-binary naive server
//        handling each stream sequentially through the public offline
//        APIs (compute_drai_sequence + batch-1 HarModel::forward).
//      - classifications_per_sec / speedup — service vs that baseline.
//      - shard_speedup — classifications_per_sec vs the S=1 row of the
//        same N: the shard-scaling ratio tools/bench_gate gates in
//        --ratios-only mode (machine-portable, unlike absolute rates;
//        ~1.0 on a single-core runner by construction).
//      - shards_active — shards that actually claimed frames.
//    Every row cross-checks stream 0's predictions against the offline
//    baseline, so the sweep doubles as a shard-invariance check.
//
//  * one "N{n}_latency" row: a paced run (MMHAR_SERVING_RATE_HZ frames
//    per stream per second) against the background shard workers with
//    deadline scheduling armed (MMHAR_SERVING_SLO_MS, default 50 here:
//    the bench always exercises the deadline path). Latency is
//    newest-frame submit -> classified, over *delivered* results only —
//    under deadline scheduling late results are dropped, so p99 of what
//    this row reports is bounded by the SLO by construction and the
//    overload shows up in deadline_drop_rate instead of the tail.
//    Percentiles are rank-interpolated and latency_samples records how
//    many samples back them (a p99.9 over 300 samples is noise; the old
//    nearest-rank estimator silently reported p99.9 == p99).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dsp/heatmap.h"
#include "har/model.h"
#include "serving/serving.h"

namespace {

using namespace mmhar;
using Clock = std::chrono::steady_clock;

std::vector<std::size_t> parse_counts(const std::string& csv) {
  std::vector<std::size_t> out;
  std::string tok;
  for (std::size_t i = 0; i <= csv.size(); ++i) {
    if (i == csv.size() || csv[i] == ',') {
      if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoul(tok)));
      tok.clear();
    } else {
      tok.push_back(csv[i]);
    }
  }
  return out;
}

std::vector<dsp::RadarCube> make_frame_pool(const serving::ServingConfig& cfg,
                                            std::size_t count) {
  Rng rng(17);
  std::vector<dsp::RadarCube> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    dsp::RadarCube cube(cfg.num_chirps, cfg.num_antennas, cfg.num_samples);
    for (dsp::cfloat& v : cube.raw())
      v = dsp::cfloat(static_cast<float>(rng.normal()),
                      static_cast<float>(rng.normal()));
    pool.push_back(std::move(cube));
  }
  return pool;
}

std::size_t argmax_of(std::span<const float> v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i] > v[best]) best = i;
  return best;
}

// Naive per-stream sequential server: buffer the raw frames and run the
// repo's offline pipeline — compute_drai_sequence over the window plus a
// batch-1 HarModel::forward — for every arriving frame once the window is
// full. This is the straightforward application of the existing public
// API to streaming (each window is an independent offline sample); the
// serving layer's incremental per-frame DSP, cross-stream batching, and
// shard parallelism are exactly what it lacks.
double run_baseline(har::HarModel& model, const serving::ServingConfig& cfg,
                    const std::vector<dsp::RadarCube>& pool,
                    std::size_t n_streams, std::size_t frames_per_stream,
                    std::vector<std::size_t>& stream0_preds) {
  const dsp::HeatmapConfig& hm = cfg.heatmap;
  const har::HarModelConfig& mc = model.config();
  const std::size_t T = mc.frames;

  std::vector<std::vector<dsp::RadarCube>> windows(n_streams);
  std::size_t classifications = 0;

  const Clock::time_point t0 = Clock::now();
  for (std::size_t pass = 0; pass < frames_per_stream; ++pass) {
    for (std::size_t s = 0; s < n_streams; ++s) {
      std::vector<dsp::RadarCube>& w = windows[s];
      w.push_back(pool[(pass + s) % pool.size()]);
      if (w.size() < T) continue;
      const Tensor seq = dsp::compute_drai_sequence(w, hm);
      const Tensor in({1, T, hm.range_bins, hm.angle_bins},
                      std::vector<float>(seq.flat().begin(),
                                         seq.flat().end()));
      const Tensor logits = model.forward(in, /*training=*/false);
      ++classifications;
      if (s == 0) stream0_preds.push_back(argmax_of(logits.flat()));
      w.erase(w.begin());
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(classifications) / elapsed;
}

struct ThroughputResult {
  double cps = 0.0;
  std::size_t shards_active = 0;
};

// Sharded service on the same frame schedule, lossless: kNewest policy
// plus retry-until-accepted means a full ring pushes back on the producer
// instead of dropping, so every stream classifies exactly
// (frames_per_stream - T + 1) windows at every shard count — which is
// what makes the stream-0 predictions comparable against the baseline
// and across shard counts.
ThroughputResult run_serving_throughput(har::HarModel& model,
                                        serving::ServingConfig cfg,
                                        const std::vector<dsp::RadarCube>& pool,
                                        std::size_t n_streams,
                                        std::size_t num_shards,
                                        std::size_t frames_per_stream,
                                        std::vector<std::size_t>& stream0_preds) {
  cfg.max_streams = n_streams;
  cfg.num_shards = num_shards;
  cfg.drop_policy = serving::DropPolicy::kNewest;
  cfg.slo_ms = 0;  // throughput leg: lossless, no deadline drops
  serving::StreamingHarService svc(cfg, model);
  std::vector<std::size_t> sids(n_streams);
  for (std::size_t s = 0; s < n_streams; ++s) sids[s] = svc.add_stream();
  svc.start();

  const std::size_t T = model.config().frames;
  const std::uint64_t expected =
      frames_per_stream >= T
          ? static_cast<std::uint64_t>(n_streams) * (frames_per_stream - T + 1)
          : 0;

  std::vector<serving::Classification> buf(cfg.result_depth);
  std::uint64_t collected = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t pass = 0; pass < frames_per_stream; ++pass) {
    for (std::size_t s = 0; s < n_streams; ++s) {
      while (!svc.submit_frame(sids[s], pool[(pass + s) % pool.size()]))
        std::this_thread::yield();
      // Drain opportunistically so result rings never overflow.
      const std::size_t n =
          svc.poll(sids[s], std::span<serving::Classification>(buf));
      collected += n;
      if (s == 0)
        for (std::size_t i = 0; i < n; ++i)
          stream0_preds.push_back(buf[i].predicted);
    }
  }
  while (collected < expected) {
    for (std::size_t s = 0; s < n_streams; ++s) {
      const std::size_t n =
          svc.poll(sids[s], std::span<serving::Classification>(buf));
      collected += n;
      if (s == 0)
        for (std::size_t i = 0; i < n; ++i)
          stream0_preds.push_back(buf[i].predicted);
    }
    std::this_thread::yield();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  svc.stop();

  ThroughputResult r;
  r.cps = static_cast<double>(collected) / elapsed;
  for (std::size_t i = 0; i < num_shards; ++i) {
    const serving::ShardStats st = svc.shard_stats(i);
    if (st.frames > 0) ++r.shards_active;
    std::printf("    shard %zu: %llu cycles, %llu frames, %llu cls\n", i,
                static_cast<unsigned long long>(st.cycles),
                static_cast<unsigned long long>(st.frames),
                static_cast<unsigned long long>(st.classifications));
  }
  return r;
}

struct LatencyResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  std::size_t samples = 0;
  double drop_rate = 0.0;
  double deadline_drop_rate = 0.0;
  std::uint64_t deepest_queue = 0;
  // Fault-containment counters (ServiceHealth): all zero with the
  // injector disarmed, emitted so chaos-mode runs of the bench surface
  // their fault attribution in the same report. None of these keys ends
  // in "speedup", so bench_gate --ratios-only never gates on them.
  std::uint64_t quarantined = 0;
  std::uint64_t faults = 0;
};

// Rank-based linear interpolation between order statistics (the
// "exclusive" variant over q*(n-1)): with few samples a high quantile
// lands between ranks instead of snapping to the max, so p99.9 no longer
// silently duplicates p99 on short runs.
double percentile_ms(const std::vector<std::int64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted_ns.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const double a = static_cast<double>(sorted_ns[lo]);
  const double b = static_cast<double>(
      sorted_ns[std::min(lo + 1, sorted_ns.size() - 1)]);
  return (a + frac * (b - a)) / 1e6;
}

// Paced run against the background shard workers with the deadline
// scheduler armed: producers tick at rate_hz per stream; late queued
// frames and late results are dropped instead of delivered.
LatencyResult run_latency(har::HarModel& model, serving::ServingConfig cfg,
                          const std::vector<dsp::RadarCube>& pool,
                          std::size_t n_streams, std::size_t num_shards,
                          std::size_t frames_per_stream, long rate_hz,
                          long slo_ms) {
  cfg.max_streams = n_streams;
  cfg.num_shards = num_shards;
  cfg.slo_ms = slo_ms;
  serving::StreamingHarService svc(cfg, model);
  std::vector<std::size_t> sids(n_streams);
  for (std::size_t s = 0; s < n_streams; ++s) sids[s] = svc.add_stream();
  svc.start();

  std::vector<std::int64_t> latencies;
  latencies.reserve(n_streams * frames_per_stream);
  std::vector<serving::Classification> buf(cfg.result_depth);
  const auto period =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          1.0 / static_cast<double>(rate_hz)));
  Clock::time_point next = Clock::now();
  for (std::size_t pass = 0; pass < frames_per_stream; ++pass) {
    for (std::size_t s = 0; s < n_streams; ++s)
      svc.submit_frame(sids[s], pool[(pass + s) % pool.size()]);
    for (std::size_t s = 0; s < n_streams; ++s) {
      const std::size_t n =
          svc.poll(sids[s], std::span<serving::Classification>(buf));
      for (std::size_t i = 0; i < n; ++i)
        latencies.push_back(buf[i].latency_ns);
    }
    next += period;
    const Clock::time_point now = Clock::now();
    if (next > now)
      std::this_thread::sleep_until(next);
    else
      next = now;  // behind schedule: don't try to catch up in a burst
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  svc.stop();
  while (svc.run_cycle() > 0) {
  }

  LatencyResult r;
  const serving::ServiceHealth health = svc.health();
  r.quarantined = health.quarantined;
  r.faults = health.errors;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t deadline_dropped = 0;
  for (std::size_t s = 0; s < n_streams; ++s) {
    std::size_t n = 0;
    do {
      n = svc.poll(sids[s], std::span<serving::Classification>(buf));
      for (std::size_t i = 0; i < n; ++i)
        latencies.push_back(buf[i].latency_ns);
    } while (n == buf.size());
    const serving::StreamStats st = svc.stream_stats(sids[s]);
    accepted += st.accepted;
    dropped += st.dropped_frames;
    deadline_dropped += st.deadline_dropped;
    r.deepest_queue = std::max(r.deepest_queue, st.deepest_queue);
  }
  std::sort(latencies.begin(), latencies.end());
  r.p50_ms = percentile_ms(latencies, 0.50);
  r.p99_ms = percentile_ms(latencies, 0.99);
  r.p999_ms = percentile_ms(latencies, 0.999);
  r.samples = latencies.size();
  if (accepted > 0) {
    r.drop_rate =
        static_cast<double>(dropped) / static_cast<double>(accepted);
    r.deadline_drop_rate =
        static_cast<double>(deadline_dropped) / static_cast<double>(accepted);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  const std::vector<std::size_t> stream_counts =
      parse_counts(env_string("MMHAR_SERVING_STREAMS", "1,8,64"));
  const std::vector<std::size_t> shard_counts =
      parse_counts(env_string("MMHAR_SERVING_BENCH_SHARDS", "1,2,4"));
  const std::size_t frames_per_stream =
      static_cast<std::size_t>(env_int("MMHAR_SERVING_FRAMES", 48));
  const long rate_hz = env_int("MMHAR_SERVING_RATE_HZ", 30);
  // The latency leg always exercises deadline scheduling; a plain
  // MMHAR_SERVING_SLO_MS=0 (the service default) would skip the code
  // path the leg exists to measure.
  long slo_ms = env_int("MMHAR_SERVING_SLO_MS", 50);
  if (slo_ms <= 0) slo_ms = 50;
  if (stream_counts.empty() || shard_counts.empty() ||
      frames_per_stream == 0 || rate_hz <= 0) {
    std::fprintf(stderr, "bad MMHAR_SERVING_* configuration\n");
    return 1;
  }

  har::HarModelConfig mc;  // paper-scale model: T=32 frames of 32x32
  har::HarModel model(mc);
  serving::ServingConfig cfg = serving::ServingConfig::from_env();
  const std::vector<dsp::RadarCube> pool = make_frame_pool(cfg, 32);
  const std::size_t latency_shards =
      *std::max_element(shard_counts.begin(), shard_counts.end());

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"serving\",\n"
               "  \"threads\": %ld,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"pool_threads\": %zu,\n"
               "  \"frames_per_stream\": %zu,\n"
               "  \"rate_hz\": %ld,\n"
               "  \"slo_ms\": %ld",
               env_int("MMHAR_THREADS", 0),
               std::thread::hardware_concurrency(), global_pool().size(),
               frames_per_stream, rate_hz, slo_ms);

  std::vector<std::size_t> base_preds;
  std::vector<std::size_t> serve_preds;
  for (const std::size_t n_streams : stream_counts) {
    base_preds.clear();
    const double base_cps = run_baseline(model, cfg, pool, n_streams,
                                         frames_per_stream, base_preds);
    double s1_cps = 0.0;
    for (const std::size_t n_shards : shard_counts) {
      std::printf("N=%zu S=%zu:\n", n_streams, n_shards);
      serve_preds.clear();
      const ThroughputResult tr =
          run_serving_throughput(model, cfg, pool, n_streams, n_shards,
                                 frames_per_stream, serve_preds);
      // Shard-invariance + correctness cross-check: the lossless run
      // must classify stream 0 exactly like the offline pipeline, at
      // every shard count (results arrive in order per stream).
      if (serve_preds != base_preds) {
        std::fprintf(stderr,
                     "serving/baseline prediction mismatch at N=%zu S=%zu\n",
                     n_streams, n_shards);
        std::fclose(f);
        return 1;
      }
      if (n_shards == shard_counts.front()) s1_cps = tr.cps;
      const double speedup = tr.cps / base_cps;
      const double shard_speedup = s1_cps > 0.0 ? tr.cps / s1_cps : 0.0;
      std::fprintf(f,
                   ",\n  \"N%zu_S%zu\": {"
                   "\"baseline_classifications_per_sec\": %.2f, "
                   "\"classifications_per_sec\": %.2f, \"speedup\": %.2f, "
                   "\"shard_speedup\": %.3f, \"shards_active\": %zu}",
                   n_streams, n_shards, base_cps, tr.cps, speedup,
                   shard_speedup, tr.shards_active);
      std::printf(
          "  baseline %.1f cls/s, serving %.1f cls/s (%.2fx offline, "
          "%.2fx vs S=%zu), %zu shard(s) active\n",
          base_cps, tr.cps, speedup, shard_speedup, shard_counts.front(),
          tr.shards_active);
    }
    const LatencyResult lat =
        run_latency(model, cfg, pool, n_streams, latency_shards,
                    frames_per_stream, rate_hz, slo_ms);
    std::fprintf(f,
                 ",\n  \"N%zu_latency\": {\"shards\": %zu, "
                 "\"latency_samples\": %zu, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"p999_ms\": %.3f, \"drop_rate\": %.4f, "
                 "\"deadline_drop_rate\": %.4f, \"deepest_queue\": %llu, "
                 "\"quarantined\": %llu, \"faults\": %llu}",
                 n_streams, latency_shards, lat.samples, lat.p50_ms,
                 lat.p99_ms, lat.p999_ms, lat.drop_rate,
                 lat.deadline_drop_rate,
                 static_cast<unsigned long long>(lat.deepest_queue),
                 static_cast<unsigned long long>(lat.quarantined),
                 static_cast<unsigned long long>(lat.faults));
    std::printf(
        "N=%zu latency (S=%zu, SLO %ld ms): p50 %.2f ms, p99 %.2f ms, "
        "p99.9 %.2f ms over %zu samples, drop %.2f%%, deadline-drop %.2f%%, "
        "deepest queue %llu\n",
        n_streams, latency_shards, slo_ms, lat.p50_ms, lat.p99_ms,
        lat.p999_ms, lat.samples, 100.0 * lat.drop_rate,
        100.0 * lat.deadline_drop_rate,
        static_cast<unsigned long long>(lat.deepest_queue));
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("-> %s\n", out_path);
  return 0;
}
