// Streaming serving layer: offline equivalence, batching determinism,
// shard-count invariance, deadline scheduling, multi-model routing,
// steady-state zero-allocation, and backpressure accounting.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/alloc_count.h"
#include "common/rng.h"
#include "dsp/heatmap.h"
#include "har/model.h"
#include "serving/affinity.h"
#include "serving/serving.h"

namespace mmhar::serving {
namespace {

constexpr std::size_t kChirps = 8;
constexpr std::size_t kAntennas = 8;
constexpr std::size_t kSamples = 32;

har::HarModelConfig test_model_config() {
  har::HarModelConfig mc;
  mc.frames = 8;
  mc.height = 16;
  mc.width = 16;
  mc.conv1_channels = 4;
  mc.conv2_channels = 8;
  mc.feature_dim = 32;
  mc.lstm_hidden = 32;
  mc.num_classes = 4;
  mc.seed = 7;
  return mc;
}

ServingConfig test_serving_config() {
  ServingConfig cfg;
  cfg.max_streams = 64;
  cfg.queue_depth = 4;
  cfg.batch_max = 64;
  cfg.result_depth = 64;
  cfg.num_chirps = kChirps;
  cfg.num_antennas = kAntennas;
  cfg.num_samples = kSamples;
  cfg.heatmap.range_bins = 16;
  cfg.heatmap.angle_bins = 16;
  return cfg;
}

dsp::RadarCube random_cube(Rng& rng) {
  dsp::RadarCube cube(kChirps, kAntennas, kSamples);
  for (dsp::cfloat& v : cube.raw())
    v = dsp::cfloat(static_cast<float>(rng.uniform(-1.0, 1.0)),
                    static_cast<float>(rng.uniform(-1.0, 1.0)));
  return cube;
}

std::vector<dsp::RadarCube> random_frames(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dsp::RadarCube> frames;
  frames.reserve(n);
  for (std::size_t i = 0; i < n; ++i) frames.push_back(random_cube(rng));
  return frames;
}

// Submit a frame sequence to one stream, pumping a batcher cycle after
// every submit, and collect every classification produced.
std::vector<Classification> run_sequence(StreamingHarService& svc,
                                         std::size_t stream,
                                         const std::vector<dsp::RadarCube>& fs) {
  std::vector<Classification> out;
  std::array<Classification, 8> buf;
  for (const dsp::RadarCube& f : fs) {
    EXPECT_TRUE(svc.submit_frame(stream, f)) << "unexpected rejection";
    svc.run_cycle();
    const std::size_t n = svc.poll(stream, std::span<Classification>(buf));
    out.insert(out.end(), buf.begin(), buf.begin() + n);
  }
  return out;
}

void expect_bit_identical(const std::vector<Classification>& a,
                          const std::vector<Classification>& b,
                          std::size_t num_classes) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].predicted, b[i].predicted) << "result " << i;
    EXPECT_EQ(0, std::memcmp(a[i].logits, b[i].logits,
                             num_classes * sizeof(float)))
        << "logits differ bitwise at result " << i;
  }
}

// Every result must match the offline compute_drai_sequence +
// HarModel::forward pipeline over the same sliding window, with and
// without the dB map (serving converts each frame as it lands in the
// ring, offline converts the whole sequence). The DSP kernels differ
// between the two paths, so FP contraction may fuse differently under
// -march=native: compare with a small tolerance and exact argmax
// instead of bitwise.
void expect_matches_offline_pipeline(bool log_scale) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.heatmap.log_scale = log_scale;
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();

  const std::size_t total = mc.frames + 3;  // 4 sliding windows
  const std::vector<dsp::RadarCube> frames = random_frames(total, 11);
  std::vector<Classification> results;
  std::array<Classification, 8> buf;
  for (const dsp::RadarCube& f : frames) {
    ASSERT_TRUE(svc.submit_frame(sid, f));
    svc.run_cycle();
    const std::size_t n = svc.poll(sid, std::span<Classification>(buf));
    results.insert(results.end(), buf.begin(), buf.begin() + n);
  }
  ASSERT_EQ(results.size(), total - mc.frames + 1);

  for (std::size_t k = 0; k < results.size(); ++k) {
    const std::vector<dsp::RadarCube> window(frames.begin() + k,
                                             frames.begin() + k + mc.frames);
    const Tensor seq = dsp::compute_drai_sequence(window, cfg.heatmap);
    const Tensor batch({1, mc.frames, mc.height, mc.width},
                       std::vector<float>(seq.flat().begin(),
                                          seq.flat().end()));
    const Tensor logits = model.forward(batch, /*training=*/false);
    std::size_t best = 0;
    for (std::size_t c = 1; c < mc.num_classes; ++c)
      if (logits.flat()[c] > logits.flat()[best]) best = c;
    EXPECT_EQ(results[k].predicted, best) << "window " << k;
    EXPECT_EQ(results[k].frame_seq, k + mc.frames - 1);
    EXPECT_GE(results[k].latency_ns, 0);
    for (std::size_t c = 0; c < mc.num_classes; ++c)
      EXPECT_NEAR(results[k].logits[c], logits.flat()[c], 2e-4F)
          << "window " << k << " class " << c;
  }
}

TEST(Serving, MatchesOfflinePipeline) {
  expect_matches_offline_pipeline(/*log_scale=*/false);
}

TEST(Serving, MatchesOfflinePipelineLogScale) {
  expect_matches_offline_pipeline(/*log_scale=*/true);
}

TEST(Serving, DeterministicAcrossBatchComposition) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  const ServingConfig cfg = test_serving_config();
  const std::size_t n_frames = mc.frames + 4;
  const std::vector<dsp::RadarCube> frames = random_frames(n_frames, 23);

  // Run A: the stream served alone.
  std::vector<Classification> alone;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    alone = run_sequence(svc, sid, frames);
  }
  ASSERT_EQ(alone.size(), n_frames - mc.frames + 1);

  // Run B: the same frames for stream 0 while 63 other streams with
  // different data share every batcher cycle.
  std::vector<Classification> crowded;
  {
    StreamingHarService svc(cfg, model);
    std::vector<std::size_t> sids(cfg.max_streams);
    for (std::size_t s = 0; s < cfg.max_streams; ++s) sids[s] = svc.add_stream();
    std::vector<std::vector<dsp::RadarCube>> other;
    for (std::size_t s = 1; s < cfg.max_streams; ++s)
      other.push_back(random_frames(n_frames, 1000 + s));
    std::array<Classification, 8> buf;
    for (std::size_t i = 0; i < n_frames; ++i) {
      ASSERT_TRUE(svc.submit_frame(sids[0], frames[i]));
      for (std::size_t s = 1; s < cfg.max_streams; ++s)
        ASSERT_TRUE(svc.submit_frame(sids[s], other[s - 1][i]));
      svc.run_cycle();
      const std::size_t n = svc.poll(sids[0], std::span<Classification>(buf));
      crowded.insert(crowded.end(), buf.begin(), buf.begin() + n);
    }
  }
  expect_bit_identical(alone, crowded, mc.num_classes);

  // Run C: frames f0..f3 are admitted and then evicted (kOldest) before
  // the batcher ever runs; the surviving sequence f4.. must classify
  // bit-identically to Run D, which submits only the survivors.
  std::vector<Classification> after_drops;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    const std::vector<dsp::RadarCube> junk = random_frames(cfg.queue_depth, 99);
    for (const dsp::RadarCube& f : junk) ASSERT_TRUE(svc.submit_frame(sid, f));
    // The queue is full; the first queue_depth real frames evict the junk.
    for (std::size_t i = 0; i < cfg.queue_depth; ++i)
      ASSERT_TRUE(svc.submit_frame(sid, frames[i]));
    svc.run_cycle();
    std::array<Classification, 8> buf;
    std::size_t n = svc.poll(sid, std::span<Classification>(buf));
    after_drops.insert(after_drops.end(), buf.begin(), buf.begin() + n);
    for (std::size_t i = cfg.queue_depth; i < n_frames; ++i) {
      ASSERT_TRUE(svc.submit_frame(sid, frames[i]));
      svc.run_cycle();
      n = svc.poll(sid, std::span<Classification>(buf));
      after_drops.insert(after_drops.end(), buf.begin(), buf.begin() + n);
    }
    const StreamStats st = svc.stream_stats(sid);
    EXPECT_EQ(st.dropped_frames, cfg.queue_depth);
  }
  std::vector<Classification> survivors_only;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    survivors_only = run_sequence(svc, sid, frames);
  }
  // Sequence numbers differ (Run C admitted the junk first), but the
  // classifications themselves must be bit-identical.
  expect_bit_identical(after_drops, survivors_only, mc.num_classes);
}

TEST(Serving, SteadyStateIsAllocationFree) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 4;
  StreamingHarService svc(cfg, model);
  std::vector<std::size_t> sids;
  for (std::size_t s = 0; s < cfg.max_streams; ++s)
    sids.push_back(svc.add_stream());

  const std::size_t warm = mc.frames + 2;
  const std::size_t steady = 16;
  std::vector<std::vector<dsp::RadarCube>> frames;
  for (std::size_t s = 0; s < cfg.max_streams; ++s)
    frames.push_back(random_frames(warm + steady, 400 + s));

  std::array<Classification, 8> buf;
  for (std::size_t i = 0; i < warm; ++i) {
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      ASSERT_TRUE(svc.submit_frame(sids[s], frames[s][i]));
    svc.run_cycle();
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      svc.poll(sids[s], std::span<Classification>(buf));
  }
  ASSERT_GT(svc.stream_stats(sids[0]).classifications, 0u);

  // Steady state: the whole submit -> DSP -> inference -> poll path must
  // not touch the heap at all.
  const std::uint64_t before = alloc_count();
  for (std::size_t i = warm; i < warm + steady; ++i) {
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      ASSERT_TRUE(svc.submit_frame(sids[s], frames[s][i]));
    svc.run_cycle();
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      svc.poll(sids[s], std::span<Classification>(buf));
  }
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state serving path allocated";
}

TEST(Serving, OldestDropPolicyAccounting) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 1;
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();

  const std::vector<dsp::RadarCube> frames = random_frames(10, 5);
  for (const dsp::RadarCube& f : frames)
    EXPECT_TRUE(svc.submit_frame(sid, f));  // kOldest always admits
  StreamStats st = svc.stream_stats(sid);
  EXPECT_EQ(st.submitted, 10u);
  EXPECT_EQ(st.accepted, 10u);
  EXPECT_EQ(st.dropped_frames, 10u - cfg.queue_depth);
  EXPECT_EQ(st.rejected_frames, 0u);

  // Only queue_depth frames survive — not enough for a T-frame window.
  EXPECT_EQ(svc.run_cycle(), cfg.queue_depth);
  st = svc.stream_stats(sid);
  EXPECT_EQ(st.classifications, 0u);
}

TEST(Serving, NewestDropPolicyRejects) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 1;
  cfg.drop_policy = DropPolicy::kNewest;
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();

  const std::vector<dsp::RadarCube> frames = random_frames(7, 6);
  std::size_t admitted = 0;
  for (const dsp::RadarCube& f : frames)
    if (svc.submit_frame(sid, f)) ++admitted;
  EXPECT_EQ(admitted, cfg.queue_depth);
  const StreamStats st = svc.stream_stats(sid);
  EXPECT_EQ(st.accepted, cfg.queue_depth);
  EXPECT_EQ(st.rejected_frames, 7u - cfg.queue_depth);
  EXPECT_EQ(st.dropped_frames, 0u);
}

TEST(Serving, ResultRingEvictsOldest) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 1;
  cfg.result_depth = 2;
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();

  const std::size_t total = mc.frames + 4;  // 5 windows, ring holds 2
  const std::vector<dsp::RadarCube> frames = random_frames(total, 8);
  for (const dsp::RadarCube& f : frames) {
    ASSERT_TRUE(svc.submit_frame(sid, f));
    svc.run_cycle();
  }
  const StreamStats st = svc.stream_stats(sid);
  EXPECT_EQ(st.classifications, 5u);
  EXPECT_EQ(st.dropped_results, 3u);
  std::array<Classification, 8> buf;
  const std::size_t n = svc.poll(sid, std::span<Classification>(buf));
  ASSERT_EQ(n, 2u);
  // The survivors are the two newest windows.
  EXPECT_EQ(buf[0].frame_seq, total - 2);
  EXPECT_EQ(buf[1].frame_seq, total - 1);
}

TEST(Serving, ConfigValidation) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.heatmap.range_bins = 8;  // model expects 16
  EXPECT_THROW((StreamingHarService(cfg, model)), Error);
  cfg = test_serving_config();
  cfg.heatmap.normalize_per_sequence = false;
  EXPECT_THROW((StreamingHarService(cfg, model)), Error);
  cfg = test_serving_config();
  cfg.queue_depth = 0;
  EXPECT_THROW((StreamingHarService(cfg, model)), Error);
  cfg = test_serving_config();
  cfg.num_shards = 0;
  EXPECT_THROW((StreamingHarService(cfg, model)), Error);
  cfg = test_serving_config();
  cfg.slo_ms = -1;
  EXPECT_THROW((StreamingHarService(cfg, model)), Error);

  StreamingHarService svc(test_serving_config(), model);
  EXPECT_THROW(svc.submit_frame(0, dsp::RadarCube(1, 1, 2)), Error);
  EXPECT_THROW(svc.stream_stats(0), Error);
  EXPECT_THROW(svc.shard_of_stream(0), Error);
}

// Drive `n_streams` streams through `svc`-style manual pumping at a given
// shard count and return every stream's full classification sequence.
std::vector<std::vector<Classification>> run_all_streams_manual(
    har::HarModel& model, ServingConfig cfg, std::size_t num_shards,
    const std::vector<std::vector<dsp::RadarCube>>& frames) {
  const std::size_t n_streams = frames.size();
  cfg.max_streams = n_streams;
  cfg.num_shards = num_shards;
  StreamingHarService svc(cfg, model);
  std::vector<std::size_t> sids(n_streams);
  for (std::size_t s = 0; s < n_streams; ++s) sids[s] = svc.add_stream();

  std::vector<std::vector<Classification>> out(n_streams);
  std::array<Classification, 16> buf;
  const std::size_t n_frames = frames.front().size();
  for (std::size_t i = 0; i < n_frames; ++i) {
    for (std::size_t s = 0; s < n_streams; ++s)
      EXPECT_TRUE(svc.submit_frame(sids[s], frames[s][i]));
    svc.run_cycle();
    for (std::size_t s = 0; s < n_streams; ++s) {
      const std::size_t n = svc.poll(sids[s], std::span<Classification>(buf));
      out[s].insert(out[s].end(), buf.begin(), buf.begin() + n);
    }
  }
  while (svc.run_cycle() > 0) {
  }
  for (std::size_t s = 0; s < n_streams; ++s) {
    const std::size_t n = svc.poll(sids[s], std::span<Classification>(buf));
    out[s].insert(out[s].end(), buf.begin(), buf.begin() + n);
  }
  return out;
}

// The tentpole invariant: a stream's classification sequence is
// bit-identical for ANY shard count, because shard assignment is a pure
// function of the stream id and the per-lane FFT / per-row GEMM
// arithmetic never depends on what else shares the batch.
TEST(Serving, ShardCountInvariance) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  const ServingConfig cfg = test_serving_config();
  const std::size_t n_streams = 16;
  const std::size_t n_frames = mc.frames + 5;
  std::vector<std::vector<dsp::RadarCube>> frames;
  for (std::size_t s = 0; s < n_streams; ++s)
    frames.push_back(random_frames(n_frames, 7000 + s));

  const auto ref = run_all_streams_manual(model, cfg, 1, frames);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const auto got = run_all_streams_manual(model, cfg, shards, frames);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t s = 0; s < n_streams; ++s) {
      ASSERT_EQ(got[s].size(), n_frames - mc.frames + 1)
          << "stream " << s << " at " << shards << " shards";
      expect_bit_identical(ref[s], got[s], mc.num_classes);
    }
  }
}

// Same invariant with background shard workers and interleaved producer
// threads (the TSan leg's main target): kNewest + retry-until-accepted
// makes the run lossless, so every stream's sequence must be bit-identical
// to the single-shard manually-pumped reference.
TEST(Serving, ShardCountInvarianceThreadedProducers) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.drop_policy = DropPolicy::kNewest;
  const std::size_t n_streams = 8;
  const std::size_t n_frames = mc.frames + 6;
  std::vector<std::vector<dsp::RadarCube>> frames;
  for (std::size_t s = 0; s < n_streams; ++s)
    frames.push_back(random_frames(n_frames, 8000 + s));
  const auto ref = run_all_streams_manual(model, cfg, 1, frames);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    cfg.max_streams = n_streams;
    cfg.num_shards = shards;
    StreamingHarService svc(cfg, model);
    std::vector<std::size_t> sids(n_streams);
    for (std::size_t s = 0; s < n_streams; ++s) sids[s] = svc.add_stream();
    svc.start();

    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < n_streams; ++s) {
      producers.emplace_back([&svc, &sids, &frames, s] {
        for (const dsp::RadarCube& f : frames[s])
          while (!svc.submit_frame(sids[s], f)) std::this_thread::yield();
      });
    }
    for (std::thread& t : producers) t.join();

    // Lossless by construction: wait for every expected classification.
    const std::size_t expected_per_stream = n_frames - mc.frames + 1;
    std::vector<std::vector<Classification>> got(n_streams);
    std::array<Classification, 16> buf;
    bool done = false;
    while (!done) {
      done = true;
      for (std::size_t s = 0; s < n_streams; ++s) {
        const std::size_t n =
            svc.poll(sids[s], std::span<Classification>(buf));
        got[s].insert(got[s].end(), buf.begin(), buf.begin() + n);
        if (got[s].size() < expected_per_stream) done = false;
      }
      if (!done) std::this_thread::yield();
    }
    svc.stop();

    for (std::size_t s = 0; s < n_streams; ++s) {
      ASSERT_EQ(got[s].size(), expected_per_stream)
          << "stream " << s << " at " << shards << " shards";
      expect_bit_identical(ref[s], got[s], mc.num_classes);
    }
  }
}

TEST(Serving, AffinityIsStableAndCoversShards) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.num_shards = 4;
  StreamingHarService svc(cfg, model);
  std::vector<std::size_t> per_shard(cfg.num_shards, 0);
  for (std::size_t s = 0; s < cfg.max_streams; ++s) {
    const std::size_t sid = svc.add_stream();
    const std::size_t shard = svc.shard_of_stream(sid);
    ASSERT_LT(shard, cfg.num_shards);
    // The assignment is the documented pure function of the stream id.
    EXPECT_EQ(shard, shard_for_key(sid, cfg.num_shards));
    ++per_shard[shard];
  }
  // 64 sequential ids through the splitmix64 finalizer land on every
  // shard (balance, not just coverage, is exercised by the bench).
  for (std::size_t i = 0; i < cfg.num_shards; ++i)
    EXPECT_GT(per_shard[i], 0u) << "shard " << i << " got no streams";
}

TEST(Serving, DeadlineDropsExpiredFrames) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 1;
  cfg.slo_ms = 200;
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();

  // Fill the queue, then let every queued frame age past the SLO: the
  // cycle must consume them as deadline drops, not classify them.
  const std::vector<dsp::RadarCube> stale = random_frames(cfg.queue_depth, 31);
  for (const dsp::RadarCube& f : stale) ASSERT_TRUE(svc.submit_frame(sid, f));
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(svc.run_cycle(), cfg.queue_depth);  // consumed, all expired
  StreamStats st = svc.stream_stats(sid);
  EXPECT_EQ(st.deadline_dropped, cfg.queue_depth);
  EXPECT_EQ(st.classifications, 0u);
  EXPECT_EQ(svc.shard_stats(0).deadline_dropped, cfg.queue_depth);
  EXPECT_EQ(svc.shard_stats(0).frames, 0u);  // nothing was processed

  // Fresh frames still flow: the window starts clean (expired frames
  // never reached the DSP stage, so they contributed nothing).
  const std::vector<dsp::RadarCube> fresh = random_frames(mc.frames + 1, 32);
  std::array<Classification, 8> buf;
  std::size_t got = 0;
  for (const dsp::RadarCube& f : fresh) {
    ASSERT_TRUE(svc.submit_frame(sid, f));
    svc.run_cycle();
    got += svc.poll(sid, std::span<Classification>(buf));
  }
  EXPECT_EQ(got, 2u);  // frames+1 submissions -> 2 windows
  st = svc.stream_stats(sid);
  EXPECT_EQ(st.deadline_dropped, cfg.queue_depth);  // no new drops
  EXPECT_EQ(st.classifications, 2u);
}

TEST(Serving, SloZeroDisablesDeadlines) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 1;
  cfg.slo_ms = 0;  // default: pure FIFO, frames never expire
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();
  const std::vector<dsp::RadarCube> frames = random_frames(cfg.queue_depth, 33);
  for (const dsp::RadarCube& f : frames) ASSERT_TRUE(svc.submit_frame(sid, f));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(svc.run_cycle(), cfg.queue_depth);
  const StreamStats st = svc.stream_stats(sid);
  EXPECT_EQ(st.deadline_dropped, 0u);
  EXPECT_EQ(svc.shard_stats(0).frames, cfg.queue_depth);
}

TEST(Serving, DeepestQueueWatermark) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 1;
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();
  EXPECT_EQ(svc.stream_stats(sid).deepest_queue, 0u);

  const std::vector<dsp::RadarCube> frames = random_frames(8, 34);
  ASSERT_TRUE(svc.submit_frame(sid, frames[0]));
  ASSERT_TRUE(svc.submit_frame(sid, frames[1]));
  EXPECT_EQ(svc.stream_stats(sid).deepest_queue, 2u);
  svc.run_cycle();
  // Draining doesn't lower the high-watermark, and a shallower refill
  // doesn't raise it.
  ASSERT_TRUE(svc.submit_frame(sid, frames[2]));
  EXPECT_EQ(svc.stream_stats(sid).deepest_queue, 2u);
  svc.run_cycle();
  for (std::size_t i = 3; i < 3 + cfg.queue_depth; ++i)
    ASSERT_TRUE(svc.submit_frame(sid, frames[i]));
  EXPECT_EQ(svc.stream_stats(sid).deepest_queue, cfg.queue_depth);
}

// Multi-model A/B: streams keyed to a second registered model must
// classify bit-identically to a single-model service built on that model
// alone — per-model micro-batch grouping cannot leak across versions.
TEST(Serving, MultiModelAbRouting) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel clean(mc);
  har::HarModelConfig mcb = mc;
  mcb.seed = 1234;  // same architecture, different weights ("backdoored")
  har::HarModel backdoored(mcb);

  const std::size_t n_streams = 6;
  const std::size_t n_frames = mc.frames + 4;
  std::vector<std::vector<dsp::RadarCube>> frames;
  for (std::size_t s = 0; s < n_streams; ++s)
    frames.push_back(random_frames(n_frames, 9000 + s));

  // References: every stream served by one single-model service each.
  const auto ref_clean = run_all_streams_manual(clean, test_serving_config(),
                                                1, frames);
  const auto ref_back = run_all_streams_manual(
      backdoored, test_serving_config(), 1, frames);

  // A/B service: even streams on the clean model, odd on the backdoored
  // one, two shards so model grouping and shard grouping compose.
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = n_streams;
  cfg.num_shards = 2;
  StreamingHarService svc(cfg, clean);
  const std::size_t backdoored_id = svc.add_model(backdoored);
  EXPECT_EQ(backdoored_id, 1u);
  EXPECT_EQ(svc.num_models(), 2u);
  std::vector<std::size_t> sids(n_streams);
  for (std::size_t s = 0; s < n_streams; ++s)
    sids[s] = svc.add_stream(s % 2 == 0 ? 0 : backdoored_id);

  std::vector<std::vector<Classification>> got(n_streams);
  std::array<Classification, 16> buf;
  for (std::size_t i = 0; i < n_frames; ++i) {
    for (std::size_t s = 0; s < n_streams; ++s)
      ASSERT_TRUE(svc.submit_frame(sids[s], frames[s][i]));
    svc.run_cycle();
    for (std::size_t s = 0; s < n_streams; ++s) {
      const std::size_t n = svc.poll(sids[s], std::span<Classification>(buf));
      got[s].insert(got[s].end(), buf.begin(), buf.begin() + n);
    }
  }
  for (std::size_t s = 0; s < n_streams; ++s) {
    const auto& ref = s % 2 == 0 ? ref_clean[s] : ref_back[s];
    ASSERT_EQ(got[s].size(), n_frames - mc.frames + 1) << "stream " << s;
    expect_bit_identical(ref, got[s], mc.num_classes);
  }
}

TEST(Serving, MultiModelValidation) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  StreamingHarService svc(cfg, model);

  // Architecture mismatch is refused (seed is the only fungible field).
  har::HarModelConfig other = mc;
  other.num_classes = mc.num_classes + 1;
  har::HarModel wrong(other);
  EXPECT_THROW(svc.add_model(wrong), Error);

  // Unknown model id at add_stream is refused.
  EXPECT_THROW(svc.add_stream(1), Error);

  // Registration is setup-phase only: once workers run, the registry is
  // read lock-free and must not change.
  har::HarModelConfig sameb = mc;
  sameb.seed = 77;
  har::HarModel same(sameb);
  svc.start();
  EXPECT_THROW(svc.add_model(same), Error);
  svc.stop();
  EXPECT_EQ(svc.add_model(same), 1u);  // legal again after stop()
}

// Zero steady-state allocation must survive the sharded, multi-model
// configuration: every shard owns preallocated arenas and the per-model
// gather/scatter reuses them.
TEST(Serving, SteadyStateIsAllocationFreeShardedMultiModel) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel clean(mc);
  har::HarModelConfig mcb = mc;
  mcb.seed = 4321;
  har::HarModel backdoored(mcb);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 4;
  cfg.num_shards = 2;
  cfg.slo_ms = 1000;  // deadline path armed (nothing actually expires)
  StreamingHarService svc(cfg, clean);
  const std::size_t b = svc.add_model(backdoored);
  std::vector<std::size_t> sids;
  for (std::size_t s = 0; s < cfg.max_streams; ++s)
    sids.push_back(svc.add_stream(s % 2 == 0 ? 0 : b));

  const std::size_t warm = mc.frames + 2;
  const std::size_t steady = 16;
  std::vector<std::vector<dsp::RadarCube>> frames;
  for (std::size_t s = 0; s < cfg.max_streams; ++s)
    frames.push_back(random_frames(warm + steady, 600 + s));

  std::array<Classification, 8> buf;
  for (std::size_t i = 0; i < warm; ++i) {
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      ASSERT_TRUE(svc.submit_frame(sids[s], frames[s][i]));
    svc.run_cycle();
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      svc.poll(sids[s], std::span<Classification>(buf));
  }
  ASSERT_GT(svc.stream_stats(sids[0]).classifications, 0u);
  ASSERT_GT(svc.stream_stats(sids[1]).classifications, 0u);

  const std::uint64_t before = alloc_count();
  for (std::size_t i = warm; i < warm + steady; ++i) {
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      ASSERT_TRUE(svc.submit_frame(sids[s], frames[s][i]));
    svc.run_cycle();
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      svc.poll(sids[s], std::span<Classification>(buf));
  }
  EXPECT_EQ(alloc_count() - before, 0u)
      << "sharded multi-model steady-state serving path allocated";
}

TEST(Serving, ShardStatsAccounting) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 8;
  cfg.num_shards = 2;
  StreamingHarService svc(cfg, model);
  std::vector<std::size_t> sids;
  for (std::size_t s = 0; s < cfg.max_streams; ++s)
    sids.push_back(svc.add_stream());

  const std::size_t n_frames = mc.frames + 2;
  std::vector<std::vector<dsp::RadarCube>> frames;
  for (std::size_t s = 0; s < cfg.max_streams; ++s)
    frames.push_back(random_frames(n_frames, 500 + s));
  std::array<Classification, 16> buf;
  for (std::size_t i = 0; i < n_frames; ++i) {
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      ASSERT_TRUE(svc.submit_frame(sids[s], frames[s][i]));
    svc.run_cycle();
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      svc.poll(sids[s], std::span<Classification>(buf));
  }

  std::uint64_t shard_frames = 0;
  std::uint64_t shard_cls = 0;
  for (std::size_t i = 0; i < cfg.num_shards; ++i) {
    const ShardStats st = svc.shard_stats(i);
    EXPECT_GT(st.frames, 0u) << "shard " << i << " never claimed";
    EXPECT_GT(st.cycles, 0u);
    shard_frames += st.frames;
    shard_cls += st.classifications;
  }
  std::uint64_t accepted = 0;
  std::uint64_t cls = 0;
  for (std::size_t s = 0; s < cfg.max_streams; ++s) {
    const StreamStats st = svc.stream_stats(sids[s]);
    accepted += st.accepted;
    cls += st.classifications;
  }
  EXPECT_EQ(shard_frames, accepted);
  EXPECT_EQ(shard_cls, cls);
  EXPECT_THROW(svc.shard_stats(cfg.num_shards), Error);
}

// A shard worker sleeps untimed and wakes when its submit epoch moves.
// First, a backlog queued before start() must drain from the one wake-up
// through back-to-back full cycles (batch_max = 1). Then strict submit →
// result round trips, one frame in flight at a time, each under a 1 s
// deadline: with no idle poll to fall back on, a single lost wake-up
// fails this test instead of costing latency.
TEST(Serving, EveryAdmittedFrameWakesItsWorker) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 1;
  cfg.batch_max = 1;
  cfg.queue_depth = mc.frames;
  cfg.drop_policy = DropPolicy::kNewest;
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();
  const std::vector<dsp::RadarCube> pool = random_frames(mc.frames + 3, 4242);
  const std::size_t backlog = mc.frames - 1;  // one short of a window
  for (std::size_t i = 0; i < backlog; ++i)
    ASSERT_TRUE(svc.submit_frame(sid, pool[i]));
  svc.start();
  const auto drained_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (svc.shard_stats(0).frames < backlog &&
         std::chrono::steady_clock::now() < drained_by)
    std::this_thread::yield();
  ASSERT_EQ(svc.shard_stats(0).frames, backlog)
      << "a queued backlog was not drained within 1 s";

  constexpr std::size_t kRoundTrips = 500;
  std::array<Classification, 4> buf;
  for (std::size_t i = backlog; i < backlog + kRoundTrips; ++i) {
    ASSERT_TRUE(svc.submit_frame(sid, pool[i % pool.size()]))
        << "frame " << i << " refused with nothing in flight";
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    std::size_t n = 0;
    while ((n = svc.poll(sid, std::span<Classification>(buf))) == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    ASSERT_EQ(n, 1u) << "frame " << i
                     << " got no result within 1 s (lost wake-up)";
    EXPECT_EQ(buf[0].frame_seq, i);
  }
  svc.stop();
}

// Background batcher + concurrent producers; primarily a TSan target.
TEST(Serving, ConcurrentProducersSmoke) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_streams = 4;
  StreamingHarService svc(cfg, model);
  std::vector<std::size_t> sids;
  for (std::size_t s = 0; s < cfg.max_streams; ++s)
    sids.push_back(svc.add_stream());
  svc.start();

  constexpr std::size_t kFramesPerStream = 24;
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < cfg.max_streams; ++s) {
    producers.emplace_back([&svc, &sids, s] {
      Rng rng(900 + s);
      for (std::size_t i = 0; i < kFramesPerStream; ++i)
        svc.submit_frame(sids[s], random_cube(rng));
    });
  }
  std::array<Classification, 16> buf;
  std::size_t polled = 0;
  for (int spins = 0; spins < 200; ++spins) {
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      polled += svc.poll(sids[s], std::span<Classification>(buf));
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  svc.stop();
  while (svc.run_cycle() > 0) {  // drain (manual pump is legal after stop)
  }

  for (std::size_t s = 0; s < cfg.max_streams; ++s) {
    const StreamStats st = svc.stream_stats(s);
    EXPECT_EQ(st.submitted, kFramesPerStream);
    EXPECT_EQ(st.accepted + st.rejected_frames, st.submitted);
  }

  // On a loaded single-core box the producers can outrun the batcher so
  // badly that no window ever fills during the threaded phase; finish
  // with a synchronous pumped phase so the classification assertions are
  // deterministic.
  Rng rng(1234);
  for (std::size_t i = 0; i < mc.frames; ++i) {
    const dsp::RadarCube cube = random_cube(rng);
    for (std::size_t s = 0; s < cfg.max_streams; ++s)
      ASSERT_TRUE(svc.submit_frame(sids[s], cube));
    svc.run_cycle();
  }
  std::uint64_t classified = 0;
  for (std::size_t s = 0; s < cfg.max_streams; ++s) {
    polled += svc.poll(sids[s], std::span<Classification>(buf));
    const StreamStats st = svc.stream_stats(s);
    classified += st.classifications;
  }
  EXPECT_GT(classified, 0u);
  EXPECT_GT(polled, 0u);

  // Restartable after stop().
  svc.start();
  svc.stop();
}

}  // namespace
}  // namespace mmhar::serving
