// Serving fault containment (DESIGN.md §6c): poison-frame quarantine,
// per-stream degradation with bit-identical survivors, suspension +
// recovery probes, in-place containment of a crashing shard worker,
// read-side reporting of a stalled one, and a multi-producer chaos run
// with every injection site armed at once.
//
// Injected faults exercise the SAME paths a hostile producer or a broken
// kernel would: serving.frame_poison writes a real NaN into a claimed
// payload, serving.infer_fail kills one micro-batch row, and
// serving.shard_crash / serving.shard_stall throw inside or block a
// worker's cycle.
// Everything here allocates on the armed cold paths by design, so this
// binary is excluded from the RTSan CI leg (see .github/workflows/ci.yml);
// the zero-allocation steady state with the injector DISARMED stays
// covered by test_serving's SteadyStateIsAllocationFree.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/finite_check.h"
#include "common/rng.h"
#include "dsp/heatmap.h"
#include "har/model.h"
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

// What a hostile (or broken) producer hands the service: a frame whose
// payload carries a NaN sample.
dsp::RadarCube poisoned_cube(std::uint64_t seed) {
  Rng rng(seed);
  dsp::RadarCube cube = random_cube(rng);
  cube.raw()[cube.raw().size() / 2] =
      dsp::cfloat(std::numeric_limits<float>::quiet_NaN(), 0.25F);
  return cube;
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

// Every result in `got` must bitwise-match the reference result carrying
// the same frame_seq; `ref` may additionally contain exactly the seqs in
// `missing` (the rows sacrificed by containment).
void expect_subset_by_seq(const std::vector<Classification>& got,
                          const std::vector<Classification>& ref,
                          std::size_t num_classes,
                          const std::vector<std::uint64_t>& missing) {
  ASSERT_EQ(got.size() + missing.size(), ref.size());
  std::size_t gi = 0;
  for (const Classification& r : ref) {
    bool sacrificed = false;
    for (const std::uint64_t seq : missing) sacrificed |= seq == r.frame_seq;
    if (sacrificed) continue;
    ASSERT_LT(gi, got.size());
    EXPECT_EQ(got[gi].frame_seq, r.frame_seq);
    EXPECT_EQ(got[gi].predicted, r.predicted);
    EXPECT_EQ(0, std::memcmp(got[gi].logits, r.logits,
                             num_classes * sizeof(float)))
        << "logits differ bitwise at seq " << r.frame_seq;
    ++gi;
  }
  EXPECT_EQ(gi, got.size());
}

// Lossless submit against a running service: retry until admitted (used
// with DropPolicy::kNewest so backpressure rejects instead of evicting).
void submit_blocking(StreamingHarService& svc, std::size_t sid,
                     const dsp::RadarCube& f) {
  while (!svc.submit_frame(sid, f)) std::this_thread::yield();
}

// Poll until `want` results arrived or `timeout` elapsed.
std::vector<Classification> collect_results(StreamingHarService& svc,
                                            std::size_t sid, std::size_t want,
                                            std::chrono::milliseconds timeout) {
  std::vector<Classification> out;
  std::array<Classification, 16> buf;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (out.size() < want && std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = svc.poll(sid, std::span<Classification>(buf));
    out.insert(out.end(), buf.begin(), buf.begin() + n);
    if (n == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return out;
}

class ServingFaults : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::instance().clear();
    set_finite_checks_for_testing(-1);
  }
};

// Satellite regression: a NaN frame from a producer thread is a
// per-stream event, never process death. Before containment the post-FFT
// check_finite threw inside the worker and std::terminate'd the process.
TEST_F(ServingFaults, NanFrameNeverEscapesTheWorker) {
  set_finite_checks_for_testing(1);  // arm every tripwire the frame crosses
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.drop_policy = DropPolicy::kNewest;
  StreamingHarService svc(cfg, model);
  const std::size_t victim = svc.add_stream();
  const std::size_t healthy = svc.add_stream();
  svc.start();

  const std::size_t total = mc.frames + 4;
  const std::vector<dsp::RadarCube> good = random_frames(total, 301);
  std::thread attacker([&] {
    for (std::size_t i = 0; i < total; ++i)
      submit_blocking(svc, victim, poisoned_cube(900 + i));
  });
  for (const dsp::RadarCube& f : good) submit_blocking(svc, healthy, f);
  attacker.join();

  const std::size_t want = total - mc.frames + 1;
  const std::vector<Classification> results =
      collect_results(svc, healthy, want, std::chrono::seconds(30));
  EXPECT_EQ(results.size(), want) << "healthy stream starved by a NaN peer";

  // Every poisoned frame was attributed to the hostile stream — either
  // quarantined at the claim boundary or shed once the consecutive
  // quarantines suspended the stream — and the service is still alive to
  // say so (poll a few more cycles so the last claims land).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto attributed = [&] {
    const StreamStats st = svc.stream_stats(victim);
    return st.quarantined + st.suspended_dropped;
  };
  while (attributed() < total &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  svc.stop();
  const StreamStats st = svc.stream_stats(victim);
  EXPECT_EQ(st.quarantined + st.suspended_dropped, total);
  EXPECT_GE(st.quarantined, cfg.max_stream_faults);
  EXPECT_TRUE(st.suspended) << "an all-poison stream must end up suspended";
  EXPECT_EQ(st.classifications, 0U);
  const ServiceHealth h = svc.health();
  EXPECT_GE(h.quarantined, st.quarantined);
  EXPECT_EQ(h.suspended_streams, 1U);
  std::uint64_t shard_faults = 0;
  for (const ShardStats& sd : h.shards) shard_faults += sd.faults;
  EXPECT_EQ(shard_faults, h.quarantined + h.errors)
      << "a worker caught an exception no stream fault accounts for";
}

// Quarantine is exact: the poisoned frame vanishes as if never submitted
// (the victim's remaining sequence is bit-identical to an as-if-omitted
// run) and a clean stream sharing every batcher cycle is bit-identical
// to serving alone. No finite-checks flag needed — the claim-boundary
// scan is always on.
TEST_F(ServingFaults, QuarantineIsolatesThePoisonedFrameExactly) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  const ServingConfig cfg = test_serving_config();
  const std::size_t total = mc.frames + 4;
  const std::vector<dsp::RadarCube> victim_frames = random_frames(total, 51);
  const std::vector<dsp::RadarCube> clean_frames = random_frames(total, 52);
  const std::size_t poison_at = 2;

  std::vector<Classification> victim_got;
  std::vector<Classification> clean_got;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t victim = svc.add_stream();
    const std::size_t clean = svc.add_stream();
    std::array<Classification, 8> buf;
    for (std::size_t i = 0; i <= total; ++i) {
      if (i < total) {
        // The poison rides along mid-sequence; both streams share every
        // cycle either way.
        if (i == poison_at)
          ASSERT_TRUE(svc.submit_frame(victim, poisoned_cube(77)));
        else
          ASSERT_TRUE(svc.submit_frame(victim, victim_frames[i]));
        ASSERT_TRUE(svc.submit_frame(clean, clean_frames[i]));
      }
      svc.run_cycle();
      std::size_t n = svc.poll(victim, std::span<Classification>(buf));
      victim_got.insert(victim_got.end(), buf.begin(), buf.begin() + n);
      n = svc.poll(clean, std::span<Classification>(buf));
      clean_got.insert(clean_got.end(), buf.begin(), buf.begin() + n);
    }
    const StreamStats vs = svc.stream_stats(victim);
    EXPECT_EQ(vs.quarantined, 1U);
    EXPECT_EQ(vs.errors, 0U);
    EXPECT_FALSE(vs.suspended);
    EXPECT_EQ(svc.stream_stats(clean).quarantined, 0U);
  }

  // Reference A: the victim's sequence without the poisoned frame at all
  // (the poison replaced victim_frames[poison_at], so omit that slot).
  std::vector<dsp::RadarCube> omitted = victim_frames;
  omitted.erase(omitted.begin() + static_cast<std::ptrdiff_t>(poison_at));
  std::vector<Classification> as_if_omitted;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    as_if_omitted = run_sequence(svc, sid, omitted);
  }
  // Sequence numbers shift by the omitted submit; the classifications
  // themselves must be bit-identical.
  expect_bit_identical(victim_got, as_if_omitted, mc.num_classes);

  // Reference B: the clean stream served alone, bit-identical.
  std::vector<Classification> clean_alone;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    clean_alone = run_sequence(svc, sid, clean_frames);
  }
  expect_bit_identical(clean_got, clean_alone, mc.num_classes);
}

// serving.frame_poison drives the same quarantine path deterministically:
// the Nth claimed frame gains a NaN before the scan.
TEST_F(ServingFaults, FramePoisonInjectionQuarantinesTheNthClaim) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  const ServingConfig cfg = test_serving_config();
  const std::size_t total = mc.frames + 4;
  const std::vector<dsp::RadarCube> frames = random_frames(total, 61);
  const std::size_t nth = 3;  // third claimed frame = frames[2]

  FaultInjector::instance().configure("serving.frame_poison@3", 1);
  std::vector<Classification> got;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    got = run_sequence(svc, sid, frames);
    const StreamStats st = svc.stream_stats(sid);
    EXPECT_EQ(st.quarantined, 1U);
    EXPECT_EQ(st.errors, 0U);
  }
  EXPECT_EQ(FaultInjector::instance().fire_count("serving.frame_poison"), 1U);
  FaultInjector::instance().clear();

  std::vector<dsp::RadarCube> omitted = frames;
  omitted.erase(omitted.begin() + static_cast<std::ptrdiff_t>(nth - 1));
  std::vector<Classification> reference;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    reference = run_sequence(svc, sid, omitted);
  }
  expect_bit_identical(got, reference, mc.num_classes);
}

// serving.infer_fail sacrifices exactly one micro-batch row: the victim
// stream loses that one window (same frame_seq numbering, one seq
// missing) and its peer — rerun batch-1 by the degraded path — stays
// bit-identical to the fused fault-free run.
TEST_F(ServingFaults, InferFailSacrificesOnlyTheFaultyRow) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  const ServingConfig cfg = test_serving_config();
  const std::size_t total = mc.frames + 4;
  const std::vector<dsp::RadarCube> a_frames = random_frames(total, 71);
  const std::vector<dsp::RadarCube> b_frames = random_frames(total, 72);

  // Fault-free reference, both streams sharing every cycle.
  std::vector<Classification> a_ref;
  std::vector<Classification> b_ref;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t a = svc.add_stream();
    const std::size_t b = svc.add_stream();
    std::array<Classification, 8> buf;
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_TRUE(svc.submit_frame(a, a_frames[i]));
      ASSERT_TRUE(svc.submit_frame(b, b_frames[i]));
      svc.run_cycle();
      std::size_t n = svc.poll(a, std::span<Classification>(buf));
      a_ref.insert(a_ref.end(), buf.begin(), buf.begin() + n);
      n = svc.poll(b, std::span<Classification>(buf));
      b_ref.insert(b_ref.end(), buf.begin(), buf.begin() + n);
    }
  }
  ASSERT_EQ(a_ref.size(), total - mc.frames + 1);

  // Same run with the very first inference row (stream a's first window,
  // newest frame seq = frames - 1) killed.
  FaultInjector::instance().configure("serving.infer_fail@1", 1);
  std::vector<Classification> a_got;
  std::vector<Classification> b_got;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t a = svc.add_stream();
    const std::size_t b = svc.add_stream();
    std::array<Classification, 8> buf;
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_TRUE(svc.submit_frame(a, a_frames[i]));
      ASSERT_TRUE(svc.submit_frame(b, b_frames[i]));
      svc.run_cycle();
      std::size_t n = svc.poll(a, std::span<Classification>(buf));
      a_got.insert(a_got.end(), buf.begin(), buf.begin() + n);
      n = svc.poll(b, std::span<Classification>(buf));
      b_got.insert(b_got.end(), buf.begin(), buf.begin() + n);
    }
    const StreamStats sa = svc.stream_stats(a);
    const StreamStats sb = svc.stream_stats(b);
    EXPECT_EQ(sa.errors, 1U);
    EXPECT_EQ(sa.quarantined, 0U);
    EXPECT_EQ(sb.errors, 0U);
    EXPECT_EQ(svc.health().errors, 1U);
  }
  EXPECT_EQ(FaultInjector::instance().fire_count("serving.infer_fail"), 1U);

  expect_subset_by_seq(a_got, a_ref, mc.num_classes, {mc.frames - 1});
  expect_subset_by_seq(b_got, b_ref, mc.num_classes, {});
}

// max_stream_faults consecutive contained faults suspend the stream; a
// suspended stream sheds its backlog and probes one frame per cycle; the
// first clean frame lifts the suspension and classification resumes.
TEST_F(ServingFaults, SuspensionShedsBacklogAndProbeRecovers) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.max_stream_faults = 2;
  StreamingHarService svc(cfg, model);
  const std::size_t sid = svc.add_stream();
  std::array<Classification, 8> buf;

  // Two consecutive quarantines cross the threshold.
  for (std::uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(svc.submit_frame(sid, poisoned_cube(200 + i)));
    svc.run_cycle();
  }
  StreamStats st = svc.stream_stats(sid);
  EXPECT_TRUE(st.suspended);
  EXPECT_EQ(st.suspensions, 1U);
  EXPECT_EQ(st.quarantined, 2U);

  // A backlog built while suspended is shed down to one probe frame.
  for (std::uint64_t i = 0; i < cfg.queue_depth; ++i)
    ASSERT_TRUE(svc.submit_frame(sid, poisoned_cube(300 + i)));
  svc.run_cycle();
  st = svc.stream_stats(sid);
  EXPECT_EQ(st.suspended_dropped, cfg.queue_depth - 1);
  EXPECT_EQ(st.quarantined, 3U);  // the probe was poisoned too
  EXPECT_TRUE(st.suspended);
  EXPECT_EQ(st.suspensions, 1U);  // still the same suspension episode

  // The first clean probe lifts the suspension; a full window of clean
  // frames then classifies normally.
  const std::vector<dsp::RadarCube> frames = random_frames(mc.frames, 210);
  std::vector<Classification> got;
  for (const dsp::RadarCube& f : frames) {
    ASSERT_TRUE(svc.submit_frame(sid, f));
    svc.run_cycle();
    const std::size_t n = svc.poll(sid, std::span<Classification>(buf));
    got.insert(got.end(), buf.begin(), buf.begin() + n);
  }
  st = svc.stream_stats(sid);
  EXPECT_FALSE(st.suspended);
  EXPECT_EQ(st.suspensions, 1U);
  ASSERT_EQ(got.size(), 1U);

  // Recovery is exact: the clean window classifies bit-identically to a
  // service that never saw a fault.
  std::vector<Classification> reference;
  {
    StreamingHarService fresh(cfg, model);
    const std::size_t rid = fresh.add_stream();
    reference = run_sequence(fresh, rid, frames);
  }
  expect_bit_identical(got, reference, mc.num_classes);
}

// An injected worker crash is contained in place (no std::terminate
// across the thread boundary, no restart): the worker counts the fault,
// resets its cycle state and keeps looping on the same thread, and the
// stream's classification sequence survives losslessly and bit-identically.
// The whole sequence is queued before start(), so the crash hits the
// first cycle with the full backlog waiting and no later submit to wake
// the worker: only the in-place rerun can drain it.
TEST_F(ServingFaults, CrashIsContainedInPlace) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.drop_policy = DropPolicy::kNewest;
  const std::size_t total = mc.frames + 6;
  cfg.queue_depth = total;
  const std::vector<dsp::RadarCube> frames = random_frames(total, 81);

  FaultInjector::instance().configure("serving.shard_crash@1", 1);
  std::vector<Classification> got;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    for (const dsp::RadarCube& f : frames)
      ASSERT_TRUE(svc.submit_frame(sid, f));
    svc.start();
    got = collect_results(svc, sid, total - mc.frames + 1,
                          std::chrono::seconds(60));
    EXPECT_GE(svc.shard_stats(0).faults, 1U);
    svc.stop();
  }
  EXPECT_EQ(FaultInjector::instance().fire_count("serving.shard_crash"), 1U);
  FaultInjector::instance().clear();

  std::vector<Classification> reference;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    reference = run_sequence(svc, sid, frames);
  }
  expect_subset_by_seq(got, reference, mc.num_classes, {});
}

// Wait until `done()` holds; false if `timeout` elapsed first.
template <class Pred>
bool wait_until(Pred done, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A non-cooperative stall is reported, not repaired: while one shard's
// worker blocks inside its cycle (injected stall), health() shows that
// shard's busy_ms above zero and the other shard keeps delivering; once
// the stall ends, both backlogs drain losslessly and bit-identically.
TEST_F(ServingFaults, StallIsReportedWhileOtherShardsServe) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.drop_policy = DropPolicy::kNewest;
  cfg.num_shards = 2;
  const std::size_t total = mc.frames + 6;
  const std::vector<dsp::RadarCube> frames_a = random_frames(total, 91);
  const std::vector<dsp::RadarCube> frames_b = random_frames(total, 92);

  std::vector<Classification> got_a;
  std::vector<Classification> got_b;
  {
    StreamingHarService svc(cfg, model);
    // One stream per shard: `a` will stall, `b` must keep serving.
    const std::size_t a = svc.add_stream();
    std::size_t b = svc.add_stream();
    while (svc.shard_of_stream(b) == svc.shard_of_stream(a))
      b = svc.add_stream();
    const std::size_t shard_a = svc.shard_of_stream(a);

    // Fill b's window to one frame short on the calling thread, so a
    // single further frame yields a result.
    for (std::size_t i = 0; i + 1 < mc.frames; ++i) {
      ASSERT_TRUE(svc.submit_frame(b, frames_b[i]));
      svc.run_cycle();
    }

    // b's worker wakes once at start (its epoch moved during the fill):
    // that is the site's first call. The second is a's first cycle.
    FaultInjector::instance().configure("serving.shard_stall@2", 1);
    svc.start();
    ASSERT_TRUE(wait_until(
        [] {
          return FaultInjector::instance().call_count("serving.shard_stall") >=
                 1;
        },
        std::chrono::seconds(60)));
    submit_blocking(svc, a, frames_a[0]);
    ASSERT_TRUE(wait_until(
        [] {
          return FaultInjector::instance().fire_count("serving.shard_stall") ==
                 1;
        },
        std::chrono::seconds(60)));

    submit_blocking(svc, b, frames_b[mc.frames - 1]);
    got_b = collect_results(svc, b, 1, std::chrono::seconds(60));
    ASSERT_EQ(got_b.size(), 1U) << "the healthy shard stopped delivering";
    ASSERT_TRUE(wait_until(
        [&] {
          const ShardStats st = svc.shard_stats(shard_a);
          return st.busy_ms > 0 || st.frames > 0;
        },
        std::chrono::seconds(60)));
    const ShardStats during = svc.health().shards[shard_a];
    EXPECT_GT(during.busy_ms, 0U) << "the stall was never reported";
    EXPECT_EQ(during.frames, 0U)
        << "the stall ended before the healthy shard delivered";
    EXPECT_EQ(during.faults, 0U) << "a stall is not a fault";

    for (std::size_t i = 1; i < total; ++i)
      submit_blocking(svc, a, frames_a[i]);
    for (std::size_t i = mc.frames; i < total; ++i)
      submit_blocking(svc, b, frames_b[i]);
    got_a = collect_results(svc, a, total - mc.frames + 1,
                            std::chrono::seconds(60));
    const std::vector<Classification> rest =
        collect_results(svc, b, total - mc.frames, std::chrono::seconds(60));
    got_b.insert(got_b.end(), rest.begin(), rest.end());
    svc.stop();
    for (const ShardStats& sd : svc.health().shards)
      EXPECT_EQ(sd.busy_ms, 0U) << "a stopped worker still reports a cycle";
  }
  EXPECT_EQ(FaultInjector::instance().fire_count("serving.shard_stall"), 1U);
  FaultInjector::instance().clear();

  for (const auto* frames : {&frames_a, &frames_b}) {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    const std::vector<Classification> reference =
        run_sequence(svc, sid, *frames);
    expect_subset_by_seq(frames == &frames_a ? got_a : got_b, reference,
                         mc.num_classes, {});
  }
}

// stop()/start() restart cycles preserve per-stream state exactly: a
// sequence split across a full service restart classifies bit-identically
// to an uninterrupted run.
TEST_F(ServingFaults, StopStartCyclesAreBitIdentical) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.drop_policy = DropPolicy::kNewest;
  const std::size_t total = mc.frames + 6;
  const std::vector<dsp::RadarCube> frames = random_frames(total, 101);
  const std::size_t want = total - mc.frames + 1;

  std::vector<Classification> got;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    std::size_t next = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
      svc.start();
      const std::size_t until =
          cycle == 2 ? total : (total * static_cast<std::size_t>(cycle + 1)) / 3;
      for (; next < until; ++next) submit_blocking(svc, sid, frames[next]);
      // Drain before stopping so no queued frame waits out a stop gap.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (svc.stream_stats(sid).classifications <
                 (next >= mc.frames ? next - mc.frames + 1 : 0) &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      svc.stop();
    }
    got = collect_results(svc, sid, want, std::chrono::seconds(1));
  }

  std::vector<Classification> reference;
  {
    StreamingHarService svc(cfg, model);
    const std::size_t sid = svc.add_stream();
    reference = run_sequence(svc, sid, frames);
  }
  expect_subset_by_seq(got, reference, mc.num_classes, {});
}

// Chaos: four producers, 64 streams, four shards, every injection site
// armed at once (probabilistic poison + inference faults, deterministic
// crash and stall). The service must never terminate, every fault must
// land in a per-stream or per-shard counter, and the books must balance.
// Runs under the TSan CI leg.
TEST_F(ServingFaults, ChaosMultiProducerLoadWithAllSitesArmed) {
  const har::HarModelConfig mc = test_model_config();
  har::HarModel model(mc);
  ServingConfig cfg = test_serving_config();
  cfg.num_shards = 4;
  cfg.drop_policy = DropPolicy::kNewest;
  cfg.max_stream_faults = 3;
  const std::size_t n_streams = cfg.max_streams;  // 64
  const std::size_t per_stream = mc.frames + 8;   // 16 frames each
  constexpr std::size_t kProducers = 4;

  FaultInjector::instance().configure(
      "serving.frame_poison=0.02,serving.infer_fail=0.01,"
      "serving.shard_crash@3,serving.shard_stall@9",
      7);

  StreamingHarService svc(cfg, model);
  std::vector<std::size_t> sids(n_streams);
  for (std::size_t s = 0; s < n_streams; ++s) sids[s] = svc.add_stream();
  svc.start();

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t s = p; s < n_streams; s += kProducers) {
        const std::vector<dsp::RadarCube> frames =
            random_frames(per_stream, 5000 + s);
        for (const dsp::RadarCube& f : frames)
          submit_blocking(svc, sids[s], f);
      }
    });
  }
  for (std::thread& t : producers) t.join();

  // Quiesce: totals stable across two consecutive observation windows
  // (faulted streams may legitimately produce fewer results, so "all
  // counters stopped moving" is the convergence signal, not a count).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(4);
  std::uint64_t prev_total = 0;
  int stable = 0;
  while (stable < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const ServiceHealth h = svc.health();
    std::uint64_t total = h.quarantined + h.errors;
    for (std::size_t s = 0; s < n_streams; ++s)
      total += svc.stream_stats(sids[s]).classifications;
    stable = total == prev_total ? stable + 1 : 0;
    prev_total = total;
  }
  svc.stop();

  // The deterministic crash fired and was contained in place.
  const ServiceHealth h = svc.health();
  const std::size_t crash_fires =
      FaultInjector::instance().fire_count("serving.shard_crash");
  EXPECT_EQ(crash_fires, 1U);
  // ~20 expected poison fires across 1024 claims; zero means the site
  // never wired up, not bad luck (P ≈ 1e-9).
  EXPECT_GE(h.quarantined, 1U);

  // Per-stream books: lossless admission, and every accepted frame is
  // accounted for as a classification, a contained fault, shed backlog,
  // or one of the final window_frames-1 partial-window frames.
  std::uint64_t sum_quarantined = 0;
  std::uint64_t sum_errors = 0;
  std::uint64_t shard_faults = 0;
  for (const ShardStats& sd : h.shards) shard_faults += sd.faults;
  for (std::size_t s = 0; s < n_streams; ++s) {
    const StreamStats st = svc.stream_stats(sids[s]);
    EXPECT_EQ(st.accepted, per_stream) << "stream " << s;
    EXPECT_EQ(st.rejected_frames, st.submitted - st.accepted);
    EXPECT_EQ(st.dropped_frames, 0U) << "kNewest must never evict";
    EXPECT_GE(st.classifications + st.quarantined + st.errors +
                  st.suspended_dropped + mc.frames - 1,
              st.accepted)
        << "stream " << s << " lost frames without attribution";
    sum_quarantined += st.quarantined;
    sum_errors += st.errors;
  }
  EXPECT_EQ(h.quarantined, sum_quarantined);
  EXPECT_EQ(h.errors, sum_errors);
  // Shard fault counters see every contained stream fault plus every
  // caught crash, and nothing else.
  EXPECT_EQ(shard_faults, sum_quarantined + sum_errors + crash_fires);
}

}  // namespace
}  // namespace mmhar::serving
