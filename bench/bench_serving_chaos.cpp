// Serving chaos driver: multi-producer load against the sharded
// StreamingHarService with the MMHAR_FAULT_SPEC injection sites armed
// (serving.frame_poison / serving.infer_fail / serving.shard_crash /
// serving.shard_stall), self-checking convergence and the fault books.
//
// tools/serving_chaos_smoke.sh runs this twice — once with every site
// armed mid-load, once disarmed as a control — and a ctest + CI job run
// the script. Exit 0 means: the service never terminated, every stream's
// admission was lossless, every accepted frame is accounted for as a
// classification or an attributed fault, the health snapshot's totals
// match the per-stream counters, every injected crash was contained in
// place and counted in the shard faults, and (disarmed) the
// classification count is exact with zero fault counters.
//
// Knobs (all registered in src/common/env_registry.cpp):
//   MMHAR_FAULT_SPEC / MMHAR_FAULT_SEED   which sites fire, and when
//   MMHAR_SERVING_SHARDS                  shard count (default here: 4)
//   MMHAR_SERVING_FRAMES                  frames per stream (default: 24)
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "dsp/heatmap.h"
#include "har/model.h"
#include "serving/serving.h"

namespace {

using namespace mmhar;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kStreams = 64;
constexpr std::size_t kProducers = 4;

int fail(const char* what) {
  std::fprintf(stderr, "serving_chaos: FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main() {
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
  har::HarModel model(mc);

  serving::ServingConfig cfg = serving::ServingConfig::from_env();
  cfg.max_streams = kStreams;
  cfg.queue_depth = 4;
  cfg.batch_max = 64;
  cfg.result_depth = 64;
  cfg.num_chirps = 8;
  cfg.num_antennas = 8;
  cfg.num_samples = 32;
  cfg.heatmap.range_bins = 16;
  cfg.heatmap.angle_bins = 16;
  cfg.drop_policy = serving::DropPolicy::kNewest;  // lossless: reject + retry
  cfg.slo_ms = 0;
  if (cfg.num_shards < 2) cfg.num_shards = 4;
  const std::size_t per_stream = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_FRAMES", 24));
  const bool armed = fault_injection_armed();

  serving::StreamingHarService svc(cfg, model);
  std::vector<std::size_t> sids(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) sids[s] = svc.add_stream();
  svc.start();

  // Producers: lossless submit with a liveness deadline, so a containment
  // bug that wedges a shard forever fails the smoke instead of hanging it.
  std::vector<std::thread> producers;
  std::vector<int> producer_status(kProducers, 0);
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t s = p; s < kStreams; s += kProducers) {
        Rng rng(9000 + s);
        dsp::RadarCube cube(cfg.num_chirps, cfg.num_antennas, cfg.num_samples);
        for (std::size_t i = 0; i < per_stream; ++i) {
          for (dsp::cfloat& v : cube.raw()) {
            const float im = static_cast<float>(rng.uniform(-1.0, 1.0));
            v = dsp::cfloat(static_cast<float>(rng.uniform(-1.0, 1.0)), im);
          }
          const Clock::time_point give_up =
              Clock::now() + std::chrono::seconds(60);
          while (!svc.submit_frame(sids[s], cube)) {
            if (Clock::now() >= give_up) {
              producer_status[p] = 1;
              return;
            }
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (std::size_t p = 0; p < kProducers; ++p)
    if (producer_status[p] != 0)
      return fail("producer starved for 60s on a full frame ring");

  // Quiesce: the classification/fault totals must stop moving (faulted
  // streams legitimately deliver fewer results, so a fixed target count
  // is not the convergence signal — stability is).
  const Clock::time_point deadline = Clock::now() + std::chrono::minutes(2);
  std::vector<serving::Classification> buf(cfg.result_depth);
  std::uint64_t prev_total = 0;
  int stable = 0;
  while (stable < 3) {
    if (Clock::now() >= deadline)
      return fail("counters never stabilized (service did not converge)");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const serving::ServiceHealth h = svc.health();
    std::uint64_t total = h.quarantined + h.errors;
    for (std::size_t s = 0; s < kStreams; ++s)
      total += svc.stream_stats(sids[s]).classifications;
    stable = total == prev_total ? stable + 1 : 0;
    prev_total = total;
  }
  svc.stop();

  // The books must balance, fault or no fault.
  const serving::ServiceHealth h = svc.health();
  std::uint64_t classifications = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t suspensions = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const serving::StreamStats st = svc.stream_stats(sids[s]);
    if (st.accepted != per_stream)
      return fail("a stream lost admissions despite lossless submit");
    if (st.dropped_frames != 0) return fail("kNewest policy evicted a frame");
    if (st.classifications + st.quarantined + st.errors +
            st.suspended_dropped + mc.frames - 1 <
        st.accepted)
      return fail("frames vanished without per-stream attribution");
    classifications += st.classifications;
    quarantined += st.quarantined;
    errors += st.errors;
    shed += st.suspended_dropped;
    suspensions += st.suspensions;
  }
  if (h.quarantined != quarantined || h.errors != errors)
    return fail("ServiceHealth totals disagree with per-stream counters");
  std::uint64_t faults = 0;
  for (const serving::ShardStats& sd : h.shards) faults += sd.faults;

  FaultInjector& inj = FaultInjector::instance();
  const std::size_t poison_fires = inj.fire_count("serving.frame_poison");
  const std::size_t infer_fires = inj.fire_count("serving.infer_fail");
  const std::size_t crash_fires = inj.fire_count("serving.shard_crash");
  const std::size_t stall_fires = inj.fire_count("serving.shard_stall");
  if (quarantined != poison_fires)
    return fail("quarantine count != injected poison fires");
  if (errors != infer_fires)
    return fail("error count != injected inference fires");
  // Shard faults are the stream faults plus the caught crashes, exactly.
  if (faults != quarantined + errors + crash_fires)
    return fail("shard fault count != stream faults + injected crashes");
  if (!armed) {
    const std::uint64_t exact =
        static_cast<std::uint64_t>(kStreams) * (per_stream - mc.frames + 1);
    if (classifications != exact)
      return fail("disarmed control lost classifications");
    if (faults != 0) return fail("disarmed control counted a shard fault");
  }

  std::printf(
      "chaos summary: streams=%zu frames=%zu shards=%zu accepted=%llu "
      "classifications=%llu quarantined=%llu errors=%llu shed=%llu "
      "suspensions=%llu faults=%llu fires(poison=%zu infer=%zu crash=%zu "
      "stall=%zu)\n",
      kStreams, per_stream, cfg.num_shards,
      static_cast<unsigned long long>(kStreams) * per_stream,
      static_cast<unsigned long long>(classifications),
      static_cast<unsigned long long>(quarantined),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(suspensions),
      static_cast<unsigned long long>(faults), poison_fires, infer_fires,
      crash_fires, stall_fires);
  std::printf("serving_chaos: OK\n");
  return 0;
}
