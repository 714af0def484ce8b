#include "serving/serving.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "common/check.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "common/finite_check.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dsp/window.h"
#include "serving/affinity.h"
#include "tensor/ops.h"

namespace mmhar::serving {

using Clock = std::chrono::steady_clock;

namespace {

// Length of an injected serving.shard_stall (a spin, like a long compute
// step): readable on busy_ms, shorter than the chaos quiesce window.
constexpr std::chrono::milliseconds kInjectedStall{200};

}  // namespace

// ---- Internal state records ------------------------------------------------

// One radar stream: a bounded frame ring feeding its affinity shard and a
// bounded result ring feeding poll(). Slot payloads move through a
// free-list / queued-FIFO hand-off: a slot index lives in exactly one of
// {free list, queued ring, a producer's hands, the shard's claim list}
// at any time, so payload buffers are single-writer/single-reader without
// holding the lock across the (large) frame copy.
struct StreamingHarService::Stream {
  Stream(std::size_t depth, std::size_t frame_elems, std::size_t rdepth,
         std::size_t shard_idx, std::size_t model_idx)
      : shard(shard_idx),
        model(model_idx),
        free_list(depth),
        queued(depth),
        slot_seq(depth, 0),
        slot_arrival(depth),
        slot_data(depth, std::vector<dsp::cfloat>(frame_elems)),
        results(rdepth) {
    for (std::size_t i = 0; i < depth; ++i) free_list[i] = i;
    free_count = depth;
  }

  const std::size_t shard;  ///< affinity shard (immutable)
  const std::size_t model;  ///< ModelRegistry id (immutable)

  mutable Mutex mu;
  std::vector<std::size_t> free_list MMHAR_GUARDED_BY(mu);  ///< slot stack
  std::size_t free_count MMHAR_GUARDED_BY(mu) = 0;
  std::vector<std::size_t> queued MMHAR_GUARDED_BY(mu);  ///< slot FIFO ring
  std::size_t qhead MMHAR_GUARDED_BY(mu) = 0;
  std::size_t qcount MMHAR_GUARDED_BY(mu) = 0;
  std::vector<std::uint64_t> slot_seq MMHAR_GUARDED_BY(mu);
  std::vector<Clock::time_point> slot_arrival MMHAR_GUARDED_BY(mu);
  std::uint64_t next_seq MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t submitted MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t accepted MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t dropped MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t rejected MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t deadline_dropped MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t deepest_queue MMHAR_GUARDED_BY(mu) = 0;
  // Fault containment (DESIGN.md §6c): quarantine/error totals, the
  // consecutive-fault streak driving suspension, and the suspension
  // state itself. All mutated by the owning shard's cycle (plus read by
  // stream_stats/health), under the same mutex as the ring hand-off —
  // the hot path pays no extra lock for them.
  std::uint64_t quarantined MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t errors MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t suspended_dropped MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t suspensions MMHAR_GUARDED_BY(mu) = 0;
  std::size_t consecutive_faults MMHAR_GUARDED_BY(mu) = 0;
  bool suspended MMHAR_GUARDED_BY(mu) = false;
  // Payload buffers: published by the mutex acquire/release around the
  // slot-index hand-offs above, never accessed under the lock itself.
  // mmhar: allow(lock-annotation-coverage)
  std::vector<std::vector<dsp::cfloat>> slot_data;

  mutable Mutex results_mu;
  std::vector<Classification> results MMHAR_GUARDED_BY(results_mu);
  std::size_t rhead MMHAR_GUARDED_BY(results_mu) = 0;
  std::size_t rcount MMHAR_GUARDED_BY(results_mu) = 0;
  std::uint64_t classifications MMHAR_GUARDED_BY(results_mu) = 0;
  std::uint64_t dropped_results MMHAR_GUARDED_BY(results_mu) = 0;
};

// Per-shard wake-up state. submit_frame bumps `epoch` once per admitted
// frame, after the frame is in its ring; shard_main explains why "epoch
// moved" is then an exact wake-up test.
struct Sched {
  Mutex mu;
  CondVar cv;
  std::uint64_t epoch MMHAR_GUARDED_BY(mu) = 0;
  bool stop MMHAR_GUARDED_BY(mu) = false;
};

struct StreamingHarService::Registry {
  mutable Mutex mu;
  std::vector<std::unique_ptr<Stream>> streams MMHAR_GUARDED_BY(mu);
};

// Per-stream sliding window of the last T DRAI frames (in dB when
// log_scale is on; never normalized), as a ring; `next` is the write
// position and, once filled, also the oldest frame. Indexed by global
// stream id; written only by the owning shard's cycle.
struct StreamingHarService::WindowTable {
  struct StreamWindow {
    std::vector<float> drai;
    std::size_t next = 0;
    std::size_t filled = 0;
  };
  std::vector<StreamWindow> w;
};

// One batcher shard: wake-up state, the worker thread, and the cycle
// arenas. Everything outside `sched` and the atomics is touched only by
// whichever single thread runs this shard's cycle (the worker, or the
// owner when pumping manually), so it needs no locking. All buffers are
// sized once in the constructor; the cycle refills them through explicit
// fill counters (n_cycle_streams, n_jobs, the per-round claim count) so
// the steady-state path contains no container-growth call at all — which
// is what lets mmhar_check prove the zero-allocation contract
// statically instead of sampling it.
struct StreamingHarService::Shard {
  struct Claim {
    Stream* stream = nullptr;
    std::size_t stream_id = 0;  ///< global id (WindowTable index)
    std::size_t slot = 0;
    std::uint64_t seq = 0;
    Clock::time_point arrival;
  };
  struct Job {
    Stream* stream = nullptr;
    std::size_t stream_id = 0;
    std::size_t model = 0;
    std::uint64_t seq = 0;           ///< newest window frame
    Clock::time_point arrival;       ///< newest window frame submit time
  };

  Sched sched;
  std::thread worker;

  // Single-writer shard counters; relaxed atomics so shard_stats can
  // snapshot them while the worker runs.
  std::atomic<std::uint64_t> stat_cycles{0};
  std::atomic<std::uint64_t> stat_frames{0};
  std::atomic<std::uint64_t> stat_classifications{0};
  std::atomic<std::uint64_t> stat_deadline_dropped{0};
  std::atomic<std::uint64_t> stat_faults{0};
  // Steady-clock ticks at which the worker's current cycle began, 0 while
  // it waits; shard_stats turns it into ShardStats::busy_ms.
  std::atomic<Clock::rep> busy_since{0};

  std::vector<Stream*> cycle_streams;    ///< first n_cycle_streams valid
  std::vector<std::size_t> cycle_ids;    ///< matching global stream ids
  std::size_t n_cycle_streams = 0;
  std::vector<Claim> claims;             ///< current round only
  std::vector<dsp::FftManyIo> range_ios;
  std::vector<dsp::FftManyMagIo> angle_ios;
  std::vector<dsp::cfloat> spectra;      ///< per-round spectra arena
  std::vector<Job> jobs;                 ///< whole cycle; first n_jobs valid
  std::size_t n_jobs = 0;
  std::vector<float> window;             ///< one job's window [T x R x A]
  std::vector<float> feat_rows;          ///< [jobs x T x F] CNN features
  std::vector<float> logits;             ///< [jobs x C]
  std::vector<std::size_t> model_rows;   ///< one model's job indices
  std::vector<float> model_logits;       ///< one model's [rows x C]
  std::vector<std::uint8_t> claim_dead;  ///< per-claim containment marks
  std::vector<std::uint8_t> job_dead;    ///< per-job containment marks
  har::InferenceScratch scratch;
  std::size_t rr = 0;                    ///< round-robin fairness offset
};

// ---- Configuration ---------------------------------------------------------

ServingConfig ServingConfig::from_env() {
  ServingConfig cfg;
  cfg.batch_max = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_BATCH", static_cast<long>(cfg.batch_max)));
  cfg.queue_depth = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_QUEUE_DEPTH",
              static_cast<long>(cfg.queue_depth)));
  cfg.num_shards = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_SHARDS", static_cast<long>(cfg.num_shards)));
  cfg.slo_ms = env_int("MMHAR_SERVING_SLO_MS", cfg.slo_ms);
  cfg.max_stream_faults = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_MAX_STREAM_FAULTS",
              static_cast<long>(cfg.max_stream_faults)));
  const std::string policy = env_string("MMHAR_SERVING_DROP_POLICY", "oldest");
  MMHAR_REQUIRE(policy == "oldest" || policy == "newest",
                "MMHAR_SERVING_DROP_POLICY must be 'oldest' or 'newest', got "
                    << policy);
  cfg.drop_policy =
      policy == "newest" ? DropPolicy::kNewest : DropPolicy::kOldest;
  return cfg;
}

// ---- Service ---------------------------------------------------------------

StreamingHarService::StreamingHarService(const ServingConfig& config,
                                         har::HarModel& model)
    : config_(config), models_(model) {
  const har::HarModelConfig& mc = model.config();
  const dsp::HeatmapConfig& hm = config.heatmap;
  MMHAR_REQUIRE(config.max_streams > 0 && config.queue_depth > 0 &&
                    config.batch_max > 0 && config.result_depth > 0,
                "ServingConfig: all capacities must be positive");
  MMHAR_REQUIRE(config.num_shards > 0,
                "ServingConfig: num_shards must be positive");
  MMHAR_REQUIRE(config.slo_ms >= 0,
                "ServingConfig: slo_ms must be non-negative (0 = disabled)");
  MMHAR_REQUIRE(hm.range_bins == mc.height && hm.angle_bins == mc.width,
                "ServingConfig: heatmap dims must match the model ("
                    << mc.height << "x" << mc.width << ")");
  MMHAR_REQUIRE(hm.normalize_per_sequence,
                "ServingConfig: serving windows normalize over the whole "
                "T-frame sequence; per-frame normalization is unsupported");
  MMHAR_REQUIRE(dsp::is_power_of_two(config.num_samples) &&
                    hm.range_bins <= config.num_samples,
                "ServingConfig: num_samples must be a power of two >= "
                "range_bins");
  MMHAR_REQUIRE(dsp::is_power_of_two(hm.angle_bins) &&
                    hm.angle_bins >= config.num_antennas,
                "ServingConfig: angle_bins must be a power of two >= "
                "num_antennas");
  MMHAR_REQUIRE(mc.num_classes <= kMaxServingClasses,
                "ServingConfig: num_classes exceeds kMaxServingClasses");

  window_frames_ = mc.frames;
  feature_len_ = mc.frames * mc.feature_dim;
  num_classes_ = mc.num_classes;
  deadline_enabled_ = config.slo_ms > 0;
  deadline_budget_ = std::chrono::milliseconds(config.slo_ms);
  range_window_ = dsp::cached_window(hm.range_window, config.num_samples).data();
  registry_ = std::make_unique<Registry>();
  {
    MutexLock lk(registry_->mu);
    registry_->streams.reserve(config.max_streams);
  }

  const std::size_t hw = hm.range_bins * hm.angle_bins;
  const std::size_t spectra_elems =
      config.num_chirps * config.num_antennas * hm.range_bins;
  windows_ = std::make_unique<WindowTable>();
  windows_->w.resize(config.max_streams);
  for (WindowTable::StreamWindow& w : windows_->w)
    w.drai.resize(window_frames_ * hw);

  shards_.reserve(config.num_shards);
  for (std::size_t i = 0; i < config.num_shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->cycle_streams.resize(config.max_streams, nullptr);
    sh->cycle_ids.resize(config.max_streams, 0);
    sh->claims.resize(config.batch_max);
    sh->range_ios.resize(config.batch_max);
    sh->angle_ios.resize(config.batch_max);
    sh->spectra.resize(config.batch_max * spectra_elems);
    sh->jobs.resize(config.batch_max);
    sh->window.resize(window_frames_ * hw);
    sh->feat_rows.resize(config.batch_max * feature_len_);
    sh->logits.resize(config.batch_max * num_classes_);
    sh->model_rows.resize(config.batch_max);
    sh->model_logits.resize(config.batch_max * num_classes_);
    sh->claim_dead.resize(config.batch_max, 0);
    sh->job_dead.resize(config.batch_max, 0);
    sh->scratch.reserve(models_.plan(0), config.batch_max);
    shards_.push_back(std::move(sh));
  }
}

StreamingHarService::~StreamingHarService() { stop(); }

std::size_t StreamingHarService::add_model(har::HarModel& model) {
  MMHAR_REQUIRE(!started_,
                "add_model: models must be registered before start() — "
                "running shards read the registry lock-free");
  return models_.add(model);
}

std::size_t StreamingHarService::add_stream(std::size_t model_id) {
  MMHAR_REQUIRE(model_id < models_.size(),
                "add_stream: unknown model id " << model_id << " ("
                    << models_.size() << " registered)");
  const std::size_t frame_elems =
      config_.num_chirps * config_.num_antennas * config_.num_samples;
  MutexLock lk(registry_->mu);
  MMHAR_REQUIRE(registry_->streams.size() < config_.max_streams,
                "add_stream: all " << config_.max_streams
                                   << " stream slots are active");
  const std::size_t id = registry_->streams.size();
  const std::size_t shard = shard_for_key(id, config_.num_shards);
  registry_->streams.push_back(std::make_unique<Stream>(
      config_.queue_depth, frame_elems, config_.result_depth, shard,
      model_id));
  return id;
}

StreamingHarService::Stream* StreamingHarService::stream_ptr(
    std::size_t idx) const {
  MutexLock lk(registry_->mu);
  MMHAR_REQUIRE(idx < registry_->streams.size(),
                "unknown stream id " << idx);
  return registry_->streams[idx].get();
}

std::size_t StreamingHarService::shard_of_stream(std::size_t stream) const {
  return stream_ptr(stream)->shard;
}

bool StreamingHarService::submit_frame(std::size_t stream,
                                       const dsp::RadarCube& cube) {
  MMHAR_REQUIRE(cube.num_chirps() == config_.num_chirps &&
                    cube.num_antennas() == config_.num_antennas &&
                    cube.num_samples() == config_.num_samples,
                "submit_frame: cube geometry does not match ServingConfig");
  Stream* s = stream_ptr(stream);
  const Clock::time_point now = Clock::now();

  std::size_t slot = 0;
  {
    MutexLock lk(s->mu);
    ++s->submitted;
    if (s->free_count > 0) {
      slot = s->free_list[--s->free_count];
    } else if (config_.drop_policy == DropPolicy::kOldest && s->qcount > 0) {
      // Evict the oldest *queued* frame and reuse its slot; claimed
      // (in-flight) frames are never dropped.
      slot = s->queued[s->qhead];
      s->qhead = (s->qhead + 1) % config_.queue_depth;
      --s->qcount;
      ++s->dropped;
    } else {
      ++s->rejected;
      return false;
    }
  }

  // Copy the frame outside the lock: the slot index is exclusively ours
  // until we publish it to the queued ring below.
  std::copy(cube.raw().begin(), cube.raw().end(), s->slot_data[slot].begin());

  {
    MutexLock lk(s->mu);
    ++s->accepted;
    s->slot_seq[slot] = s->next_seq++;
    s->slot_arrival[slot] = now;
    s->queued[(s->qhead + s->qcount) % config_.queue_depth] = slot;
    ++s->qcount;
    if (s->qcount > s->deepest_queue) s->deepest_queue = s->qcount;
  }

  // Every admit, evicting or not, moves the epoch: the worker must see a
  // new frame even when the ring's length did not change. Only the
  // stream's affinity shard is woken — the others have no claim on it.
  Sched& sched = shards_[s->shard]->sched;
  MutexLock lk(sched.mu);
  ++sched.epoch;
  sched.cv.notify_one();
  return true;
}

std::size_t StreamingHarService::poll(std::size_t stream,
                                      std::span<Classification> out) {
  Stream* s = stream_ptr(stream);
  MutexLock lk(s->results_mu);
  const std::size_t n = std::min(out.size(), s->rcount);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = s->results[s->rhead];
    s->rhead = (s->rhead + 1) % config_.result_depth;
  }
  s->rcount -= n;
  return n;
}

StreamStats StreamingHarService::stream_stats(std::size_t stream) const {
  Stream* s = stream_ptr(stream);
  StreamStats st;
  {
    MutexLock lk(s->mu);
    st.submitted = s->submitted;
    st.accepted = s->accepted;
    st.dropped_frames = s->dropped;
    st.rejected_frames = s->rejected;
    st.deadline_dropped = s->deadline_dropped;
    st.deepest_queue = s->deepest_queue;
    st.quarantined = s->quarantined;
    st.errors = s->errors;
    st.suspended_dropped = s->suspended_dropped;
    st.suspensions = s->suspensions;
    st.suspended = s->suspended;
  }
  {
    MutexLock lk(s->results_mu);
    st.classifications = s->classifications;
    st.dropped_results = s->dropped_results;
  }
  return st;
}

ShardStats StreamingHarService::shard_stats(std::size_t shard) const {
  MMHAR_REQUIRE(shard < shards_.size(), "unknown shard " << shard);
  const Shard& sh = *shards_[shard];
  ShardStats st;
  st.cycles = sh.stat_cycles.load(std::memory_order_relaxed);
  st.frames = sh.stat_frames.load(std::memory_order_relaxed);
  st.classifications = sh.stat_classifications.load(std::memory_order_relaxed);
  st.deadline_dropped =
      sh.stat_deadline_dropped.load(std::memory_order_relaxed);
  st.faults = sh.stat_faults.load(std::memory_order_relaxed);
  const Clock::duration since(sh.busy_since.load(std::memory_order_relaxed));
  if (since.count() != 0)
    st.busy_ms = static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now().time_since_epoch() - since)
               .count()));
  return st;
}

ServiceHealth StreamingHarService::health() const {
  ServiceHealth h;
  h.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    h.shards.push_back(shard_stats(i));
  MutexLock lk(registry_->mu);
  for (const std::unique_ptr<Stream>& s : registry_->streams) {
    MutexLock slk(s->mu);
    h.quarantined += s->quarantined;
    h.errors += s->errors;
    if (s->suspended) ++h.suspended_streams;
  }
  return h;
}

// Claim at most one live queued frame per stream of this shard
// (round-robin, rotating start so no stream starves), up to `budget`
// total. Frames whose admission deadline has already passed are discarded
// on the way (their count lands in *expired and the per-stream
// deadline_dropped counter) — deadline scheduling replaces FIFO-oldest:
// a shard never spends its cycle on work nobody can use. A suspended
// stream first sheds its backlog (all but the newest queued frame,
// counted in *shed and suspended_dropped — the queue is at most
// queue_depth deep, so shedding is bounded without charging the budget)
// and then claims the survivor as its recovery probe. Claims land in
// sh.claims in per-stream FIFO order.
std::size_t StreamingHarService::claim_round(Shard& sh, std::size_t budget,
                                             std::size_t* expired,
                                             std::size_t* shed) {
  *expired = 0;
  *shed = 0;
  const std::size_t n = sh.n_cycle_streams;
  if (n == 0 || budget == 0) return 0;
  const Clock::time_point now =
      deadline_enabled_ ? Clock::now() : Clock::time_point{};
  std::size_t got = 0;
  for (std::size_t k = 0; k < n && got < budget; ++k) {
    const std::size_t idx = (sh.rr + k) % n;
    Stream* s = sh.cycle_streams[idx];
    MutexLock lk(s->mu);
    if (s->suspended) {
      while (s->qcount > 1) {
        const std::size_t slot = s->queued[s->qhead];
        s->qhead = (s->qhead + 1) % config_.queue_depth;
        --s->qcount;
        s->free_list[s->free_count++] = slot;
        ++s->suspended_dropped;
        ++*shed;
      }
    }
    while (s->qcount > 0) {
      const std::size_t slot = s->queued[s->qhead];
      s->qhead = (s->qhead + 1) % config_.queue_depth;
      --s->qcount;
      if (deadline_enabled_ &&
          now >= s->slot_arrival[slot] + deadline_budget_) {
        s->free_list[s->free_count++] = slot;
        ++s->deadline_dropped;
        ++*expired;
        continue;  // scan on: a younger queued frame may still be live
      }
      sh.claims[got] = {s, sh.cycle_ids[idx], slot, s->slot_seq[slot],
                        s->slot_arrival[slot]};
      ++got;
      break;
    }
  }
  sh.rr = (sh.rr + 1) % n;
  return got;
}

// Attribute one contained fault to its stream: bump the quarantine or
// error counter, advance the consecutive-fault streak, and suspend the
// stream once the streak crosses max_stream_faults (0 = never). Cold
// path by construction — it only runs when a fault actually fired.
void StreamingHarService::record_stream_fault(Shard& sh, Stream* s,
                                              bool quarantine) {
  sh.stat_faults.fetch_add(1, std::memory_order_relaxed);
  MutexLock lk(s->mu);
  if (quarantine) {
    ++s->quarantined;
  } else {
    ++s->errors;
  }
  ++s->consecutive_faults;
  if (config_.max_stream_faults > 0 && !s->suspended &&
      s->consecutive_faults >= config_.max_stream_faults) {
    s->suspended = true;
    ++s->suspensions;
  }
}

// Poison-frame quarantine at the claim boundary: every claimed payload is
// scanned (always on — the slot is exclusively ours here, outside any
// lock) and a frame carrying NaN/Inf is dropped before it can reach the
// fused DSP, its slot returned to the producer and the fault attributed
// to its stream. serving.frame_poison injects a real NaN into the payload
// first, so the injected and the hostile-producer paths are one path.
// Returns the number of survivors; sh.claims is compacted to them in
// stable (per-stream FIFO) order.
std::size_t StreamingHarService::quarantine_claims(Shard& sh,
                                                   std::size_t n_claims) {
  const std::size_t frame_elems =
      config_.num_chirps * config_.num_antennas * config_.num_samples;
  std::size_t live = 0;
  for (std::size_t i = 0; i < n_claims; ++i) {
    const Shard::Claim& cl = sh.claims[i];
    dsp::cfloat* const payload = cl.stream->slot_data[cl.slot].data();
    if (fault_injection_armed()) {
      // Armed-only cold path: the injector takes its own mutex and may
      // allocate bookkeeping, which is exactly why it hides behind the
      // relaxed-atomic armed gate.
      // mmhar: allow(rt-calls)
      if (fault_should_fire("serving.frame_poison")) {
        // mmhar: allow(rt-calls)
        const std::size_t at = fault_draw(frame_elems);
        payload[at] = dsp::cfloat(std::numeric_limits<float>::quiet_NaN(),
                                  payload[at].imag());
      }
    }
    const FiniteScan scan = detail::scan_finite(
        reinterpret_cast<const float*>(payload), 2 * frame_elems);
    if (scan.has_nan_or_inf()) {
      {
        MutexLock lk(cl.stream->mu);
        cl.stream->free_list[cl.stream->free_count++] = cl.slot;
      }
      record_stream_fault(sh, cl.stream, /*quarantine=*/true);
      continue;
    }
    if (live != i) sh.claims[live] = sh.claims[i];
    ++live;
  }
  return live;
}

// One pipeline round over the current claim list (at most one frame per
// stream, so a window slot written this round is never part of an
// already-recorded job). Stages are fused across every claimed frame.
//
// Containment: mmhar::Error at a fused DSP boundary degrades to
// per-frame (batch-1) reruns — per-lane FFT arithmetic is independent of
// batch composition, so the reruns are bit-identical and only the faulty
// frame is sacrificed (claim_dead, StreamStats::errors). A dead frame
// never advances its stream's window, so the window slot it would have
// written is simply rewritten by the next clean frame.
void StreamingHarService::process_round(Shard& sh, std::size_t n_claims) {
  const dsp::HeatmapConfig& hm = config_.heatmap;
  const std::size_t hw = hm.range_bins * hm.angle_bins;
  const std::size_t wlen = window_frames_ * hw;
  const std::size_t spectra_elems =
      config_.num_chirps * config_.num_antennas * hm.range_bins;
  MMHAR_CHECK(sh.spectra.size() >= n_claims * spectra_elems);
  MMHAR_CHECK(sh.claim_dead.size() >= n_claims);
  dsp::cfloat* const spectra = sh.spectra.data();
  std::fill_n(sh.claim_dead.begin(), n_claims, std::uint8_t{0});

  // Stage 1: every claimed frame's windowed Range-FFT in ONE batched
  // call — SIMD lanes run across (chirp, antenna) rows of all frames of
  // all the shard's streams in this round.
  MMHAR_CHECK(sh.range_ios.size() >= n_claims);
  for (std::size_t i = 0; i < n_claims; ++i) {
    const Shard::Claim& cl = sh.claims[i];
    sh.range_ios[i] = {cl.stream->slot_data[cl.slot].data(),
                       spectra + i * spectra_elems};
  }
  dsp::FftManyJob range_job;
  range_job.n = config_.num_samples;
  range_job.in_len = config_.num_samples;
  range_job.window = range_window_;
  range_job.lanes = config_.num_chirps * config_.num_antennas;
  range_job.in_lane_stride = config_.num_samples;
  range_job.in_elem_stride = 1;
  try {
    dsp::fft_many_crop_multi(range_job, hm.range_bins,
                             std::span<const dsp::FftManyIo>(
                                 sh.range_ios.data(), n_claims),
                             hm.range_bins, 1);
  } catch (const Error&) {
    for (std::size_t i = 0; i < n_claims; ++i) {
      MMHAR_CHECK(i < sh.range_ios.size());
      try {
        dsp::fft_many_crop_multi(range_job, hm.range_bins,
                                 std::span<const dsp::FftManyIo>(
                                     sh.range_ios.data() + i, 1),
                                 hm.range_bins, 1);
      } catch (const Error&) {
        sh.claim_dead[i] = 1;
        record_stream_fault(sh, sh.claims[i].stream, /*quarantine=*/false);
      }
    }
  }

  // Post-FFT tripwire (what used to be a fatal whole-batch check_finite):
  // per-frame, non-throwing, attributed to the offending stream.
  if (finite_checks_enabled()) {
    for (std::size_t i = 0; i < n_claims; ++i) {
      if (sh.claim_dead[i] != 0) continue;
      const FiniteScan scan = detail::scan_finite(
          reinterpret_cast<const float*>(spectra + i * spectra_elems),
          2 * spectra_elems);
      const bool storm =
          scan.denormal_count >= kDenormalStormMinCount &&
          static_cast<double>(scan.denormal_count) >
              kDenormalStormFraction * static_cast<double>(2 * spectra_elems);
      if (scan.has_nan_or_inf() || storm) {
        sh.claim_dead[i] = 1;
        record_stream_fault(sh, sh.claims[i].stream, /*quarantine=*/false);
      }
    }
  }

  // Stage 2: static clutter removal (serial per frame — pool-free).
  if (hm.remove_clutter) {
    for (std::size_t i = 0; i < n_claims; ++i) {
      if (sh.claim_dead[i] != 0) continue;
      dsp::remove_static_clutter_serial(spectra + i * spectra_elems,
                                        config_.num_chirps,
                                        config_.num_antennas, hm.range_bins);
    }
  }

  // Frame payloads are consumed; hand the slots back to the producers.
  for (std::size_t i = 0; i < n_claims; ++i) {
    const Shard::Claim& cl = sh.claims[i];
    MutexLock lk(cl.stream->mu);
    cl.stream->free_list[cl.stream->free_count++] = cl.slot;
  }

  // Stage 3: every surviving frame's Angle-FFT → raw DRAI in ONE batched
  // call, written straight into its stream's window ring slot. Window
  // bookkeeping (ring advance, job record) is deferred until the FFT
  // outcome is known, so a frame that dies here leaves its stream's
  // window exactly as if the frame were never submitted — the slot it
  // targeted is rewritten by the next clean frame. (At most one claim
  // per stream per round, so the deferral cannot interleave two frames
  // of one stream.)
  MMHAR_CHECK(sh.angle_ios.size() >= n_claims &&
              sh.jobs.size() >= sh.n_jobs + n_claims);
  std::size_t n_live = 0;
  for (std::size_t i = 0; i < n_claims; ++i) {
    if (sh.claim_dead[i] != 0) continue;
    const Shard::Claim& cl = sh.claims[i];
    WindowTable::StreamWindow& w = windows_->w[cl.stream_id];
    MMHAR_CHECK(w.drai.size() == wlen && w.next < window_frames_);
    sh.angle_ios[n_live] = {spectra + i * spectra_elems,
                            w.drai.data() + w.next * hw};
    ++n_live;
  }
  dsp::FftManyJob angle_job;
  angle_job.n = hm.angle_bins;
  angle_job.in_len = config_.num_antennas;
  angle_job.lanes = hm.range_bins;
  angle_job.in_lane_stride = 1;
  angle_job.in_elem_stride = hm.range_bins;
  angle_job.reps = config_.num_chirps;
  angle_job.in_rep_stride = config_.num_antennas * hm.range_bins;
  try {
    dsp::fft_many_mag_accum_multi(angle_job, /*shift=*/true,
                                  std::span<const dsp::FftManyMagIo>(
                                      sh.angle_ios.data(), n_live),
                                  hm.angle_bins, 1);
  } catch (const Error&) {
    std::size_t io = 0;
    for (std::size_t i = 0; i < n_claims; ++i) {
      if (sh.claim_dead[i] != 0) continue;
      MMHAR_CHECK(io < sh.angle_ios.size());
      try {
        dsp::fft_many_mag_accum_multi(angle_job, /*shift=*/true,
                                      std::span<const dsp::FftManyMagIo>(
                                          sh.angle_ios.data() + io, 1),
                                      hm.angle_bins, 1);
      } catch (const Error&) {
        sh.claim_dead[i] = 1;
        record_stream_fault(sh, sh.claims[i].stream, /*quarantine=*/false);
      }
      ++io;
    }
  }

  // Deferred window bookkeeping for the survivors; a clean frame that
  // completes DSP without filling its window is this stream's recovery
  // signal (jobs get theirs after clean logits in run_inference). The dB
  // map is elementwise, so converting each frame once as it lands equals
  // compute_drai_sequence's conversion of the whole window.
  MMHAR_CHECK(sh.job_dead.size() >= sh.n_jobs + n_claims);
  const std::size_t round_job_start = sh.n_jobs;
  for (std::size_t i = 0; i < n_claims; ++i) {
    if (sh.claim_dead[i] != 0) continue;
    const Shard::Claim& cl = sh.claims[i];
    WindowTable::StreamWindow& w = windows_->w[cl.stream_id];
    if (hm.log_scale)
      to_db_inplace(w.drai.data() + w.next * hw, hw, hm.db_floor);
    w.next = (w.next + 1) % window_frames_;
    if (w.filled < window_frames_) ++w.filled;
    if (w.filled == window_frames_) {
      sh.job_dead[sh.n_jobs] = 0;
      sh.jobs[sh.n_jobs++] = {cl.stream, cl.stream_id, cl.stream->model,
                              cl.seq, cl.arrival};
    } else {
      clear_stream_fault_streak(cl.stream);
    }
  }

  // Stage 4: each window completed this round -> its CNN features, now,
  // before a later round of this cycle can advance the stream's ring.
  // The window is gathered oldest frame first and min-max normalized over
  // the whole [T, R, A] block, as compute_drai_sequence's tail does. An
  // mmhar::Error here sacrifices only this job.
  const std::size_t flen = feature_len_;
  MMHAR_CHECK(sh.window.size() == wlen &&
              sh.feat_rows.size() >= sh.n_jobs * flen);
  float* const window = sh.window.data();
  float* const feat_rows = sh.feat_rows.data();
  for (std::size_t j = round_job_start; j < sh.n_jobs; ++j) {
    const WindowTable::StreamWindow& w = windows_->w[sh.jobs[j].stream_id];
    for (std::size_t t = 0; t < window_frames_; ++t) {
      const float* src = w.drai.data() + ((w.next + t) % window_frames_) * hw;
      std::copy(src, src + hw, window + t * hw);
    }
    if (hm.normalize) normalize01_inplace(window, wlen);
    try {
      har::infer_features(models_.plan(sh.jobs[j].model), sh.scratch,
                          window, window_frames_, feat_rows + j * flen);
    } catch (const Error&) {
      sh.job_dead[j] = 1;
      record_stream_fault(sh, sh.jobs[j].stream, /*quarantine=*/false);
    }
  }
}

// A clean frame lifts its stream's consecutive-fault streak (and any
// suspension). Called once per surviving frame/job, under the stream's
// hand-off mutex; cheap enough for the hot path, and keeping it
// unconditional avoids an unguarded racy pre-check of guarded state.
void StreamingHarService::clear_stream_fault_streak(Stream* s) {
  MutexLock lk(s->mu);
  if (s->consecutive_faults != 0 || s->suspended) {
    s->consecutive_faults = 0;
    s->suspended = false;
  }
}

// Cross-stream micro-batched LSTM + head over every window that
// completed this cycle — one infer_classify per model version with live
// jobs, over that model's feature rows gathered in job order, its logits
// scattered back to the jobs' rows. Each output row's arithmetic is
// independent of batch composition, so grouping by model cannot change
// any stream's logits.
//
// Containment: an injected serving.infer_fail (one draw per job, in job
// order) or an mmhar::Error escaping a fused classify degrades the cycle
// to per-job batch-1 reruns on the stored feature rows — row arithmetic
// is batch-composition independent, so every surviving row's logits are
// bit-identical to the fused result and only the faulty rows are
// sacrificed (job_dead, StreamStats::errors). Rows whose logits come
// back non-finite are sacrificed the same way instead of tearing the
// process down.
void StreamingHarService::run_inference(Shard& sh) {
  const std::size_t flen = feature_len_;
  const std::size_t nc = num_classes_;
  MMHAR_CHECK(sh.feat_rows.size() >= sh.n_jobs * flen &&
              sh.scratch.feats.size() >= sh.n_jobs * flen);
  MMHAR_CHECK(sh.logits.size() >= sh.n_jobs * nc &&
              sh.model_logits.size() >= sh.n_jobs * nc &&
              sh.job_dead.size() >= sh.n_jobs);
  const float* const feat_rows = sh.feat_rows.data();
  float* const gathered = sh.scratch.feats.data();
  float* const model_logits = sh.model_logits.data();
  float* const logits = sh.logits.data();

  bool degraded = false;
  if (fault_injection_armed()) {
    for (std::size_t j = 0; j < sh.n_jobs; ++j) {
      // Armed-only cold path (see quarantine_claims). The draw comes
      // first, so a job whose features already failed still takes one.
      // mmhar: allow(rt-calls)
      if (fault_should_fire("serving.infer_fail") && sh.job_dead[j] == 0) {
        sh.job_dead[j] = 1;
        degraded = true;
        record_stream_fault(sh, sh.jobs[j].stream, /*quarantine=*/false);
      }
    }
  }

  if (!degraded) {
    try {
      for (std::size_t m = 0; m < models_.size(); ++m) {
        std::size_t rows = 0;
        for (std::size_t j = 0; j < sh.n_jobs; ++j)
          if (sh.jobs[j].model == m && sh.job_dead[j] == 0)
            sh.model_rows[rows++] = j;
        if (rows == 0) continue;
        for (std::size_t r = 0; r < rows; ++r) {
          const float* src = feat_rows + sh.model_rows[r] * flen;
          std::copy(src, src + flen, gathered + r * flen);
        }
        har::infer_classify(models_.plan(m), sh.scratch, gathered, rows,
                            model_logits);
        for (std::size_t r = 0; r < rows; ++r)
          std::copy(model_logits + r * nc, model_logits + (r + 1) * nc,
                    logits + sh.model_rows[r] * nc);
      }
    } catch (const Error&) {
      degraded = true;
    }
  }

  if (degraded) {
    for (std::size_t j = 0; j < sh.n_jobs; ++j) {
      if (sh.job_dead[j] != 0) continue;
      try {
        har::infer_classify(models_.plan(sh.jobs[j].model), sh.scratch,
                            feat_rows + j * flen, 1, logits + j * nc);
      } catch (const Error&) {
        sh.job_dead[j] = 1;
        record_stream_fault(sh, sh.jobs[j].stream, /*quarantine=*/false);
      }
    }
  }

  // Post-forward tripwire (what used to be a fatal whole-batch
  // check_finite): per-row, non-throwing, attributed per stream.
  if (finite_checks_enabled()) {
    for (std::size_t j = 0; j < sh.n_jobs; ++j) {
      if (sh.job_dead[j] != 0) continue;
      MMHAR_CHECK((j + 1) * num_classes_ <= sh.logits.size());
      const FiniteScan scan = detail::scan_finite(
          sh.logits.data() + j * num_classes_, num_classes_);
      const bool storm =
          scan.denormal_count >= kDenormalStormMinCount &&
          static_cast<double>(scan.denormal_count) >
              kDenormalStormFraction * static_cast<double>(num_classes_);
      if (scan.has_nan_or_inf() || storm) {
        sh.job_dead[j] = 1;
        record_stream_fault(sh, sh.jobs[j].stream, /*quarantine=*/false);
      }
    }
  }

  for (std::size_t j = 0; j < sh.n_jobs; ++j)
    if (sh.job_dead[j] == 0) clear_stream_fault_streak(sh.jobs[j].stream);
}

// Publish the cycle's classifications into their streams' result rings.
// Under deadline scheduling a result that is already past its newest
// frame's deadline is discarded instead of delivered — a late answer is
// useless to the consumer, and delivering it would hide the overload the
// SLO exists to surface (those land in *expired). Rows sacrificed by
// fault containment were already attributed in run_inference and are
// simply skipped. Returns the number actually published.
std::size_t StreamingHarService::publish_results(Shard& sh,
                                                 std::size_t* expired) {
  const Clock::time_point now = Clock::now();
  *expired = 0;
  std::size_t published = 0;
  for (std::size_t j = 0; j < sh.n_jobs; ++j) {
    const Shard::Job& job = sh.jobs[j];
    Stream* s = job.stream;
    if (sh.job_dead[j] != 0) continue;
    if (deadline_enabled_ && now > job.arrival + deadline_budget_) {
      MutexLock lk(s->mu);
      ++s->deadline_dropped;
      ++*expired;
      continue;
    }
    MMHAR_CHECK((j + 1) * num_classes_ <= sh.logits.size());
    const float* row = sh.logits.data() + j * num_classes_;
    Classification result;
    result.frame_seq = job.seq;
    result.latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            now - job.arrival)
                            .count();
    std::size_t best = 0;
    for (std::size_t c = 1; c < num_classes_; ++c)
      if (row[c] > row[best]) best = c;
    result.predicted = best;
    std::copy(row, row + num_classes_, result.logits);
    MutexLock lk(s->results_mu);
    if (s->rcount == config_.result_depth) {
      s->rhead = (s->rhead + 1) % config_.result_depth;
      --s->rcount;
      ++s->dropped_results;
    }
    s->results[(s->rhead + s->rcount) % config_.result_depth] = result;
    ++s->rcount;
    ++s->classifications;
    ++published;
  }
  return published;
}

std::size_t StreamingHarService::run_shard_cycle(std::size_t shard) {
  MMHAR_CHECK(shard < shards_.size());
  Shard& sh = *shards_[shard];
  {
    MutexLock lk(registry_->mu);
    const std::size_t n = registry_->streams.size();
    MMHAR_CHECK(sh.cycle_streams.size() >= n);
    sh.n_cycle_streams = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Stream* s = registry_->streams[i].get();
      if (s->shard != shard) continue;
      sh.cycle_streams[sh.n_cycle_streams] = s;
      sh.cycle_ids[sh.n_cycle_streams] = i;
      ++sh.n_cycle_streams;
    }
  }
  sh.n_jobs = 0;

  // Claim until the batch budget is spent; deadline-expired and
  // suspension-shed frames count against the budget too (their removal
  // is the cycle's work product as much as a classification is, and the
  // bound keeps a flood of stale frames from pinning the shard in this
  // loop). Every claim passes the quarantine scan before it may enter
  // the fused DSP round.
  std::size_t claimed = 0;
  std::size_t expired = 0;
  std::size_t shed = 0;
  while (claimed + expired + shed < config_.batch_max) {
    std::size_t round_expired = 0;
    std::size_t round_shed = 0;
    const std::size_t got =
        claim_round(sh, config_.batch_max - claimed - expired - shed,
                    &round_expired, &round_shed);
    expired += round_expired;
    shed += round_shed;
    if (got == 0 && round_expired == 0 && round_shed == 0) break;
    if (got > 0) {
      const std::size_t live = quarantine_claims(sh, got);
      if (live > 0) process_round(sh, live);
    }
    claimed += got;
  }

  std::size_t published = 0;
  std::size_t publish_expired = 0;
  if (sh.n_jobs > 0) {
    run_inference(sh);
    published = publish_results(sh, &publish_expired);
  }

  const std::size_t consumed = claimed + expired + shed;
  if (consumed > 0) {
    sh.stat_cycles.fetch_add(1, std::memory_order_relaxed);
    sh.stat_frames.fetch_add(claimed, std::memory_order_relaxed);
    sh.stat_classifications.fetch_add(published, std::memory_order_relaxed);
    sh.stat_deadline_dropped.fetch_add(expired + publish_expired,
                                       std::memory_order_relaxed);
  }
  return consumed;
}

std::size_t StreamingHarService::run_cycle() {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i)
    total += run_shard_cycle(i);
  return total;
}

// Worker loop: sleep until the shard's epoch moves, then run cycles while
// each consumes batch_max. A cycle that consumes less ended on a claim
// round that found every stream empty, so each frame admitted before the
// epoch read is consumed and any later admit moves the epoch again: no
// lost wake-up, no timed wait.
//
// An escaping exception is caught, counted in the shard's faults and
// logged; the cycle state is reset and the loop reruns at once on the
// same thread (frames may still be queued). serving.shard_crash injects
// that path claim-free, before the cycle claims. A non-mmhar::Error thrown
// mid-cycle strands that cycle's claimed slots; nothing here returns them.
//
// busy_since brackets each cycle for ShardStats::busy_ms. An injected
// serving.shard_stall blocks inside it for kInjectedStall, ignoring stop:
// a non-cooperative step that busy_ms reports and stop() waits out.
void StreamingHarService::shard_main(std::size_t shard) {
  Shard& sh = *shards_[shard];
  std::uint64_t seen = 0;
  bool more = false;  // the last cycle may have left frames queued
  for (;;) {
    {
      MutexLock lk(sh.sched.mu);
      while (!more && sh.sched.epoch == seen && !sh.sched.stop)
        sh.sched.cv.wait(sh.sched.mu);
      if (sh.sched.stop) return;
      seen = sh.sched.epoch;
    }
    try {
      sh.busy_since.store(Clock::now().time_since_epoch().count(),
                          std::memory_order_relaxed);
      if (fault_injection_armed()) {
        if (fault_should_fire("serving.shard_crash"))
          throw Error("fault injection: serving.shard_crash");
        if (fault_should_fire("serving.shard_stall")) {
          const Clock::time_point until = Clock::now() + kInjectedStall;
          while (Clock::now() < until) std::this_thread::yield();
        }
      }
      more = run_shard_cycle(shard) >= config_.batch_max;
    } catch (...) {
      sh.stat_faults.fetch_add(1, std::memory_order_relaxed);
      sh.n_jobs = 0;
      sh.n_cycle_streams = 0;
      sh.rr = 0;
      MMHAR_LOG(Error) << "serving shard " << shard
                       << ": contained a cycle fault; continuing";
      more = true;
    }
    sh.busy_since.store(0, std::memory_order_relaxed);
  }
}

void StreamingHarService::start() {
  MMHAR_REQUIRE(!started_, "StreamingHarService::start: already running");
  for (std::unique_ptr<Shard>& sh : shards_) {
    MutexLock lk(sh->sched.mu);
    sh->sched.stop = false;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->worker = std::thread([this, i] { shard_main(i); });
  started_ = true;
}

void StreamingHarService::stop() {
  if (!started_) return;
  for (std::unique_ptr<Shard>& sh : shards_) {
    MutexLock lk(sh->sched.mu);
    sh->sched.stop = true;
    sh->sched.cv.notify_all();
  }
  for (std::unique_ptr<Shard>& sh : shards_) {
    if (sh->worker.joinable()) sh->worker.join();
  }
  started_ = false;
}

}  // namespace mmhar::serving
