// Streaming HAR inference service: many concurrent radar streams in,
// micro-batched classifications out, scaled across N batcher shards.
//
// Architecture (one box per thread role):
//
//   producers (N threads)          shard workers (S threads)      consumers
//   ─────────────────────          ─────────────────────────      ─────────
//   submit_frame(cube) ──► per-stream frame ring ──► owning shard claims
//                          (bounded, drop policy)    round-robin (≤1 frame/
//                                                    stream/round), dropping
//                                                    frames past deadline
//                                                         │
//                                                    fused Range-FFT
//                                                    (one fft_many_crop_multi
//                                                     call per shard round,
//                                                     SIMD lanes across the
//                                                     shard's streams)
//                                                         │
//                                                    clutter removal (serial)
//                                                         │
//                                                    fused Angle-FFT → DRAI
//                                                    (one fft_many_mag_accum_
//                                                     multi call)
//                                                         │
//                                                    per-stream sliding window
//                                                    (T raw DRAI frames)
//                                                         │
//                                                    per-model micro-batched
//                                                    CNN-LSTM (prepacked-GEMM
//                                                    InferencePlan from the
//                                                    ModelRegistry)
//                                                         │
//                          per-stream result ring ◄── push ──► poll()
//
// Sharding: each stream is pinned to one shard by a stable affinity hash
// of its id (serving/affinity.h), so every piece of per-stream state —
// frame ring, sliding DRAI window, result ring — has exactly one
// consuming thread and shards share nothing but the immutable config and
// model plans. Because the assignment is a pure function of the stream id
// and the per-lane DSP / per-row GEMM arithmetic is independent of batch
// composition, a stream's classification sequence is bit-identical for
// ANY shard count (tested for shards ∈ {1, 2, 4}, including under TSan).
//
// Deadline scheduling: when ServingConfig::slo_ms > 0 every admitted
// frame carries an implicit deadline (arrival + SLO). A shard discards
// queued frames whose deadline has already passed instead of burning its
// cycle on work nobody can use, and a classification that would be
// published after its newest frame's deadline is discarded too — so under
// overload the latency of *delivered* results stays bounded by the SLO
// and the overflow shows up in StreamStats::deadline_dropped instead of
// in a collapsing tail. slo_ms = 0 (default) preserves pure FIFO.
//
// Multi-model: the service owns a ModelRegistry; each stream is keyed to
// one registered model version at add_stream time (clean vs backdoored
// A/B over live streams is the intended experiment). A shard cycle
// micro-batches each model's completed windows through that model's
// prepacked-GEMM plan, one infer_forward per model that reads the
// model's rows of the cycle's network input in place.
//
// Ownership boundaries: the ModelRegistry, window geometry, and packed
// weights are immutable once serving starts; all per-cycle working state
// lives in shard-owned grow-once arenas. After a warm-up cycle the whole
// submit → classify path performs zero heap allocations on every shard
// (asserted by tests via the mmhar_alloc_count hook).
//
// Backpressure: every stream's frame ring is bounded (queue_depth). When
// a producer submits into a full ring, DropPolicy::kOldest discards the
// oldest *queued* frame (frames the shard already claimed are never
// dropped) and accepts the new one; DropPolicy::kNewest rejects the new
// frame. Either way memory stays bounded and the per-stream drop/reject/
// deadline counters expose the overload instead of hiding it.
//
// Fault containment (DESIGN.md §6c): a poisoned frame, a failing
// inference row, or a dying shard worker is a per-stream (or per-shard)
// event, never process death.
//   * Quarantine — every claimed frame is scanned at the claim boundary;
//     a non-finite payload is dropped and counted in
//     StreamStats::quarantined before it can reach the fused DSP.
//   * Degradation — mmhar::Error at a DSP or inference boundary falls
//     back to per-frame / per-row (batch-1) reruns, so only the faulty
//     row is sacrificed (counted in StreamStats::errors); per-lane FFT
//     and per-row GEMM arithmetic is batch-composition independent, so
//     every surviving stream's logits stay bit-identical to a fault-free
//     run. A stream exceeding max_stream_faults consecutive faults is
//     suspended: its backlog is shed (suspended_dropped) and only one
//     recovery-probe frame per cycle is processed until a frame succeeds.
//   * Worker faults — shard_main lets no exception escape: it catches,
//     counts the fault in ShardStats::faults, resets the shard's cycle
//     state, and keeps looping on the same thread while the other shards
//     keep serving. A stall is reported, not repaired: health() derives
//     each shard's ShardStats::busy_ms on read from the time its current
//     cycle began. The service cannot preempt a wedged worker — a cycle
//     that never returns holds its shard (and stop()) until it does.
//     Fault-injection sites serving.frame_poison / serving.infer_fail /
//     serving.shard_stall / serving.shard_crash (common/fault_injection.h)
//     drive every one of these paths deterministically in tests; disarmed,
//     they cost one relaxed atomic load and the zero-allocation steady
//     state is unchanged.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "dsp/heatmap.h"
#include "har/infer.h"
#include "har/model.h"
#include "serving/model_registry.h"

namespace mmhar::serving {

/// What submit_frame does when a stream's frame ring is full.
enum class DropPolicy {
  kOldest,  ///< drop the oldest queued frame, accept the new one
  kNewest,  ///< reject the new frame
};

/// Upper bound on HarModelConfig::num_classes the fixed-size result
/// record supports (avoids per-result allocation).
inline constexpr std::size_t kMaxServingClasses = 16;

struct ServingConfig {
  std::size_t max_streams = 64;   ///< streams preallocated at construction
  std::size_t queue_depth = 4;    ///< per-stream frame-ring capacity
  std::size_t batch_max = 64;     ///< frames fused per shard cycle
  std::size_t result_depth = 64;  ///< per-stream result-ring capacity
  std::size_t num_shards = 1;     ///< batcher shards (one worker each)
  DropPolicy drop_policy = DropPolicy::kOldest;

  /// Admission SLO in milliseconds; 0 disables deadline scheduling. A
  /// frame older than this is dropped at claim time, and a result that
  /// would publish past it is dropped at publish time (both counted in
  /// StreamStats::deadline_dropped).
  long slo_ms = 0;

  /// Consecutive contained faults (quarantines + errors) a stream may
  /// accumulate before it is suspended; 0 never suspends. A suspended
  /// stream sheds its queued backlog and processes one recovery-probe
  /// frame per cycle; the first clean frame lifts the suspension.
  std::size_t max_stream_faults = 3;

  // Radar frame geometry every stream must honor.
  std::size_t num_chirps = 16;
  std::size_t num_antennas = 16;
  std::size_t num_samples = 64;

  /// DSP chain configuration; range_bins/angle_bins must match the
  /// model's height/width and normalize_per_sequence must be set (the
  /// window normalizes over the whole T-frame sequence, exactly like
  /// compute_drai_sequence).
  dsp::HeatmapConfig heatmap;

  /// Defaults overridden by MMHAR_SERVING_BATCH / _QUEUE_DEPTH /
  /// _DROP_POLICY ("oldest" | "newest") / _SHARDS / _SLO_MS /
  /// _MAX_STREAM_FAULTS.
  static ServingConfig from_env();
};

/// One classification result for a stream.
struct Classification {
  std::uint64_t frame_seq = 0;  ///< per-stream seq of the window's newest frame
  std::size_t predicted = 0;    ///< argmax class index
  std::int64_t latency_ns = 0;  ///< newest-frame submit → classification
  float logits[kMaxServingClasses] = {};
};

/// Monotonic per-stream counters (snapshot).
struct StreamStats {
  std::uint64_t submitted = 0;         ///< submit_frame calls
  std::uint64_t accepted = 0;          ///< frames admitted to the ring
  std::uint64_t dropped_frames = 0;    ///< queued frames evicted (kOldest)
  std::uint64_t rejected_frames = 0;   ///< submissions refused (ring full)
  std::uint64_t deadline_dropped = 0;  ///< frames/results past the SLO deadline
  std::uint64_t deepest_queue = 0;     ///< frame-ring occupancy high-watermark
  std::uint64_t classifications = 0;   ///< results produced
  std::uint64_t dropped_results = 0;   ///< results evicted from a full ring
  std::uint64_t quarantined = 0;       ///< non-finite frames dropped at claim
  std::uint64_t errors = 0;            ///< contained DSP/inference faults
  std::uint64_t suspended_dropped = 0; ///< backlog shed while suspended
  std::uint64_t suspensions = 0;       ///< times the stream entered suspension
  bool suspended = false;              ///< currently suspended (probing)
};

/// Per-shard snapshot: monotonic counters (relaxed reads of the shard
/// worker's single-writer counters) plus the current cycle's age.
struct ShardStats {
  std::uint64_t cycles = 0;            ///< shard cycles that consumed frames
  std::uint64_t frames = 0;            ///< frames claimed and processed
  std::uint64_t classifications = 0;   ///< results published
  std::uint64_t deadline_dropped = 0;  ///< deadline drops (claim + publish)
  std::uint64_t faults = 0;    ///< contained stream faults + caught crashes
  std::uint64_t busy_ms = 0;   ///< age of the worker's current cycle; 0 idle
};

/// Whole-service fault snapshot (cold path: allocates the per-shard
/// vector; not for the serving hot loop).
struct ServiceHealth {
  std::uint64_t quarantined = 0;        ///< sum of StreamStats::quarantined
  std::uint64_t errors = 0;             ///< sum of StreamStats::errors
  std::size_t suspended_streams = 0;    ///< streams currently suspended
  std::vector<ShardStats> shards;
};

class StreamingHarService {
 public:
  /// Snapshots `model`'s weights into the registry as model id 0 and
  /// preallocates every ring and per-shard arena; later training of
  /// `model` does not affect the service.
  StreamingHarService(const ServingConfig& config, har::HarModel& model);
  ~StreamingHarService();
  StreamingHarService(const StreamingHarService&) = delete;
  StreamingHarService& operator=(const StreamingHarService&) = delete;

  const ServingConfig& config() const { return config_; }

  /// Register another model version (same architecture as model 0, seed
  /// excepted); returns its id. Setup-phase only: must be called before
  /// start() — the registry is read lock-free by running shards.
  std::size_t add_model(har::HarModel& model);
  std::size_t num_models() const { return models_.size(); }

  /// Activate the next stream slot, classified by `model_id` (default:
  /// model 0) and pinned to its affinity shard; returns the stream id.
  /// Thread-safe; fails once max_streams are active.
  std::size_t add_stream(std::size_t model_id = 0);

  /// Shard the affinity hash pinned `stream` to.
  std::size_t shard_of_stream(std::size_t stream) const MMHAR_REALTIME_HANDOFF;

  /// Copy one radar frame into `stream`'s ring. Returns true when the
  /// frame was admitted (possibly evicting an older queued frame under
  /// kOldest), false when it was rejected. Thread-safe; one producer per
  /// stream is the intended pattern but not required.
  bool submit_frame(std::size_t stream,
                    const dsp::RadarCube& cube) MMHAR_REALTIME_HANDOFF;

  /// Pop up to out.size() pending results for `stream` (oldest first).
  /// Returns the number written. Thread-safe.
  std::size_t poll(std::size_t stream,
                   std::span<Classification> out) MMHAR_REALTIME_HANDOFF;

  StreamStats stream_stats(std::size_t stream) const MMHAR_REALTIME_HANDOFF;
  ShardStats shard_stats(std::size_t shard) const;

  /// Fault snapshot: every shard's ShardStats (faults, busy_ms) plus
  /// service-wide quarantine, error, and suspension totals. Thread-safe,
  /// cold path (allocates the result vector).
  ServiceHealth health() const;

  /// Spawn one background worker per shard. start/stop/run_cycle must
  /// be sequenced by the owner (single controlling thread).
  void start();

  /// Ask every shard worker to exit and join them; a worker in the
  /// middle of a cycle finishes it first. Idempotent.
  void stop();

  /// Run one cycle of every shard on the calling thread, in shard order.
  /// Returns the number of frames consumed (claimed + deadline-expired).
  /// Only valid while the background workers are NOT running — tests and
  /// benchmarks use this for deterministic, single-threaded pumping.
  std::size_t run_cycle() MMHAR_REALTIME_HANDOFF;

  /// One cycle of a single shard (what a shard worker runs per wake-up):
  /// claim up to batch_max queued frames owned by `shard`, run the fused
  /// DSP + per-model micro-batched inference pipeline, publish results.
  /// Returns the number of frames consumed. Thread-safe against the other
  /// shards; at most one caller per shard.
  std::size_t run_shard_cycle(std::size_t shard) MMHAR_REALTIME_HANDOFF;

 private:
  struct Stream;
  struct Shard;
  struct WindowTable;

  // The MMHAR_REALTIME_HANDOFF annotations above and below form the
  // serving steady-state root set of tools/mmhar_check's rt rules (see
  // tools/check_roots.txt): everything reachable from them is proved
  // allocation-, blocking-, throw-free, with bounded lock hand-offs
  // permitted only in the annotated bodies themselves. shard_main is
  // deliberately NOT annotated: its condvar wait is the idle-side sleep
  // and its busy-clock reads are supervision, both outside the real-time
  // region that starts once work exists.
  Stream* stream_ptr(std::size_t idx) const MMHAR_REALTIME_HANDOFF;
  void shard_main(std::size_t shard);
  std::size_t claim_round(Shard& sh, std::size_t budget, std::size_t* expired,
                          std::size_t* shed) MMHAR_REALTIME_HANDOFF;
  std::size_t quarantine_claims(Shard& sh,
                                std::size_t n_claims) MMHAR_REALTIME_HANDOFF;
  void record_stream_fault(Shard& sh, Stream* s,
                           bool quarantine) MMHAR_REALTIME_HANDOFF;
  void clear_stream_fault_streak(Stream* s) MMHAR_REALTIME_HANDOFF;
  void process_round(Shard& sh, std::size_t n_claims) MMHAR_REALTIME_HANDOFF
      MMHAR_DETERMINISTIC;
  void run_inference(Shard& sh) MMHAR_REALTIME_HANDOFF MMHAR_DETERMINISTIC;
  std::size_t publish_results(Shard& sh,
                              std::size_t* expired) MMHAR_REALTIME_HANDOFF;

  ServingConfig config_;
  std::size_t window_frames_ = 0;   ///< T, from the model config
  std::size_t num_classes_ = 0;
  bool deadline_enabled_ = false;
  std::chrono::steady_clock::duration deadline_budget_{};
  const float* range_window_ = nullptr;  ///< cached window table (stable)
  ModelRegistry models_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Sliding DRAI windows indexed by global stream id; each entry is only
  // ever touched by the cycle of the shard its stream is pinned to, so
  // the table needs no locking (single consumer per stream by affinity).
  std::unique_ptr<WindowTable> windows_;

  // Stream registry: the vector is reserved to max_streams up front, so
  // element storage never moves; Stream objects are heap-stable.
  struct Registry;
  std::unique_ptr<Registry> registry_;

  bool started_ = false;  ///< owner-thread state, not shared
};

}  // namespace mmhar::serving
