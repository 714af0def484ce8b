// Shared pieces of the repo benchmark (see run.py for the command line):
// options, the result record every workload returns, the in-memory span
// recorder, and small measurement helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few seconds (the benchmark's own tests).
  bool smoke = false;
  /// Test hook: corrupt one output before the correctness check, which
  /// must then count a failed operation.
  bool force_mismatch = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string source_id = "unknown";
};

struct Metric {
  const char* name;
  const char* unit;
};

/// The metrics every run prints, in BENCHMARK.json's order: the end-to-end
/// ones with --trace 0, the per-layer ones with --trace 1. Every workload
/// fills every name; each is defined so that it applies to all of them:
///
///   op          a window due (serving) or the attack point (attack_point)
///   setup_s     median process-CPU seconds of the workload's set-ups
///   cpu_ms_per_op
///               process CPU per successful op over the timed region
///   ops_per_s   successful ops per wall second over the timed region.
///               Not bounded: under host contention the attack point's
///               wall time spread 0.16 (IQR/median over ten runs), its CPU
///               time 0.09
///   latency_*   per op: due -> result (serve_paced), newest-frame submit
///               -> result (serve_saturate), the point's wall time
///               (attack_point, one sample)
///   dsp.frame_us, har.infer_us_per_window, har.windows_per_call
///               the DSP and inference entry points the workload's ops go
///               through, replayed at the batch the workload ran them at
///   kernel_cpu_share
///               (frames x dsp.frame_us + windows x
///               har.infer_us_per_window) / process CPU of the timed region
inline constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"cpu_ms_per_op", "ms"},
};
inline constexpr Metric kPerLayer[] = {
    {"ops_per_s", "1/s"},
    {"cpu_util", "cores"},
    {"setup_wall_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"dsp.frame_us", "us"},
    {"har.infer_us_per_window", "us"},
    {"har.windows_per_call", "windows"},
    {"kernel_cpu_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// What one workload pass reports. `detail` lines are JSON objects
/// printed before the final result line (sample counts, the workload's
/// own layer counters and stage timings).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  ///< by metric name
  std::vector<std::string> detail;
  std::size_t shards = 0;
  /// Outputs that must be identical between the untraced and the traced
  /// pass of one run (empty when the workload's outputs are timing
  /// dependent).
  std::string fingerprint;

  /// Set a metric of kEndToEnd or kPerLayer (throws on any other name).
  void set(const std::string& name, double value);
  /// Record a failed correctness check as one failed operation.
  void mismatch(const std::string& what);
};

/// The `metrics` object of the result line: every metric of `table` with
/// its unit. Throws when one is unset or not a finite number, so a run
/// never prints a partial result.
std::string metrics_json(const Outcome& out, std::span<const Metric> table);

// ---- Tracing ---------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< relative to the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 at root
  std::uint64_t request = 0;  ///< shared by every span of one request
};

/// Spans recorded around the benchmark's calls into the library. Single
/// threaded: every span is opened and closed on the driving thread.
/// Disabled tracers record nothing and cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t capacity = 1u << 20);

  bool enabled() const { return enabled_; }
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Durations in nanoseconds of every span called `name`.
  std::vector<std::int64_t> durations_ns(const char* name) const;

  /// Write the spans as JSON lines; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::size_t capacity_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t dropped_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// ---- Measurement helpers ---------------------------------------------------

double seconds_since(Clock::time_point t0);

/// Keep every CPU busy for `seconds`. On a virtual machine a vCPU that sat
/// idle comes back slowly for a while, which the start of a run would
/// otherwise measure.
void wake_cpus(double seconds);

/// User + system CPU seconds of the whole process so far.
double process_cpu_s();

/// Wall and process-CPU seconds spent in a stage. Set-up and the attack
/// point's bounded timings use the CPU seconds: on a shared virtual machine
/// the host steals a varying share of CPU time, which moved wall times by
/// up to 2x between runs while the CPU time the work needs stayed within
/// ~10%.
struct Stage {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Adds the wall and CPU time of its scope to a Stage.
class StageTimer {
 public:
  explicit StageTimer(Stage& into)
      : into_(into), t0_(Clock::now()), cpu0_(process_cpu_s()) {}
  ~StageTimer() {
    into_.wall_s += seconds_since(t0_);
    into_.cpu_s += process_cpu_s() - cpu0_;
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage& into_;
  Clock::time_point t0_;
  double cpu0_;
};

double median_wall_s(const std::vector<Stage>& stages);
double median_cpu_s(const std::vector<Stage>& stages);

/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// Rank-interpolated quantile q of `sorted`; empty when fewer than
/// `min_beyond` samples lie above the quantile's rank (a tail estimate
/// with fewer samples behind it is noise). The result line needs a number
/// for every metric, so it uses min_beyond = 0 and the detail line states
/// the sample count beside the thresholded value.
std::optional<double> quantile(const std::vector<double>& sorted, double q,
                               std::size_t min_beyond = 10);

double median(std::vector<double> values);

/// JSON string literal for `s` (quotes and escapes included).
std::string json_str(const std::string& s);

/// A number with every digit it has ("null" for an empty optional).
std::string json_num(std::optional<double> v);

// ---- Workloads -------------------------------------------------------------

Outcome run_serve_paced(const Options& opt, Tracer& tracer);
Outcome run_serve_saturate(const Options& opt, Tracer& tracer);
Outcome run_attack_point(const Options& opt, Tracer& tracer);

}  // namespace perfbench
