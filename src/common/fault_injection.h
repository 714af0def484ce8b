// Deterministic fault injection for durability testing.
//
// The artifact store (common/artifact_store.h) and the experiment runtime
// ask this injector, at named sites, whether a fault should fire *now*:
// a truncated file, a flipped bit, a short write, a failed rename, a
// repeat that dies mid-training. The answer is a pure function of the
// configured spec, the seed, and the per-site call count, so every
// recovery path in the test suite replays identically — including under
// the ASan/UBSan/TSan CI legs.
//
// Configuration (environment, read once on first use):
//   MMHAR_FAULT_SPEC   comma-separated site rules (below); empty = off
//   MMHAR_FAULT_SEED   seed for probabilistic rules (default 1)
//
// Spec grammar, one entry per site (N and P are unsigned decimals; an
// entry carries at most one of @ and =):
//   site          fire on every call
//   site@N        fire on exactly the Nth call of that site (1-based)
//   site=P        fire with probability P per call (deterministic stream)
//
// Example: MMHAR_FAULT_SPEC="artifact.truncate@2,artifact.rename_fail=0.5"
//
// Sites currently wired:
//   artifact.truncate      final file loses its tail bytes after commit
//   artifact.bitflip       one payload bit flips after commit
//   artifact.short_write   temp-file write stops partway and throws IoError
//   artifact.rename_fail   temp->final rename throws IoError (temp removed)
//   experiment.repeat_fail one sweep repeat throws before training
//   serving.frame_poison   a claimed frame gains a NaN sample before the
//                          quarantine scan (one call per claimed frame)
//   serving.infer_fail     one micro-batch inference row fails and is
//                          contained per-row (one call per job row)
//   serving.shard_stall    a shard worker blocks inside its cycle for a
//                          bounded interval, ignoring stop; reported on
//                          ShardStats::busy_ms (one call per worker cycle)
//   serving.shard_crash    a shard worker's cycle throws, claim-free; the
//                          worker counts it and continues in place (one
//                          call per worker cycle)
//
// Tests normally bypass the env and call
// `FaultInjector::instance().configure(spec, seed)` directly, then
// `clear()` in teardown. All entry points are thread-safe; the unarmed
// fast path is a single relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace mmhar {

class FaultInjector {
 public:
  /// Process-wide injector; first call loads MMHAR_FAULT_SPEC/SEED.
  static FaultInjector& instance();

  /// Replace the active spec (tests). Throws InvalidArgument on a
  /// malformed spec. An empty spec disarms the injector.
  void configure(const std::string& spec, std::uint64_t seed);

  /// Disarm and forget all rules and counters.
  void clear();

  /// True when any rule is loaded.
  bool armed() const;

  /// Should the named site fault on this call? Increments the site's
  /// call counter whether or not it fires.
  bool should_fire(const char* site);

  /// Deterministic parameter draw in [0, n) for a firing site (e.g. which
  /// byte to flip). Requires n > 0.
  std::uint64_t draw(std::uint64_t n);

  /// Diagnostics for tests.
  std::size_t call_count(const std::string& site) const;
  std::size_t fire_count(const std::string& site) const;

 private:
  FaultInjector();

  struct Rule {
    double probability = 1.0;  ///< used when nth == 0
    std::uint64_t nth = 0;     ///< fire on exactly this call when > 0
  };

  mutable Mutex mutex_;
  std::map<std::string, Rule> rules_ MMHAR_GUARDED_BY(mutex_);
  std::map<std::string, std::size_t> calls_ MMHAR_GUARDED_BY(mutex_);
  std::map<std::string, std::size_t> fires_ MMHAR_GUARDED_BY(mutex_);
  Rng rng_ MMHAR_GUARDED_BY(mutex_) = Rng(1);
};

/// Fast-path helpers: no-ops (false / 0) when the injector is unarmed.
bool fault_should_fire(const char* site);
std::uint64_t fault_draw(std::uint64_t n);

/// Unarmed fast path for real-time callers: one relaxed atomic load (plus
/// a one-time instance init so an exported MMHAR_FAULT_SPEC arms the
/// first call). Guard every hot-path fault_should_fire/fault_draw behind
/// this — those take the injector mutex and may allocate bookkeeping, so
/// the zero-steady-state-allocation contract only holds when they are
/// unreachable while disarmed.
bool fault_injection_armed();

}  // namespace mmhar
