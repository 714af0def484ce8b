// Experiment harness shared by the bench binaries.
//
// Owns the datasets (training-environment train/test grids, the
// cross-environment attack grids), the attacker's surrogate model, plan
// caching, and repeated backdoor training runs. Everything deterministic
// and disk-cached, so the twelve figure/table benches share one set of
// simulated datasets and one surrogate instead of regenerating them.
//
// Scale knobs (environment variables):
//   MMHAR_REPS_TRAIN  repetitions per grid cell in the training set (2)
//   MMHAR_REPS_TEST   repetitions per grid cell in the test sets (1)
//   MMHAR_EPOCHS      training epochs (20)
//   MMHAR_REPEATS     backdoor-training repetitions per point (2; the
//                     paper uses 30)
//   MMHAR_CACHE_DIR   dataset/model cache directory (.mmhar_cache)
#pragma once

#include <map>
#include <optional>
#include <tuple>

#include "common/journal.h"
#include "core/attack_eval.h"
#include "core/backdoor_attack.h"
#include "har/trainer.h"

namespace mmhar::core {

struct ExperimentSetup {
  har::GeneratorConfig train_generator;   ///< hallway environment
  har::GeneratorConfig attack_generator;  ///< classroom environment
  har::DatasetConfig train_grid;          ///< repetition offset 0
  har::DatasetConfig test_grid;           ///< disjoint repetition offset
  har::DatasetConfig attack_grid;         ///< victim-only filled per point
  har::HarModelConfig model;
  har::TrainConfig training;
  xai::ShapConfig shap;
  PositionObjective objective;
  std::size_t repeats = 2;
  std::string cache_dir;
  /// Sweep crash tolerance: append one journal record per completed
  /// (point, repeat) to `<cache_dir>/sweep_journal.jnl` and replay intact
  /// records on rerun, so a killed sweep resumes at the last completed
  /// unit with bit-identical numbers. MMHAR_RESUME=0 disables.
  bool resume_sweeps = true;
  /// Per-epoch checkpointing cadence for the cached clean/surrogate
  /// trainings (0 disables; env MMHAR_CHECKPOINT_EVERY).
  std::size_t checkpoint_every = 1;

  /// Paper-§VI grid at laptop scale, env-var adjustable.
  static ExperimentSetup standard();
};

/// One point on a sweep (one bar/marker in a paper figure).
struct AttackPoint {
  std::size_t victim = 0;  ///< Push
  std::size_t target = 1;  ///< Pull
  mesh::TriggerSpec trigger = mesh::TriggerSpec::aluminum_2x2();
  double injection_rate = 0.4;
  std::size_t poisoned_frames = 8;
  FrameSelection frame_selection = FrameSelection::ShapTopK;
  bool optimize_position = true;
  /// Override the attack-test grid (angle/distance robustness figures).
  std::optional<har::DatasetConfig> attack_grid_override;
};

struct PointSummary {
  AttackMetrics mean;
  AttackMetrics stddev;
  std::size_t repeats = 0;         ///< repeats requested
  std::size_t failed_repeats = 0;  ///< repeats that failed after one retry
  std::vector<std::string> errors;  ///< one message per failed repeat

  /// At least one repeat produced metrics (mean/stddev are meaningful).
  bool ok() const { return failed_repeats < repeats; }
};

class AttackExperiment {
 public:
  explicit AttackExperiment(ExperimentSetup setup);

  const ExperimentSetup& setup() const { return setup_; }

  /// Clean training set (hallway, cached).
  const har::Dataset& train_set();
  /// Clean held-out test set (hallway, disjoint repetitions).
  const har::Dataset& test_set();
  /// The attacker's surrogate model, trained on clean data (cached).
  har::HarModel& surrogate();
  /// A clean victim model for Fig. 7 (same pipeline, different seed).
  har::HarModel& clean_model();

  /// The attack plan for a point's (victim, trigger, selection,
  /// position-mode) tuple; memoized. The trigger position is planned once
  /// against the SHAP top-8 reference frames (the paper fixes the global
  /// position, then sweeps the poisoned-frame count), so all k values of
  /// a sweep share one placement — and therefore one set of triggered
  /// twins.
  const BackdoorPlan& plan_for(const AttackPoint& point);

  /// Poisoning frames for a specific point, derived from its plan's SHAP
  /// scores (or 0..k-1 for FrameSelection::FirstK).
  static std::vector<std::size_t> frames_for(const BackdoorPlan& plan,
                                             const AttackPoint& point);

  /// Trigger-bearing victim samples in the ATTACK environment for a
  /// point (the physical test-time trigger), disk-cached.
  har::Dataset attack_test_set(const AttackPoint& point);

  /// Train `repeats` backdoored models for the point and average the
  /// metrics (paper averages 30 repetitions).
  ///
  /// Fault tolerance: completed repeats are journaled (resumable after a
  /// kill, bit-identical on replay); a repeat that throws `mmhar::Error`
  /// — corrupt artifact, MMHAR_FINITE_CHECKS tripwire, injected fault —
  /// is retried once (corrupt caches were quarantined, so the retry
  /// regenerates) and otherwise recorded in `failed_repeats`/`errors`
  /// instead of aborting the sweep.
  PointSummary run_point(const AttackPoint& point);

  /// One backdoored model for a point (no averaging; Table-I style and
  /// examples). Returns the trained model and its metrics.
  std::pair<har::HarModel, AttackMetrics> run_single(
      const AttackPoint& point, std::uint64_t repeat_index = 0);

 private:
  har::HarModel train_fresh(const har::Dataset& data, std::uint64_t seed);
  har::HarModel load_or_train_clean(std::uint64_t seed,
                                    const std::string& tag);

  using PlanKey = std::tuple<std::size_t, std::size_t, long, int, int>;
  PlanKey plan_key(const AttackPoint& point) const;

  /// Journal identity of a sweep point: a hash of the full setup plus the
  /// point's own knobs, so any config change invalidates old records.
  std::uint64_t point_hash(const AttackPoint& point) const;
  /// Lazy-open `<cache_dir>/sweep_journal.jnl` and index its records.
  void ensure_journal();
  void journal_append(std::uint64_t point_h, std::uint64_t repeat,
                      const AttackMetrics& m);

  ExperimentSetup setup_;
  har::SampleGenerator train_gen_;
  har::SampleGenerator attack_gen_;
  std::optional<har::Dataset> train_set_;
  std::optional<har::Dataset> test_set_;
  std::optional<har::HarModel> surrogate_;
  std::optional<har::HarModel> clean_model_;
  std::map<PlanKey, BackdoorPlan> plans_;

  std::optional<AppendJournal> journal_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, AttackMetrics>
      journal_index_;
};

/// Format helper used by benches: "84.2" style percentage.
std::string pct(double fraction);

}  // namespace mmhar::core
