#include "core/backdoor_attack.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace mmhar::core {

BackdoorAttack::BackdoorAttack(const har::SampleGenerator& generator,
                               har::HarModel& surrogate,
                               BackdoorAttackConfig config)
    : generator_(generator), surrogate_(surrogate), config_(config) {
  MMHAR_REQUIRE(config_.victim_label != config_.target_label,
                "victim and target labels must differ");
  config_.reference_spec.activity =
      mesh::activity_from_index(config_.victim_label);
}

BackdoorPlan BackdoorAttack::plan(const har::Dataset& clean_train) {
  BackdoorPlan plan;

  // ---- Phase 1a: SHAP frame importance (Eq. 1). ----
  auto victim_indices = clean_train.indices_of_label(config_.victim_label);
  MMHAR_REQUIRE(!victim_indices.empty(), "no victim samples in train set");
  if (victim_indices.size() > 3) victim_indices.resize(3);

  xai::FrameImportance importance(surrogate_, config_.shap);
  plan.mean_abs_shap = importance.mean_abs_shap(clean_train, victim_indices,
                                                config_.victim_label);

  if (config_.frame_selection == FrameSelection::ShapTopK) {
    plan.frames = xai::top_k_by_magnitude(plan.mean_abs_shap,
                                          config_.poisoned_frames);
  } else {
    plan.frames.resize(config_.poisoned_frames);
    for (std::size_t i = 0; i < plan.frames.size(); ++i) plan.frames[i] = i;
  }

  // ---- Phase 1b: trigger position (Eqs. 2 and 4). ----
  const mesh::HumanBody body(
      mesh::BodyParams::participant(config_.reference_spec.participant));
  plan.placement.spec = config_.trigger;
  plan.placement.local_normal = {-1.0, 0.0, 0.0};

  if (!config_.optimize_position) {
    // Ablation: suboptimal location on the leg (Table I row 2).
    plan.placement.local_position =
        body.anchor_position(mesh::BodyAnchor::RightThigh);
    plan.placement.local_normal =
        body.anchor_normal(mesh::BodyAnchor::RightThigh);
    return plan;
  }

  TriggerPositionOptimizer optimizer(generator_, surrogate_,
                                     config_.objective);
  auto search =
      optimizer.search(config_.reference_spec, config_.trigger, plan.frames);
  plan.anchor_ranking = std::move(search.ranking);
  plan.per_frame_optima = std::move(search.optima);

  // SHAP weights for the chosen frames (Eq. 4); fall back to uniform
  // weights if all SHAP mass is elsewhere.
  std::vector<double> weights;
  weights.reserve(plan.frames.size());
  double total = 0.0;
  for (const std::size_t f : plan.frames) {
    const double w = std::abs(plan.mean_abs_shap[f]);
    weights.push_back(w);
    total += w;
  }
  if (total <= 0.0)
    for (auto& w : weights) w = 1.0;

  plan.placement.local_position =
      weighted_geometric_median(plan.per_frame_optima, weights);

  MMHAR_LOG(Debug) << "backdoor plan: best anchor "
                   << mesh::anchor_name(plan.anchor_ranking.front().anchor)
                   << ", gop z=" << plan.placement.local_position.z;
  return plan;
}

PoisonResult BackdoorAttack::poison(const har::Dataset& clean_train,
                                    const har::DatasetConfig& train_grid,
                                    const BackdoorPlan& plan,
                                    double injection_rate,
                                    std::uint64_t selection_seed) const {
  const har::Dataset twins = load_or_build_triggered_twins(
      generator_, train_grid, config_.victim_label, plan.placement);

  PoisonConfig pc;
  pc.victim_label = config_.victim_label;
  pc.target_label = config_.target_label;
  pc.injection_rate = injection_rate;
  pc.poisoned_frames = config_.poisoned_frames;
  pc.frame_selection = config_.frame_selection;
  pc.seed = selection_seed;
  return poison_dataset(clean_train, twins, pc, plan.frames);
}

}  // namespace mmhar::core
