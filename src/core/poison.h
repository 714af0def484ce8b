// Training-set poisoning (paper §IV/V, "Preparing the poisoned samples").
//
// The attacker contributes a small fraction of victim-activity samples in
// which the SHAP-selected top-k frames are replaced by their RF-simulated
// trigger-bearing twins, relabeled to the target activity. Clean frames
// outside the top-k stay untouched — this is what makes the poisoning
// budget small (the paper's key efficiency property).
#pragma once

#include <cstdint>
#include <vector>

#include "har/dataset.h"
#include "har/generator.h"

namespace mmhar::core {

/// How the poisoned frames are chosen inside each sample.
enum class FrameSelection {
  ShapTopK,  ///< paper's method: SHAP top-k frames
  FirstK,    ///< ablation baseline: the first k frames (Table I row 3)
};

const char* frame_selection_name(FrameSelection s);

struct PoisonConfig {
  std::size_t victim_label = 0;       ///< activity being attacked
  std::size_t target_label = 1;       ///< label assigned to poisoned samples
  double injection_rate = 0.4;        ///< fraction of victim samples poisoned
  std::size_t poisoned_frames = 8;    ///< k
  FrameSelection frame_selection = FrameSelection::ShapTopK;
  std::uint64_t seed = 11;            ///< which victim samples get poisoned
};

struct PoisonResult {
  har::Dataset dataset;                       ///< poisoned training set
  std::vector<std::size_t> poisoned_indices;  ///< indices into `dataset`
  std::vector<std::size_t> frames;            ///< poisoned frame indices
};

/// Generate (or load from cache) trigger-bearing twins of every sample of
/// `victim_label` in the grid `config` — same specs, same randomness, a
/// trigger merged into the body mesh. Twins keep the victim label; they
/// serve both as poisoning donors (training grid) and as the attack test
/// set (test grid, where the physical trigger is present in all frames).
har::Dataset load_or_build_triggered_twins(
    const har::SampleGenerator& generator, const har::DatasetConfig& config,
    std::size_t victim_label, const har::TriggerPlacement& placement,
    std::string cache_dir = "");

/// Assemble the poisoned training set: for `injection_rate` of the victim
/// samples, splice the chosen frames from the matching triggered twin and
/// relabel to the target. Twins are matched to samples by SampleSpec.
PoisonResult poison_dataset(const har::Dataset& train,
                            const har::Dataset& triggered_twins,
                            const PoisonConfig& config,
                            const std::vector<std::size_t>& frames);

}  // namespace mmhar::core
