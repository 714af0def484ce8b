// SHAP-based frame importance for the CNN-LSTM model (paper §V-A).
//
// The players of the Shapley game are the M=32 frames of an activity
// sample; the value of a coalition S is the model's output (probability
// of a chosen class) when only the frames in S contribute their CNN
// features and the remaining frames are replaced by a baseline feature
// vector (absence). This is exactly Eq. 1 with f = LSTM + head over the
// frame-feature series, run on an InferencePlan (har/infer.h).
#pragma once

#include <cstdint>

#include "har/dataset.h"
#include "har/infer.h"
#include "har/model.h"
#include "xai/shapley.h"

namespace mmhar::xai {

enum class ShapBaseline {
  Zero,       ///< absent frames contribute a zero feature vector
  MeanFrame,  ///< absent frames contribute the sample's mean frame feature
};

struct ShapConfig {
  std::size_t num_permutations = 12;  ///< antithetic pairs per sample
  ShapBaseline baseline = ShapBaseline::MeanFrame;
  bool use_probability = true;  ///< explain softmax prob vs raw logit
  std::uint64_t seed = 97;
};

class FrameImportance {
 public:
  /// Explains `model` as it is now: its weights are copied into a plan.
  FrameImportance(har::HarModel& model, ShapConfig config);

  /// Per-frame SHAP values for `sample` ([T, H, W]) w.r.t. the model
  /// output for `target_class`.
  std::vector<double> shap_values(const Tensor& sample,
                                  std::size_t target_class);

  /// Average |SHAP| per frame over several samples; the attack uses this
  /// to pick one global set of poisoning frames for a victim activity.
  std::vector<double> mean_abs_shap(const har::Dataset& dataset,
                                    const std::vector<std::size_t>& indices,
                                    std::size_t target_class);

 private:
  har::InferencePlan plan_;
  har::InferenceScratch scratch_;
  ShapConfig config_;
  Rng rng_;
};

/// Fig. 3 reproduction: for each sample (optionally a subset), find the
/// most-important frame index and histogram it over the dataset.
std::vector<std::size_t> most_important_frame_histogram(
    har::HarModel& model, const har::Dataset& dataset,
    const ShapConfig& config, std::size_t max_samples = 0);

}  // namespace mmhar::xai
