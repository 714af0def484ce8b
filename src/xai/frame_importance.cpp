#include "xai/frame_importance.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/ops.h"

namespace mmhar::xai {

FrameImportance::FrameImportance(har::HarModel& model, ShapConfig config)
    : model_(model), config_(config), rng_(config.seed) {}

std::vector<double> FrameImportance::shap_values(const Tensor& sample,
                                                 std::size_t target_class) {
  const auto& mc = model_.config();
  MMHAR_REQUIRE(sample.rank() == 3 && sample.dim(0) == mc.frames,
                "sample must be [T, H, W]");
  MMHAR_REQUIRE(target_class < mc.num_classes, "target class out of range");
  const std::size_t frames = mc.frames;
  const std::size_t feat = mc.feature_dim;

  // Extract per-frame CNN features once; coalitions only re-run the LSTM.
  const Tensor features = model_.frame_features(sample);  // [T, F]

  Tensor baseline({feat});
  if (config_.baseline == ShapBaseline::MeanFrame)
    baseline = mean_rows(features);

  const ValueFunction value = [&](const std::vector<bool>& mask) {
    Tensor series({1, frames, feat});
    MMHAR_CHECK(features.size() == frames * feat && baseline.size() == feat);
    for (std::size_t t = 0; t < frames; ++t) {
      const float* src = mask[t] ? features.data() + t * feat
                                 : baseline.data();
      std::copy(src, src + feat, series.data() + t * feat);
    }
    const Tensor logits = model_.classify_features(series);
    if (!config_.use_probability)
      return static_cast<double>(logits[target_class]);
    const Tensor probs = softmax(logits.reshaped({mc.num_classes}));
    return static_cast<double>(probs[target_class]);
  };

  return sampling_shapley(frames, value, config_.num_permutations, rng_);
}

std::vector<double> FrameImportance::mean_abs_shap(
    const har::Dataset& dataset, const std::vector<std::size_t>& indices,
    std::size_t target_class) {
  MMHAR_REQUIRE(!indices.empty(), "mean_abs_shap over empty index set");
  std::vector<double> acc(model_.config().frames, 0.0);
  for (const std::size_t i : indices) {
    const auto phi = shap_values(dataset.sample(i).heatmaps, target_class);
    for (std::size_t t = 0; t < acc.size(); ++t) acc[t] += std::abs(phi[t]);
  }
  const double inv = 1.0 / static_cast<double>(indices.size());
  for (auto& v : acc) v *= inv;
  return acc;
}

std::vector<std::size_t> most_important_frame_histogram(
    har::HarModel& model, const har::Dataset& dataset,
    const ShapConfig& config, std::size_t max_samples) {
  FrameImportance importance(model, config);
  const std::size_t frames = model.config().frames;
  std::vector<std::size_t> histogram(frames, 0);
  const std::size_t n = max_samples == 0
                            ? dataset.size()
                            : std::min(max_samples, dataset.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = dataset.sample(i);
    const auto phi = importance.shap_values(s.heatmaps, s.label);
    const auto top = top_k_by_magnitude(phi, 1);
    ++histogram[top.front()];
    if ((i + 1) % 25 == 0)
      MMHAR_LOG(Debug) << "SHAP histogram " << i + 1 << "/" << n;
  }
  return histogram;
}

}  // namespace mmhar::xai
