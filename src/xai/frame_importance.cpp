#include "xai/frame_importance.h"

#include <cmath>

#include "common/finite_check.h"
#include "common/logging.h"
#include "tensor/ops.h"

namespace mmhar::xai {

FrameImportance::FrameImportance(har::HarModel& model, ShapConfig config)
    : plan_(har::build_inference_plan(model)),
      config_(config),
      rng_(config.seed) {}

std::vector<double> FrameImportance::shap_values(const Tensor& sample,
                                                 std::size_t target_class) {
  const auto& mc = plan_.config;
  MMHAR_REQUIRE(sample.rank() == 3 && sample.dim(0) == mc.frames &&
                    sample.dim(1) == mc.height && sample.dim(2) == mc.width,
                "sample must be [T, H, W], got " << sample.shape_string());
  MMHAR_REQUIRE(target_class < mc.num_classes, "target class out of range");
  const std::size_t frames = mc.frames;
  const std::size_t feat = mc.feature_dim;

  // Extract per-frame CNN features once; coalitions only re-run the LSTM.
  Tensor features({frames, feat});
  har::infer_features(plan_, scratch_, sample.data(), frames,
                      features.data());
  check_finite(features.flat(), "features", "FrameImportance::shap_values");

  Tensor baseline({feat});
  if (config_.baseline == ShapBaseline::MeanFrame)
    baseline = mean_rows(features);

  Tensor series({frames, feat});
  Tensor logits({mc.num_classes});
  const ValueFunction value = [&](const std::vector<bool>& mask) {
    MMHAR_CHECK(features.size() == frames * feat && baseline.size() == feat);
    for (std::size_t t = 0; t < frames; ++t) {
      const float* src = mask[t] ? features.data() + t * feat
                                 : baseline.data();
      std::copy(src, src + feat, series.data() + t * feat);
    }
    har::infer_classify(plan_, scratch_, series.data(), 1, logits.data());
    check_finite(logits.flat(), "logits", "FrameImportance::shap_values");
    if (!config_.use_probability)
      return static_cast<double>(logits[target_class]);
    return static_cast<double>(softmax(logits)[target_class]);
  };

  return sampling_shapley(frames, value, config_.num_permutations, rng_);
}

std::vector<double> FrameImportance::mean_abs_shap(
    const har::Dataset& dataset, const std::vector<std::size_t>& indices,
    std::size_t target_class) {
  MMHAR_REQUIRE(!indices.empty(), "mean_abs_shap over empty index set");
  std::vector<double> acc(plan_.config.frames, 0.0);
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
