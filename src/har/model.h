// The CNN-LSTM HAR classifier (paper §II-A).
//
// A per-frame CNN extracts spatial features from each DRAI heatmap; an
// LSTM consumes the 32-step feature series; a fully connected head maps
// the final hidden state to the six activity logits. The per-frame
// feature extractor is exposed separately because both the SHAP frame
// scoring (Eq. 1) and the trigger-position objective (Eq. 2) operate on
// CNN features l_θ(h(·)).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/artifact_store.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/sequential.h"

namespace mmhar::har {

struct HarModelConfig {
  std::size_t frames = 32;       ///< heatmaps per activity sample
  std::size_t height = 32;       ///< range bins
  std::size_t width = 32;        ///< angle bins
  std::size_t conv1_channels = 8;
  std::size_t conv2_channels = 16;
  std::size_t feature_dim = 64;  ///< per-frame CNN feature size
  std::size_t lstm_hidden = 64;
  std::size_t num_classes = 6;
  std::uint64_t seed = 42;       ///< weight-initialization seed
};

class HarModel {
 public:
  explicit HarModel(const HarModelConfig& config);

  const HarModelConfig& config() const { return config_; }

  /// Full forward pass: [B, T, H, W] -> logits [B, C].
  Tensor forward(const Tensor& batch, bool training);

  /// Backward pass from dLoss/dLogits; accumulates parameter gradients.
  void backward(const Tensor& grad_logits);

  /// CNN feature extractor l_θ: frames [N, H, W] -> features [N, F].
  /// Runs in inference mode but overwrites the CNN layers' forward caches,
  /// so never call it between a training forward and its backward.
  Tensor frame_features(const Tensor& frames);

  /// LSTM + head over an explicit feature series [B, T, F] -> logits.
  /// This is the model f(x) that SHAP explains frame-by-frame.
  Tensor classify_features(const Tensor& features);

  /// Single-sample convenience: [T, H, W] -> predicted class index.
  std::size_t predict(const Tensor& sample);

  /// Single-sample class probabilities.
  Tensor predict_probabilities(const Tensor& sample);

  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();
  void zero_gradients();
  std::size_t parameter_count();

  /// Write atomically with a checksummed container and an architecture
  /// fingerprint (see common/artifact_store.h). Throws IoError on write
  /// failure; any previous file at `path` stays intact.
  void save(const std::string& path) const;

  /// Load weights from `path`; throws IoError when the file is missing,
  /// corrupt (quarantined first), or saved from a different architecture.
  /// On throw the model's weights are unspecified — reconstruct before
  /// reuse.
  void load(const std::string& path);

  /// Non-throwing load. Weights are modified only when the result is Ok;
  /// any partial read is rolled back to the pre-call values.
  LoadResult try_load(const std::string& path);

 private:
  HarModelConfig config_;
  nn::Sequential cnn_;
  std::unique_ptr<nn::LSTM> lstm_;
  std::unique_ptr<nn::Dense> head_;

  // Forward cache for backward().
  std::size_t last_batch_ = 0;
};

}  // namespace mmhar::har
