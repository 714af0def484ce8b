// The CNN-LSTM HAR classifier (paper §II-A). A per-frame CNN extracts
// spatial features from each DRAI heatmap; an LSTM consumes the 32-step
// feature series; a fully connected head maps the final hidden state to
// the six activity logits. HarModel is the training graph. Every
// eval-mode forward runs on an InferencePlan snapshot of its weights
// (har/infer.h), which the tests hold to HarModel::forward(…, false).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/artifact_store.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"

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

/// The frame CNN's architecture over `config`'s heatmaps, declared once
/// (model.cpp) for HarModel's layers and build_inference_plan.
struct FrameCnnGeometry {
  static constexpr std::size_t kPool = 2;  ///< max pool window and stride
  ConvGeometry conv1, conv2;               ///< 1 -> c1 -> c2 channels
  std::size_t hp = 0, wp = 0;              ///< after pooling
  std::size_t spatial = 0;  ///< flattened CNN output, hp*wp*conv2_channels
};
FrameCnnGeometry frame_cnn_geometry(const HarModelConfig& config);

class HarModel {
 public:
  /// Throws InvalidArgument for heatmap sides not divisible by 8, and for
  /// a config the inference plan cannot pack (gemm.h kPackedBMaxK/N).
  explicit HarModel(const HarModelConfig& config);

  const HarModelConfig& config() const { return config_; }

  /// Training-graph forward: [B, T, H, W] -> logits [B, C]. With
  /// training=false it is the tests' reference for infer_forward.
  Tensor forward(const Tensor& batch, bool training);

  /// Backward pass from dLoss/dLogits; accumulates parameter gradients.
  void backward(const Tensor& grad_logits);

  /// Single-sample convenience on a plan built per call: [T, H, W] ->
  /// predicted class index, or class probabilities.
  std::size_t predict(const Tensor& sample);
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
