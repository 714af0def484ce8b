#include "har/model.h"

#include <algorithm>

#include "common/finite_check.h"
#include "common/serialize.h"
#include "har/infer.h"
#include "nn/activation.h"
#include "tensor/ops.h"

namespace mmhar::har {

FrameCnnGeometry frame_cnn_geometry(const HarModelConfig& config) {
  // conv1 5x5 stride 2 pad 2, conv2 3x3 stride 2 pad 1, then the pool.
  FrameCnnGeometry g;
  g.conv1 = {1, config.height, config.width, 5, 2, 2};
  g.conv2 = {config.conv1_channels, g.conv1.out_h(), g.conv1.out_w(),
             3, 2, 1};
  g.hp = g.conv2.out_h() / g.kPool;
  g.wp = g.conv2.out_w() / g.kPool;
  g.spatial = g.hp * g.wp * config.conv2_channels;
  return g;
}

HarModel::HarModel(const HarModelConfig& config) : config_(config) {
  MMHAR_REQUIRE(config.height % 8 == 0 && config.width % 8 == 0,
                "heatmap dims must be divisible by 8 (two stride-2 convs "
                "plus one 2x2 pool)");
  const FrameCnnGeometry g = frame_cnn_geometry(config);
  MMHAR_REQUIRE(std::max({g.spatial, config.feature_dim,
                          config.lstm_hidden}) <= kPackedBMaxK &&
                    4 * config.lstm_hidden <= kPackedBMaxN,
                "HarModel: the inference plan needs CNN output ("
                    << g.spatial << "), feature_dim and lstm_hidden <= "
                    << kPackedBMaxK << ", 4*lstm_hidden <= " << kPackedBMaxN);
  Rng rng(config.seed);

  cnn_.emplace<nn::Conv2D>(1, config.conv1_channels, g.conv1.kernel,
                           g.conv1.stride, g.conv1.pad, rng);
  cnn_.emplace<nn::ReLU>();
  cnn_.emplace<nn::Conv2D>(config.conv1_channels, config.conv2_channels,
                           g.conv2.kernel, g.conv2.stride, g.conv2.pad, rng);
  cnn_.emplace<nn::ReLU>();
  cnn_.emplace<nn::MaxPool2D>(g.kPool);
  cnn_.emplace<nn::Flatten>();
  cnn_.emplace<nn::Dense>(g.spatial, config.feature_dim, rng);
  cnn_.emplace<nn::ReLU>();

  lstm_ = std::make_unique<nn::LSTM>(config.feature_dim, config.lstm_hidden,
                                     rng, /*return_sequence=*/false);
  head_ = std::make_unique<nn::Dense>(config.lstm_hidden, config.num_classes,
                                      rng);
}

Tensor HarModel::forward(const Tensor& batch, bool training) {
  MMHAR_REQUIRE(batch.rank() == 4 && batch.dim(1) == config_.frames &&
                    batch.dim(2) == config_.height &&
                    batch.dim(3) == config_.width,
                "expected [B, " << config_.frames << ", " << config_.height
                                << ", " << config_.width << "], got "
                                << batch.shape_string());
  last_batch_ = batch.dim(0);
  const std::size_t bt = last_batch_ * config_.frames;

  // Per-frame CNN over the merged batch*time axis.
  const Tensor frames =
      batch.reshaped({bt, 1, config_.height, config_.width});
  const Tensor features = cnn_.forward(frames, training);
  const Tensor series =
      features.reshaped({last_batch_, config_.frames, config_.feature_dim});
  const Tensor hidden = lstm_->forward(series, training);
  return head_->forward(hidden, training);
}

void HarModel::backward(const Tensor& grad_logits) {
  MMHAR_REQUIRE(grad_logits.rank() == 2 && grad_logits.dim(0) == last_batch_,
                "backward before forward, or batch mismatch");
  const Tensor grad_hidden = head_->backward(grad_logits);
  const Tensor grad_series = lstm_->backward(grad_hidden);
  const Tensor grad_features = grad_series.reshaped(
      {last_batch_ * config_.frames, config_.feature_dim});
  cnn_.backward(grad_features);
}

namespace {

// One [T, H, W] sample's logits, on a plan built for this call.
Tensor sample_logits(HarModel& model, const Tensor& sample) {
  const HarModelConfig& mc = model.config();
  MMHAR_REQUIRE(sample.size() == mc.frames * mc.height * mc.width,
                "predict: not one sample, got " << sample.shape_string());
  const InferencePlan plan = build_inference_plan(model);
  InferenceScratch scratch;
  Tensor logits({mc.num_classes});
  infer_forward(plan, scratch, sample.data(), 1, logits.data());
  check_finite(logits.flat(), "logits", "HarModel::predict");
  return logits;
}

}  // namespace

std::size_t HarModel::predict(const Tensor& sample) {
  return sample_logits(*this, sample).argmax();
}

Tensor HarModel::predict_probabilities(const Tensor& sample) {
  return softmax(sample_logits(*this, sample));
}

std::vector<Tensor*> HarModel::parameters() {
  auto all = cnn_.parameters();
  for (Tensor* p : lstm_->parameters()) all.push_back(p);
  for (Tensor* p : head_->parameters()) all.push_back(p);
  return all;
}

std::vector<Tensor*> HarModel::gradients() {
  auto all = cnn_.gradients();
  for (Tensor* g : lstm_->gradients()) all.push_back(g);
  for (Tensor* g : head_->gradients()) all.push_back(g);
  return all;
}

void HarModel::zero_gradients() {
  for (Tensor* g : gradients()) g->zero();
}

std::size_t HarModel::parameter_count() {
  return nn::parameter_count(parameters());
}

namespace {

constexpr std::uint32_t kModelMagic = 0x4D524148;  // "HARM"
constexpr std::uint32_t kModelVersion = 1;

}  // namespace

void HarModel::save(const std::string& path) const {
  auto* self = const_cast<HarModel*>(this);
  save_artifact(path, kModelMagic, kModelVersion, [&](BinaryWriter& w) {
    // Architecture fingerprint: loading into a differently shaped model
    // must fail loudly, not silently reshape the weight tensors.
    w.write_u64(config_.frames);
    w.write_u64(config_.height);
    w.write_u64(config_.width);
    w.write_u64(config_.conv1_channels);
    w.write_u64(config_.conv2_channels);
    w.write_u64(config_.feature_dim);
    w.write_u64(config_.lstm_hidden);
    w.write_u64(config_.num_classes);
    self->cnn_.save(w);
    lstm_->save(w);
    head_->save(w);
  });
}

LoadResult HarModel::try_load(const std::string& path) {
  // Snapshot the weights so a payload that dies mid-read (corrupt tail)
  // cannot leave the model half-overwritten.
  std::vector<Tensor> snapshot;
  for (Tensor* p : parameters()) snapshot.push_back(*p);

  const LoadResult result =
      load_artifact(path, kModelMagic, kModelVersion, [&](BinaryReader& r) {
        const std::uint64_t arch[] = {r.read_u64(), r.read_u64(),
                                      r.read_u64(), r.read_u64(),
                                      r.read_u64(), r.read_u64(),
                                      r.read_u64(), r.read_u64()};
        const std::uint64_t want[] = {
            config_.frames,         config_.height,
            config_.width,          config_.conv1_channels,
            config_.conv2_channels, config_.feature_dim,
            config_.lstm_hidden,    config_.num_classes};
        for (std::size_t i = 0; i < 8; ++i)
          if (arch[i] != want[i])
            throw IoError("HarModel: saved architecture does not match "
                          "this model's config");
        cnn_.load(r);
        lstm_->load(r);
        head_->load(r);
      });

  if (!result.ok()) {
    const auto params = parameters();
    MMHAR_CHECK(params.size() == snapshot.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      *params[i] = std::move(snapshot[i]);
  }
  return result;
}

void HarModel::load(const std::string& path) {
  const LoadResult result = try_load(path);
  if (!result.ok())
    throw IoError("HarModel::load: " + path + ": " +
                  load_status_name(result.status) +
                  (result.detail.empty() ? "" : " (" + result.detail + ")"));
}

}  // namespace mmhar::har
