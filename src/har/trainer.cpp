#include "har/trainer.h"

#include <algorithm>
#include <filesystem>

#include "common/artifact_store.h"
#include "common/finite_check.h"
#include "common/hash.h"
#include "common/logging.h"
#include "har/infer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace mmhar::har {
namespace {

constexpr std::uint32_t kCheckpointMagic = 0x504B4354;  // "TCKP"
constexpr std::uint32_t kCheckpointVersion = 1;

std::vector<std::size_t> range_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

/// Argmax (first of equal logits) class of each of `indices`, 32 a forward.
std::vector<std::size_t> predict_indices(
    HarModel& model, const Dataset& dataset,
    const std::vector<std::size_t>& indices) {
  constexpr std::size_t kEvalBatch = 32;
  const InferencePlan plan = build_inference_plan(model);
  const std::size_t c = plan.config.num_classes;
  InferenceScratch scratch;
  std::vector<float> logits(indices.size() * c);
  std::vector<std::size_t> idx;  // hoisted per-batch index scratch
  for (std::size_t start = 0; start < indices.size(); start += kEvalBatch) {
    idx.assign(indices.begin() + start,
               indices.begin() + std::min(indices.size(), start + kEvalBatch));
    infer_forward(plan, scratch, dataset.batch_of(idx).data(), idx.size(),
                  &logits[start * c]);
  }
  check_finite(logits, "logits", "har::predict_all");
  std::vector<std::size_t> preds(indices.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const auto row = logits.begin() + i * c;
    preds[i] = static_cast<std::size_t>(std::max_element(row, row + c) - row);
  }
  return preds;
}

/// correct / count over `indices`, as in nn::accuracy.
float accuracy_of(HarModel& model, const Dataset& dataset,
                  const std::vector<std::size_t>& indices) {
  const auto preds = predict_indices(model, dataset, indices);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == dataset.sample(indices[i]).label) ++correct;
  return static_cast<float>(correct) / static_cast<float>(preds.size());
}

/// Everything that must agree between the run that wrote a checkpoint and
/// the run trying to resume it. A mismatch means "different training" —
/// the checkpoint is ignored, never partially applied.
std::uint64_t checkpoint_fingerprint(HarModel& model, const Dataset& train,
                                     const TrainConfig& config) {
  Hasher h;
  h.mix(config.epochs)
      .mix(config.batch_size)
      .mix(static_cast<double>(config.learning_rate))
      .mix(static_cast<double>(config.weight_decay))
      .mix(static_cast<double>(config.grad_clip))
      .mix(config.seed)
      .mix(config.validation_fraction)
      .mix(config.checkpoint_salt)
      .mix(train.size())
      .mix(model.parameter_count());
  return h.value();
}

struct CheckpointState {
  std::size_t next_epoch = 0;
  std::vector<std::size_t> indices;
  std::vector<std::size_t> val_indices;
};

void write_u64_index_vec(BinaryWriter& w, const std::vector<std::size_t>& v) {
  std::vector<std::uint64_t> wide(v.begin(), v.end());
  w.write_u64_vec(wide);
}

std::vector<std::size_t> read_u64_index_vec(BinaryReader& r) {
  const auto wide = r.read_u64_vec();
  return {wide.begin(), wide.end()};
}

void save_checkpoint(const TrainConfig& config, std::uint64_t fingerprint,
                     const CheckpointState& state, HarModel& model,
                     const nn::Adam& optimizer, const Rng& rng,
                     const TrainHistory& history) {
  save_artifact(config.checkpoint_path, kCheckpointMagic, kCheckpointVersion,
                [&](BinaryWriter& w) {
                  w.write_u64(fingerprint);
                  w.write_u64(state.next_epoch);
                  write_u64_index_vec(w, state.indices);
                  write_u64_index_vec(w, state.val_indices);
                  rng.save(w);
                  optimizer.save(w);
                  const auto params = model.parameters();
                  w.write_u64(params.size());
                  for (const Tensor* p : params) p->save(w);
                  w.write_u64(history.epochs.size());
                  for (const EpochStats& e : history.epochs) {
                    w.write_f32(e.loss);
                    w.write_f32(e.accuracy);
                    w.write_f32(e.validation_accuracy);
                  }
                });
}

/// Attempt to resume. Returns true (with every out-param overwritten)
/// only for an intact checkpoint with a matching fingerprint; corrupt
/// files are quarantined by the store and stale ones ignored, so a bad
/// checkpoint can only cost a from-scratch retrain, never wrong numbers.
bool try_resume_checkpoint(const TrainConfig& config,
                           std::uint64_t fingerprint, CheckpointState& state,
                           HarModel& model, nn::Adam& optimizer, Rng& rng,
                           TrainHistory& history) {
  bool fingerprint_ok = false;
  CheckpointState loaded;
  TrainHistory loaded_history;
  std::vector<Tensor> params;
  Rng loaded_rng(0);
  nn::Adam loaded_optimizer(config.learning_rate, 0.9F, 0.999F, 1e-8F,
                            config.weight_decay);

  const LoadResult res = load_artifact(
      config.checkpoint_path, kCheckpointMagic, kCheckpointVersion,
      [&](BinaryReader& r) {
        if (r.read_u64() != fingerprint) return;  // stale: leave flag false
        loaded.next_epoch = r.read_u64();
        loaded.indices = read_u64_index_vec(r);
        loaded.val_indices = read_u64_index_vec(r);
        loaded_rng.load(r);
        loaded_optimizer.load(r);
        const auto n = r.read_u64();
        for (std::uint64_t i = 0; i < n; ++i)
          params.push_back(Tensor::load(r));
        const auto eps = r.read_u64();
        for (std::uint64_t i = 0; i < eps; ++i) {
          EpochStats e;
          e.loss = r.read_f32();
          e.accuracy = r.read_f32();
          e.validation_accuracy = r.read_f32();
          loaded_history.epochs.push_back(e);
        }
        fingerprint_ok = true;
      });

  if (!res.ok()) return false;
  if (!fingerprint_ok) {
    MMHAR_LOG(Warn) << "checkpoint " << config.checkpoint_path
                    << " belongs to a different training config; ignoring";
    return false;
  }
  const auto model_params = model.parameters();
  if (params.size() != model_params.size()) return false;
  for (std::size_t i = 0; i < params.size(); ++i)
    *model_params[i] = std::move(params[i]);
  state = std::move(loaded);
  rng = loaded_rng;
  optimizer = std::move(loaded_optimizer);
  history = std::move(loaded_history);
  MMHAR_LOG(Info) << "resuming training from " << config.checkpoint_path
                  << " at epoch " << state.next_epoch + 1 << "/"
                  << config.epochs;
  return true;
}

}  // namespace

TrainHistory train_model(HarModel& model, const Dataset& train,
                         const TrainConfig& config) {
  MMHAR_REQUIRE(!train.empty(), "cannot train on an empty dataset");
  MMHAR_REQUIRE(config.batch_size > 0, "batch size must be positive");
  const bool checkpointing = !config.checkpoint_path.empty();
  MMHAR_REQUIRE(!checkpointing || config.checkpoint_every > 0,
                "checkpoint_every must be >= 1 when checkpointing");

  Rng rng(config.seed);
  CheckpointState state;
  state.indices = range_indices(train.size());
  rng.shuffle(state.indices);

  // Optional validation split (stratification not needed: shuffled).
  if (config.validation_fraction > 0.0) {
    const auto n_val = static_cast<std::size_t>(
        config.validation_fraction *
        static_cast<double>(state.indices.size()));
    state.val_indices.assign(
        state.indices.end() - static_cast<std::ptrdiff_t>(n_val),
        state.indices.end());
    state.indices.resize(state.indices.size() - n_val);
  }
  MMHAR_REQUIRE(!state.indices.empty(),
                "validation split consumed all samples");

  nn::Adam optimizer(config.learning_rate, 0.9F, 0.999F, 1e-8F,
                     config.weight_decay);
  const auto params = model.parameters();
  const auto grads = model.gradients();

  TrainHistory history;
  const std::uint64_t fingerprint =
      checkpoint_fingerprint(model, train, config);
  if (checkpointing)
    try_resume_checkpoint(config, fingerprint, state, model, optimizer, rng,
                          history);

  auto& indices = state.indices;
  const auto& val_indices = state.val_indices;
  const std::size_t start_epoch = state.next_epoch;
  std::vector<std::size_t> batch_idx;  // hoisted per-batch index scratch
  for (std::size_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
    rng.shuffle(indices);
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < indices.size();
         start += config.batch_size) {
      const std::size_t end =
          std::min(indices.size(), start + config.batch_size);
      batch_idx.assign(indices.begin() + start, indices.begin() + end);
      const Tensor batch = train.batch_of(batch_idx);
      const auto labels = train.labels_of(batch_idx);

      model.zero_gradients();
      const Tensor logits = model.forward(batch, /*training=*/true);
      const auto loss = nn::softmax_cross_entropy(logits, labels);
      model.backward(loss.grad_logits);
      nn::clip_gradient_norm(grads, config.grad_clip);
      optimizer.step(params, grads);

      loss_sum += loss.loss;
      acc_sum += nn::accuracy(logits, labels);
      ++batches;
    }

    EpochStats stats;
    stats.loss = static_cast<float>(
        loss_sum / static_cast<double>(std::max<std::size_t>(1, batches)));
    stats.accuracy = static_cast<float>(
        acc_sum / static_cast<double>(std::max<std::size_t>(1, batches)));
    if (!val_indices.empty())
      stats.validation_accuracy = accuracy_of(model, train, val_indices);
    history.epochs.push_back(stats);
    if (config.verbose) {
      MMHAR_LOG(Info) << "epoch " << epoch + 1 << "/" << config.epochs
                      << " loss=" << stats.loss << " acc=" << stats.accuracy
                      << " val=" << stats.validation_accuracy;
    }

    const bool last_epoch = epoch + 1 == config.epochs;
    const bool budget_exhausted =
        config.max_epochs_this_run > 0 && !last_epoch &&
        epoch + 1 - start_epoch >= config.max_epochs_this_run;
    if (checkpointing && !last_epoch &&
        ((epoch + 1) % config.checkpoint_every == 0 || budget_exhausted)) {
      state.next_epoch = epoch + 1;
      save_checkpoint(config, fingerprint, state, model, optimizer, rng,
                      history);
    }
    if (budget_exhausted) return history;
  }

  if (checkpointing) {
    // Training completed; a leftover checkpoint would only be resumed by
    // a bit-identical rerun, but tidy up anyway.
    std::error_code ec;
    std::filesystem::remove(config.checkpoint_path, ec);
  }
  return history;
}

std::vector<std::size_t> predict_all(HarModel& model,
                                     const Dataset& dataset) {
  return predict_indices(model, dataset, range_indices(dataset.size()));
}

float evaluate_accuracy(HarModel& model, const Dataset& dataset) {
  if (dataset.empty()) return 0.0F;
  return accuracy_of(model, dataset, range_indices(dataset.size()));
}

ConfusionMatrix evaluate_confusion(HarModel& model, const Dataset& dataset) {
  ConfusionMatrix cm(dataset.num_classes());
  const auto preds = predict_all(model, dataset);
  for (std::size_t i = 0; i < dataset.size(); ++i)
    cm.add(dataset.sample(i).label, preds[i]);
  return cm;
}

}  // namespace mmhar::har
