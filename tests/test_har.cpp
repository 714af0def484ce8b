// Tests for the HAR system: model shapes and learning, the prepacked
// inference plan, generator determinism, dataset construction/caching,
// trainer, and metrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>

#include "common/alloc_count.h"
#include "common/hash.h"
#include "har/dataset.h"
#include "har/generator.h"
#include "har/infer.h"
#include "har/metrics.h"
#include "har/model.h"
#include "har/trainer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace mmhar::har {
namespace {

/// Small config so each simulated sample costs a few milliseconds.
GeneratorConfig tiny_generator_config() {
  GeneratorConfig gc;
  gc.num_frames = 8;
  gc.radar.num_samples = 64;
  // Halve the bandwidth so 16 range bins still cover the 0.8-2 m zone.
  gc.radar.bandwidth_hz = 1.0e9;
  gc.radar.num_chirps = 8;
  gc.radar.num_virtual_antennas = 8;
  gc.heatmap.range_bins = 16;
  gc.heatmap.angle_bins = 16;
  gc.environment = radar::EnvironmentKind::None;
  return gc;
}

HarModelConfig tiny_model_config() {
  HarModelConfig mc;
  mc.frames = 8;
  mc.height = 16;
  mc.width = 16;
  mc.conv1_channels = 4;
  mc.conv2_channels = 8;
  mc.feature_dim = 16;
  mc.lstm_hidden = 16;
  return mc;
}

TEST(HarModel, ForwardShapesAndDeterminism) {
  HarModel model(tiny_model_config());
  Rng rng(1);
  const Tensor batch = Tensor::rand_uniform({3, 8, 16, 16}, rng, 0.0F, 1.0F);
  const Tensor logits = model.forward(batch, false);
  EXPECT_EQ(logits.shape(), (std::vector<std::size_t>{3, 6}));
  const Tensor logits2 = model.forward(batch, false);
  for (std::size_t i = 0; i < logits.size(); ++i)
    EXPECT_EQ(logits[i], logits2[i]);
  EXPECT_THROW(model.forward(Tensor({3, 8, 16, 8}), false), InvalidArgument);
}

TEST(HarModel, SameSeedSameWeights) {
  HarModel a(tiny_model_config());
  HarModel b(tiny_model_config());
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t j = 0; j < pa[i]->size(); ++j)
      EXPECT_EQ((*pa[i])[j], (*pb[i])[j]);
}

TEST(HarModel, FrameFeaturesFeedClassifyFeatures) {
  HarModel model(tiny_model_config());
  const InferencePlan plan = build_inference_plan(model);
  InferenceScratch scratch;
  Rng rng(2);
  const Tensor sample = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
  std::vector<float> features(8 * 16);
  infer_features(plan, scratch, sample.data(), 8, features.data());
  std::vector<float> logits(6);
  infer_classify(plan, scratch, features.data(), 1, logits.data());
  // The two halves chained are the training graph's eval forward, bit
  // for bit.
  const Tensor full = model.forward(sample.reshaped({1, 8, 16, 16}), false);
  EXPECT_EQ(std::memcmp(full.data(), logits.data(), 6 * sizeof(float)), 0);
}

TEST(HarModel, RejectsConfigsThePlanCannotPack) {
  HarModelConfig wide_cnn;  // 64x64 heatmaps: 8*8*16 = 1024 CNN outputs
  wide_cnn.height = 64;
  wide_cnn.width = 64;
  HarModelConfig wide_features = tiny_model_config();
  wide_features.feature_dim = kPackedBMaxK + 1;
  HarModelConfig wide_hidden = tiny_model_config();
  wide_hidden.lstm_hidden = kPackedBMaxN / 4 + 1;  // 4H past kPackedBMaxN
  for (const HarModelConfig& mc : {wide_cnn, wide_features, wide_hidden})
    EXPECT_THROW(HarModel{mc}, InvalidArgument);
  HarModelConfig widest = tiny_model_config();
  widest.feature_dim = kPackedBMaxK;
  widest.lstm_hidden = kPackedBMaxN / 4;
  HarModel model(widest);
  EXPECT_NO_THROW(build_inference_plan(model));
}

TEST(HarModel, PredictProbabilitiesSumToOne) {
  HarModel model(tiny_model_config());
  Rng rng(3);
  const Tensor sample = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
  const Tensor probs = model.predict_probabilities(sample);
  EXPECT_EQ(probs.size(), 6u);
  float sum = 0.0F;
  for (const float p : probs.flat()) {
    EXPECT_GT(p, 0.0F);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0F, 1e-5F);
  EXPECT_EQ(model.predict(sample), probs.argmax());
}

TEST(HarModel, SaveLoadRoundTrip) {
  const std::string dir = "test_tmp_model";
  ensure_directory(dir);
  HarModelConfig mc = tiny_model_config();
  HarModel a(mc);
  a.save(dir + "/m.bin");
  mc.seed = 777;  // different init
  HarModel b(mc);
  b.load(dir + "/m.bin");
  Rng rng(4);
  const Tensor batch = Tensor::rand_uniform({2, 8, 16, 16}, rng, 0.0F, 1.0F);
  const Tensor ya = a.forward(batch, false);
  const Tensor yb = b.forward(batch, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::filesystem::remove_all(dir);
}

TEST(HarModel, GradientsFlowThroughWholeStack) {
  HarModel model(tiny_model_config());
  Rng rng(5);
  const Tensor batch = Tensor::rand_uniform({2, 8, 16, 16}, rng, 0.0F, 1.0F);
  model.zero_gradients();
  const Tensor logits = model.forward(batch, true);
  const auto loss = nn::softmax_cross_entropy(logits, {0, 1});
  model.backward(loss.grad_logits);
  // Every parameter tensor should have received some gradient signal.
  std::size_t touched = 0;
  for (const Tensor* g : model.gradients())
    if (g->l2_norm() > 0.0F) ++touched;
  EXPECT_EQ(touched, model.gradients().size());
}

// The paper-scale model, and attack_point's narrower variant (6/12/48/48).
std::vector<HarModelConfig> serving_model_configs() {
  HarModelConfig narrow;
  narrow.conv1_channels = 6;
  narrow.conv2_channels = 12;
  narrow.feature_dim = 48;
  narrow.lstm_hidden = 48;
  return {HarModelConfig{}, narrow};
}

bool same_bytes(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(InferencePlan, MatchesModelForwardBitwise) {
  for (const HarModelConfig& mc : serving_model_configs()) {
    HarModel model(mc);
    const InferencePlan plan = build_inference_plan(model);
    InferenceScratch scratch;
    Rng rng(21);
    for (const std::size_t batch : {1, 3, 64}) {
      const Tensor input = Tensor::rand_uniform(
          {batch, mc.frames, mc.height, mc.width}, rng, 0.0F, 1.0F);
      const Tensor ref = model.forward(input, /*training=*/false);
      std::vector<float> got(batch * mc.num_classes, -1.0F);
      infer_forward(plan, scratch, input.data(), batch, got.data());
      EXPECT_TRUE(same_bytes(ref.data(), got.data(), got.size()))
          << "conv1=" << mc.conv1_channels << " batch=" << batch;
    }

    // The two halves alone. infer_features over 1, T and 3T frames: each
    // frame's row is the same whatever else the call holds.
    const std::size_t t_frames = mc.frames;
    const Tensor input = Tensor::rand_uniform(
        {3, t_frames, mc.height, mc.width}, rng, 0.0F, 1.0F);
    const Tensor ref = model.forward(input, /*training=*/false);
    std::vector<float> all(3 * t_frames * mc.feature_dim);
    infer_features(plan, scratch, input.data(), 3 * t_frames, all.data());
    for (const std::size_t n : {std::size_t{1}, t_frames}) {
      std::vector<float> part(n * mc.feature_dim);
      infer_features(plan, scratch, input.data(), n, part.data());
      EXPECT_TRUE(same_bytes(all.data(), part.data(), part.size()))
          << "conv1=" << mc.conv1_channels << " n=" << n;
    }
    // infer_classify at batch 3 and at batch 1 per window.
    std::vector<float> logits(3 * mc.num_classes);
    infer_classify(plan, scratch, all.data(), 3, logits.data());
    EXPECT_TRUE(same_bytes(ref.data(), logits.data(), logits.size()));
    for (std::size_t b = 0; b < 3; ++b) {
      std::vector<float> one(mc.num_classes);
      infer_classify(plan, scratch,
                     all.data() + b * t_frames * mc.feature_dim, 1,
                     one.data());
      EXPECT_TRUE(same_bytes(ref.data() + b * mc.num_classes, one.data(),
                             mc.num_classes))
          << "conv1=" << mc.conv1_channels << " window " << b;
    }
  }
}

TEST(InferencePlan, HalvesMakeNoAllocationsOnceWarm) {
  const HarModelConfig mc = serving_model_configs()[1];
  HarModel model(mc);
  const InferencePlan plan = build_inference_plan(model);
  InferenceScratch scratch;
  scratch.reserve(plan, 2);
  Rng rng(23);
  const Tensor frames = Tensor::rand_uniform(
      {2 * mc.frames, mc.height, mc.width}, rng, 0.0F, 1.0F);
  std::vector<float> feats(2 * mc.frames * mc.feature_dim);
  std::vector<float> logits(2 * mc.num_classes);
  const std::uint64_t before = alloc_count();
  for (const std::size_t batch : {std::size_t{2}, std::size_t{1}}) {
    infer_features(plan, scratch, frames.data(), batch * mc.frames,
                   feats.data());
    infer_features(plan, scratch, frames.data(), 1, feats.data());
    infer_classify(plan, scratch, feats.data(), batch, logits.data());
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

// The eval pins below hold for GCC on x86-64 glibc on a CPU with FMA,
// one value per setting of __FMA__: the GEMM microkernel contracts its
// multiply-adds only under __FMA__.
bool eval_bits_are_pinned() {
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && \
    !defined(__clang__)
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::uint64_t fnv_floats(const float* p, std::size_t n) {
  Hasher h;
  h.mix_bytes(p, n * sizeof(float));
  return h.value();
}

TEST(InferencePlan, FeatureBitsArePinned) {
  if (!eval_bits_are_pinned())
    GTEST_SKIP() << "eval bits are pinned for GCC on x86-64 glibc with FMA";
#ifdef __FMA__
  const std::uint64_t pins[] = {0xebff8bc93a897300ULL, 0x0387fb4bdbe1504cULL};
#else
  const std::uint64_t pins[] = {0xe20bc0cc47d5d65eULL, 0x18d08e3c7d14f4b3ULL};
#endif
  const HarModelConfig configs[] = {tiny_model_config(), HarModelConfig{}};
  for (std::size_t i = 0; i < 2; ++i) {
    const HarModelConfig& mc = configs[i];
    HarModel model(mc);
    Rng rng(31);
    const std::size_t n = 3 * mc.frames;
    const Tensor frames =
        Tensor::rand_uniform({n, mc.height, mc.width}, rng, 0.0F, 1.0F);
    const InferencePlan plan = build_inference_plan(model);
    InferenceScratch scratch;
    std::vector<float> feats(n * mc.feature_dim);
    infer_features(plan, scratch, frames.data(), n, feats.data());
    EXPECT_EQ(fnv_floats(feats.data(), feats.size()), pins[i])
        << "config " << i << std::hex << " got 0x"
        << fnv_floats(feats.data(), feats.size());
  }
}

TEST(InferencePlan, ConvScratchDoesNotGrowWithBatch) {
  HarModel model(HarModelConfig{});
  const InferencePlan plan = build_inference_plan(model);
  InferenceScratch one;
  one.reserve(plan, 1);
  InferenceScratch many;
  many.reserve(plan, 64);
  EXPECT_EQ(one.act1.size(), many.act1.size());
  EXPECT_EQ(one.act2.size(), many.act2.size());
  EXPECT_EQ(one.bordered.size(), many.bordered.size());
  EXPECT_EQ(one.panel.size(), many.panel.size());
  EXPECT_EQ(one.pooled.size(), many.pooled.size());
}

TEST(Generator, DeterministicPerSpec) {
  const SampleGenerator gen(tiny_generator_config());
  SampleSpec spec;
  spec.activity = mesh::Activity::LeftSwipe;
  const Tensor a = gen.generate(spec);
  const Tensor b = gen.generate(spec);
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // Different repetition -> different sample.
  SampleSpec other = spec;
  other.repetition = 1;
  const Tensor c = gen.generate(other);
  EXPECT_GT(Tensor::l2_distance(a, c), 1e-3F);
}

TEST(Generator, OutputShapeAndRange) {
  const SampleGenerator gen(tiny_generator_config());
  SampleSpec spec;
  const Tensor hm = gen.generate(spec);
  EXPECT_EQ(hm.shape(), (std::vector<std::size_t>{8, 16, 16}));
  EXPECT_GE(hm.min(), 0.0F);
  EXPECT_LE(hm.max(), 1.0F);
  EXPECT_GT(hm.max(), 0.5F);  // normalized sequence peaks near 1
}

TEST(Generator, ActivitiesProduceDistinctHeatmaps) {
  const SampleGenerator gen(tiny_generator_config());
  SampleSpec push;
  push.activity = mesh::Activity::Push;
  SampleSpec swipe = push;
  swipe.activity = mesh::Activity::LeftSwipe;
  const Tensor a = gen.generate(push);
  const Tensor b = gen.generate(swipe);
  EXPECT_GT(Tensor::l2_distance(a, b), 1.0F);
}

TEST(Generator, TriggerChangesHeatmaps) {
  const SampleGenerator gen(tiny_generator_config());
  SampleSpec spec;
  const mesh::HumanBody body(mesh::BodyParams::participant(0));
  TriggerPlacement tp;
  tp.local_position = body.anchor_position(mesh::BodyAnchor::Chest);
  const Tensor clean = gen.generate(spec);
  const Tensor triggered = gen.generate(spec, &tp);
  EXPECT_GT(Tensor::l2_distance(clean, triggered), 0.5F);
}

TEST(Generator, CubesMatchConfiguredDims) {
  const auto gc = tiny_generator_config();
  const SampleGenerator gen(gc);
  const auto cubes = gen.generate_cubes(SampleSpec{});
  ASSERT_EQ(cubes.size(), gc.num_frames);
  EXPECT_EQ(cubes[0].num_chirps(), gc.radar.num_chirps);
  EXPECT_EQ(cubes[0].num_antennas(), gc.radar.num_virtual_antennas);
  EXPECT_EQ(cubes[0].num_samples(), gc.radar.num_samples);
}

TEST(Dataset, AddValidatesAndIndexes) {
  Dataset ds;
  ds.set_num_classes(6);
  Sample s;
  s.heatmaps = Tensor({2, 4, 4});
  s.label = 3;
  ds.add(s);
  s.label = 3;
  ds.add(s);
  s.label = 1;
  ds.add(s);
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.indices_of_label(3), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(ds.indices_of_label(5).size(), 0u);
  s.label = 9;
  EXPECT_THROW(ds.add(s), InvalidArgument);
  Sample bad;
  bad.heatmaps = Tensor({3, 4, 4});
  bad.label = 0;
  EXPECT_THROW(ds.add(bad), InvalidArgument);  // shape mismatch
}

TEST(Dataset, BatchAssembly) {
  Dataset ds;
  ds.set_num_classes(6);
  for (std::size_t i = 0; i < 4; ++i) {
    Sample s;
    s.heatmaps = Tensor::full({2, 3, 3}, static_cast<float>(i));
    s.label = i % 6;
    ds.add(std::move(s));
  }
  const Tensor batch = ds.batch_of({3, 1});
  EXPECT_EQ(batch.shape(), (std::vector<std::size_t>{2, 2, 3, 3}));
  EXPECT_FLOAT_EQ(batch[0], 3.0F);
  EXPECT_FLOAT_EQ(batch[18], 1.0F);
  EXPECT_EQ(ds.labels_of({3, 1}), (std::vector<std::size_t>{3, 1}));
}

TEST(Dataset, SaveLoadRoundTrip) {
  const std::string dir = "test_tmp_dataset";
  ensure_directory(dir);
  Dataset ds;
  ds.set_num_classes(6);
  Rng rng(6);
  for (int i = 0; i < 3; ++i) {
    Sample s;
    s.heatmaps = Tensor::rand_uniform({2, 4, 4}, rng, 0.0F, 1.0F);
    s.label = static_cast<std::size_t>(i);
    s.spec.participant = i;
    s.spec.distance_m = 1.0 + i;
    ds.add(std::move(s));
  }
  ds.save(dir + "/d.ds");
  const Dataset loaded = Dataset::load(dir + "/d.ds");
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded.sample(i).label, ds.sample(i).label);
    EXPECT_EQ(loaded.sample(i).spec.participant,
              ds.sample(i).spec.participant);
    EXPECT_EQ(loaded.sample(i).spec.stream_seed(),
              ds.sample(i).spec.stream_seed());
    for (std::size_t j = 0; j < 32; ++j)
      EXPECT_EQ(loaded.sample(i).heatmaps[j], ds.sample(i).heatmaps[j]);
  }
  std::filesystem::remove_all(dir);
}

TEST(Dataset, GridGenerationCoversConfig) {
  const SampleGenerator gen(tiny_generator_config());
  DatasetConfig dc;
  dc.participants = {0, 1};
  dc.distances_m = {1.0};
  dc.angles_deg = {0.0};
  dc.activities = {0, 2};
  dc.repetitions = 2;
  const Dataset ds = build_dataset(gen, dc);
  EXPECT_EQ(ds.size(), dc.total_samples());
  EXPECT_EQ(ds.size(), 8u);
  EXPECT_EQ(ds.indices_of_label(0).size(), 4u);
  EXPECT_EQ(ds.indices_of_label(2).size(), 4u);
  EXPECT_EQ(ds.indices_of_label(1).size(), 0u);
}

TEST(Dataset, CacheHitReturnsIdenticalData) {
  const std::string dir = "test_tmp_cache";
  std::filesystem::remove_all(dir);
  const SampleGenerator gen(tiny_generator_config());
  DatasetConfig dc;
  dc.participants = {0};
  dc.distances_m = {1.2};
  dc.angles_deg = {0.0};
  dc.activities = {0};
  const Dataset a = load_or_build_dataset(gen, dc, dir);
  const Dataset b = load_or_build_dataset(gen, dc, dir);  // cache hit
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < a.sample(i).heatmaps.size(); ++j)
      EXPECT_EQ(a.sample(i).heatmaps[j], b.sample(i).heatmaps[j]);
  // Exactly one cache file.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Trainer, LearnsTinySyntheticProblem) {
  // Synthetic dataset: class = which quadrant of the heatmap is lit.
  Dataset train;
  train.set_num_classes(6);
  Rng rng(7);
  for (std::size_t label = 0; label < 4; ++label) {
    for (int rep = 0; rep < 10; ++rep) {
      Sample s;
      s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 0.1F);
      const std::size_t oy = (label / 2) * 8;
      const std::size_t ox = (label % 2) * 8;
      for (std::size_t f = 0; f < 8; ++f)
        for (std::size_t y = 0; y < 8; ++y)
          for (std::size_t x = 0; x < 8; ++x)
            s.heatmaps[(f * 16 + oy + y) * 16 + ox + x] += 0.8F;
      s.label = label;
      train.add(std::move(s));
    }
  }
  HarModel model(tiny_model_config());
  TrainConfig tc;
  tc.epochs = 12;
  tc.batch_size = 8;
  tc.seed = 3;
  const TrainHistory history = train_model(model, train, tc);
  EXPECT_EQ(history.epochs.size(), 12u);
  EXPECT_GT(history.epochs.back().accuracy, 0.95F);
  EXPECT_LT(history.epochs.back().loss, history.epochs.front().loss);
  EXPECT_GT(evaluate_accuracy(model, train), 0.95F);
}

TEST(Trainer, ValidationSplitReported) {
  Dataset train;
  train.set_num_classes(6);
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    Sample s;
    s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
    s.label = static_cast<std::size_t>(i % 2);
    train.add(std::move(s));
  }
  HarModel model(tiny_model_config());
  TrainConfig tc;
  tc.epochs = 2;
  tc.validation_fraction = 0.25;
  const TrainHistory h = train_model(model, train, tc);
  EXPECT_GE(h.final_validation_accuracy(), 0.0F);
  EXPECT_LE(h.final_validation_accuracy(), 1.0F);
}

TEST(Trainer, DeterministicGivenSeeds) {
  Dataset train;
  train.set_num_classes(6);
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    Sample s;
    s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
    s.label = static_cast<std::size_t>(i % 3);
    train.add(std::move(s));
  }
  TrainConfig tc;
  tc.epochs = 3;
  HarModel a(tiny_model_config());
  HarModel b(tiny_model_config());
  train_model(a, train, tc);
  train_model(b, train, tc);
  const Tensor batch = train.batch_of({0, 5});
  const Tensor ya = a.forward(batch, false);
  const Tensor yb = b.forward(batch, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Trainer, PredictAllBitsArePinned) {
  if (!eval_bits_are_pinned())
    GTEST_SKIP() << "eval bits are pinned for GCC on x86-64 glibc with FMA";
  // Argmax and accuracies: the same under both settings of __FMA__.
  const std::uint64_t pin = 0xab3402771b820be7ULL;
  // 40 samples, so predict_all crosses its 32-window batch boundary; one
  // epoch of training leaves the classes close enough to disagree.
  Dataset train;
  train.set_num_classes(6);
  Rng rng(12);
  for (int i = 0; i < 40; ++i) {
    Sample s;
    s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
    s.label = static_cast<std::size_t>(i % 4);
    train.add(std::move(s));
  }
  HarModel model(tiny_model_config());
  TrainConfig tc;
  tc.epochs = 2;
  tc.validation_fraction = 0.25;
  const TrainHistory history = train_model(model, train, tc);
  const std::vector<std::size_t> preds = predict_all(model, train);
  ASSERT_EQ(preds.size(), train.size());
  Hasher h;
  for (const std::size_t p : preds) h.mix(p);
  for (const EpochStats& e : history.epochs) h.mix(e.validation_accuracy);
  EXPECT_EQ(h.value(), pin) << std::hex << "got 0x" << h.value();
}

TEST(ConfusionMatrix, CountsAndDerivedStats) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 2);
  cm.add(2, 0);
  EXPECT_EQ(cm.total(), 6u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_NEAR(cm.accuracy(), 4.0 / 6.0, 1e-12);
  const auto recall = cm.per_class_recall();
  EXPECT_NEAR(recall[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(recall[1], 1.0, 1e-12);
  const auto precision = cm.per_class_precision();
  EXPECT_NEAR(precision[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(precision[1], 0.5, 1e-12);
  EXPECT_THROW(cm.add(3, 0), InvalidArgument);
  const std::string table = cm.to_string({"a", "b", "c"});
  EXPECT_NE(table.find("accuracy"), std::string::npos);
  EXPECT_NE(table.find("a"), std::string::npos);
}

}  // namespace
}  // namespace mmhar::har
