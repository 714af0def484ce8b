// Tests for the SHAP module: exact Shapley axioms on analytic games,
// sampling-estimator convergence to the exact values, and frame
// importance over the CNN-LSTM model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/hash.h"
#include "har/infer.h"
#include "har/model.h"
#include "har/trainer.h"
#include "xai/frame_importance.h"
#include "xai/shapley.h"

namespace mmhar::xai {
namespace {

double count_present(const std::vector<bool>& mask) {
  double n = 0;
  for (const bool b : mask) n += b ? 1.0 : 0.0;
  return n;
}

TEST(ExactShapley, AdditiveGameGivesIndividualValues) {
  // v(S) = sum of per-player weights -> phi_i = w_i exactly.
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  const ValueFunction v = [&w](const std::vector<bool>& mask) {
    double acc = 0.0;
    for (std::size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) acc += w[i];
    return acc;
  };
  const auto phi = exact_shapley(4, v);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(phi[i], w[i], 1e-12);
}

TEST(ExactShapley, DummyPlayerGetsZero) {
  // Player 2 never changes the value.
  const ValueFunction v = [](const std::vector<bool>& mask) {
    return (mask[0] ? 1.0 : 0.0) + (mask[1] ? 2.0 : 0.0);
  };
  const auto phi = exact_shapley(3, v);
  EXPECT_NEAR(phi[2], 0.0, 1e-12);
}

TEST(ExactShapley, SymmetricPlayersGetEqualShares) {
  // v(S) = 1 iff both players present (pure synergy).
  const ValueFunction v = [](const std::vector<bool>& mask) {
    return (mask[0] && mask[1]) ? 1.0 : 0.0;
  };
  const auto phi = exact_shapley(2, v);
  EXPECT_NEAR(phi[0], 0.5, 1e-12);
  EXPECT_NEAR(phi[1], 0.5, 1e-12);
}

TEST(ExactShapley, EfficiencyAxiom) {
  // Random-ish submodular game; check sum phi = v(full) - v(empty).
  const ValueFunction v = [](const std::vector<bool>& mask) {
    const double n = count_present(mask);
    return std::sqrt(n) + (mask[0] ? 0.3 : 0.0);
  };
  const auto phi = exact_shapley(5, v);
  const double total = std::accumulate(phi.begin(), phi.end(), 0.0);
  std::vector<bool> full(5, true);
  std::vector<bool> empty(5, false);
  EXPECT_NEAR(total, v(full) - v(empty), 1e-9);
}

TEST(ExactShapley, GloveGameMatchesKnownSolution) {
  // Classic: player 0 has a left glove, players 1,2 right gloves;
  // v(S)=1 if S contains player 0 and at least one of {1,2}.
  // Known Shapley values: (2/3, 1/6, 1/6).
  const ValueFunction v = [](const std::vector<bool>& mask) {
    return (mask[0] && (mask[1] || mask[2])) ? 1.0 : 0.0;
  };
  const auto phi = exact_shapley(3, v);
  EXPECT_NEAR(phi[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(phi[1], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(phi[2], 1.0 / 6.0, 1e-12);
}

TEST(ExactShapley, RejectsDegenerateSizes) {
  const ValueFunction v = [](const std::vector<bool>&) { return 0.0; };
  EXPECT_THROW(exact_shapley(0, v), InvalidArgument);
  EXPECT_THROW(exact_shapley(21, v), InvalidArgument);
}

TEST(SamplingShapley, ConvergesToExactValues) {
  // Nonlinear game over 8 players.
  const ValueFunction v = [](const std::vector<bool>& mask) {
    const double n = count_present(mask);
    double bonus = 0.0;
    if (mask[3]) bonus += 0.7;
    if (mask[3] && mask[5]) bonus += 0.4;  // interaction
    return n * n * 0.05 + bonus;
  };
  const auto exact = exact_shapley(8, v);
  Rng rng(42);
  const auto approx = sampling_shapley(8, v, 400, rng);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(approx[i], exact[i], 0.05) << "player " << i;
}

TEST(SamplingShapley, EfficiencyHoldsExactlyPerConstruction) {
  const ValueFunction v = [](const std::vector<bool>& mask) {
    return count_present(mask) * 1.5 + (mask[0] ? 2.0 : 0.0);
  };
  Rng rng(1);
  const auto phi = sampling_shapley(6, v, 3, rng);
  const double total = std::accumulate(phi.begin(), phi.end(), 0.0);
  std::vector<bool> full(6, true);
  std::vector<bool> empty(6, false);
  EXPECT_NEAR(total, v(full) - v(empty), 1e-9);
}

TEST(SamplingShapley, DeterministicGivenSeed) {
  const ValueFunction v = [](const std::vector<bool>& mask) {
    return count_present(mask) + (mask[2] ? 0.5 : 0.0);
  };
  Rng a(7);
  Rng b(7);
  const auto pa = sampling_shapley(5, v, 10, a);
  const auto pb = sampling_shapley(5, v, 10, b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(TopK, SortsByMagnitudeDescending) {
  const std::vector<double> values{0.1, -0.9, 0.5, -0.2, 0.0};
  const auto top = top_k_by_magnitude(values, 3);
  EXPECT_EQ(top, (std::vector<std::size_t>{1, 2, 3}));
  const auto all = top_k_by_magnitude(values, 99);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0], 1u);
}

// ---- Frame importance over the real model ----

har::HarModelConfig tiny_model_config() {
  har::HarModelConfig mc;
  mc.frames = 8;
  mc.height = 16;
  mc.width = 16;
  mc.conv1_channels = 4;
  mc.conv2_channels = 8;
  mc.feature_dim = 16;
  mc.lstm_hidden = 16;
  return mc;
}

TEST(FrameImportance, ShapValuesSumToPredictionDelta) {
  har::HarModel model(tiny_model_config());
  Rng rng(3);
  const Tensor sample = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
  ShapConfig cfg;
  cfg.num_permutations = 4;
  cfg.baseline = ShapBaseline::Zero;
  FrameImportance importance(model, cfg);
  const auto phi = importance.shap_values(sample, 0);
  ASSERT_EQ(phi.size(), 8u);
  // Efficiency: sum phi = f(all frames) - f(no frames).
  const har::InferencePlan plan = har::build_inference_plan(model);
  har::InferenceScratch scratch;
  Tensor features({8, 16});
  har::infer_features(plan, scratch, sample.data(), 8, features.data());
  Tensor full_logits({6});
  har::infer_classify(plan, scratch, features.data(), 1, full_logits.data());
  const Tensor empty_series({8, 16});
  Tensor empty_logits({6});
  har::infer_classify(plan, scratch, empty_series.data(), 1,
                      empty_logits.data());
  const auto prob_of = [](const Tensor& logits, std::size_t c) {
    double mx = logits.max();
    double denom = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i)
      denom += std::exp(logits[i] - mx);
    return std::exp(logits[c] - mx) / denom;
  };
  const double delta = prob_of(full_logits, 0) - prob_of(empty_logits, 0);
  const double total = std::accumulate(phi.begin(), phi.end(), 0.0);
  EXPECT_NEAR(total, delta, 1e-4);
}

TEST(FrameImportance, MeanAbsShapBitsArePinned) {
  // GCC on x86-64 glibc on a CPU with FMA, one pin pair per setting of
  // __FMA__ (the GEMM microkernel contracts only under __FMA__).
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && \
    !defined(__clang__)
  if (!__builtin_cpu_supports("fma"))
    GTEST_SKIP() << "SHAP bits are pinned on CPUs with FMA";
#else
  GTEST_SKIP() << "SHAP bits are pinned for GCC on x86-64 glibc";
#endif
#ifdef __FMA__
  const std::uint64_t pins[] = {0x1298839bc567de2fULL, 0xcf4e93a50438a014ULL};
#else
  const std::uint64_t pins[] = {0xa1b36ee016de71caULL, 0xe6fe10ef785299e4ULL};
#endif
  har::HarModel model(tiny_model_config());
  Rng rng(23);
  har::Dataset samples;
  samples.set_num_classes(6);
  for (int i = 0; i < 3; ++i) {
    har::Sample s;
    s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
    samples.add(std::move(s));
  }
  ShapConfig cfg;
  cfg.num_permutations = 4;
  cfg.seed = 5;
  for (std::size_t i = 0; i < 2; ++i) {
    // The default (mean-frame baseline, probability), then zero baseline
    // on the raw logit.
    if (i == 1) {
      cfg.baseline = ShapBaseline::Zero;
      cfg.use_probability = false;
    }
    FrameImportance importance(model, cfg);
    const auto mean_abs = importance.mean_abs_shap(samples, {0, 1, 2}, 1);
    Hasher h;
    for (const double v : mean_abs) h.mix(v);
    EXPECT_EQ(h.value(), pins[i]) << std::hex << "config " << i << " got 0x"
                                  << h.value();
  }
}

TEST(FrameImportance, IdentifiesTheDecisiveFrame) {
  // Train a tiny model where only frame 5 carries the class signal; the
  // SHAP attribution must put frame 5 on top.
  har::HarModel model(tiny_model_config());
  Rng rng(4);
  har::Dataset train;
  train.set_num_classes(6);
  for (int rep = 0; rep < 12; ++rep) {
    for (std::size_t label = 0; label < 2; ++label) {
      har::Sample s;
      s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 0.1F);
      if (label == 1) {
        for (std::size_t i = 0; i < 16 * 16; ++i)
          s.heatmaps[5 * 16 * 16 + i] += 0.9F;  // bright frame 5
      }
      s.label = label;
      train.add(std::move(s));
    }
  }
  har::TrainConfig tc;
  tc.epochs = 10;
  tc.batch_size = 8;
  har::train_model(model, train, tc);

  ShapConfig cfg;
  cfg.num_permutations = 8;
  FrameImportance importance(model, cfg);
  // Explain a positive sample w.r.t. class 1.
  const auto pos = train.indices_of_label(1);
  const auto top = top_k_by_magnitude(
      importance.shap_values(train.sample(pos[0]).heatmaps, 1), 1);
  EXPECT_EQ(top.front(), 5u);
}

TEST(FrameImportance, HistogramCountsSumToSampleCount) {
  har::HarModel model(tiny_model_config());
  Rng rng(5);
  har::Dataset ds;
  ds.set_num_classes(6);
  for (int i = 0; i < 6; ++i) {
    har::Sample s;
    s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
    s.label = static_cast<std::size_t>(i % 6);
    ds.add(std::move(s));
  }
  ShapConfig cfg;
  cfg.num_permutations = 2;
  const auto histogram =
      most_important_frame_histogram(model, ds, cfg, /*max_samples=*/4);
  ASSERT_EQ(histogram.size(), 8u);
  EXPECT_EQ(std::accumulate(histogram.begin(), histogram.end(),
                            std::size_t{0}),
            4u);
}

TEST(FrameImportance, MeanAbsShapAveragesSamples) {
  har::HarModel model(tiny_model_config());
  Rng rng(6);
  har::Dataset ds;
  ds.set_num_classes(6);
  for (int i = 0; i < 3; ++i) {
    har::Sample s;
    s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, 0.0F, 1.0F);
    s.label = 0;
    ds.add(std::move(s));
  }
  ShapConfig cfg;
  cfg.num_permutations = 2;
  FrameImportance importance(model, cfg);
  const auto mean = importance.mean_abs_shap(ds, {0, 1, 2}, 0);
  ASSERT_EQ(mean.size(), 8u);
  for (const double v : mean) EXPECT_GE(v, 0.0);
  EXPECT_THROW(importance.mean_abs_shap(ds, {}, 0), InvalidArgument);
}

}  // namespace
}  // namespace mmhar::xai
