// Tests for the core attack: Weiszfeld global position (Eq. 4), trigger
// position optimization (Eq. 2), poisoning mechanics, attack metrics, and
// plan assembly.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>

#include "core/attack_eval.h"
#include "core/backdoor_attack.h"
#include "core/global_position.h"
#include "core/poison.h"
#include "core/position_opt.h"
#include "har/trainer.h"

namespace mmhar::core {
namespace {

har::GeneratorConfig tiny_generator_config() {
  har::GeneratorConfig gc;
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

// ---- Eq. 4: weighted geometric median ----

TEST(Weiszfeld, SinglePointIsItsOwnMedian) {
  const mesh::Vec3 p{1, 2, 3};
  const auto m = weighted_geometric_median({p}, {1.0});
  EXPECT_NEAR(mesh::distance(m, p), 0.0, 1e-9);
}

TEST(Weiszfeld, CollinearPointsYieldWeightedMedian) {
  // On a line, the weighted geometric median is the weighted median: with
  // weights (1, 1, 4) the heavy point dominates.
  const std::vector<mesh::Vec3> pts{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}};
  const auto m = weighted_geometric_median(pts, {1.0, 1.0, 4.0});
  EXPECT_NEAR(m.x, 2.0, 1e-3);
}

TEST(Weiszfeld, EquilateralTriangleMedianIsCentroid) {
  const std::vector<mesh::Vec3> pts{
      {0, 0, 0}, {1, 0, 0}, {0.5, std::sqrt(3.0) / 2.0, 0}};
  const auto m = weighted_geometric_median(pts, {1.0, 1.0, 1.0});
  EXPECT_NEAR(m.x, 0.5, 1e-6);
  EXPECT_NEAR(m.y, std::sqrt(3.0) / 6.0, 1e-6);
}

TEST(Weiszfeld, MinimizesTheObjectiveLocally) {
  Rng rng(3);
  std::vector<mesh::Vec3> pts;
  std::vector<double> w;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({rng.normal(), rng.normal(), rng.normal()});
    w.push_back(rng.uniform(0.1, 2.0));
  }
  const auto m = weighted_geometric_median(pts, w);
  const double at_m = weighted_distance_sum(pts, w, m);
  // Perturbations in every axis direction must not improve the objective.
  for (const auto& d : {mesh::Vec3{0.01, 0, 0}, mesh::Vec3{0, 0.01, 0},
                        mesh::Vec3{0, 0, 0.01}}) {
    EXPECT_GE(weighted_distance_sum(pts, w, m + d), at_m - 1e-9);
    EXPECT_GE(weighted_distance_sum(pts, w, m - d), at_m - 1e-9);
  }
}

TEST(Weiszfeld, ZeroWeightPointsAreIgnored) {
  const std::vector<mesh::Vec3> pts{{0, 0, 0}, {100, 100, 100}};
  const auto m = weighted_geometric_median(pts, {1.0, 0.0});
  EXPECT_NEAR(mesh::norm(m), 0.0, 1e-6);
}

TEST(Weiszfeld, RejectsInvalidInputs) {
  EXPECT_THROW(weighted_geometric_median({}, {}), InvalidArgument);
  EXPECT_THROW(weighted_geometric_median({{0, 0, 0}}, {1.0, 2.0}),
               InvalidArgument);
  EXPECT_THROW(weighted_geometric_median({{0, 0, 0}}, {-1.0}),
               InvalidArgument);
  EXPECT_THROW(weighted_geometric_median({{0, 0, 0}}, {0.0}),
               InvalidArgument);
}

// ---- Eq. 2: position optimization ----

TEST(PositionOpt, RanksAnchorsAndBestIsTorsoFront) {
  const har::SampleGenerator gen(tiny_generator_config());
  har::HarModel surrogate(tiny_model_config());
  TriggerPositionOptimizer opt(gen, surrogate, PositionObjective{1.0, 0.0});
  har::SampleSpec spec;
  const auto ranked =
      opt.evaluate_anchors(spec, mesh::TriggerSpec::aluminum_2x2());
  ASSERT_EQ(ranked.size(), mesh::kNumAnchors);
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  for (const auto& c : ranked) {
    EXPECT_GE(c.feature_distance, 0.0);
    EXPECT_GE(c.heatmap_deviation, 0.0);
  }
  // A torso-front anchor must beat the leg anchors (the paper's
  // "suboptimal (e.g., on the leg)" baseline).
  const auto score_of = [&](mesh::BodyAnchor a) {
    for (const auto& c : ranked)
      if (c.anchor == a) return c.score;
    ADD_FAILURE() << "anchor missing";
    return 0.0;
  };
  const double best_torso = std::max(
      {score_of(mesh::BodyAnchor::Chest), score_of(mesh::BodyAnchor::Abdomen),
       score_of(mesh::BodyAnchor::UpperChestLeft),
       score_of(mesh::BodyAnchor::UpperChestRight),
       score_of(mesh::BodyAnchor::Waist)});
  EXPECT_GT(best_torso, score_of(mesh::BodyAnchor::RightThigh));
  EXPECT_GT(best_torso, score_of(mesh::BodyAnchor::LeftThigh));
}

TEST(PositionOpt, StealthPenaltyReordersScores) {
  const har::SampleGenerator gen(tiny_generator_config());
  har::HarModel surrogate(tiny_model_config());
  har::SampleSpec spec;
  const mesh::TriggerSpec trig;
  TriggerPositionOptimizer no_penalty(gen, surrogate,
                                      PositionObjective{1.0, 0.0});
  TriggerPositionOptimizer heavy_penalty(gen, surrogate,
                                         PositionObjective{1.0, 100.0});
  const auto a = no_penalty.evaluate_anchors(spec, trig).front();
  const auto b = heavy_penalty.evaluate_anchors(spec, trig);
  // With a huge beta every score goes negative: beta term dominates.
  EXPECT_GT(a.score, 0.0);
  EXPECT_LT(b.front().score, a.score);
}

TEST(PositionOpt, PerFrameOptimaMatchAnchorCatalogue) {
  const har::SampleGenerator gen(tiny_generator_config());
  har::HarModel surrogate(tiny_model_config());
  TriggerPositionOptimizer opt(gen, surrogate);
  har::SampleSpec spec;
  const auto optima =
      opt.per_frame_optima(spec, mesh::TriggerSpec{}, {0, 3, 7});
  ASSERT_EQ(optima.size(), 3u);
  const mesh::HumanBody body(mesh::BodyParams::participant(0));
  for (const auto& p : optima) {
    bool is_anchor = false;
    for (const auto a : mesh::all_anchors())
      if (mesh::distance(p, body.anchor_position(a)) < 1e-9) is_anchor = true;
    EXPECT_TRUE(is_anchor);
  }
  EXPECT_THROW(opt.per_frame_optima(spec, mesh::TriggerSpec{}, {}),
               InvalidArgument);
  EXPECT_THROW(opt.per_frame_optima(spec, mesh::TriggerSpec{}, {99}),
               InvalidArgument);
}

TEST(PositionOpt, SearchMatchesSeparateCallsBitwise) {
  const har::SampleGenerator gen(tiny_generator_config());
  har::HarModel surrogate(tiny_model_config());
  TriggerPositionOptimizer opt(gen, surrogate);
  har::SampleSpec spec;
  const mesh::TriggerSpec trigger = mesh::TriggerSpec::aluminum_2x2();
  const std::vector<std::size_t> frames = {5, 0, 3};
  const auto search = opt.search(spec, trigger, frames);
  const auto ranking = opt.evaluate_anchors(spec, trigger, frames);
  const auto optima = opt.per_frame_optima(spec, trigger, frames);
  ASSERT_EQ(search.ranking.size(), ranking.size());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(search.ranking[i].anchor, ranking[i].anchor);
    EXPECT_EQ(search.ranking[i].score, ranking[i].score);
    EXPECT_EQ(search.ranking[i].feature_distance, ranking[i].feature_distance);
    EXPECT_EQ(search.ranking[i].heatmap_deviation,
              ranking[i].heatmap_deviation);
    EXPECT_EQ(search.ranking[i].range_profile_shift,
              ranking[i].range_profile_shift);
  }
  ASSERT_EQ(search.optima.size(), optima.size());
  for (std::size_t i = 0; i < optima.size(); ++i) {
    EXPECT_EQ(search.optima[i].x, optima[i].x);
    EXPECT_EQ(search.optima[i].y, optima[i].y);
    EXPECT_EQ(search.optima[i].z, optima[i].z);
  }
  EXPECT_THROW(opt.search(spec, trigger, {}), InvalidArgument);
  EXPECT_THROW(opt.search(spec, trigger, {99}), InvalidArgument);
}

// ---- Poisoning mechanics ----

har::Dataset make_synthetic_dataset(std::size_t per_class, Rng& rng,
                                    float base = 0.0F) {
  har::Dataset ds;
  ds.set_num_classes(6);
  for (std::size_t label = 0; label < 6; ++label) {
    for (std::size_t rep = 0; rep < per_class; ++rep) {
      har::Sample s;
      s.heatmaps = Tensor::rand_uniform({8, 16, 16}, rng, base, base + 1.0F);
      s.label = label;
      s.spec.activity = mesh::activity_from_index(label);
      s.spec.repetition = static_cast<std::uint32_t>(rep);
      ds.add(std::move(s));
    }
  }
  return ds;
}

TEST(Poison, ReplacesChosenFramesAndRelabels) {
  Rng rng(11);
  har::Dataset train = make_synthetic_dataset(10, rng);
  // Twins: same specs, recognizable constant frames.
  har::Dataset twins;
  twins.set_num_classes(6);
  for (const std::size_t i : train.indices_of_label(0)) {
    har::Sample t = train.sample(i);
    t.heatmaps.fill(7.0F);
    twins.add(std::move(t));
  }
  PoisonConfig cfg;
  cfg.victim_label = 0;
  cfg.target_label = 1;
  cfg.injection_rate = 0.5;
  const std::vector<std::size_t> frames{2, 5};
  const PoisonResult result = poison_dataset(train, twins, cfg, frames);

  EXPECT_EQ(result.poisoned_indices.size(), 5u);
  EXPECT_EQ(result.dataset.indices_of_label(0).size(), 5u);
  EXPECT_EQ(result.dataset.indices_of_label(1).size(), 15u);
  const std::size_t hw = 16 * 16;
  for (const std::size_t i : result.poisoned_indices) {
    const auto& s = result.dataset.sample(i);
    EXPECT_EQ(s.label, 1u);
    // Poisoned frames replaced by the twin content...
    for (const std::size_t f : frames)
      for (std::size_t j = 0; j < hw; ++j)
        EXPECT_EQ(s.heatmaps[f * hw + j], 7.0F);
    // ...while other frames are untouched.
    EXPECT_NE(s.heatmaps[0 * hw + 3], 7.0F);
  }
  // Original dataset untouched (value semantics).
  EXPECT_EQ(train.indices_of_label(0).size(), 10u);
}

TEST(Poison, ZeroRateIsIdentity) {
  Rng rng(12);
  har::Dataset train = make_synthetic_dataset(4, rng);
  har::Dataset twins;
  twins.set_num_classes(6);
  for (const std::size_t i : train.indices_of_label(0))
    twins.add(train.sample(i));
  PoisonConfig cfg;
  cfg.injection_rate = 0.0;
  const PoisonResult result = poison_dataset(train, twins, cfg, {0});
  EXPECT_TRUE(result.poisoned_indices.empty());
  EXPECT_EQ(result.dataset.indices_of_label(0).size(), 4u);
}

TEST(Poison, RateControlsPoisonCount) {
  Rng rng(13);
  har::Dataset train = make_synthetic_dataset(10, rng);
  har::Dataset twins;
  twins.set_num_classes(6);
  for (const std::size_t i : train.indices_of_label(0))
    twins.add(train.sample(i));
  for (const double rate : {0.1, 0.3, 0.7, 1.0}) {
    PoisonConfig cfg;
    cfg.injection_rate = rate;
    const PoisonResult r = poison_dataset(train, twins, cfg, {0, 1});
    EXPECT_EQ(r.poisoned_indices.size(),
              static_cast<std::size_t>(std::lround(rate * 10)));
  }
}

TEST(Poison, ValidatesConfiguration) {
  Rng rng(14);
  har::Dataset train = make_synthetic_dataset(2, rng);
  har::Dataset twins;
  twins.set_num_classes(6);
  for (const std::size_t i : train.indices_of_label(0))
    twins.add(train.sample(i));
  PoisonConfig cfg;
  cfg.victim_label = 0;
  cfg.target_label = 0;
  EXPECT_THROW(poison_dataset(train, twins, cfg, {0}), InvalidArgument);
  cfg.target_label = 1;
  cfg.injection_rate = 1.5;
  EXPECT_THROW(poison_dataset(train, twins, cfg, {0}), InvalidArgument);
  cfg.injection_rate = 0.5;
  EXPECT_THROW(poison_dataset(train, twins, cfg, {}), InvalidArgument);
  // Twins that do not match the training grid are rejected.
  har::Dataset wrong_twins;
  wrong_twins.set_num_classes(6);
  har::Sample alien;
  alien.heatmaps = Tensor({8, 16, 16});
  alien.spec.repetition = 999;
  wrong_twins.add(std::move(alien));
  EXPECT_THROW(poison_dataset(train, wrong_twins, cfg, {0}), Error);
}

// ---- Metrics ----

TEST(AttackEval, MetricsComputedFromPredictions) {
  // A rigged "model" is impractical here; instead verify the metric
  // arithmetic through a real model but on datasets where we compare
  // against predict_all directly.
  Rng rng(17);
  har::HarModel model(tiny_model_config());
  har::Dataset clean = make_synthetic_dataset(2, rng);
  har::Dataset attack;
  attack.set_num_classes(6);
  for (const std::size_t i : clean.indices_of_label(0))
    attack.add(clean.sample(i));

  const AttackMetrics m = evaluate_attack(model, clean, attack, 0, 1);
  const auto attack_preds = har::predict_all(model, attack);
  std::size_t hit = 0;
  std::size_t mis = 0;
  for (const auto p : attack_preds) {
    if (p == 1) ++hit;
    if (p != 0) ++mis;
  }
  EXPECT_DOUBLE_EQ(m.asr, static_cast<double>(hit) / attack_preds.size());
  EXPECT_DOUBLE_EQ(m.uasr, static_cast<double>(mis) / attack_preds.size());
  EXPECT_NEAR(m.cdr, har::evaluate_accuracy(model, clean), 1e-9);
  EXPECT_GE(m.uasr, m.asr);  // targeted success implies misclassification
  EXPECT_THROW(evaluate_attack(model, clean, attack, 1, 1), InvalidArgument);
}

// ---- Plan assembly ----

TEST(BackdoorAttack, PlanContainsFramesAndPlacement) {
  const std::string cache = "test_tmp_attack_cache";
  std::filesystem::remove_all(cache);
  ::setenv("MMHAR_CACHE_DIR", cache.c_str(), 1);

  const har::SampleGenerator gen(tiny_generator_config());
  har::HarModel surrogate(tiny_model_config());

  // A minimal clean training set from the real generator.
  har::DatasetConfig grid;
  grid.participants = {0};
  grid.distances_m = {1.2};
  grid.angles_deg = {0.0};
  const har::Dataset train = har::build_dataset(gen, grid);

  BackdoorAttackConfig cfg;
  cfg.victim_label = 0;
  cfg.target_label = 1;
  cfg.poisoned_frames = 3;
  cfg.shap.num_permutations = 2;
  cfg.reference_spec.distance_m = 1.2;
  BackdoorAttack attack(gen, surrogate, cfg);
  const BackdoorPlan plan = attack.plan(train);

  EXPECT_EQ(plan.frames.size(), 3u);
  EXPECT_EQ(std::set<std::size_t>(plan.frames.begin(), plan.frames.end())
                .size(),
            3u);
  for (const std::size_t f : plan.frames) EXPECT_LT(f, 8u);
  EXPECT_EQ(plan.mean_abs_shap.size(), 8u);
  EXPECT_EQ(plan.anchor_ranking.size(), mesh::kNumAnchors);
  EXPECT_EQ(plan.per_frame_optima.size(), 3u);
  // Placement is on the body front (local -x side).
  EXPECT_LT(plan.placement.local_position.x, 0.0);

  // Poison through the plan: twins generated + spliced.
  const PoisonResult result = attack.poison(train, grid, plan, 0.5);
  EXPECT_EQ(result.poisoned_indices.size(), 1u);  // 0.5 * 1 victim sample
  EXPECT_EQ(result.dataset.sample(result.poisoned_indices[0]).label, 1u);

  // Ablations: optimize_position=false places on the leg, and FirstK
  // poisons frames 0..k-1.
  cfg.optimize_position = false;
  cfg.frame_selection = FrameSelection::FirstK;
  BackdoorAttack ablated(gen, surrogate, cfg);
  const BackdoorPlan leg_plan = ablated.plan(train);
  EXPECT_EQ(leg_plan.frames, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_STREQ(frame_selection_name(FrameSelection::FirstK), "first_k");
  EXPECT_STREQ(frame_selection_name(FrameSelection::ShapTopK), "shap_top_k");
  const mesh::HumanBody body(mesh::BodyParams::participant(0));
  EXPECT_NEAR(mesh::distance(leg_plan.placement.local_position,
                             body.anchor_position(
                                 mesh::BodyAnchor::RightThigh)),
              0.0, 1e-9);

  ::unsetenv("MMHAR_CACHE_DIR");
  std::filesystem::remove_all(cache);
}

}  // namespace
}  // namespace mmhar::core
