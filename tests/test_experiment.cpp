// Fast tests for the experiment-harness plumbing that needs no training:
// frame derivation from plans, env-knob overrides, plan-key behavior, and
// the sweep-value helpers used by the bench binaries.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_common.h"
#include "core/experiment.h"

namespace mmhar::core {
namespace {

TEST(FramesFor, FirstKIgnoresShap) {
  BackdoorPlan plan;
  plan.mean_abs_shap = {0.1, 0.9, 0.2, 0.8};
  AttackPoint point;
  point.frame_selection = FrameSelection::FirstK;
  point.poisoned_frames = 3;
  EXPECT_EQ(AttackExperiment::frames_for(plan, point),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(FramesFor, ShapTopKUsesPlanScores) {
  BackdoorPlan plan;
  plan.mean_abs_shap = {0.1, 0.9, 0.2, 0.8, 0.05};
  AttackPoint point;
  point.frame_selection = FrameSelection::ShapTopK;
  point.poisoned_frames = 2;
  EXPECT_EQ(AttackExperiment::frames_for(plan, point),
            (std::vector<std::size_t>{1, 3}));
  point.poisoned_frames = 4;
  const auto four = AttackExperiment::frames_for(plan, point);
  EXPECT_EQ(four.size(), 4u);
  EXPECT_EQ(four[0], 1u);  // strongest first
}

TEST(ExperimentSetup, EnvKnobsOverrideDefaults) {
  ::setenv("MMHAR_EPOCHS", "7", 1);
  ::setenv("MMHAR_REPEATS", "5", 1);
  ::setenv("MMHAR_REPS_TRAIN", "3", 1);
  const auto s = ExperimentSetup::standard();
  EXPECT_EQ(s.training.epochs, 7u);
  EXPECT_EQ(s.repeats, 5u);
  EXPECT_EQ(s.train_grid.repetitions, 3u);
  ::unsetenv("MMHAR_EPOCHS");
  ::unsetenv("MMHAR_REPEATS");
  ::unsetenv("MMHAR_REPS_TRAIN");
  const auto d = ExperimentSetup::standard();
  EXPECT_EQ(d.training.epochs, 20u);
  EXPECT_EQ(d.repeats, 2u);
}

TEST(ExperimentSetup, GridsMatchPaperProtocol) {
  const auto s = ExperimentSetup::standard();
  // 4 distances x 3 angles (paper §VI-B).
  EXPECT_EQ(s.train_grid.distances_m,
            (std::vector<double>{0.8, 1.2, 1.6, 2.0}));
  EXPECT_EQ(s.train_grid.angles_deg, (std::vector<double>{-30.0, 0.0, 30.0}));
  EXPECT_EQ(s.train_grid.participants.size(), 3u);
  // Test/attack grids share the spatial grid but not repetitions.
  EXPECT_EQ(s.test_grid.distances_m, s.train_grid.distances_m);
  EXPECT_EQ(s.attack_grid.angles_deg, s.train_grid.angles_deg);
}

TEST(AttackPoint, DefaultsMatchPaperOperatingPoint) {
  const AttackPoint p;
  EXPECT_EQ(p.victim, 0u);  // Push
  EXPECT_EQ(p.target, 1u);  // Pull
  EXPECT_DOUBLE_EQ(p.injection_rate, 0.4);
  EXPECT_EQ(p.poisoned_frames, 8u);
  EXPECT_EQ(p.frame_selection, FrameSelection::ShapTopK);
  EXPECT_TRUE(p.optimize_position);
  EXPECT_NEAR(p.trigger.width_m, 0.0508, 1e-9);
}

TEST(AttackExperiment, RequiresAtLeastOneRepeat) {
  auto setup = ExperimentSetup::standard();
  setup.repeats = 0;
  EXPECT_THROW(AttackExperiment{std::move(setup)}, InvalidArgument);
}

// The message names the knob and the offending token.
void expect_list_error(const std::string& raw, const std::string& token) {
  try {
    bench::parse_frame_counts("MMHAR_TEST_LIST", raw);
    ADD_FAILURE() << "'" << raw << "' parsed";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MMHAR_TEST_LIST"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
  }
}

TEST(SweepList, ParsesWellFormedLists) {
  EXPECT_EQ(bench::parse_double_list("MMHAR_TEST_LIST", "0.1,0.2, 0.4"),
            (std::vector<double>{0.1, 0.2, 0.4}));
  EXPECT_EQ(bench::parse_double_list("MMHAR_TEST_LIST", "-1e-3"),
            (std::vector<double>{-1e-3}));
  EXPECT_EQ(bench::parse_frame_counts("MMHAR_TEST_LIST", "2,8,12"),
            (std::vector<std::size_t>{2, 8, 12}));
}

TEST(SweepList, RejectsMalformedTokens) {
  expect_list_error("1,abc", "abc");  // unparseable token
  expect_list_error("4x", "4x");      // trailing junk
  expect_list_error("2,,4", "");      // empty token
  expect_list_error("2,", "");        // trailing comma
  expect_list_error("nan", "nan");    // non-finite
  expect_list_error("1e999", "1e999");
  expect_list_error("4,0", "0");      // frame count below 1
  expect_list_error("-2", "-2");
  expect_list_error("2.5", "2.5");    // not a whole count
  EXPECT_THROW(bench::parse_double_list("MMHAR_TEST_LIST", "0.1,garbage"),
               InvalidArgument);
  EXPECT_THROW(bench::parse_double_list("MMHAR_TEST_LIST", "inf"),
               InvalidArgument);
}

TEST(SweepList, UnsetOrEmptyKnobGivesDefaultGrid) {
  ::unsetenv("MMHAR_RATES");
  ::setenv("MMHAR_FRAMES", "", 1);
  EXPECT_EQ(bench::default_rates(), (std::vector<double>{0.1, 0.2, 0.3, 0.4}));
  EXPECT_EQ(bench::default_frame_counts(),
            (std::vector<std::size_t>{2, 4, 8, 12}));
  ::setenv("MMHAR_RATES", "garbage", 1);
  ::setenv("MMHAR_FRAMES", "0", 1);
  EXPECT_THROW(bench::default_rates(), InvalidArgument);
  EXPECT_THROW(bench::default_frame_counts(), InvalidArgument);
  ::unsetenv("MMHAR_RATES");
  ::unsetenv("MMHAR_FRAMES");
}

}  // namespace
}  // namespace mmhar::core
