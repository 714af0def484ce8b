#include "core/position_opt.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/finite_check.h"
#include "har/infer.h"

namespace mmhar::core {

TriggerPositionOptimizer::TriggerPositionOptimizer(
    const har::SampleGenerator& generator, har::HarModel& surrogate,
    PositionObjective objective)
    : generator_(generator), surrogate_(surrogate), objective_(objective) {}

std::vector<TriggerPositionOptimizer::AnchorEvaluation>
TriggerPositionOptimizer::evaluate_all(const har::SampleSpec& spec,
                                       const mesh::TriggerSpec& trigger) const {
  const auto& mc = surrogate_.config();
  const std::size_t frames = mc.frames;
  const har::InferencePlan plan = har::build_inference_plan(surrogate_);
  har::InferenceScratch scratch;
  const auto features_of = [&](const Tensor& heatmaps) {  // l_θ: [T, F]
    MMHAR_CHECK(heatmaps.size() == frames * mc.height * mc.width);
    Tensor f({frames, mc.feature_dim});
    har::infer_features(plan, scratch, heatmaps.data(), frames, f.data());
    check_finite(f.flat(), "features", "position search");
    return f;
  };

  // Clean reference: heatmaps, per-frame features, and range profiles.
  // generate_views reuses one Range-FFT pass per frame for both the DRAI
  // heatmaps and the range-profile diagnostic below.
  const har::SampleViews clean_views = generator_.generate_views(spec);
  const Tensor& clean = clean_views.heatmaps;
  MMHAR_CHECK(clean.dim(0) == frames);
  const Tensor clean_features = features_of(clean);
  std::vector<Tensor> clean_profiles;
  clean_profiles.reserve(frames);
  for (std::size_t t = 0; t < frames; ++t)
    clean_profiles.push_back(dsp::range_profile(clean_views.spectra[t]));

  const mesh::HumanBody body(
      mesh::BodyParams::participant(spec.participant));
  const std::size_t hw = mc.height * mc.width;

  std::vector<AnchorEvaluation> evals;
  for (const mesh::BodyAnchor anchor : mesh::all_anchors()) {
    har::TriggerPlacement placement;
    placement.spec = trigger;
    placement.local_position = body.anchor_position(anchor);
    placement.local_normal = body.anchor_normal(anchor);

    const har::SampleViews views = generator_.generate_views(spec, &placement);
    const Tensor& triggered = views.heatmaps;
    const Tensor triggered_features = features_of(triggered);

    AnchorEvaluation e;
    e.anchor = anchor;
    e.position = placement.local_position;
    e.per_frame_feature_distance.resize(frames);
    e.per_frame_heatmap_deviation.resize(frames);
    e.per_frame_profile_shift.resize(frames);
    for (std::size_t t = 0; t < frames; ++t) {
      double fd = 0.0;
      for (std::size_t j = 0; j < mc.feature_dim; ++j) {
        const double d = triggered_features[t * mc.feature_dim + j] -
                         clean_features[t * mc.feature_dim + j];
        fd += d * d;
      }
      e.per_frame_feature_distance[t] = std::sqrt(fd);
      double hd = 0.0;
      for (std::size_t j = 0; j < hw; ++j) {
        const double d = triggered[t * hw + j] - clean[t * hw + j];
        hd += d * d;
      }
      e.per_frame_heatmap_deviation[t] = std::sqrt(hd);
      const Tensor profile = dsp::range_profile(views.spectra[t]);
      const Tensor& ref = clean_profiles[t];
      MMHAR_CHECK(profile.size() == ref.size());
      double pd = 0.0;
      for (std::size_t j = 0; j < profile.size(); ++j) {
        const double d = profile[j] - ref[j];
        pd += d * d;
      }
      e.per_frame_profile_shift[t] = std::sqrt(pd);
    }
    evals.push_back(std::move(e));
  }
  return evals;
}

std::vector<PositionCandidate> TriggerPositionOptimizer::evaluate_anchors(
    const har::SampleSpec& spec, const mesh::TriggerSpec& trigger,
    const std::vector<std::size_t>& frames_of_interest) const {
  return rank(evaluate_all(spec, trigger), frames_of_interest);
}

std::vector<PositionCandidate> TriggerPositionOptimizer::rank(
    const std::vector<AnchorEvaluation>& evals,
    const std::vector<std::size_t>& frames_of_interest) const {
  const std::size_t frames = surrogate_.config().frames;

  std::vector<std::size_t> scored = frames_of_interest;
  if (scored.empty()) {
    scored.resize(frames);
    for (std::size_t t = 0; t < frames; ++t) scored[t] = t;
  }
  for (const std::size_t t : scored)
    MMHAR_REQUIRE(t < frames, "frame index " << t << " out of range");

  std::vector<PositionCandidate> out;
  for (const auto& e : evals) {
    PositionCandidate c;
    c.anchor = e.anchor;
    c.local_position = e.position;
    double fd = 0.0;
    double hd = 0.0;
    double pd = 0.0;
    for (const std::size_t t : scored) {
      fd += e.per_frame_feature_distance[t];
      hd += e.per_frame_heatmap_deviation[t];
      pd += e.per_frame_profile_shift[t];
    }
    fd /= static_cast<double>(scored.size());
    hd /= static_cast<double>(scored.size());
    pd /= static_cast<double>(scored.size());
    c.feature_distance = fd;
    c.heatmap_deviation = hd;
    c.range_profile_shift = pd;
    c.score = objective_.alpha * (fd - objective_.beta * hd);
    out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const PositionCandidate& a, const PositionCandidate& b) {
              return a.score > b.score;
            });
  return out;
}

std::vector<mesh::Vec3> TriggerPositionOptimizer::per_frame_optima(
    const har::SampleSpec& spec, const mesh::TriggerSpec& trigger,
    const std::vector<std::size_t>& frames) const {
  MMHAR_REQUIRE(!frames.empty(), "need at least one frame");
  return optima(evaluate_all(spec, trigger), frames);
}

TriggerPositionOptimizer::Search TriggerPositionOptimizer::search(
    const har::SampleSpec& spec, const mesh::TriggerSpec& trigger,
    const std::vector<std::size_t>& frames) const {
  MMHAR_REQUIRE(!frames.empty(), "need at least one frame");
  const auto evals = evaluate_all(spec, trigger);
  return {rank(evals, frames), optima(evals, frames)};
}

std::vector<mesh::Vec3> TriggerPositionOptimizer::optima(
    const std::vector<AnchorEvaluation>& evals,
    const std::vector<std::size_t>& frames) const {
  MMHAR_CHECK(!evals.empty());

  std::vector<mesh::Vec3> optima;
  optima.reserve(frames.size());
  for (const std::size_t t : frames) {
    MMHAR_REQUIRE(t < surrogate_.config().frames, "frame out of range");
    const AnchorEvaluation* best = nullptr;
    double best_score = -1e300;
    for (const auto& e : evals) {
      const double score =
          objective_.alpha * (e.per_frame_feature_distance[t] -
                              objective_.beta * e.per_frame_heatmap_deviation[t]);
      if (score > best_score) {
        best_score = score;
        best = &e;
      }
    }
    optima.push_back(best->position);
  }
  return optima;
}

}  // namespace mmhar::core
