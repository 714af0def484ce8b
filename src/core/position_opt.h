// Trigger-position optimization (paper Eq. 2).
//
// For each candidate body anchor, the RF simulator predicts the heatmaps
// of the activity with a trigger at that anchor; the objective is
//
//    alpha * ( D( l_θ(h(R_e(y'))), l_θ(h(R_e(y))) )
//              − beta * || h(R_e(y')) − h(R_e(y)) ||_2 )
//
// i.e. maximize the CNN-feature displacement (the LSTM must notice the
// trigger) while penalizing raw heatmap deviation (clean-accuracy
// stealth). Candidate positions are the body-anchor catalogue; scoring
// can be restricted to the SHAP-selected frames of interest.
#pragma once

#include <vector>

#include "har/generator.h"
#include "har/model.h"
#include "mesh/human.h"

namespace mmhar::core {

struct PositionObjective {
  double alpha = 1.0;  ///< overall scale (kept for parity with Eq. 2)
  double beta = 0.05;  ///< stealth penalty weight
};

struct PositionCandidate {
  mesh::BodyAnchor anchor = mesh::BodyAnchor::Chest;
  mesh::Vec3 local_position;        ///< body-local anchor position
  double score = 0.0;               ///< Eq. 2 objective value
  double feature_distance = 0.0;    ///< D(·,·) term (mean over frames)
  double heatmap_deviation = 0.0;   ///< L2 term (mean over frames)
  /// Mean L2 shift of the non-coherent range profile (clean vs triggered)
  /// — a physical-layer stealth diagnostic derived from the same range
  /// spectra the DRAI heatmaps are built from (one Range-FFT per frame).
  /// Reported alongside the Eq. 2 terms; not part of the score.
  double range_profile_shift = 0.0;
};

class TriggerPositionOptimizer {
 public:
  /// `surrogate` is the attacker's clean-data surrogate model (threat
  /// model §III); `generator` is the RF simulator pipeline R_e + h.
  TriggerPositionOptimizer(const har::SampleGenerator& generator,
                           har::HarModel& surrogate,
                           PositionObjective objective = {});

  /// Score every catalogued anchor for `spec` with trigger `trigger`.
  /// `frames_of_interest` restricts scoring to those frame indices
  /// (empty = all frames). Results are sorted by descending score.
  std::vector<PositionCandidate> evaluate_anchors(
      const har::SampleSpec& spec, const mesh::TriggerSpec& trigger,
      const std::vector<std::size_t>& frames_of_interest = {}) const;

  /// Per-frame optimum op_i: for each frame index in `frames`, the anchor
  /// position maximizing that single frame's objective. Feeds Eq. 4.
  std::vector<mesh::Vec3> per_frame_optima(
      const har::SampleSpec& spec, const mesh::TriggerSpec& trigger,
      const std::vector<std::size_t>& frames) const;

  /// Both of the above for the same non-empty `frames`, from one
  /// simulation of the clean reference and the anchors.
  struct Search {
    std::vector<PositionCandidate> ranking;  ///< evaluate_anchors
    std::vector<mesh::Vec3> optima;          ///< per_frame_optima
  };
  Search search(const har::SampleSpec& spec, const mesh::TriggerSpec& trigger,
                const std::vector<std::size_t>& frames) const;

 private:
  struct AnchorEvaluation {
    mesh::BodyAnchor anchor;
    mesh::Vec3 position;
    std::vector<double> per_frame_feature_distance;
    std::vector<double> per_frame_heatmap_deviation;
    std::vector<double> per_frame_profile_shift;
  };

  std::vector<AnchorEvaluation> evaluate_all(
      const har::SampleSpec& spec, const mesh::TriggerSpec& trigger) const;
  std::vector<PositionCandidate> rank(
      const std::vector<AnchorEvaluation>& evals,
      const std::vector<std::size_t>& frames_of_interest) const;
  std::vector<mesh::Vec3> optima(const std::vector<AnchorEvaluation>& evals,
                                 const std::vector<std::size_t>& frames) const;

  const har::SampleGenerator& generator_;
  har::HarModel& surrogate_;
  PositionObjective objective_;
};

}  // namespace mmhar::core
