// Shared experiment-bench plumbing.
//
// Each bench binary regenerates one table or figure of the paper. Figures
// 8-13 are sweeps of (scenario x axis-value) points; this header provides
// the shared sweep runner and table printing so each bench stays a
// declarative description of its figure.
//
// Scale knobs (see DESIGN.md): MMHAR_REPEATS (default 2; paper uses 30),
// MMHAR_EPOCHS, MMHAR_REPS_TRAIN, plus MMHAR_RATES / MMHAR_FRAMES to
// override the sweep grids.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "core/experiment.h"
#include "mesh/activity.h"

namespace mmhar::bench {

struct Scenario {
  std::string name;
  core::AttackPoint point;
};

inline Scenario make_scenario(mesh::Activity victim, mesh::Activity target) {
  Scenario s;
  s.point.victim = static_cast<std::size_t>(victim);
  s.point.target = static_cast<std::size_t>(target);
  s.name = std::string(mesh::activity_name(victim)) + "->" +
           mesh::activity_name(target);
  return s;
}

[[noreturn]] inline void bad_list_token(const char* knob,
                                        const std::string& token,
                                        const char* why) {
  throw InvalidArgument(std::string(knob) + ": sweep-list token '" + token +
                        "' " + why);
}

/// Parse the comma-separated numeric list `raw` ("0.1,0.2,0.4") read from
/// `knob`. Every token must be one finite number: an empty token, trailing
/// junk or a non-finite value throws InvalidArgument naming the knob and
/// the token.
inline std::vector<double> parse_double_list(const char* knob,
                                             const std::string& raw) {
  std::vector<double> out;
  std::size_t pos = 0;
  std::string tok;  // hoisted per-token scratch
  while (true) {
    const std::size_t comma = raw.find(',', pos);
    tok.assign(raw, pos,
               comma == std::string::npos ? std::string::npos : comma - pos);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0')
      bad_list_token(knob, tok, "is not a number");
    if (!std::isfinite(v)) bad_list_token(knob, tok, "is not finite");
    out.push_back(v);
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

/// Frame counts from `raw`, as parse_double_list reads it; every count
/// must also be a whole number from 1 to 1e9.
inline std::vector<std::size_t> parse_frame_counts(const char* knob,
                                                   const std::string& raw) {
  std::vector<std::size_t> counts;
  for (const double v : parse_double_list(knob, raw)) {
    if (!(v >= 1.0 && v <= 1e9 && v == std::floor(v))) {
      std::ostringstream token;
      token << v;
      bad_list_token(knob, token.str(),
                     "is not a whole frame count from 1 to 1e9");
    }
    counts.push_back(static_cast<std::size_t>(v));
  }
  return counts;
}

/// Default sweep grids (paper sweeps injection rate at 8 frames and frame
/// count at rate 0.4); override via MMHAR_RATES / MMHAR_FRAMES. An unset
/// or empty knob gives the default grid; a malformed one throws.
inline std::vector<double> default_rates() {
  const std::string raw = env_string("MMHAR_RATES", "");
  if (raw.empty()) return {0.1, 0.2, 0.3, 0.4};
  return parse_double_list("MMHAR_RATES", raw);
}
inline std::vector<std::size_t> default_frame_counts() {
  const std::string raw = env_string("MMHAR_FRAMES", "");
  if (raw.empty()) return {2, 4, 8, 12};
  return parse_frame_counts("MMHAR_FRAMES", raw);
}

inline void print_run_config(const core::ExperimentSetup& setup) {
  std::printf(
      "# config: train %zu samples, repeats %zu, epochs %zu "
      "(override via MMHAR_REPEATS / MMHAR_EPOCHS / MMHAR_REPS_TRAIN)\n",
      setup.train_grid.total_samples(), setup.repeats,
      setup.training.epochs);
}

inline void print_sweep_header(const char* axis_name) {
  std::printf("%-28s %8s %8s %8s %8s %8s\n", "scenario", axis_name, "ASR%",
              "UASR%", "CDR%", "+-ASR");
}

inline void print_sweep_row(const std::string& scenario, double axis_value,
                            const core::PointSummary& s) {
  std::printf("%-28s %8.2f %8.1f %8.1f %8.1f %8.1f\n", scenario.c_str(),
              axis_value, 100.0 * s.mean.asr, 100.0 * s.mean.uasr,
              100.0 * s.mean.cdr, 100.0 * s.stddev.asr);
  if (s.failed_repeats > 0) {
    std::printf("# ^ %zu/%zu repeats failed: %s\n", s.failed_repeats,
                s.repeats,
                s.errors.empty() ? "unknown" : s.errors.front().c_str());
  }
  std::fflush(stdout);
}

inline void print_failed_row(const std::string& scenario, double axis_value,
                             const std::string& error) {
  std::printf("%-28s %8.2f   FAILED  (%s)\n", scenario.c_str(), axis_value,
              error.c_str());
  std::fflush(stdout);
}

/// One sweep point at the runner boundary: a point whose every repeat
/// failed (or that threw outside the per-repeat recovery, e.g. while
/// planning) prints a FAILED row and the sweep continues.
inline void run_sweep_point(core::AttackExperiment& experiment,
                            const std::string& name, double axis_value,
                            const core::AttackPoint& point) {
  try {
    const auto summary = experiment.run_point(point);
    if (!summary.ok()) {
      print_failed_row(name, axis_value,
                       summary.errors.empty() ? "all repeats failed"
                                              : summary.errors.front());
      return;
    }
    print_sweep_row(name, axis_value, summary);
  } catch (const Error& e) {
    print_failed_row(name, axis_value, e.what());
  }
}

/// Sweep injection rate for each scenario (figures 8a-c, 10a-c, 12a-c).
inline void run_injection_sweep(core::AttackExperiment& experiment,
                                const std::vector<Scenario>& scenarios) {
  print_run_config(experiment.setup());
  print_sweep_header("rate");
  for (const Scenario& scenario : scenarios) {
    for (const double rate : default_rates()) {
      core::AttackPoint point = scenario.point;
      point.injection_rate = rate;
      run_sweep_point(experiment, scenario.name, rate, point);
    }
  }
}

/// Sweep poisoned-frame count for each scenario (figures 9, 11, 13).
inline void run_frames_sweep(core::AttackExperiment& experiment,
                             const std::vector<Scenario>& scenarios) {
  print_run_config(experiment.setup());
  print_sweep_header("frames");
  for (const Scenario& scenario : scenarios) {
    for (const std::size_t frames : default_frame_counts()) {
      core::AttackPoint point = scenario.point;
      point.poisoned_frames = frames;
      run_sweep_point(experiment, scenario.name,
                      static_cast<double>(frames), point);
    }
  }
}

/// Render a heatmap as coarse ASCII art (figure-5 style visualization).
inline void print_heatmap_ascii(const Tensor& heatmap, const char* title) {
  static const char* shades = " .:-=+*#%@";
  std::printf("%s (%zux%zu, rows=range near->far, cols=angle left->right)\n",
              title, heatmap.dim(0), heatmap.dim(1));
  const float lo = heatmap.min();
  const float hi = heatmap.max();
  const float range = hi - lo > 0.0F ? hi - lo : 1.0F;
  for (std::size_t r = 0; r < heatmap.dim(0); ++r) {
    std::putchar(' ');
    for (std::size_t a = 0; a < heatmap.dim(1); ++a) {
      const float v = (heatmap.at(r, a) - lo) / range;
      const int idx = std::min(9, static_cast<int>(v * 10.0F));
      std::putchar(shades[idx]);
    }
    std::putchar('\n');
  }
}

}  // namespace mmhar::bench
