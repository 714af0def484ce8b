// mmhar_tool — command-line utility over the library's public API.
//
// Subcommands:
//   info                         radar/derived-parameter summary
//   simulate  [options]          one activity -> heatmap stats + ASCII
//   export    [options] PREFIX   posed body meshes as OBJ files
//   anchors                      body-anchor catalogue for a participant
//
// Common options:
//   --activity NAME   Push|Pull|LeftSwipe|RightSwipe|Clockwise|Anticlockwise
//   --distance M      subject distance (default 1.6)
//   --angle DEG       subject azimuth (default 0)
//   --participant N   0..2 body build (default 0)
//   --trigger ANCHOR  attach a 2x2in reflector (chest|abdomen|waist|...)
//   --frames N        frames per activity (default 32)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "har/generator.h"
#include "mesh/obj_io.h"

using namespace mmhar;

namespace {

struct Options {
  mesh::Activity activity = mesh::Activity::Push;
  double distance = 1.6;
  double angle = 0.0;
  int participant = 0;
  std::string trigger_anchor;
  std::size_t frames = 32;
};

int usage() {
  std::fprintf(stderr,
               "usage: mmhar_tool <info|simulate|export|anchors> "
               "[--activity A] [--distance M] [--angle DEG]\n"
               "                  [--participant N] [--trigger ANCHOR] "
               "[--frames N] [prefix]\n");
  return 2;
}

bool parse_activity(const std::string& name, mesh::Activity& out) {
  for (std::size_t a = 0; a < mesh::kNumActivities; ++a) {
    if (name == mesh::activity_name(mesh::activity_from_index(a))) {
      out = mesh::activity_from_index(a);
      return true;
    }
  }
  return false;
}

bool parse_anchor(const std::string& name, mesh::BodyAnchor& out) {
  for (const auto a : mesh::all_anchors()) {
    if (name == mesh::anchor_name(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

void print_heatmap(const Tensor& hm) {
  static const char* shades = " .:-=+*#%@";
  const float lo = hm.min();
  const float range = hm.max() - lo > 0 ? hm.max() - lo : 1.0F;
  for (std::size_t r = 0; r < hm.dim(0); ++r) {
    std::printf("  ");
    for (std::size_t c = 0; c < hm.dim(1); ++c)
      std::putchar(shades[std::min(
          9, static_cast<int>((hm.at(r, c) - lo) / range * 10.0F))]);
    std::putchar('\n');
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  Options opt;
  std::string positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--activity") {
      if (!parse_activity(next(), opt.activity)) {
        std::fprintf(stderr, "unknown activity\n");
        return 2;
      }
    } else if (arg == "--distance") {
      opt.distance = std::atof(next());
    } else if (arg == "--angle") {
      opt.angle = std::atof(next());
    } else if (arg == "--participant") {
      opt.participant = std::atoi(next());
    } else if (arg == "--trigger") {
      opt.trigger_anchor = next();
    } else if (arg == "--frames") {
      opt.frames = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      positional = arg;
    }
  }

  har::GeneratorConfig gc;
  gc.num_frames = opt.frames;
  const har::SampleGenerator generator(gc);

  har::SampleSpec spec;
  spec.activity = opt.activity;
  spec.distance_m = opt.distance;
  spec.angle_deg = opt.angle;
  spec.participant = opt.participant;

  const mesh::HumanBody body(
      mesh::BodyParams::participant(opt.participant));
  har::TriggerPlacement placement;
  const har::TriggerPlacement* trigger = nullptr;
  if (!opt.trigger_anchor.empty()) {
    mesh::BodyAnchor anchor;
    if (!parse_anchor(opt.trigger_anchor, anchor)) {
      std::fprintf(stderr, "unknown anchor %s (try: ",
                   opt.trigger_anchor.c_str());
      for (const auto a : mesh::all_anchors())
        std::fprintf(stderr, "%s ", mesh::anchor_name(a));
      std::fprintf(stderr, ")\n");
      return 2;
    }
    placement.local_position = body.anchor_position(anchor);
    placement.local_normal = body.anchor_normal(anchor);
    trigger = &placement;
  }

  if (command == "info") {
    const auto& rc = gc.radar;
    std::printf("FMCW: %.1f-%.1f GHz, slope %.1f MHz/us, %zu ADC samples, "
                "%zu chirps/frame, %zu virtual antennas\n",
                rc.start_freq_hz / 1e9,
                (rc.start_freq_hz + rc.bandwidth_hz) / 1e9,
                rc.slope_hz_per_s() / 1e12, rc.num_samples, rc.num_chirps,
                rc.num_virtual_antennas);
    std::printf("range resolution %.1f cm, window %.2f m, max "
                "unambiguous velocity %.2f m/s\n",
                100 * rc.range_resolution_m(),
                rc.max_range_m(gc.heatmap.range_bins),
                rc.max_unambiguous_velocity_mps());
    std::printf("heatmaps: %zu frames x %zu range x %zu angle bins, "
                "environment %s\n",
                gc.num_frames, gc.heatmap.range_bins, gc.heatmap.angle_bins,
                radar::environment_name(gc.environment));
    return 0;
  }

  if (command == "anchors") {
    std::printf("body anchors for participant %d (height %.2f m):\n",
                opt.participant, body.params().height);
    for (const auto a : mesh::all_anchors()) {
      const auto p = body.anchor_position(a);
      std::printf("  %-20s (%.3f, %.3f, %.3f)\n", mesh::anchor_name(a), p.x,
                  p.y, p.z);
    }
    return 0;
  }

  if (command == "simulate") {
    std::printf("simulating %s at %.1f m / %.0f deg%s...\n",
                mesh::activity_name(opt.activity), opt.distance, opt.angle,
                trigger ? " with trigger" : "");
    const Tensor hm = generator.generate(spec, trigger);
    std::printf("heatmaps %s, mean %.4f, max %.3f\n",
                hm.shape_string().c_str(), hm.mean(), hm.max());
    const std::size_t mid = hm.dim(0) / 2;
    Tensor frame({hm.dim(1), hm.dim(2)});
    std::copy(hm.data() + mid * frame.size(),
              hm.data() + (mid + 1) * frame.size(), frame.data());
    std::printf("frame %zu:\n", mid);
    print_heatmap(frame);
    return 0;
  }

  if (command == "export") {
    if (positional.empty()) {
      std::fprintf(stderr, "export needs an output prefix\n");
      return 2;
    }
    const auto meshes = generator.build_world_meshes(spec, trigger);
    mesh::save_obj_sequence(positional, meshes);
    std::printf("wrote %zu OBJ frames to %s_*.obj (%zu triangles each)\n",
                meshes.size(), positional.c_str(),
                meshes.front().num_triangles());
    return 0;
  }

  return usage();
}
