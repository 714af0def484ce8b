#include "core/poison.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/logging.h"

namespace mmhar::core {

const char* frame_selection_name(FrameSelection s) {
  switch (s) {
    case FrameSelection::ShapTopK: return "shap_top_k";
    case FrameSelection::FirstK: return "first_k";
  }
  return "?";
}

har::Dataset load_or_build_triggered_twins(
    const har::SampleGenerator& generator, const har::DatasetConfig& config,
    std::size_t victim_label, const har::TriggerPlacement& placement,
    std::string cache_dir) {
  if (cache_dir.empty())
    cache_dir = env_string("MMHAR_CACHE_DIR", ".mmhar_cache");
  ensure_directory(cache_dir);

  har::DatasetConfig victim_only = config;
  victim_only.activities = {victim_label};

  Hasher h;
  generator.config().hash_into(h);
  victim_only.hash_into(h);
  placement.hash_into(h);
  const std::string path = cache_dir + "/twins_" + h.hex() + ".ds";
  har::Dataset cached;
  const LoadResult res = har::Dataset::try_load(path, cached);
  if (res.ok()) return cached;
  if (res.status != LoadStatus::Missing) {
    MMHAR_LOG(Warn) << "twins cache " << path << " unusable ("
                    << load_status_name(res.status) << "), regenerating";
  }

  MMHAR_LOG(Info) << "generating " << victim_only.total_samples()
                  << " triggered twins -> " << path;
  har::Dataset twins;
  twins.set_num_classes(mesh::kNumActivities);
  for (const int participant : victim_only.participants) {
    for (const double distance : victim_only.distances_m) {
      for (const double angle : victim_only.angles_deg) {
        for (std::size_t rep = 0; rep < victim_only.repetitions; ++rep) {
          har::Sample s;
          s.spec.activity = mesh::activity_from_index(victim_label);
          s.spec.participant = participant;
          s.spec.distance_m = distance;
          s.spec.angle_deg = angle;
          s.spec.repetition = victim_only.repetition_offset +
                              static_cast<std::uint32_t>(rep);
          s.spec.seed = victim_only.seed;
          s.label = victim_label;
          s.heatmaps = generator.generate(s.spec, &placement);
          twins.add(std::move(s));
        }
      }
    }
  }
  try {
    twins.save(path);
  } catch (const IoError& e) {
    MMHAR_LOG(Warn) << "twins cache write failed (" << e.what()
                    << "); continuing uncached";
  }
  return twins;
}

std::vector<std::size_t> choose_poison_frames(
    har::HarModel& surrogate, const har::Dataset& train,
    const PoisonConfig& config, const xai::ShapConfig& shap_config,
    std::size_t reference_samples) {
  const std::size_t frames = surrogate.config().frames;
  MMHAR_REQUIRE(config.poisoned_frames >= 1 &&
                    config.poisoned_frames <= frames,
                "poisoned_frames out of range");

  if (config.frame_selection == FrameSelection::FirstK) {
    std::vector<std::size_t> first(config.poisoned_frames);
    for (std::size_t i = 0; i < first.size(); ++i) first[i] = i;
    return first;
  }

  auto victim_indices = train.indices_of_label(config.victim_label);
  MMHAR_REQUIRE(!victim_indices.empty(),
                "no victim samples with label " << config.victim_label);
  if (victim_indices.size() > reference_samples)
    victim_indices.resize(reference_samples);

  xai::FrameImportance importance(surrogate, shap_config);
  const auto mean_abs = importance.mean_abs_shap(train, victim_indices,
                                                 config.victim_label);
  return xai::top_k_by_magnitude(mean_abs, config.poisoned_frames);
}

PoisonResult poison_dataset(const har::Dataset& train,
                            const har::Dataset& triggered_twins,
                            const PoisonConfig& config,
                            const std::vector<std::size_t>& frames) {
  MMHAR_REQUIRE(config.injection_rate >= 0.0 && config.injection_rate <= 1.0,
                "injection rate must be in [0, 1]");
  MMHAR_REQUIRE(config.victim_label != config.target_label,
                "victim and target must differ");
  MMHAR_REQUIRE(!frames.empty(), "no poisoning frames chosen");

  // Index twins by their spec identity. A sorted vector, not a hash map:
  // the former unordered_map was lookup-only (so hash order never leaked
  // into a result), but a sorted index keeps it that way by construction —
  // there is no iteration order for a future change to depend on, and
  // mmhar_check's unordered-iter rule has nothing to police here.
  std::vector<std::pair<std::uint64_t, const har::Sample*>> twin_by_spec;
  twin_by_spec.reserve(triggered_twins.size());
  for (std::size_t i = 0; i < triggered_twins.size(); ++i) {
    const auto& t = triggered_twins.sample(i);
    twin_by_spec.emplace_back(t.spec.stream_seed(), &t);
  }
  std::sort(twin_by_spec.begin(), twin_by_spec.end());
  const auto find_twin = [&twin_by_spec](std::uint64_t seed) {
    const auto it = std::lower_bound(
        twin_by_spec.begin(), twin_by_spec.end(), seed,
        [](const auto& entry, std::uint64_t key) { return entry.first < key; });
    return it != twin_by_spec.end() && it->first == seed
               ? it->second
               : static_cast<const har::Sample*>(nullptr);
  };

  PoisonResult result;
  result.dataset = train;
  result.frames = frames;

  const auto victims = result.dataset.indices_of_label(config.victim_label);
  const auto n_poison = static_cast<std::size_t>(
      std::lround(config.injection_rate *
                  static_cast<double>(victims.size())));
  if (n_poison == 0) return result;

  Rng rng(config.seed);
  auto chosen = rng.sample_without_replacement(victims.size(), n_poison);

  const auto& shape = train.sample(0).heatmaps.shape();
  const std::size_t frame_stride = shape[1] * shape[2];

  for (const std::size_t vi : chosen) {
    har::Sample& s = result.dataset.sample(victims[vi]);
    const har::Sample* twin_ptr = find_twin(s.spec.stream_seed());
    MMHAR_CHECK_MSG(twin_ptr != nullptr,
                    "no triggered twin for a victim sample — twin grid must "
                    "match the training grid");
    const har::Sample& twin = *twin_ptr;
    // Splice the chosen frames from the twin.
    for (const std::size_t f : frames) {
      MMHAR_CHECK(f < shape[0]);
      std::copy(twin.heatmaps.data() + f * frame_stride,
                twin.heatmaps.data() + (f + 1) * frame_stride,
                s.heatmaps.data() + f * frame_stride);
    }
    s.label = config.target_label;
    result.poisoned_indices.push_back(victims[vi]);
  }
  return result;
}

}  // namespace mmhar::core
