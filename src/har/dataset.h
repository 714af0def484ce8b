// Activity datasets: generation grids, batching, and the on-disk cache.
//
// The paper's collection protocol (§VI-B): 3 participants x 12 positions
// (4 distances x 3 angles) x 6 activities x N repetitions. A
// `DatasetConfig` reproduces that grid at configurable scale; datasets are
// deterministic functions of (GeneratorConfig, DatasetConfig) and are
// cached on disk under a hash of both, so repeated bench runs skip the
// (comparatively expensive) RF simulation.
#pragma once

#include <string>
#include <vector>

#include "common/artifact_store.h"
#include "har/generator.h"

namespace mmhar::har {

struct Sample {
  SampleSpec spec;
  Tensor heatmaps;  ///< [T, range_bins, angle_bins]
  std::size_t label = 0;
};

class Dataset {
 public:
  Dataset() = default;

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  std::size_t num_classes() const { return num_classes_; }
  void set_num_classes(std::size_t n) { num_classes_ = n; }

  const Sample& sample(std::size_t i) const;
  Sample& sample(std::size_t i);
  void add(Sample sample);

  /// Indices of all samples with the given label.
  std::vector<std::size_t> indices_of_label(std::size_t label) const;

  /// Assemble a training batch [B, T, H, W] from sample indices.
  Tensor batch_of(const std::vector<std::size_t>& indices) const;
  std::vector<std::size_t> labels_of(
      const std::vector<std::size_t>& indices) const;

  /// Write atomically (temp + rename) with a checksummed container; see
  /// common/artifact_store.h. Throws IoError if the write fails — the
  /// previous file at `path`, if any, is left intact.
  void save(const std::string& path) const;

  /// Load `path`, throwing IoError when it is missing/corrupt (a corrupt
  /// file is quarantined as `<path>.corrupt` first).
  static Dataset load(const std::string& path);

  /// Non-throwing load: `out` is assigned only on LoadStatus::Ok.
  static LoadResult try_load(const std::string& path, Dataset& out);

 private:
  std::vector<Sample> samples_;
  std::size_t num_classes_ = 6;
};

/// Collection grid (positions / participants / repetitions).
struct DatasetConfig {
  /// Defined out of line: inlined into a caller, GCC 12 under
  /// -march=native flags the vector members' initializer-list copies as
  /// -Wmaybe-uninitialized (a false positive).
  DatasetConfig();

  std::vector<int> participants{0, 1, 2};
  std::vector<double> distances_m{0.8, 1.2, 1.6, 2.0};
  std::vector<double> angles_deg{-30.0, 0.0, 30.0};
  /// Activity subset as label indices (attack test sets restrict this to
  /// the victim activity).
  std::vector<std::size_t> activities{0, 1, 2, 3, 4, 5};
  std::size_t repetitions = 1;
  /// First repetition index; disjoint offsets give disjoint train/test
  /// repetitions of the same grid.
  std::uint32_t repetition_offset = 0;
  std::uint64_t seed = 7;

  std::size_t total_samples() const {
    return participants.size() * distances_m.size() * angles_deg.size() *
           repetitions * activities.size();
  }
  void hash_into(Hasher& h) const;
};

/// Generate every sample in the grid (no cache).
Dataset build_dataset(const SampleGenerator& generator,
                      const DatasetConfig& config);

/// Cache-aware generation: loads `cache_dir/<hash>.ds` when present,
/// otherwise builds and stores it. Cache dir defaults to $MMHAR_CACHE_DIR
/// or ".mmhar_cache".
Dataset load_or_build_dataset(const SampleGenerator& generator,
                              const DatasetConfig& config,
                              std::string cache_dir = "");

}  // namespace mmhar::har
