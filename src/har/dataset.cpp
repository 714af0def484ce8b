#include "har/dataset.h"

#include "common/env.h"
#include "common/logging.h"

namespace mmhar::har {

const Sample& Dataset::sample(std::size_t i) const {
  MMHAR_CHECK(i < samples_.size());
  return samples_[i];
}

Sample& Dataset::sample(std::size_t i) {
  MMHAR_CHECK(i < samples_.size());
  return samples_[i];
}

void Dataset::add(Sample sample) {
  MMHAR_REQUIRE(sample.label < num_classes_,
                "label " << sample.label << " out of range");
  if (!samples_.empty()) {
    MMHAR_REQUIRE(sample.heatmaps.same_shape(samples_.front().heatmaps),
                  "all samples must share a heatmap shape");
  }
  samples_.push_back(std::move(sample));
}

std::vector<std::size_t> Dataset::indices_of_label(std::size_t label) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < samples_.size(); ++i)
    if (samples_[i].label == label) out.push_back(i);
  return out;
}

Tensor Dataset::batch_of(const std::vector<std::size_t>& indices) const {
  MMHAR_REQUIRE(!indices.empty() && !samples_.empty(), "empty batch");
  const auto& shape = samples_.front().heatmaps.shape();
  Tensor batch({indices.size(), shape[0], shape[1], shape[2]});
  const std::size_t stride = shape[0] * shape[1] * shape[2];
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const Tensor& h = sample(indices[b]).heatmaps;
    std::copy(h.data(), h.data() + stride, batch.data() + b * stride);
  }
  return batch;
}

std::vector<std::size_t> Dataset::labels_of(
    const std::vector<std::size_t>& indices) const {
  std::vector<std::size_t> labels(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i)
    labels[i] = sample(indices[i]).label;
  return labels;
}

namespace {

constexpr std::uint32_t kDatasetMagic = 0x53445348;  // "HSDS"
constexpr std::uint32_t kDatasetVersion = 1;

}  // namespace

void Dataset::save(const std::string& path) const {
  save_artifact(path, kDatasetMagic, kDatasetVersion, [&](BinaryWriter& w) {
    w.write_u64(num_classes_);
    w.write_u64(samples_.size());
    for (const auto& s : samples_) {
      w.write_u32(static_cast<std::uint32_t>(s.spec.activity));
      w.write_i64(s.spec.participant);
      w.write_f64(s.spec.distance_m);
      w.write_f64(s.spec.angle_deg);
      w.write_u32(s.spec.repetition);
      w.write_u64(s.spec.seed);
      w.write_u64(s.label);
      s.heatmaps.save(w);
    }
  });
}

LoadResult Dataset::try_load(const std::string& path, Dataset& out) {
  Dataset ds;
  const LoadResult result =
      load_artifact(path, kDatasetMagic, kDatasetVersion, [&](BinaryReader& r) {
        ds.num_classes_ = r.read_u64();
        const auto count = r.read_u64();
        for (std::uint64_t i = 0; i < count; ++i) {
          Sample s;
          s.spec.activity = static_cast<mesh::Activity>(r.read_u32());
          s.spec.participant = static_cast<int>(r.read_i64());
          s.spec.distance_m = r.read_f64();
          s.spec.angle_deg = r.read_f64();
          s.spec.repetition = r.read_u32();
          s.spec.seed = r.read_u64();
          s.label = r.read_u64();
          s.heatmaps = Tensor::load(r);
          ds.samples_.push_back(std::move(s));
        }
      });
  if (result.ok()) out = std::move(ds);
  return result;
}

Dataset Dataset::load(const std::string& path) {
  Dataset ds;
  const LoadResult result = try_load(path, ds);
  if (!result.ok())
    throw IoError("Dataset::load: " + path + ": " +
                  load_status_name(result.status) +
                  (result.detail.empty() ? "" : " (" + result.detail + ")"));
  return ds;
}

DatasetConfig::DatasetConfig() = default;

void DatasetConfig::hash_into(Hasher& h) const {
  for (const int p : participants) h.mix(p);
  for (const double d : distances_m) h.mix(d);
  for (const double a : angles_deg) h.mix(a);
  for (const std::size_t act : activities) h.mix(act);
  h.mix(repetitions)
      .mix(static_cast<std::uint64_t>(repetition_offset))
      .mix(seed);
}

Dataset build_dataset(const SampleGenerator& generator,
                      const DatasetConfig& config) {
  Dataset ds;
  ds.set_num_classes(mesh::kNumActivities);
  std::size_t done = 0;
  const std::size_t total = config.total_samples();
  for (const std::size_t a : config.activities) {
    for (const int participant : config.participants) {
      for (const double distance : config.distances_m) {
        for (const double angle : config.angles_deg) {
          for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
            Sample s;
            s.spec.activity = mesh::activity_from_index(a);
            s.spec.participant = participant;
            s.spec.distance_m = distance;
            s.spec.angle_deg = angle;
            s.spec.repetition =
                config.repetition_offset + static_cast<std::uint32_t>(rep);
            s.spec.seed = config.seed;
            s.label = a;
            s.heatmaps = generator.generate(s.spec);
            ds.add(std::move(s));
            if (++done % 50 == 0) {
              MMHAR_LOG(Info)
                  << "dataset generation " << done << "/" << total;
            }
          }
        }
      }
    }
  }
  return ds;
}

Dataset load_or_build_dataset(const SampleGenerator& generator,
                              const DatasetConfig& config,
                              std::string cache_dir) {
  if (cache_dir.empty())
    cache_dir = env_string("MMHAR_CACHE_DIR", ".mmhar_cache");
  ensure_directory(cache_dir);

  Hasher h;
  generator.config().hash_into(h);
  config.hash_into(h);
  const std::string path = cache_dir + "/dataset_" + h.hex() + ".ds";

  Dataset cached;
  const LoadResult res = Dataset::try_load(path, cached);
  if (res.ok()) {
    MMHAR_LOG(Debug) << "dataset cache hit: " << path;
    return cached;
  }
  if (res.status != LoadStatus::Missing) {
    MMHAR_LOG(Warn) << "dataset cache " << path << " unusable ("
                    << load_status_name(res.status)
                    << "), regenerating from scratch";
  }
  MMHAR_LOG(Info) << "dataset cache miss, generating "
                  << config.total_samples() << " samples -> " << path;
  Dataset ds = build_dataset(generator, config);
  try {
    ds.save(path);
  } catch (const IoError& e) {
    // A failed cache write (full disk, injected rename fault) must not
    // take down the run that just paid for the generation.
    MMHAR_LOG(Warn) << "dataset cache write failed (" << e.what()
                    << "); continuing uncached";
  }
  return ds;
}

}  // namespace mmhar::har
