#include "common/env_registry.h"

#include <cstring>

namespace mmhar {
namespace {

// One row per knob, one line per row: tools/mmhar_analyze parses this
// table textually (pass 1 of the env-knob-registry rule), so keep the
// {"NAME", "type", "default", "doc"} shape and the line breaks.
constexpr EnvKnob kKnobs[] = {
    {"MMHAR_CACHE_DIR", "string", ".mmhar_cache", "dataset/model/journal cache directory"},
    {"MMHAR_CHECKPOINT_EVERY", "int", "1", "training checkpoint cadence in epochs (0 = off)"},
    {"MMHAR_EPOCHS", "int", "20", "training epochs"},
    {"MMHAR_FAULT_SEED", "int", "1", "seed for probabilistic fault-injection rules"},
    {"MMHAR_FAULT_SPEC", "string", "(empty)", "fault-injection spec: site, site@N, site=P, comma-separated"},
    {"MMHAR_FINITE_CHECKS", "flag", "0", "arm NaN/Inf/denormal tripwires at pipeline stage boundaries"},
    {"MMHAR_FRAMES", "list", "per-bench", "comma-separated frame counts for frame sweeps"},
    {"MMHAR_LOG_LEVEL", "int", "1", "log threshold: 0=debug 1=info 2=warn 3=error 4=silent"},
    {"MMHAR_RATES", "list", "per-bench", "comma-separated injection rates for rate sweeps"},
    {"MMHAR_REPEATS", "int", "2", "backdoor trainings averaged per sweep point (paper: 30)"},
    {"MMHAR_REPS_TEST", "int", "1", "test-set repetitions per grid cell"},
    {"MMHAR_REPS_TRAIN", "int", "2", "training repetitions per grid cell (72 samples/class)"},
    {"MMHAR_RESUME", "flag", "1", "replay completed sweep repeats from the journal"},
    {"MMHAR_SERVING_BATCH", "int", "64", "max frames fused per serving batcher cycle"},
    {"MMHAR_SERVING_DROP_POLICY", "string", "oldest", "full frame ring: drop 'oldest' queued frame or reject 'newest'"},
    {"MMHAR_SERVING_FRAMES", "int", "24", "bench_serving_chaos: frames submitted per stream"},
    {"MMHAR_SERVING_MAX_STREAM_FAULTS", "int", "3", "consecutive contained faults before a serving stream is suspended (0 = never)"},
    {"MMHAR_SERVING_QUEUE_DEPTH", "int", "4", "per-stream frame-ring capacity in the serving layer"},
    {"MMHAR_SERVING_SHARDS", "int", "1", "batcher shards in the serving layer (one worker thread each)"},
    {"MMHAR_SERVING_SLO_MS", "int", "0", "serving admission SLO in ms; frames/results past it are dropped (0 = off)"},
    {"MMHAR_SHAP_SAMPLES", "int", "36", "samples in the Fig. 3 SHAP histogram"},
    {"MMHAR_THREADS", "int", "0 (auto)", "thread-pool size; 0 = hardware concurrency"},
    {"MMHAR_VERBOSE", "flag", "0", "per-epoch training log lines"},
};

constexpr std::size_t kKnobCount = sizeof(kKnobs) / sizeof(kKnobs[0]);

}  // namespace

const EnvKnob* env_registry(std::size_t* count) {
  if (count != nullptr) *count = kKnobCount;
  return kKnobs;
}

const EnvKnob* find_env_knob(const char* name) {
  for (const EnvKnob& knob : kKnobs) {
    if (std::strcmp(knob.name, name) == 0) return &knob;
  }
  return nullptr;
}

bool env_name_allowed(const char* name) {
  if (std::strncmp(name, "MMHAR_", 6) != 0) return true;
  if (std::strncmp(name, "MMHAR_TEST_", 11) == 0) return true;
  return find_env_knob(name) != nullptr;
}

}  // namespace mmhar
