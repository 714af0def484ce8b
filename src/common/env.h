// Environment-variable knobs for experiment scaling.
//
// Experiments default to laptop-scale parameters; larger, closer-to-paper
// runs are enabled by exporting e.g. MMHAR_REPS_TRAIN / MMHAR_EPOCHS /
// MMHAR_REPEATS before running the bench binaries.
//
// Every MMHAR_* name read through these helpers must be declared in
// common/env_registry.h — unregistered names throw at the read site, and
// tools/mmhar_check cross-checks all call sites against the registry
// and README.md's env table at lint time.
#pragma once

#include <string>

namespace mmhar {

/// Integer env var with fallback (also used for MMHAR_THREADS=0 -> auto).
long env_int(const char* name, long fallback);

/// Floating env var with fallback.
double env_double(const char* name, double fallback);

/// String env var with fallback.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace mmhar
