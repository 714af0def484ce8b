// Central registry of every MMHAR_* environment knob.
//
// A sweep whose numbers depend on an undocumented env var is not
// reproducible, so the knob namespace is closed: every `MMHAR_*` name read
// anywhere in src/ or bench/ must have a row here (name, type, default,
// one-line doc), and every row must appear in README.md's env table. Both
// directions are enforced twice:
//
//   compile time  tools/mmhar_check's `env-knob-registry` rule
//                 cross-references all env_int/env_double/env_string call
//                 sites against this registry and the README table (runs
//                 as a ctest and in CI);
//   run time      common/env.cpp refuses to read an unregistered MMHAR_*
//                 name (throws mmhar::Error), so a knob cannot even be
//                 prototyped without being declared.
//
// `MMHAR_TEST_*` is reserved for unit tests and exempt from both checks.
// To add a knob: add the row here, add the README table row, then read it
// via env_int/env_double/env_string — see README "Static analysis".
#pragma once

#include <cstddef>

namespace mmhar {

/// One registered environment knob.
struct EnvKnob {
  const char* name;           ///< full variable name ("MMHAR_THREADS")
  const char* type;           ///< "int" | "double" | "string" | "flag" | "list"
  const char* default_value;  ///< human-readable default
  const char* doc;            ///< one-line description
};

/// All registered knobs (rows live in env_registry.cpp).
const EnvKnob* env_registry(std::size_t* count);

/// Row for `name`, or nullptr when unregistered.
const EnvKnob* find_env_knob(const char* name);

/// True when `name` either is registered or does not need to be (not
/// MMHAR_-prefixed, or the reserved MMHAR_TEST_* space).
bool env_name_allowed(const char* name);

}  // namespace mmhar
