#include "common/env.h"

#include <cstdlib>
#include <string>

#include "common/check.h"
#include "common/env_registry.h"

namespace mmhar {
namespace {

// Closed knob namespace: an MMHAR_* read that is not declared in
// common/env_registry.cpp throws, so a knob cannot exist without its
// registry row (and, via the env-knob-registry analyzer rule, its README
// row). MMHAR_TEST_* is reserved for unit tests.
const char* checked(const char* name) {
  if (!env_name_allowed(name)) {
    // mmhar: allow(throw, alloc) — fires only on an unregistered
    // knob name, a programmer error caught by the first read ever
    // executed; same failure class as an MMHAR_REQUIRE tripping.
    throw Error(std::string("env_*(\"") + name +
                "\"): MMHAR_ knob is not in the registry; add a row to "
                "src/common/env_registry.cpp and to README.md's env table "
                "(see README \"Static analysis\")");
  }
  return name;
}

}  // namespace

long env_int(const char* name, long fallback) {
  const char* v = std::getenv(checked(name));
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(checked(name));
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(checked(name));
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

}  // namespace mmhar
