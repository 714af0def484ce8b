#include "common/finite_check.h"

#include <atomic>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/env.h"

#ifndef MMHAR_FINITE_CHECKS_DEFAULT
#define MMHAR_FINITE_CHECKS_DEFAULT 0
#endif

namespace mmhar {
namespace {

// -1 = defer to the env var; 0/1 = forced by tests.
std::atomic<int> g_forced{-1};

bool env_enabled() {
  // Magic static: the knob is read exactly once, before any pipeline
  // output exists, and frozen for the process lifetime — equivalent to a
  // startup read passed down. It gates whether checks run, never what
  // they compute.
  static const bool enabled =
      // mmhar: allow(det-env-read)
      env_int("MMHAR_FINITE_CHECKS", MMHAR_FINITE_CHECKS_DEFAULT) != 0;
  return enabled;
}

template <typename T>
FiniteScan scan_impl(const T* data, std::size_t n) {
  FiniteScan scan;
  bool have_bad = false;
  std::size_t first_denormal = 0;
  bool have_denormal = false;
  for (std::size_t i = 0; i < n; ++i) {
    const T v = data[i];
    if (std::isnan(v)) {
      ++scan.nan_count;
      if (!have_bad) {
        scan.first_bad_index = i;
        have_bad = true;
      }
    } else if (std::isinf(v)) {
      ++scan.inf_count;
      if (!have_bad) {
        scan.first_bad_index = i;
        have_bad = true;
      }
    } else if (v != T{0} && std::fpclassify(v) == FP_SUBNORMAL) {
      ++scan.denormal_count;
      if (!have_denormal) {
        first_denormal = i;
        have_denormal = true;
      }
    }
  }
  if (!have_bad && have_denormal) scan.first_bad_index = first_denormal;
  return scan;
}

}  // namespace

bool finite_checks_enabled() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return env_enabled();
}

void set_finite_checks_for_testing(int forced) {
  g_forced.store(forced, std::memory_order_relaxed);
}

namespace detail {

FiniteScan scan_finite(const float* data, std::size_t n) {
  return scan_impl(data, n);
}

FiniteScan scan_finite(const double* data, std::size_t n) {
  return scan_impl(data, n);
}

void finite_check_failed(const FiniteScan& scan, std::size_t n,
                         const char* tensor_name, const char* stage) {
  std::ostringstream os;
  os << "finite-check failed at stage '" << stage << "', tensor '"
     << tensor_name << "' (" << n << " values): ";
  if (scan.has_nan_or_inf()) {
    os << scan.nan_count << " NaN, " << scan.inf_count
       << " Inf; first bad value at flat index " << scan.first_bad_index;
  } else {
    os << "denormal storm — " << scan.denormal_count
       << " subnormal values (first at flat index " << scan.first_bad_index
       << "), threshold " << kDenormalStormFraction
       << " of buffer; an accumulator likely underflowed";
  }
  throw Error(os.str());
}

}  // namespace detail
}  // namespace mmhar
