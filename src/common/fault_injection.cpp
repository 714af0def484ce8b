#include "common/fault_injection.h"

#include <atomic>
#include <cctype>
#include <cstdlib>

#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"

namespace mmhar {
namespace {

// Unarmed fast path: one relaxed load instead of a mutex. Written only
// under FaultInjector's mutex.
std::atomic<bool> g_armed{false};

}  // namespace

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() {
  const std::string spec = env_string("MMHAR_FAULT_SPEC", "");
  if (!spec.empty()) {
    configure(spec, static_cast<std::uint64_t>(env_int("MMHAR_FAULT_SEED", 1)));
    MMHAR_LOG(Warn) << "fault injection armed from MMHAR_FAULT_SPEC: " << spec;
  }
}

void FaultInjector::configure(const std::string& spec, std::uint64_t seed) {
  std::map<std::string, Rule> rules;
  std::size_t start = 0;
  std::string entry;
  std::string site;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;

    Rule rule;
    site = entry;
    const auto at = entry.find('@');
    const auto eq = entry.find('=');
    MMHAR_REQUIRE(at == std::string::npos || eq == std::string::npos,
                  "fault spec entry '" << entry
                                       << "': use either @N or =P, not both");
    // strtoull/strtod skip leading whitespace and accept a sign (strtoull
    // wraps "-1" to 2^64-1), so the number must start with a digit.
    auto digit_at = [&entry](std::size_t pos) {
      return pos < entry.size() &&
             std::isdigit(static_cast<unsigned char>(entry[pos])) != 0;
    };
    if (at != std::string::npos) {
      site = entry.substr(0, at);
      char* tail = nullptr;
      rule.nth = std::strtoull(entry.c_str() + at + 1, &tail, 10);
      MMHAR_REQUIRE(digit_at(at + 1) && tail && *tail == '\0' && rule.nth > 0,
                    "fault spec entry '" << entry << "': @N needs N >= 1");
    } else if (eq != std::string::npos) {
      site = entry.substr(0, eq);
      char* tail = nullptr;
      rule.probability = std::strtod(entry.c_str() + eq + 1, &tail);
      MMHAR_REQUIRE(digit_at(eq + 1) && tail && *tail == '\0' &&
                        rule.probability >= 0.0 && rule.probability <= 1.0,
                    "fault spec entry '" << entry
                                         << "': =P needs P in [0, 1]");
    }
    MMHAR_REQUIRE(!site.empty(), "fault spec entry '" << entry
                                                      << "': empty site name");
    rules[site] = rule;
  }

  MutexLock lock(mutex_);
  rules_ = std::move(rules);
  calls_.clear();
  fires_.clear();
  rng_ = Rng(seed);
  g_armed.store(!rules_.empty(), std::memory_order_relaxed);
}

void FaultInjector::clear() {
  MutexLock lock(mutex_);
  rules_.clear();
  calls_.clear();
  fires_.clear();
  g_armed.store(false, std::memory_order_relaxed);
}

bool FaultInjector::armed() const {
  return g_armed.load(std::memory_order_relaxed);
}

bool FaultInjector::should_fire(const char* site) {
  MutexLock lock(mutex_);
  const auto it = rules_.find(site);
  if (it == rules_.end()) return false;
  const std::size_t call = ++calls_[site];
  const Rule& rule = it->second;
  bool fire;
  if (rule.nth > 0) {
    fire = call == rule.nth;
  } else if (rule.probability >= 1.0) {
    fire = true;
  } else {
    fire = rng_.bernoulli(rule.probability);
  }
  if (fire) {
    ++fires_[site];
    MMHAR_LOG(Warn) << "fault injection: firing '" << site << "' (call "
                    << call << ")";
  }
  return fire;
}

std::uint64_t FaultInjector::draw(std::uint64_t n) {
  MMHAR_REQUIRE(n > 0, "fault draw needs n > 0");
  MutexLock lock(mutex_);
  return rng_.next_u64() % n;
}

std::size_t FaultInjector::call_count(const std::string& site) const {
  MutexLock lock(mutex_);
  const auto it = calls_.find(site);
  return it == calls_.end() ? 0 : it->second;
}

std::size_t FaultInjector::fire_count(const std::string& site) const {
  MutexLock lock(mutex_);
  const auto it = fires_.find(site);
  return it == fires_.end() ? 0 : it->second;
}

bool fault_should_fire(const char* site) {
  if (!fault_injection_armed()) return false;
  return FaultInjector::instance().should_fire(site);
}

bool fault_injection_armed() {
  if (g_armed.load(std::memory_order_relaxed)) return true;
  // Force the instance (and its env read) to exist so an exported
  // MMHAR_FAULT_SPEC arms the first call instead of never.
  static const bool init = (FaultInjector::instance(), true);
  (void)init;
  return g_armed.load(std::memory_order_relaxed);
}

std::uint64_t fault_draw(std::uint64_t n) {
  return FaultInjector::instance().draw(n);
}

}  // namespace mmhar
