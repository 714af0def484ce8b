#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace perfbench {

void Outcome::mismatch(const std::string& what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
               what.c_str());
}

void Outcome::set(const std::string& name, double value) {
  for (const std::span<const Metric> table : {std::span<const Metric>(kEndToEnd),
                                              std::span<const Metric>(kPerLayer)})
    for (const Metric& m : table)
      if (name == m.name) {
        values[name] = value;
        return;
      }
  throw std::logic_error("perfbench: no metric named " + name);
}

std::string metrics_json(const Outcome& out, std::span<const Metric> table) {
  std::string json = "{";
  for (const Metric& m : table) {
    const auto it = out.values.find(m.name);
    if (it == out.values.end() || !std::isfinite(it->second))
      throw std::runtime_error(std::string("metric ") + m.name +
                               " was not measured");
    if (json.size() > 1) json += ", ";
    json += json_str(m.name) + ": {\"value\": " + json_num(it->second) +
            ", \"unit\": " + json_str(m.unit) + "}";
  }
  return json + "}";
}

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(std::min<std::size_t>(capacity_, 1u << 16));
}

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  stack_.push_back(idx);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  spans_.push_back(s);
  return idx;
}

void Tracer::close(std::int32_t index) {
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - epoch_)
                               .count();
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<std::int64_t> Tracer::durations_ns(const char* name) const {
  std::vector<std::int64_t> out;
  const std::string want(name);
  for (const Span& s : spans_)
    if (want == s.name) out.push_back(s.end_ns - s.start_ns);
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":" << json_str(s.name)
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(os.flush());
}

void wake_cpus(double seconds) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> spinners;
  const Clock::time_point t0 = Clock::now();
  for (unsigned i = 0; i < n; ++i)
    spinners.emplace_back([t0, seconds] {
      while (seconds_since(t0) < seconds) {
      }
    });
  for (std::thread& t : spinners) t.join();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  // Not getrusage: its user/system split is sampled at scheduler ticks, and
  // the sum it returns can lag the process's CPU time by a fraction of a
  // millisecond, as large as a whole attack_point set-up.
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::optional<double> quantile(const std::vector<double>& sorted, double q,
                               std::size_t min_beyond) {
  if (sorted.empty()) return std::nullopt;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (sorted.size() - 1 - lo < min_beyond) return std::nullopt;
  const double frac = pos - static_cast<double>(lo);
  const double a = sorted[lo];
  const double b = sorted[std::min(lo + 1, sorted.size() - 1)];
  return a + frac * (b - a);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double median_wall_s(const std::vector<Stage>& stages) {
  std::vector<double> v;
  for (const Stage& s : stages) v.push_back(s.wall_s);
  return median(v);
}

double median_cpu_s(const std::vector<Stage>& stages) {
  std::vector<double> v;
  for (const Stage& s : stages) v.push_back(s.cpu_s);
  return median(v);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << *v;
  return os.str();
}

}  // namespace perfbench
