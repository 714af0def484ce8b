// perfbench: the repo benchmark program (built and launched by run.py).
//
//   perfbench --workload <serve_paced|serve_saturate|attack_point>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--force-mismatch] [--work-dir <dir>]
//             [--source-id <id>]
//
// Prints a host record, detail lines, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (kEndToEnd). With --trace 1 the workload runs
// twice in this process, untraced then traced: the metrics are the
// per-layer ones (kPerLayer) from the traced pass, with
// trace.overhead_pct the traced pass's extra CPU per operation; the spans
// go to <work-dir>/trace-<workload>-seed<n>.jsonl. Exits non-zero,
// printing no result, when the arguments are bad, a workload throws or a
// metric was not measured.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_paced|serve_saturate|attack_point> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--force-mismatch] "
               "[--work-dir <dir>] [--source-id <id>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else if (a == "--force-mismatch") {
        opt.force_mismatch = true;
      } else if (a == "--work-dir") {
        opt.work_dir = value();
      } else if (a == "--source-id") {
        opt.source_id = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (opt.workload != "serve_paced" && opt.workload != "serve_saturate" &&
      opt.workload != "attack_point")
    usage("unknown or missing --workload");
  if (!have_seed) usage("missing --seed");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  return opt;
}

Outcome run(const Options& opt, Tracer& tracer) {
  if (opt.workload == "serve_paced") return run_serve_paced(opt, tracer);
  if (opt.workload == "serve_saturate") return run_serve_saturate(opt, tracer);
  return run_attack_point(opt, tracer);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    std::filesystem::create_directories(opt.work_dir);
    wake_cpus(opt.smoke ? 0.1 : 1.0);

    Outcome result;
    if (!opt.trace) {
      Tracer off(false);
      result = run(opt, off);
    } else {
      Options plain = opt;
      plain.trace = false;
      Tracer off(false);
      const Outcome untraced = run(plain, off);
      Tracer on(true);
      result = run(opt, on);
      result.correct = result.correct && untraced.correct;
      result.attempted += untraced.attempted;
      result.failed += untraced.failed;
      if (result.fingerprint != untraced.fingerprint)
        result.mismatch("untraced and traced passes disagree: [" +
                        untraced.fingerprint + "] vs [" + result.fingerprint +
                        "]");
      // Tracing overhead: the traced pass's extra CPU per operation.
      const double a = untraced.values.at("cpu_ms_per_op");
      const double b = result.values.at("cpu_ms_per_op");
      result.set("trace.overhead_pct", 100.0 * (b - a) / a);
      const std::string path = opt.work_dir + "/trace-" + opt.workload +
                               "-seed" + std::to_string(opt.seed) + ".jsonl";
      if (!on.write(path)) throw std::runtime_error("cannot write " + path);
      std::printf("{\"trace\": {\"file\": %s, \"spans\": %zu, \"dropped\": %llu}}\n",
                  json_str(path).c_str(), on.spans().size(),
                  static_cast<unsigned long long>(on.dropped()));
    }

    std::printf(
        "{\"host\": {\"nproc\": %u, \"pool_threads\": %zu, \"shards\": %zu, "
        "\"seed\": %llu, \"workload\": %s, \"seconds\": %s, \"trace\": %d, "
        "\"source\": %s, \"compiler\": %s, \"cxx_flags\": %s}}\n",
        std::thread::hardware_concurrency(), mmhar::global_pool().size(),
        result.shards, static_cast<unsigned long long>(opt.seed),
        json_str(opt.workload).c_str(), json_num(opt.seconds).c_str(),
        opt.trace ? 1 : 0, json_str(opt.source_id).c_str(),
        json_str(PERFBENCH_COMPILER).c_str(),
        json_str(PERFBENCH_CXX_FLAGS).c_str());
    for (const std::string& d : result.detail) std::printf("%s\n", d.c_str());

    // Throws when a metric is missing, so the run ends without a result.
    const std::string metrics =
        opt.trace ? metrics_json(result, kPerLayer) : metrics_json(result, kEndToEnd);
    std::string line = "{\"correct\": ";
    line += result.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted) +
            ", \"failed\": " + std::to_string(result.failed) +
            ", \"metrics\": " + metrics + "}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
}
