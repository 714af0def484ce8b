// mmhar_check — the repo's one static checker, as a library. One scan per
// file (callgraph.h) feeds four rule families:
//
//   lint     per-line hazards in one file (banned-rng, naked-alloc,
//            unchecked-data-arith, missing-pragma-once, naked-cache-write,
//            loop-alloc);
//   analyze  cross-file indexes (env-knob-registry,
//            lock-annotation-coverage, header-hygiene);
//   rt       the real-time cone of the MMHAR_REALTIME /
//            MMHAR_REALTIME_HANDOFF roots (alloc, lock, block, throw,
//            rt-env-read, rt-root-coverage);
//   det      the determinism cone of the MMHAR_DETERMINISTIC roots
//            (unordered-iter, nondet-call, parallel-accum, det-env-read,
//            det-root-coverage) plus the module DAG (layering).
//
// Rule names are unique across families. The one suppression syntax is
// `// mmhar: allow(<rule>[, <rule>...]) <reason>` (analysis_text.h); the
// pseudo-rules `rt-calls` and `det-calls` stop that family's call-graph
// traversal out of a line. The README "Static checking" section has the
// full rule table.
#pragma once

#include <cstddef>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "callgraph.h"

namespace mmhar_tools {

// One finding; `chain` is the root-to-function call path
// ("root -> ... -> function"), empty where no cone applies.
struct Finding {
  std::string rule;
  std::string file;
  std::size_t line;
  std::string message;
  std::string chain;
};

// The family ("lint", "analyze", "rt", "det") owning `rule`; "" if none.
const char* family_of(const std::string& rule);

// A non-source input: the env registry, README.md, or the roots file.
struct TextFile {
  std::string path;  // display path
  std::vector<std::string> raw;
};

// One row of the roots file:
// `<realtime|handoff|deterministic> <qualified-name-suffix>`.
struct RootSpec {
  std::string kind;
  std::string name;
  std::size_t line;  // in the roots file
};

struct Inputs {
  std::vector<FileScan> files;
  TextFile registry;  // src/common/env_registry.cpp
  TextFile readme;    // README.md (its env table)
  TextFile roots;     // tools/check_roots.txt
};

// Size of one family's call-graph cone.
struct Cone {
  std::size_t roots = 0;
  std::size_t reachable = 0;
};

struct Report {
  std::vector<Finding> findings;  // sorted by file, line, rule; unique
  std::size_t functions = 0;
  Cone rt;
  Cone det;
};

// Scans every C++ source under `dir` (sorted) into `out`, with display
// paths "<dir-basename>/<relative-path>". False with `error` set when a
// file is unreadable or `dir` is not a directory.
bool scan_dir(const std::filesystem::path& dir, std::vector<FileScan>& out,
              std::string& error);

// Reads `file` into `out` under the display path `display`.
bool read_text(const std::filesystem::path& file, std::string display,
               TextFile& out);

// Loads <repo_root>/{src,bench,tools}, the env registry, README.md and
// tools/check_roots.txt. False with `error` set on an IO failure.
bool load_inputs(const std::filesystem::path& repo_root, Inputs& in,
                 std::string& error);

// Parses a roots file. False with `error` set on a malformed row.
bool parse_roots(const TextFile& roots, std::vector<RootSpec>& out,
                 std::string& error);

// ---- Rule families; each appends its findings to `out` -------------------

void check_lint(const FileScan& file, std::vector<Finding>& out);
void check_analyze(const std::vector<FileScan>& files,
                   const TextFile& registry, const TextFile& readme,
                   std::vector<Finding>& out);
Cone check_rt(const CallGraph& graph, const TextFile& registry,
              std::vector<Finding>& out);
Cone check_det(const CallGraph& graph, std::vector<Finding>& out);

// rt-root-coverage and det-root-coverage: every roots-file row must name
// an existing function that still carries its annotation. Part of the
// rt and det families; run once for both.
void check_root_coverage(const CallGraph& graph, const TextFile& roots_file,
                         const std::vector<RootSpec>& roots,
                         std::vector<Finding>& out);

// The env-knob-registry rule alone (part of check_analyze).
void check_env_registry(const std::vector<FileScan>& files,
                        const TextFile& registry, const TextFile& readme,
                        std::vector<Finding>& out);

// Every family over `in`. False with `error` set on a malformed roots file.
bool check(const Inputs& in, Report& report, std::string& error);

// One `file:line: [rule] message` line per finding, plus a
// `    chain: ...` line where a cone applies.
void print_findings(const std::vector<Finding>& found, std::ostream& out);

// The CLI over loaded inputs: prints the findings and one summary line to
// `out`. Returns 0 clean, 1 findings, 2 usage/IO.
int run_check(const Inputs& in, std::ostream& out, std::ostream& err);
int run_check(const std::filesystem::path& repo_root, std::ostream& out,
              std::ostream& err);

}  // namespace mmhar_tools
