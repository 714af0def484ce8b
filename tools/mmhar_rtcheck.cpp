// mmhar_rtcheck — cross-translation-unit real-time-safety checker. Proves
// (textually, over the whole repo at once) that every function reachable
// from the MMHAR_REALTIME / MMHAR_REALTIME_HANDOFF annotation roots — the
// serving batcher cycle, the fft_many* engines, the prepacked-GEMM
// infer_forward plan, and the stream ring push/pop paths — is free of
// allocation, lock acquisition outside the annotated slot hand-off
// protocol, blocking calls and I/O, `throw`, and unregistered MMHAR_* env
// reads.
//
// The parsing/resolution/reachability machinery lives in tools/callgraph.h
// (shared with mmhar_detcheck): pass 1 parses every source root into a
// function-level call graph with lambda bodies attributed to their
// enclosing function; pass 2 unions annotations and [[noreturn]] across
// declarations and definitions by qualified name, walks the graph
// breadth-first from every annotated function, and reports each primitive
// violation with its exact file:line and the call chain from the nearest
// root. This file owns only what is real-time-specific: the primitive
// regex table, the hand-off lock exemption, the env-registry rule, and the
// root-coverage floor over tools/rtcheck_roots.txt.
//
// Rules:
//   alloc          operator new/delete, malloc-family, make_unique/shared,
//                  and allocating STL growth (push_back / resize /
//                  try_emplace / ...) on containers. A growth member name
//                  that resolves to a repo function (e.g. grow-once
//                  InferenceScratch::reserve) becomes a call edge instead
//                  and that function is checked transitively.
//   lock           any lock acquisition. The annotated capability wrappers
//                  (MutexLock / ReaderLock / WriterLock) are permitted in
//                  the *own body* of a MMHAR_REALTIME_HANDOFF function —
//                  the slot hand-off protocol — and nowhere else; raw
//                  std::lock_guard / .lock() / pthread_* are never
//                  permitted.
//   block          condvar waits, sleeps, thread join/spawn, thread-pool
//                  dispatch (parallel_for blocks on worker completion),
//                  and blocking I/O (streams, stdio, system/popen).
//   throw          a `throw` statement. [[noreturn]] functions (the
//                  MMHAR_CHECK failure sinks) are exempt and terminate
//                  traversal: they only execute when the process is
//                  already aborting the computation.
//   env-read       getenv / env_* with a non-literal name, or a literal
//                  MMHAR_* name missing from the env registry
//                  (--registry). common/env.cpp itself (the registry
//                  gate's implementation) is exempt.
//   root-coverage  every entry of the --roots file must name an existing
//                  function that still carries the required annotation —
//                  deleting MMHAR_REALTIME from a root is a failure, not a
//                  silent shrink of the checked set (mirrors the
//                  env-registry deletion property).
//
// Suppression: `// mmhar-rtcheck: allow(<rule>[, <rule>...]) — why` on the
// offending line, or on a comment line in the run of //-comments directly
// above it (multi-line statements carry one justification). The
// pseudo-rule `calls` stops call-graph traversal out of that line — for
// provably cold paths like first-use plan construction. There is
// deliberately no baseline mechanism: the tree must be clean.
//
// Usage:
//   mmhar_rtcheck [--registry <env_registry.cpp>] [--roots <roots.txt>]
//                 [--rule <name>]... [--report <file>] <root>...
//
// Exit codes: 0 clean, 1 violations, 2 usage/IO error — aligned with
// mmhar_lint / mmhar_analyze. Runs in CI and as a ctest (see
// tools/CMakeLists.txt); --report writes the violation list with call
// chains to a file CI uploads as an artifact on failure.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis_text.h"
#include "callgraph.h"

namespace fs = std::filesystem;
using mmhar_tools::AnnotationTokens;
using mmhar_tools::CallGraph;
using mmhar_tools::CallSite;
using mmhar_tools::DeclFlags;
using mmhar_tools::FnRecord;
using mmhar_tools::Reachability;
using mmhar_tools::RootSpec;
using mmhar_tools::ScopeScanner;
using mmhar_tools::SourceFile;
using mmhar_tools::Violation;
using mmhar_tools::collect_sources;
using mmhar_tools::display_path;
using mmhar_tools::load_env_registry;
using mmhar_tools::load_root_specs;
using mmhar_tools::read_lines;
using mmhar_tools::sort_unique_violations;
using mmhar_tools::suppression_allows;
using mmhar_tools::trim;

namespace {

constexpr const char* kMarker = "mmhar-rtcheck";

// Annotation-token bit positions in FnRecord::flags.
constexpr std::size_t kRealtime = 0;
constexpr std::size_t kHandoff = 1;

struct Primitive {
  std::string rule;
  std::size_t line;  // 1-based
  std::string message;
  bool wrapper_lock = false;  // MutexLock/ReaderLock/WriterLock acquisition
};

// Real-time-banned primitive patterns, scanned over a function's body
// lines (comment/string-stripped, `#` lines and macro continuations
// skipped — the same guards ScopeScanner applies to call sites).
void scan_primitives(const std::string& line, std::size_t ln,
                     std::vector<Primitive>& out) {
  struct Pat {
    const char* rule;
    std::regex re;
    const char* msg;
    bool wrapper;
  };
  static const std::vector<Pat> pats = [] {
    std::vector<Pat> p;
    p.push_back({"alloc", std::regex(R"(\bnew\b)"),
                 "operator new allocates", false});
    p.push_back({"alloc", std::regex(R"(\bdelete\b)"),
                 "operator delete frees heap memory", false});
    p.push_back(
        {"alloc",
         std::regex(
             R"(\b(malloc|calloc|realloc|strdup|aligned_alloc|posix_memalign|free)\s*\()"),
         "malloc-family call", false});
    p.push_back({"alloc", std::regex(R"(\bstd::make_(unique|shared)\b)"),
                 "make_unique/make_shared allocates", false});
    p.push_back(
        {"alloc",
         std::regex(R"(\bstd::to_string\s*\(|\b(o|i)?stringstream\b)"),
         "string construction allocates", false});
    p.push_back(
        {"lock",
         std::regex(
             R"(\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b)"),
         "raw std lock acquisition (only the annotated MutexLock/"
         "ReaderLock/WriterLock wrappers may appear, and only in "
         "MMHAR_REALTIME_HANDOFF bodies)",
         false});
    p.push_back(
        {"lock",
         std::regex(
             R"((\.|->)\s*(lock|unlock|try_lock|try_lock_shared|try_lock_for|try_lock_until|lock_shared|unlock_shared)\s*\()"),
         "raw mutex method call", false});
    p.push_back({"lock", std::regex(R"(\bpthread_(mutex|rwlock)_\w+\s*\()"),
                 "pthread locking call", false});
    p.push_back(
        {"lock",
         std::regex(
             R"(\b(MutexLock|ReaderLock|WriterLock)\s+[A-Za-z_]\w*\s*[({])"),
         "lock acquisition outside a MMHAR_REALTIME_HANDOFF body (the "
         "annotated slot hand-off protocol)",
         true});
    p.push_back(
        {"block",
         std::regex(R"(\bsleep_for\b|\bsleep_until\b|\busleep\b|\bnanosleep\b)"),
         "sleep blocks the real-time thread", false});
    p.push_back({"block",
                 std::regex(R"((\.|->)\s*wait(_for|_until)?\s*\()"),
                 "condition-variable wait blocks", false});
    p.push_back({"block", std::regex(R"((\.|->)\s*join\s*\()"),
                 "thread join blocks", false});
    p.push_back(
        {"block", std::regex(R"(\bparallel_for(_chunked)?\s*\()"),
         "thread-pool dispatch blocks until every worker chunk finishes",
         false});
    p.push_back({"block", std::regex(R"(\bstd::(async|thread)\b)"),
                 "thread spawn is unbounded-latency", false});
    p.push_back(
        {"block",
         std::regex(
             R"(\bstd::(cout|cerr|clog|cin)\b|\b(std::)?(ofstream|ifstream|fstream)\b)"),
         "stream I/O blocks", false});
    p.push_back(
        {"block",
         std::regex(
             R"(\b(printf|fprintf|fputs|fputc|puts|fopen|fread|fwrite|fclose|fflush|getline|system|popen)\s*\()"),
         "blocking I/O call", false});
    p.push_back({"throw", std::regex(R"((^|[^\w])throw\b)"),
                 "throw unwinds with unbounded latency (and the Error "
                 "object allocates)",
                 false});
    return p;
  }();
  for (const auto& pat : pats) {
    if (!std::regex_search(line, pat.re)) continue;
    out.push_back({pat.rule, ln, pat.msg, pat.wrapper});
  }
}

// Body primitives for one function: the regex table above, plus one
// container-growth alloc primitive per growth call site (resolution
// decides later whether it is a call edge into a repo function instead).
std::vector<Primitive> function_primitives(const CallGraph& graph,
                                           const FnRecord& fn) {
  std::vector<Primitive> prims;
  if (fn.body_begin == 0 || fn.body_end < fn.body_begin) return prims;
  const SourceFile& file = graph.file_of(fn);
  std::string line_trim;  // hoisted per-line scratch
  for (std::size_t ln = fn.body_begin; ln <= fn.body_end; ++ln) {
    const std::size_t idx = ln - 1;
    if (idx >= file.code.size()) break;
    line_trim = trim(file.code[idx]);
    if (!line_trim.empty() && line_trim[0] == '#') continue;
    if (idx > 0 && !file.raw[idx - 1].empty() &&
        file.raw[idx - 1].back() == '\\')
      continue;  // macro continuation
    scan_primitives(file.code[idx], ln, prims);
  }
  for (const auto& call : fn.calls) {
    if (!call.growth) continue;
    prims.push_back({"alloc", call.line,
                     "'." + call.name + "(...)' may grow a container "
                     "(allocates)",
                     false});
  }
  return prims;
}

class Checker {
 public:
  explicit Checker(CallGraph graph) : graph_(std::move(graph)) {}

  bool load_registry(const fs::path& path) {
    if (!load_env_registry(path, registry_)) return false;
    have_registry_ = true;
    return true;
  }

  bool load_roots(const fs::path& path) {
    roots_path_ = path.generic_string();
    return load_root_specs(path, {"realtime", "handoff"}, root_specs_,
                           roots_parse_error_);
  }

  const std::string& roots_parse_error() const { return roots_parse_error_; }

  std::vector<Violation> run(const std::set<std::string>& rules) {
    if (rules.count("root-coverage")) rule_root_coverage();
    propagate(rules);
    sort_unique_violations(found_);
    return std::move(found_);
  }

  std::size_t function_count() const { return graph_.functions().size(); }
  std::size_t root_count() const { return root_count_; }
  std::size_t reachable_count() const { return reachable_count_; }

 private:
  bool line_allows(const FnRecord& fn, std::size_t ln,
                   const std::string& rule) const {
    const auto& raw = graph_.file_of(fn).raw;
    return ln >= 1 && ln <= raw.size() &&
           suppression_allows(raw, ln - 1, kMarker, rule);
  }

  void rule_root_coverage() {
    const auto& functions = graph_.functions();
    std::vector<std::size_t> matches;  // hoisted per-spec scratch
    for (const auto& spec : root_specs_) {
      matches.clear();
      for (std::size_t i = 0; i < functions.size(); ++i)
        if (CallGraph::suffix_matches(functions[i].qual, spec.name))
          matches.push_back(i);
      if (matches.empty()) {
        found_.push_back({"root-coverage", roots_path_, spec.line,
                          "required root '" + spec.name +
                              "' names no function in the scanned roots — "
                              "the protected entry point was renamed or "
                              "deleted without updating " + roots_path_,
                          ""});
        continue;
      }
      bool ok = false;
      for (const std::size_t id : matches) {
        const FnRecord& fn = functions[id];
        if (spec.kind == "realtime"
                ? fn.has_flag(kRealtime)
                : (fn.has_flag(kHandoff) || fn.has_flag(kRealtime)))
          ok = true;
      }
      if (!ok) {
        const FnRecord& fn = functions[matches.front()];
        found_.push_back(
            {"root-coverage", fn.file, fn.line,
             "required root '" + spec.name + "' has lost its MMHAR_REALTIME" +
                 std::string(spec.kind == "handoff" ? "_HANDOFF" : "") +
                 " annotation (declared required in " + roots_path_ +
                 ":" + std::to_string(spec.line) + ")",
             ""});
      }
    }
  }

  void propagate(const std::set<std::string>& rules) {
    // Roots: every annotated function. The --roots file is a floor that
    // root-coverage enforces, not a ceiling — annotating a new function
    // extends the checked set with no tool change.
    const auto& functions = graph_.functions();
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < functions.size(); ++i)
      if (functions[i].flags != 0 && !functions[i].noreturn)
        roots.push_back(i);
    std::sort(roots.begin(), roots.end(),
              [&](std::size_t a, std::size_t b) {
                return std::tie(functions[a].file, functions[a].line) <
                       std::tie(functions[b].file, functions[b].line);
              });
    root_count_ = roots.size();

    const Reachability reach(
        graph_, roots, [this, &functions](const FnRecord& fn, std::size_t ln) {
          (void)functions;
          return line_allows(fn, ln, "calls");
        });
    reachable_count_ = reach.size();

    std::string chain;  // hoisted per-violation scratch
    std::vector<std::size_t> growth_targets;
    for (const auto& [id, v] : reach.via()) {
      (void)v;
      const FnRecord& fn = functions[id];
      chain = reach.chain(graph_, id);
      for (const auto& prim : function_primitives(graph_, fn)) {
        if (!rules.count(prim.rule)) continue;
        if (prim.wrapper_lock && fn.has_flag(kHandoff)) continue;
        if (line_allows(fn, prim.line, prim.rule)) continue;
        if (prim.rule == "alloc" &&
            prim.message.find("may grow a container") != std::string::npos) {
          // Growth member resolved to a repo function? Then it is a call
          // edge (checked transitively), not raw container growth.
          bool resolved = false;
          for (const auto& call : fn.calls) {
            if (call.line != prim.line || !call.member) continue;
            if (prim.message.find("'." + call.name + "(") ==
                std::string::npos)
              continue;
            graph_.resolve(call, fn.file_id, growth_targets);
            if (!growth_targets.empty()) resolved = true;
          }
          if (resolved) continue;
        }
        found_.push_back({prim.rule, fn.file, prim.line,
                          prim.message + " [in " + fn.qual + "]", chain});
      }
      if (rules.count("env-read") && have_registry_ &&
          fn.file.find("common/env.cpp") == std::string::npos) {
        for (const auto& site : graph_.file_of(fn).env_sites) {
          if (site.line < fn.body_begin || site.line > fn.body_end) continue;
          if (line_allows(fn, site.line, "env-read")) continue;
          if (site.name.empty()) {
            found_.push_back(
                {"env-read", fn.file, site.line,
                 "env read with a non-literal name cannot be checked "
                 "against the registry [in " + fn.qual + "]",
                 chain});
          } else if (site.name.rfind("MMHAR_", 0) == 0 &&
                     site.name.rfind("MMHAR_TEST_", 0) != 0 &&
                     registry_.count(site.name) == 0) {
            found_.push_back({"env-read", fn.file, site.line,
                              "'" + site.name +
                                  "' is not in the env registry [in " +
                                  fn.qual + "]",
                              chain});
          }
        }
      }
    }
  }

  CallGraph graph_;
  std::set<std::string> registry_;
  bool have_registry_ = false;
  std::vector<RootSpec> root_specs_;
  std::string roots_path_;
  std::string roots_parse_error_;
  std::size_t root_count_ = 0;
  std::size_t reachable_count_ = 0;
  std::vector<Violation> found_;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots_dirs;
  fs::path registry_path;
  fs::path roots_file;
  fs::path report_path;
  std::set<std::string> rules;
  std::string arg;  // hoisted per-flag scratch
  for (int i = 1; i < argc; ++i) {
    arg = argv[i];
    if (arg == "--registry" && i + 1 < argc) {
      registry_path = argv[++i];
    } else if (arg == "--roots" && i + 1 < argc) {
      roots_file = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--rule" && i + 1 < argc) {
      rules.insert(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    } else {
      roots_dirs.emplace_back(arg);
    }
  }
  if (roots_dirs.empty()) {
    std::cerr << "usage: mmhar_rtcheck [--registry <env_registry.cpp>] "
                 "[--roots <roots.txt>] [--rule <name>]... "
                 "[--report <file>] <root>...\n";
    return 2;
  }
  if (rules.empty())
    rules = {"alloc", "lock", "block", "throw", "env-read", "root-coverage"};

  const AnnotationTokens tokens(
      {"MMHAR_REALTIME", "MMHAR_REALTIME_HANDOFF"});
  std::vector<SourceFile> files;
  std::vector<FnRecord> functions;
  std::map<std::string, DeclFlags> decl_flags;
  std::size_t file_count = 0;
  for (const auto& root : roots_dirs) {
    if (!fs::is_directory(root)) {
      std::cerr << "mmhar_rtcheck: not a directory: " << root << "\n";
      return 2;
    }
    for (const auto& path : collect_sources(root)) {
      SourceFile index;
      index.path = display_path(root, path);
      if (!read_lines(path, index.raw)) {
        std::cerr << "mmhar_rtcheck: cannot read " << path << "\n";
        return 2;
      }
      files.push_back(std::move(index));
      ++file_count;
    }
  }
  for (std::size_t i = 0; i < files.size(); ++i)
    ScopeScanner(files[i], static_cast<int>(i), tokens, functions, decl_flags)
        .scan();

  Checker checker(CallGraph(std::move(files), std::move(functions),
                            std::move(decl_flags)));
  if (!registry_path.empty() && !checker.load_registry(registry_path)) {
    std::cerr << "mmhar_rtcheck: cannot read registry " << registry_path
              << "\n";
    return 2;
  }
  if (!roots_file.empty()) {
    if (!checker.load_roots(roots_file)) {
      std::cerr << "mmhar_rtcheck: cannot read roots file " << roots_file
                << "\n";
      return 2;
    }
    if (!checker.roots_parse_error().empty()) {
      std::cerr << "mmhar_rtcheck: bad roots file " << roots_file << ": "
                << checker.roots_parse_error() << "\n";
      return 2;
    }
  }
  if (rules.count("env-read") && registry_path.empty()) {
    std::cout << "mmhar_rtcheck: note: env-read skipped (--registry not "
                 "given)\n";
    rules.erase("env-read");
  }
  if (rules.count("root-coverage") && roots_file.empty()) {
    std::cout << "mmhar_rtcheck: note: root-coverage skipped (--roots not "
                 "given)\n";
    rules.erase("root-coverage");
  }

  const auto violations = checker.run(rules);
  for (const auto& v : violations) {
    std::cerr << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
    if (!v.chain.empty()) std::cerr << "    chain: " << v.chain << "\n";
  }
  if (!report_path.empty()) {
    // Diagnostic report for the CI artifact upload, not a cache the
    // experiment runtime reads; a torn file cannot wedge anything.
    // mmhar-lint: allow(naked-cache-write)
    std::ofstream report(report_path);
    if (!report) {
      std::cerr << "mmhar_rtcheck: cannot write report " << report_path
                << "\n";
      return 2;
    }
    for (const auto& v : violations) {
      report << v.file << ":" << v.line << ": [" << v.rule << "] "
             << v.message << "\n";
      if (!v.chain.empty()) report << "    chain: " << v.chain << "\n";
    }
  }
  std::cout << "mmhar_rtcheck: scanned " << file_count << " file(s), "
            << checker.function_count() << " function(s), "
            << checker.root_count() << " annotated root(s), "
            << checker.reachable_count() << " reachable, "
            << violations.size() << " violation(s)\n";
  std::cout << "mmhar_rtcheck: summary files=" << file_count
            << " functions=" << checker.function_count()
            << " roots=" << checker.root_count()
            << " reachable=" << checker.reachable_count()
            << " violations=" << violations.size()
            << " status=" << (violations.empty() ? "ok" : "fail") << "\n";
  if (!violations.empty()) {
    std::cerr << "mmhar_rtcheck: FAIL — fix the violations above or add a "
                 "justified `// mmhar-rtcheck: allow(<rule>)`\n";
    return 1;
  }
  std::cout << "mmhar_rtcheck: OK\n";
  return 0;
}
