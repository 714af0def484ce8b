// The rule families and the CLI runner of mmhar_check; see check.h.
#include "check.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis_text.h"

namespace mmhar_tools {

namespace fs = std::filesystem;

namespace {

// A cheap substring test that must hold before a rule's regex can match;
// it keeps std::regex off the lines that cannot fire.
bool has(const std::string& line, const char* needle) {
  return line.find(needle) != std::string::npos;
}

bool line_allows(const std::vector<std::string>& raw, std::size_t ln,
                 const std::string& rule) {
  return ln >= 1 && ln <= raw.size() && suppressed(raw, ln - 1, rule);
}

// Body lines of `fn` that hold code: `#` lines and macro continuations are
// skipped, the same guards the scan applies to call sites.
template <class Visit>
void for_each_body_line(const FileScan& file, const FnRecord& fn,
                        Visit visit) {
  if (fn.body_begin == 0 || fn.body_end < fn.body_begin) return;
  std::string t;  // hoisted per-line scratch
  for (std::size_t ln = fn.body_begin; ln <= fn.body_end; ++ln) {
    const std::size_t idx = ln - 1;
    if (idx >= file.code.size()) break;
    t = trim(file.code[idx]);
    if (!t.empty() && t[0] == '#') continue;
    if (idx > 0 && !file.raw[idx - 1].empty() &&
        file.raw[idx - 1].back() == '\\')
      continue;  // macro continuation
    visit(file.code[idx], ln);
  }
}

// Annotated functions with `bits`, ordered by (file, line) so the first
// chain that reaches a function is stable.
std::vector<std::size_t> cone_roots(const CallGraph& graph, unsigned bits) {
  const auto& functions = graph.functions();
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < functions.size(); ++i)
    if ((functions[i].flags & bits) != 0 && !functions[i].noreturn)
      roots.push_back(i);
  std::sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(functions[a].file, functions[a].line) <
           std::tie(functions[b].file, functions[b].line);
  });
  return roots;
}

struct Row {
  std::string name;
  std::size_t line;
};

// Knob names out of the env registry's rows: {"MMHAR_FOO", ...}.
std::vector<Row> registry_rows(const TextFile& registry) {
  static const std::regex row_re(R"re(\{\s*"(MMHAR_\w+)"\s*,)re");
  std::vector<Row> rows;
  bool in_block = false;
  std::string code;  // hoisted per-line scratch
  std::smatch m;
  for (std::size_t i = 0; i < registry.raw.size(); ++i) {
    code = code_keeping_strings(registry.raw[i], in_block);
    if (std::regex_search(code, m, row_re)) rows.push_back({m[1].str(), i + 1});
  }
  return rows;
}

// Sorts by (file, line, rule, message) and drops exact duplicates.
void sort_unique(std::vector<Finding>& found) {
  const auto key = [](const Finding& f) {
    return std::tie(f.file, f.line, f.rule, f.message);
  };
  std::sort(found.begin(), found.end(),
            [&](const Finding& a, const Finding& b) { return key(a) < key(b); });
  found.erase(std::unique(found.begin(), found.end(),
                          [&](const Finding& a, const Finding& b) {
                            return key(a) == key(b);
                          }),
              found.end());
}

bool is_checked_knob(const std::string& name) {
  return name.rfind("MMHAR_", 0) == 0 && name.rfind("MMHAR_TEST_", 0) != 0;
}

// ---- lint --------------------------------------------------------------------

class FileLinter {
 public:
  FileLinter(const FileScan& file, std::vector<Finding>& out)
      : file_(file), code_(file.code), out_(out) {}

  void run() {
    check_banned_rng();
    check_naked_alloc();
    check_unchecked_data_arith();
    check_loop_alloc();
    check_pragma_once();
    check_naked_cache_write();
  }

 private:
  void add(const char* rule, std::size_t idx, std::string message) {
    if (suppressed(file_.raw, idx, rule)) return;
    out_.push_back({rule, file_.path, idx + 1, std::move(message), ""});
  }

  void check_banned_rng() {
    // The Rng implementation itself is the one legitimate home for raw
    // generator machinery.
    if (file_.path.find("common/rng") != std::string::npos) return;
    static const std::regex re(R"((^|[^\w])(s?rand)\s*\(|random_device)");
    for (std::size_t i = 0; i < code_.size(); ++i) {
      if (has(code_[i], "rand") && std::regex_search(code_[i], re))
        add("banned-rng", i,
            "raw rand()/srand()/std::random_device; draw from a plumbed "
            "mmhar::Rng (common/rng.h) so runs stay reproducible");
    }
  }

  void check_naked_alloc() {
    static const std::regex re(
        R"((^|[^\w])(new\s+[A-Za-z_:][\w:<]*|malloc\s*\(|calloc\s*\(|realloc\s*\(|free\s*\())");
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const std::string& l = code_[i];
      if ((has(l, "new") || has(l, "alloc") || has(l, "free")) &&
          std::regex_search(l, re))
        add("naked-alloc", i,
            "naked new/malloc; use std::make_unique / std::vector so the "
            "MMHAR_CHECK exception paths cannot leak");
    }
  }

  void check_unchecked_data_arith() {
    static const std::regex re(R"(\bdata\(\)\s*\+)");
    constexpr std::size_t kWindow = 10;  // lines of adjacency accepted
    for (std::size_t i = 0; i < code_.size(); ++i) {
      if (!has(code_[i], "data()") || !std::regex_search(code_[i], re))
        continue;
      bool checked = false;
      const std::size_t lo = i >= kWindow ? i - kWindow : 0;
      for (std::size_t j = lo; j <= i && !checked; ++j) {
        if (code_[j].find("MMHAR_CHECK") != std::string::npos ||
            code_[j].find("MMHAR_REQUIRE") != std::string::npos) {
          checked = true;
        }
      }
      if (!checked)
        add("unchecked-data-arith", i,
            "pointer arithmetic on data() with no MMHAR_CHECK/MMHAR_REQUIRE "
            "within the preceding " + std::to_string(kWindow) + " lines");
    }
  }

  // Per-iteration heap allocation: a by-value std:: container declared
  // inside a for/while body. Brace counting tracks which scopes are loop
  // bodies; a `;` at paren depth 0 before any `{` ends a braceless loop.
  void check_loop_alloc() {
    static const std::regex loop_re(R"((^|[^\w])(for|while)\s*\()");
    static const std::regex decl_re(
        R"(\bstd::(vector|string|deque|list|map|unordered_map|set|unordered_set)\s*(<[^;{}]*>)?\s+[A-Za-z_]\w*\s*[({=;])");
    std::vector<int> loop_body_depth;  // brace depth of each open loop body
    int depth = 0;
    int paren = 0;
    bool pending_loop = false;  // saw for/while; waiting for its body
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const std::string& l = code_[i];
      if (!loop_body_depth.empty() && has(l, "std::") &&
          std::regex_search(l, decl_re)) {
        add("loop-alloc", i,
            "std:: container constructed inside a loop body — one heap "
            "allocation per iteration; hoist it out and reuse "
            "(assign/clear) instead");
      }
      if ((has(l, "for") || has(l, "while")) && std::regex_search(l, loop_re))
        pending_loop = true;
      for (const char c : l) {
        if (c == '(') {
          ++paren;
        } else if (c == ')') {
          --paren;
        } else if (c == '{') {
          ++depth;
          if (pending_loop && paren == 0) {
            loop_body_depth.push_back(depth);
            pending_loop = false;
          }
        } else if (c == '}') {
          if (!loop_body_depth.empty() && loop_body_depth.back() == depth)
            loop_body_depth.pop_back();
          --depth;
        } else if (c == ';' && paren == 0 && pending_loop) {
          pending_loop = false;  // braceless single-statement loop
        }
      }
    }
  }

  void check_naked_cache_write() {
    // The durable-write machinery itself is the one legitimate home for
    // raw file output.
    const std::string& p = file_.path;
    if (p.find("common/artifact_store") != std::string::npos ||
        p.find("common/journal") != std::string::npos ||
        p.find("common/serialize") != std::string::npos)
      return;
    static const std::regex re(R"(std::ofstream|\bopen_for_write\s*\()");
    for (std::size_t i = 0; i < code_.size(); ++i) {
      if ((has(code_[i], "ofstream") || has(code_[i], "open_for_write")) &&
          std::regex_search(code_[i], re))
        add("naked-cache-write", i,
            "raw file write outside the artifact store; route it through "
            "save_artifact (common/artifact_store.h) or AppendJournal so "
            "a crash can never leave a half-written cache behind");
    }
  }

  void check_pragma_once() {
    const std::string& p = file_.path;
    if (p.size() < 2 || p.compare(p.size() - 2, 2, ".h") != 0) return;
    std::string t;  // hoisted per-line scratch
    for (std::size_t i = 0; i < code_.size(); ++i) {
      t = code_[i];
      t.erase(std::remove_if(t.begin(), t.end(),
                             [](unsigned char c) { return std::isspace(c); }),
              t.end());
      if (t.empty()) continue;
      if (t != "#pragmaonce")
        add("missing-pragma-once", i,
            "header's first non-comment line must be #pragma once");
      return;
    }
  }

  const FileScan& file_;
  const std::vector<std::string>& code_;
  std::vector<Finding>& out_;
};

// ---- rt ----------------------------------------------------------------------

struct Primitive {
  const char* rule;
  std::size_t line;  // 1-based
  std::string message;
  bool wrapper_lock = false;  // MutexLock/ReaderLock/WriterLock acquisition
};

// Real-time-banned primitive patterns over one body line.
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

// ---- det ---------------------------------------------------------------------

// Strict ranks over src/ modules. An include edge is legal iff it targets
// a strictly lower rank or stays inside its own module; equal-rank
// cross-module includes are findings (they would let the two modules
// grow into a cycle one edge at a time). Kept in sync with the DESIGN.md
// layering section.
const std::map<std::string, int>& module_ranks() {
  static const std::map<std::string, int> ranks = {
      {"common", 0}, {"tensor", 1}, {"mesh", 1},    {"dsp", 2},
      {"nn", 2},     {"radar", 3},  {"har", 4},     {"xai", 5},
      {"defense", 5}, {"core", 6},  {"serving", 6}};
  return ranks;
}

struct NondetPat {
  std::regex re;
  const char* msg;
};

const std::vector<NondetPat>& nondet_patterns() {
  static const std::vector<NondetPat> pats = [] {
    std::vector<NondetPat> p;
    p.push_back({std::regex(R"((^|[^\w])(rand|srand|rand_r|random|drand48|lrand48|mrand48)\s*\()"),
                 "C rand-family call draws from ambient global state"});
    p.push_back({std::regex(R"(\bstd::random_device\b)"),
                 "std::random_device is an entropy source — results differ "
                 "every run"});
    p.push_back({std::regex(R"(\bthis_thread\s*::\s*get_id\b|(\.|->)\s*get_id\s*\()"),
                 "thread ids depend on scheduling and OS allocation"});
    p.push_back({std::regex(R"(::\s*now\s*\()"),
                 "clock read — wall/steady time differs every run"});
    p.push_back({std::regex(R"((^|[^\w])(time|clock)\s*\()"),
                 "C time/clock read differs every run"});
    p.push_back({std::regex(R"(\b(gettimeofday|clock_gettime|localtime|gmtime|mktime|ctime|strftime)\s*\()"),
                 "time-of-day call differs every run"});
    p.push_back({std::regex(R"(\bstd::hash\s*<[^<>]*\*)"),
                 "std::hash over a pointer type — hashes the address, which "
                 "ASLR changes every run"});
    p.push_back({std::regex(R"(\bstd::less\s*<[^<>]*\*)"),
                 "std::less over a pointer type — orders by address, which "
                 "ASLR changes every run"});
    p.push_back({std::regex(R"(\breinterpret_cast\s*<\s*(std::)?u?intptr_t\b)"),
                 "pointer-to-integer cast — address-derived values change "
                 "every run"});
    return p;
  }();
  return pats;
}

class DetChecker {
 public:
  DetChecker(const CallGraph& graph, std::vector<Finding>& out)
      : graph_(graph),
        out_(out),
        roots_(cone_roots(graph, kDeterministic)),
        reach_(graph, roots_, [&graph](const FnRecord& fn, std::size_t ln) {
          return line_allows(graph.file_of(fn).raw, ln, "det-calls");
        }) {}

  Cone run();

 private:
  bool allows(const FileScan& file, std::size_t ln,
              const std::string& rule) const {
    return line_allows(file.raw, ln, rule);
  }

  void rule_layering();
  void rule_parallel_accum();
  void scan_unordered_iter(const FnRecord& fn, const FileScan& file,
                           const std::string& line, std::size_t ln,
                           const std::string& chain);

  const CallGraph& graph_;
  std::vector<Finding>& out_;
  std::vector<std::size_t> roots_;
  Reachability reach_;
};

Cone DetChecker::run() {
  rule_layering();
  rule_parallel_accum();
  const auto& functions = graph_.functions();
  std::string chain;  // hoisted per-function scratch
  for (const auto& [id, via] : reach_.via()) {
    (void)via;
    const FnRecord& fn = functions[id];
    const FileScan& file = graph_.file_of(fn);
    chain = reach_.chain(graph_, id);
    for_each_body_line(file, fn, [&](const std::string& line, std::size_t ln) {
      for (const auto& pat : nondet_patterns()) {
        if (!std::regex_search(line, pat.re)) continue;
        if (allows(file, ln, "nondet-call")) continue;
        out_.push_back({"nondet-call", fn.file, ln,
                        std::string(pat.msg) + " [in " + fn.qual + "]",
                        chain});
      }
      if (!file.unordered_names.empty())
        scan_unordered_iter(fn, file, line, ln, chain);
    });
    // det-env-read; common/env.cpp (the accessors themselves) is exempt.
    if (fn.file.find("common/env.cpp") != std::string::npos) continue;
    for (const auto& site : file.env_sites) {
      if (site.line < fn.body_begin || site.line > fn.body_end) continue;
      if (allows(file, site.line, "det-env-read")) continue;
      out_.push_back(
          {"det-env-read", fn.file, site.line,
           (site.name.empty() ? std::string("env read with a non-literal name")
                              : "'" + site.name + "' is read") +
               " inside the deterministic pipeline — knobs must be read "
               "once at startup and passed down as values [in " +
               fn.qual + "]",
           chain});
    }
  }
  return {roots_.size(), reach_.size()};
}

// Module-layering DAG over include edges. File-level: reachability is
// irrelevant (an illegal edge is an architecture defect whether or not
// today's roots exercise it).
void DetChecker::rule_layering() {
  const auto& ranks = module_ranks();
  const auto module_of = [](const std::string& display) -> std::string {
    // "src/<module>/..." -> module; anything else sits above the DAG.
    if (display.rfind("src/", 0) != 0) return "";
    const std::size_t b = display.find('/', 4);
    return b == std::string::npos ? "" : display.substr(4, b - 4);
  };
  std::string mod;     // hoisted per-file scratch
  std::string target;  // hoisted per-include scratch
  for (const auto& file : graph_.files()) {
    mod = module_of(file.path);
    const auto mod_it = ranks.find(mod);
    if (mod_it == ranks.end()) continue;
    for (const auto& inc : file.includes) {
      const std::size_t sep = inc.target.find('/');
      if (sep == std::string::npos) continue;  // same-directory include
      target.assign(inc.target, 0, sep);
      const auto tgt_it = ranks.find(target);
      if (tgt_it == ranks.end() || target == mod) continue;
      if (tgt_it->second < mod_it->second) continue;  // downward edge: ok
      if (allows(file, inc.line, "layering")) continue;
      std::ostringstream msg;
      msg << "include of \"" << inc.target << "\" pulls module '" << target
          << "' (rank " << tgt_it->second << ") into module '" << mod
          << "' (rank " << mod_it->second
          << ") — the layering DAG only allows includes of strictly "
             "lower-ranked modules";
      out_.push_back({"layering", file.path, inc.line, msg.str(), ""});
    }
  }
}

// parallel-accum: compound assignment to a captured-by-reference variable
// inside a parallel_for [&] lambda that the lambda did not declare.
// File-granular — every file, not just reachable functions — with the
// root chain attached when the site is inside the determinism cone.
void DetChecker::rule_parallel_accum() {
  static const std::regex call_re(R"(parallel_for(_chunked)?\s*\()");
  static const std::regex accum_re(
      R"(([A-Za-z_]\w*)(\s*\[[^\]]*\])?(\.\w+|->\w+)?\s*(\+=|-=|\*=|/=|\+\+|--))");
  const auto& functions = graph_.functions();
  std::string cap_list;  // scratch strings hoisted out of the scan loops
  std::string body;
  std::string tail;
  std::string name;
  std::string chain;
  std::string owner;
  for (std::size_t f = 0; f < graph_.files().size(); ++f) {
    const FileScan& file = graph_.files()[f];
    const auto& code = file.code;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (!std::regex_search(code[i], call_re)) continue;
      // Find the lambda's opening brace at or after the call, then the
      // matching close brace (brace counting over comment-stripped code).
      std::size_t open_line = i;
      std::size_t open_col = std::string::npos;
      for (std::size_t j = i; j < code.size() && j < i + 4; ++j) {
        const auto cap = code[j].find('[');
        if (cap == std::string::npos) continue;
        const auto brace = code[j].find('{', cap);
        if (brace != std::string::npos) {
          open_line = j;
          open_col = brace;
          break;
        }
      }
      if (open_col == std::string::npos) continue;  // no lambda body found
      // Only [&] (or [&, ...]) captures can alias shared accumulators.
      const auto cap_start = code[open_line].find('[');
      cap_list.assign(code[open_line], cap_start,
                      code[open_line].find(']', cap_start) - cap_start);
      if (cap_list.find('&') == std::string::npos) continue;

      int depth = 0;
      std::size_t end_line = open_line;
      body.clear();
      for (std::size_t j = open_line; j < code.size(); ++j) {
        const std::string& l = code[j];
        bool closed = false;
        for (std::size_t c = j == open_line ? open_col : 0; c < l.size(); ++c) {
          if (l[c] == '{') ++depth;
          if (l[c] == '}' && --depth == 0) {
            closed = true;
            break;
          }
        }
        body += l;
        body += '\n';
        if (closed) {
          end_line = j;
          break;
        }
      }

      for (std::size_t j = open_line; j <= end_line; ++j) {
        std::smatch m;
        tail = code[j];
        while (std::regex_search(tail, m, accum_re)) {
          name = m[1].str();
          // `declared in the body` approximated as: some line of the
          // body introduces `name` after a type-ish token or as a
          // lambda param.
          const std::regex decl_re(
              "(auto|float|double|int|bool|unsigned|long|size_t|cfloat|"
              "char|std::\\w+|[A-Z]\\w*)\\s*[&*]?\\s*" + name + "\\b");
          if (!std::regex_search(body, decl_re)) {
            if (!allows(file, j + 1, "parallel-accum")) {
              chain.clear();
              owner.clear();
              // The reachable function, if any, whose body holds the site.
              for (const auto& [id, via] : reach_.via()) {
                (void)via;
                const FnRecord& fn = functions[id];
                if (fn.file_id != static_cast<int>(f) ||
                    j + 1 < fn.body_begin || j + 1 > fn.body_end)
                  continue;
                owner = fn.qual;
                chain = reach_.chain(graph_, id);
                break;
              }
              out_.push_back(
                  {"parallel-accum", file.path, j + 1,
                   "'" + name +
                       "' is compound-assigned inside a parallel_for [&] "
                       "lambda but declared outside it — the combine "
                       "order (and under a race, the value) depends on "
                       "thread interleaving; accumulate per chunk and "
                       "combine after the join" +
                       (owner.empty() ? "" : " [in " + owner + "]"),
                   chain});
            }
            break;  // one report per line is enough
          }
          tail = m.suffix().str();
        }
      }
      i = end_line;  // don't rescan the body for nested calls
    }
  }
}

void DetChecker::scan_unordered_iter(const FnRecord& fn, const FileScan& file,
                                     const std::string& line, std::size_t ln,
                                     const std::string& chain) {
  for (const auto& name : file.unordered_names) {
    // Range-for over the container, or an explicit iterator walk.
    const std::regex range_re(R"((^|[^\w])for\s*\([^;)]*:\s*)" + name +
                              R"(\s*\))");
    const std::regex begin_re("\\b" + name + R"(\s*\.\s*[cr]?begin\s*\()");
    if (!std::regex_search(line, range_re) &&
        !std::regex_search(line, begin_re))
      continue;
    if (allows(file, ln, "unordered-iter")) continue;
    out_.push_back(
        {"unordered-iter", fn.file, ln,
         "'" + name +
             "' is an unordered container and this iterates it — "
             "iteration order depends on hashing and insertion history, "
             "so any result folded over it is not reproducible; use a "
             "sorted structure or sort the keys first [in " + fn.qual + "]",
         chain});
  }
}

}  // namespace

const char* family_of(const std::string& rule) {
  static const std::map<std::string, const char*> families = {
      {"banned-rng", "lint"},          {"naked-alloc", "lint"},
      {"unchecked-data-arith", "lint"}, {"missing-pragma-once", "lint"},
      {"naked-cache-write", "lint"},   {"loop-alloc", "lint"},
      {"env-knob-registry", "analyze"}, {"lock-annotation-coverage", "analyze"},
      {"header-hygiene", "analyze"},   {"alloc", "rt"},
      {"lock", "rt"},                  {"block", "rt"},
      {"throw", "rt"},                 {"rt-env-read", "rt"},
      {"rt-root-coverage", "rt"},      {"rt-calls", "rt"},
      {"unordered-iter", "det"},       {"nondet-call", "det"},
      {"parallel-accum", "det"},       {"det-env-read", "det"},
      {"det-root-coverage", "det"},    {"layering", "det"},
      {"det-calls", "det"}};
  const auto it = families.find(rule);
  return it == families.end() ? "" : it->second;
}

// ---- inputs --------------------------------------------------------------------

bool scan_dir(const fs::path& dir, std::vector<FileScan>& out,
              std::string& error) {
  if (!fs::is_directory(dir)) {
    error = "not a directory: " + dir.string();
    return false;
  }
  std::vector<std::string> lines;  // hoisted per-file scratch
  for (const auto& path : collect_sources(dir)) {
    if (!read_lines(path, lines)) {
      error = "cannot read " + path.string();
      return false;
    }
    out.push_back(scan_file(display_path(dir, path), std::move(lines)));
  }
  return true;
}

bool read_text(const fs::path& file, std::string display, TextFile& out) {
  out.path = std::move(display);
  return read_lines(file, out.raw);
}

bool load_inputs(const fs::path& repo_root, Inputs& in, std::string& error) {
  for (const char* dir : {"src", "bench", "tools"})
    if (!scan_dir(repo_root / dir, in.files, error)) return false;
  const std::pair<const char*, TextFile*> texts[] = {
      {"src/common/env_registry.cpp", &in.registry},
      {"README.md", &in.readme},
      {"tools/check_roots.txt", &in.roots}};
  for (const auto& [rel, text] : texts) {
    if (!read_text(repo_root / rel, rel, *text)) {
      error = "cannot read " + (repo_root / rel).string();
      return false;
    }
  }
  return true;
}

bool parse_roots(const TextFile& roots, std::vector<RootSpec>& out,
                 std::string& error) {
  static const std::regex row_re(
      R"(^\s*(realtime|handoff|deterministic)\s+(\S+)\s*$)");
  std::string t;  // hoisted per-line scratch
  std::smatch m;
  for (std::size_t i = 0; i < roots.raw.size(); ++i) {
    t = trim(roots.raw[i]);
    if (t.empty() || t[0] == '#') continue;
    if (!std::regex_match(t, m, row_re)) {
      error = roots.path + ":" + std::to_string(i + 1) +
              ": expected '<realtime|handoff|deterministic> "
              "<qualified-name-suffix>', got: " + t;
      return false;
    }
    out.push_back({m[1].str(), m[2].str(), i + 1});
  }
  return true;
}

// ---- lint ----------------------------------------------------------------------

void check_lint(const FileScan& file, std::vector<Finding>& out) {
  FileLinter(file, out).run();
}

// ---- analyze -------------------------------------------------------------------

void check_env_registry(const std::vector<FileScan>& files,
                        const TextFile& registry, const TextFile& readme,
                        std::vector<Finding>& out) {
  const auto add = [&](const std::string& file,
                       const std::vector<std::string>& raw, std::size_t line,
                       std::string message) {
    if (line_allows(raw, line, "env-knob-registry")) return;
    out.push_back({"env-knob-registry", file, line, std::move(message), ""});
  };
  const std::vector<Row> rows = registry_rows(registry);
  std::vector<Row> readme_rows;
  static const std::regex readme_re(R"(^\s*\|\s*`(MMHAR_\w+)`)");
  std::smatch m;
  for (std::size_t i = 0; i < readme.raw.size(); ++i)
    if (std::regex_search(readme.raw[i], m, readme_re))
      readme_rows.push_back({m[1].str(), i + 1});

  std::set<std::string> registry_names;
  for (const auto& row : rows) registry_names.insert(row.name);
  std::set<std::string> readme_names;
  for (const auto& row : readme_rows) readme_names.insert(row.name);
  std::set<std::string> read_names;

  for (const auto& f : files) {
    for (const auto& site : f.env_sites) {
      if (!is_checked_knob(site.name)) continue;
      read_names.insert(site.name);
      if (!registry_names.count(site.name))
        add(f.path, f.raw, site.line,
            "'" + site.name +
                "' is read here but has no row in the env registry (" +
                registry.path + "); declare it there and in the README "
                "env table");
    }
  }
  for (const auto& row : rows) {
    if (!readme_names.count(row.name))
      add(registry.path, registry.raw, row.line,
          "registry row '" + row.name + "' is missing from the env table "
          "in " + readme.path);
    if (!read_names.count(row.name))
      add(registry.path, registry.raw, row.line,
          "registry row '" + row.name + "' is never read in the scanned "
          "roots — delete the stale row or wire the knob up");
  }
  for (const auto& row : readme_rows) {
    if (!registry_names.count(row.name))
      add(readme.path, readme.raw, row.line,
          "README env-table row '" + row.name + "' has no registry row "
          "in " + registry.path);
  }
}

void check_analyze(const std::vector<FileScan>& files,
                   const TextFile& registry, const TextFile& readme,
                   std::vector<Finding>& out) {
  check_env_registry(files, registry, readme, out);
  const auto add = [&](const char* rule, const FileScan& file,
                       std::size_t line, std::string message) {
    if (line_allows(file.raw, line, rule)) return;
    out.push_back({rule, file.path, line, std::move(message), ""});
  };

  // lock-annotation-coverage: in a record holding a mutex, every mutable
  // data member carries MMHAR_GUARDED_BY. The capability wrappers' own
  // home is exempt.
  for (const auto& f : files) {
    if (f.path.find("common/mutex.h") != std::string::npos ||
        f.path.find("common/thread_annotations.h") != std::string::npos)
      continue;
    for (const auto& rec : f.records) {
      if (!rec.has_mutex) continue;
      for (const auto& mem : rec.members) {
        if (mem.guarded) continue;
        add("lock-annotation-coverage", f, mem.line,
            "record '" + rec.name + "' holds a mutex, so member `" +
                mem.stmt +
                "` needs MMHAR_GUARDED_BY(<mutex>) (or an allow-comment "
                "explaining why it is not shared state)");
      }
    }
  }

  // header-hygiene (a): a direct include where annotation macros are used.
  for (const auto& f : files) {
    if (f.path.find("common/thread_annotations.h") != std::string::npos)
      continue;
    if (f.first_annotation_line != 0 && !f.includes_thread_annotations)
      add("header-hygiene", f, f.first_annotation_line,
          "MMHAR_* thread-safety macros used without a direct #include "
          "of common/thread_annotations.h");
  }
  // header-hygiene (b): one definition per namespace-scope symbol across
  // headers.
  std::map<std::string, std::vector<std::pair<const FileScan*, const Symbol*>>>
      defs;
  for (const auto& f : files)
    for (const auto& sym : f.symbols)
      defs[sym.kind + " " + sym.qual].emplace_back(&f, &sym);
  for (const auto& [key, syms] : defs) {
    const auto& [first_file, first] = syms.front();
    for (std::size_t i = 1; i < syms.size(); ++i) {
      const auto& [dup_file, dup] = syms[i];
      if (dup_file == first_file) continue;
      add("header-hygiene", *dup_file, dup->line,
          dup->kind + " '" + dup->qual + "' is also defined in " +
              first_file->path + ":" + std::to_string(first->line) +
              " — two headers must not define the same symbol");
    }
  }
}

// ---- root coverage -------------------------------------------------------------

void check_root_coverage(const CallGraph& graph, const TextFile& roots_file,
                         const std::vector<RootSpec>& roots,
                         std::vector<Finding>& out) {
  const auto& functions = graph.functions();
  std::vector<std::size_t> matches;  // hoisted per-spec scratch
  for (const auto& spec : roots) {
    const bool det = spec.kind == "deterministic";
    const char* rule = det ? "det-root-coverage" : "rt-root-coverage";
    matches.clear();
    for (std::size_t i = 0; i < functions.size(); ++i)
      if (CallGraph::suffix_matches(functions[i].qual, spec.name))
        matches.push_back(i);
    if (matches.empty()) {
      out.push_back({rule, roots_file.path, spec.line,
                     "required root '" + spec.name +
                         "' names no function in the scanned roots — the "
                         "entry point was renamed or deleted without "
                         "updating " + roots_file.path,
                     ""});
      continue;
    }
    const unsigned accepted = det                         ? kDeterministic
                              : spec.kind == "realtime" ? kRealtime
                                                        : kRealtime | kHandoff;
    bool ok = false;
    for (const std::size_t id : matches)
      ok = ok || (functions[id].flags & accepted) != 0;
    if (ok) continue;
    const FnRecord& fn = functions[matches.front()];
    const char* annotation = det                       ? "MMHAR_DETERMINISTIC"
                             : spec.kind == "handoff" ? "MMHAR_REALTIME_HANDOFF"
                                                      : "MMHAR_REALTIME";
    out.push_back({rule, fn.file, fn.line,
                   "required root '" + spec.name + "' has lost its " +
                       annotation + " annotation (declared required in " +
                       roots_file.path + ":" + std::to_string(spec.line) + ")",
                   ""});
  }
}

// ---- rt ------------------------------------------------------------------------

Cone check_rt(const CallGraph& graph, const TextFile& registry,
              std::vector<Finding>& out) {
  // Roots: every annotated function. The roots file is a floor that
  // rt-root-coverage enforces, not a ceiling — annotating a new function
  // extends the checked set with no checker change.
  const std::vector<std::size_t> roots =
      cone_roots(graph, kRealtime | kHandoff);
  const Reachability reach(graph, roots,
                           [&](const FnRecord& fn, std::size_t ln) {
                             return line_allows(graph.file_of(fn).raw, ln,
                                                "rt-calls");
                           });
  std::set<std::string> registered;
  for (const auto& row : registry_rows(registry)) registered.insert(row.name);

  const auto& functions = graph.functions();
  std::string chain;                       // hoisted per-function scratch
  std::vector<Primitive> prims;
  std::vector<std::size_t> growth_targets;
  for (const auto& [id, via] : reach.via()) {
    (void)via;
    const FnRecord& fn = functions[id];
    const FileScan& file = graph.file_of(fn);
    chain = reach.chain(graph, id);
    // Body primitives, plus one container-growth primitive per growth
    // call site that resolves to no repo function (one that does is a
    // call edge, checked transitively, e.g. grow-once
    // InferenceScratch::reserve).
    prims.clear();
    for_each_body_line(file, fn, [&](const std::string& line, std::size_t ln) {
      scan_primitives(line, ln, prims);
    });
    for (const auto& call : fn.calls) {
      if (!call.growth) continue;
      graph.resolve(call, fn.file_id, growth_targets);
      if (!growth_targets.empty()) continue;
      prims.push_back({"alloc", call.line,
                       "'." + call.name +
                           "(...)' may grow a container (allocates)",
                       false});
    }
    for (const auto& prim : prims) {
      if (prim.wrapper_lock && (fn.flags & kHandoff) != 0) continue;
      if (line_allows(file.raw, prim.line, prim.rule)) continue;
      out.push_back({prim.rule, fn.file, prim.line,
                     prim.message + " [in " + fn.qual + "]", chain});
    }
    // rt-env-read; common/env.cpp (the registry gate itself) is exempt.
    if (fn.file.find("common/env.cpp") != std::string::npos) continue;
    for (const auto& site : file.env_sites) {
      if (site.line < fn.body_begin || site.line > fn.body_end) continue;
      if (line_allows(file.raw, site.line, "rt-env-read")) continue;
      if (site.name.empty()) {
        out.push_back({"rt-env-read", fn.file, site.line,
                       "env read with a non-literal name cannot be checked "
                       "against the registry [in " + fn.qual + "]",
                       chain});
      } else if (is_checked_knob(site.name) && !registered.count(site.name)) {
        out.push_back({"rt-env-read", fn.file, site.line,
                       "'" + site.name + "' is not in the env registry [in " +
                           fn.qual + "]",
                       chain});
      }
    }
  }
  return {roots.size(), reach.size()};
}

// ---- det -----------------------------------------------------------------------

Cone check_det(const CallGraph& graph, std::vector<Finding>& out) {
  return DetChecker(graph, out).run();
}

// ---- the whole check -------------------------------------------------------------

bool check(const Inputs& in, Report& report, std::string& error) {
  std::vector<RootSpec> roots;
  if (!parse_roots(in.roots, roots, error)) return false;
  report = Report{};
  for (const auto& file : in.files) check_lint(file, report.findings);
  check_analyze(in.files, in.registry, in.readme, report.findings);
  const CallGraph graph(in.files);
  report.functions = graph.functions().size();
  check_root_coverage(graph, in.roots, roots, report.findings);
  report.rt = check_rt(graph, in.registry, report.findings);
  report.det = check_det(graph, report.findings);
  sort_unique(report.findings);
  return true;
}

void print_findings(const std::vector<Finding>& found, std::ostream& out) {
  for (const auto& f : found) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
    if (!f.chain.empty()) out << "    chain: " << f.chain << "\n";
  }
}

int run_check(const Inputs& in, std::ostream& out, std::ostream& err) {
  Report report;
  std::string error;
  if (!check(in, report, error)) {
    err << "mmhar_check: bad roots file " << error << "\n";
    return 2;
  }
  print_findings(report.findings, out);
  const bool ok = report.findings.empty();
  out << "mmhar_check: files=" << in.files.size()
      << " functions=" << report.functions
      << " rt.roots=" << report.rt.roots
      << " rt.reachable=" << report.rt.reachable
      << " det.roots=" << report.det.roots
      << " det.reachable=" << report.det.reachable
      << " findings=" << report.findings.size()
      << " status=" << (ok ? "ok" : "fail") << "\n";
  return ok ? 0 : 1;
}

int run_check(const fs::path& repo_root, std::ostream& out,
              std::ostream& err) {
  Inputs in;
  std::string error;
  if (!load_inputs(repo_root, in, error)) {
    err << "mmhar_check: " << error << "\n";
    return 2;
  }
  return run_check(in, out, err);
}

}  // namespace mmhar_tools
