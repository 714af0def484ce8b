// The one per-file scan and the cross-translation-unit call graph under
// the repo's static checker (tools/mmhar_check).
//
// scan_file() reads a source file once: one code_only /
// code_keeping_strings pass, then one brace-depth scope walk over the
// comment/string-stripped lines. That walk feeds every rule family:
// function-level records with their call sites and annotation flags (the
// real-time and determinism cones), record layouts with their data
// members and the namespace-scope symbols a header defines (lock and
// header rules), env-knob read sites, include edges, and the names of
// unordered containers. Scans stay per file, so a caller can re-scan one
// edited file and rebuild the graph without re-reading the others.
//
// CallGraph merges the per-file records: declarations carrying annotation
// macros transfer their flags to the same-qualified-name definition, and
// Reachability walks breadth-first from a root set, keeping for every
// reachable function the call chain back to the nearest root.
//
// Known textual limits (by design — this is a linter layer, not a
// compiler): receiver types are unknown, so member calls resolve only
// within the caller's own file; free calls must match their written
// qualifier as a component-aligned suffix and prefer same-file candidates
// (modelling anonymous-namespace lookup); overloads sharing a qualified
// name share their annotations; explicit template arguments are ignored
// (`f<8>(x)` is a call to f). All of these widen or preserve the checked
// set; none invents an escape hatch a suppression comment would not.
//
// Dependency-free on purpose (like analysis_text.h): the checker must
// build standalone even when src/ itself does not compile.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mmhar_tools {

// Annotation flag bits on FnRecord::flags, one per annotation macro.
constexpr unsigned kRealtime = 1U << 0;       // MMHAR_REALTIME
constexpr unsigned kHandoff = 1U << 1;        // MMHAR_REALTIME_HANDOFF
constexpr unsigned kDeterministic = 1U << 2;  // MMHAR_DETERMINISTIC

struct CallSite {
  std::string name;  // as written, :: qualifiers kept, whitespace removed
  std::size_t line;  // 1-based
  bool member;       // reached through . or ->
  bool growth;       // an allocating STL growth-member name
};

struct EnvSite {
  std::string name;  // literal name, or "" for a non-literal read
  std::size_t line;
};

struct FnRecord {
  std::string qual;  // fully qualified, e.g. mmhar::serving::Svc::poll
  std::string file;  // display path
  std::size_t line = 0;        // head line, 1-based
  std::size_t body_begin = 0;  // line of the opening '{'
  std::size_t body_end = 0;    // line of the closing '}'
  int file_id = -1;            // set by CallGraph
  unsigned flags = 0;          // annotation bits on the head or a decl
  bool noreturn = false;
  std::vector<CallSite> calls;
};

struct DeclFlags {
  unsigned flags = 0;
  bool noreturn = false;
};

// A data member of a record, as lock-annotation-coverage sees it.
struct Member {
  std::string stmt;  // the declaration text, comments/strings stripped
  std::size_t line;
  bool guarded;  // carried MMHAR_GUARDED_BY / MMHAR_PT_GUARDED_BY
};

struct Record {
  std::string name;
  std::size_t line;
  bool has_mutex = false;
  std::vector<Member> members;
};

// A namespace-scope definition in a header, for header-hygiene.
struct Symbol {
  std::string qual;  // namespace-qualified name
  std::string kind;  // record | enum | function | variable
  std::size_t line;
};

struct Include {
  std::string target;  // the quoted path of `#include "..."`
  std::size_t line;
};

struct FileScan {
  std::string path;  // display path, e.g. "src/dsp/fft.cpp"
  bool is_header = false;
  std::vector<std::string> raw;
  std::vector<std::string> code;          // strings blanked
  std::vector<std::string> code_strings;  // strings kept
  std::vector<EnvSite> env_sites;
  std::vector<FnRecord> functions;
  std::map<std::string, DeclFlags> decl_flags;  // annotated declarations
  std::vector<Record> records;
  std::vector<Symbol> symbols;  // headers only
  std::vector<Include> includes;
  std::set<std::string> unordered_names;  // std::unordered_* variables
  std::size_t first_annotation_line = 0;  // MMHAR_* macro use; 0 = none
  bool includes_thread_annotations = false;
};

// Scans one file's lines; `path` is its display path.
FileScan scan_file(std::string path, std::vector<std::string> raw);

class CallGraph {
 public:
  // Keeps a pointer to `files`, which must outlive the graph.
  explicit CallGraph(const std::vector<FileScan>& files);

  const std::vector<FileScan>& files() const { return *files_; }
  const std::vector<FnRecord>& functions() const { return functions_; }
  const FileScan& file_of(const FnRecord& fn) const {
    return (*files_)[static_cast<std::size_t>(fn.file_id)];
  }

  static std::string last_component(const std::string& qual);

  // `qual` ends with `suffix` on a :: component boundary. Anonymous-
  // namespace components are transparent so a roots-file entry like
  // `dsp::plan_for` can name the file-local mmhar::dsp::(anonymous)::
  // plan_for without hard-coding the linkage detail.
  static bool suffix_matches(const std::string& qual,
                             const std::string& suffix);

  // Call-name resolution. Free calls must match their written qualifier
  // as a component-aligned suffix (so std:: / chrono:: calls resolve to
  // nothing instead of colliding with same-named repo functions) and
  // prefer same-file candidates when any exist — modelling anonymous-
  // namespace lookup, and keeping fft.cpp's file-local plan_for() from
  // resolving into AttackExperiment::plan_for. Member calls have no
  // receiver type textually, so they resolve only within the caller's own
  // file (the hot-path pattern: a record and its consumers share a TU); a
  // cross-file growth member stays a primitive instead.
  void resolve(const CallSite& call, int caller_file,
               std::vector<std::size_t>& out) const;

 private:
  const std::vector<FileScan>* files_;
  std::vector<FnRecord> functions_;
  std::map<std::string, std::vector<std::size_t>> by_last_;
};

// Breadth-first reachability from a root set, recording for each reached
// function the parent edge it was first discovered through so the exact
// call chain from the nearest root can be printed with a finding.
class Reachability {
 public:
  struct Via {
    std::size_t parent;
    bool is_root;
  };

  // `cut(fn, line)` returning true stops call-graph traversal out of that
  // line (each family maps its `*-calls` suppression onto it).
  // [[noreturn]] targets are never traversed: they only execute when the
  // process is already aborting the computation.
  template <class CutFn>
  Reachability(const CallGraph& graph, const std::vector<std::size_t>& roots,
               CutFn cut) {
    const auto& functions = graph.functions();
    std::deque<std::size_t> queue;
    for (const std::size_t r : roots) {
      if (via_.count(r)) continue;
      via_[r] = {r, true};
      queue.push_back(r);
    }
    std::vector<std::size_t> targets;  // hoisted per-call scratch
    while (!queue.empty()) {
      const std::size_t id = queue.front();
      queue.pop_front();
      const FnRecord& fn = functions[id];
      for (const auto& call : fn.calls) {
        if (cut(fn, call.line)) continue;
        graph.resolve(call, fn.file_id, targets);
        for (const std::size_t t : targets) {
          if (t == id || via_.count(t) || functions[t].noreturn) continue;
          via_[t] = {id, false};
          queue.push_back(t);
        }
      }
    }
  }

  const std::map<std::size_t, Via>& via() const { return via_; }
  std::size_t size() const { return via_.size(); }

  // "root -> ... -> function" for a reached id.
  std::string chain(const CallGraph& graph, std::size_t id) const;

 private:
  std::map<std::size_t, Via> via_;
};

}  // namespace mmhar_tools
