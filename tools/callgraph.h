// Cross-translation-unit call-graph layer shared by the repo's whole-tree
// checkers (tools/mmhar_rtcheck.cpp, tools/mmhar_detcheck.cpp).
//
// Extracted from mmhar_rtcheck so both tools parse sources, attribute
// lambdas, resolve calls, and walk reachability identically: the same
// scoped-record walk as mmhar_analyze (brace-depth scope stack over
// comment/string-stripped lines) turns every file into function-level
// records; declarations carrying annotation macros transfer their flags to
// the same-qualified-name definition; and a breadth-first walk from the
// annotated roots yields, for every reachable function, the call chain
// back to the nearest root.
//
// The tools differ only in (a) which annotation tokens mark a root and
// (b) which body primitives they hunt — both stay tool-side. Everything
// here is annotation-token-parameterised: pass the token list to
// ScopeScanner and the `flags` bitmask on each FnRecord has bit i set
// when token i appeared on the head or a matching declaration.
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
// Header-only and dependency-free on purpose (like analysis_text.h): the
// tools must build standalone even when src/ itself does not compile.
#pragma once

#include <algorithm>
#include <cctype>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis_text.h"

namespace mmhar_tools {

// Member-call names that never resolve to repo functions: std containers /
// atomics / chrono vocabulary. Lock/wait names are here too — those are
// caught as primitives by the tools, and keeping them out of the graph
// keeps capability wrappers' internals (Mutex::lock calling inner_.lock)
// from appearing as reachable nodes.
inline const std::set<std::string>& member_skip_list() {
  static const std::set<std::string> skip = {
      "size",       "empty",      "data",        "begin",     "end",
      "cbegin",     "cend",       "rbegin",      "rend",      "length",
      "capacity",   "front",      "back",        "first",     "second",
      "get",        "reset",      "release",     "swap",      "count",
      "find",       "contains",   "clear",       "c_str",     "value",
      "value_or",   "has_value",  "real",        "imag",      "load",
      "store",      "exchange",   "fetch_add",   "fetch_sub", "notify_one",
      "notify_all", "lock",       "unlock",      "try_lock",  "lock_shared",
      "unlock_shared", "min",     "max",         "time_since_epoch"};
  return skip;
}

// STL members whose call can grow the container (allocate). A growth
// member call becomes a CallSite with `growth = true`; when it resolves to
// a repo function it is a transitive call edge, otherwise the tool decides
// what raw container growth means under its rules.
inline const std::set<std::string>& growth_members() {
  static const std::set<std::string> grow = {
      "push_back", "emplace_back", "push_front",       "emplace_front",
      "resize",    "reserve",      "insert",           "emplace",
      "try_emplace", "append",     "assign",           "insert_or_assign"};
  return grow;
}

inline bool is_call_keyword(const std::string& name) {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",   "switch",        "return",
      "sizeof", "alignof",  "alignas", "decltype",      "noexcept",
      "catch",  "throw",    "new",     "delete",        "static_assert",
      "assert", "defined",  "case",    "else",          "do",
      "goto",   "co_await", "co_return", "co_yield",    "requires"};
  return kw.count(name) > 0;
}

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

struct SourceFile {
  std::string path;  // display path, e.g. "src/dsp/fft.cpp"
  std::vector<std::string> raw;
  std::vector<std::string> code;          // strings blanked
  std::vector<std::string> code_strings;  // strings kept
  std::vector<EnvSite> env_sites;
};

struct FnRecord {
  std::string qual;  // fully qualified, e.g. mmhar::serving::Svc::poll
  std::string file;  // display path
  std::size_t line = 0;        // head line, 1-based
  std::size_t body_begin = 0;  // line of the opening '{'
  std::size_t body_end = 0;    // line of the closing '}'
  int file_id = -1;
  unsigned flags = 0;  // bit i set <=> annotation token i on head/decl
  bool noreturn = false;
  std::vector<CallSite> calls;

  bool has_flag(std::size_t token) const {
    return (flags & (1U << token)) != 0;
  }
};

struct DeclFlags {
  unsigned flags = 0;
  bool noreturn = false;
};

// One violation from any whole-tree rule; `chain` is the root-to-function
// call path ("root -> ... -> function"), empty for file-level rules.
struct Violation {
  std::string rule;
  std::string file;
  std::size_t line;
  std::string message;
  std::string chain;
};

inline void sort_unique_violations(std::vector<Violation>& found) {
  std::sort(found.begin(), found.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  found.erase(std::unique(found.begin(), found.end(),
                          [](const Violation& a, const Violation& b) {
                            return a.file == b.file && a.line == b.line &&
                                   a.rule == b.rule && a.message == b.message;
                          }),
              found.end());
}

// ---- Function-head dissection ----------------------------------------------

struct HeadInfo {
  bool is_function = false;
  std::string name;  // possibly Record::name-qualified as written
  unsigned flags = 0;
  bool noreturn = false;
};

// Compiled `\btoken\b` matchers for an annotation-token list. Word
// boundaries keep prefixed tokens disjoint: MMHAR_REALTIME does not match
// inside MMHAR_REALTIME_HANDOFF because the \b after the E sees '_', a
// word character.
class AnnotationTokens {
 public:
  explicit AnnotationTokens(std::vector<std::string> tokens)
      : tokens_(std::move(tokens)) {
    res_.reserve(tokens_.size());
    for (const auto& t : tokens_) res_.emplace_back("\\b" + t + "\\b");
  }

  std::size_t size() const { return tokens_.size(); }
  const std::string& token(std::size_t i) const { return tokens_[i]; }

  unsigned match(const std::string& stmt) const {
    unsigned flags = 0;
    for (std::size_t i = 0; i < res_.size(); ++i)
      if (std::regex_search(stmt, res_[i])) flags |= 1U << i;
    return flags;
  }

 private:
  std::vector<std::string> tokens_;
  std::vector<std::regex> res_;
};

// Dissect an accumulated namespace/record-scope statement that ended in
// '{' (definition) or ';' (declaration): find the declarator name before
// the first top-level '(' and the annotation tokens anywhere in the head.
inline HeadInfo parse_head(const std::string& stmt,
                           const AnnotationTokens& tokens) {
  HeadInfo info;
  static const std::regex noret_re(R"(\bnoreturn\b)");
  info.flags = tokens.match(stmt);
  info.noreturn = std::regex_search(stmt, noret_re);

  const std::string cleaned = blank_template_args(stmt);
  int paren = 0;
  std::size_t name_end = std::string::npos;
  for (std::size_t i = 0; i < cleaned.size(); ++i) {
    const char c = cleaned[i];
    if (c == '(') {
      if (paren == 0 && name_end == std::string::npos) name_end = i;
      ++paren;
    } else if (c == ')') {
      --paren;
    } else if (c == '=' && paren == 0 && name_end == std::string::npos) {
      return info;  // brace-initialised variable, not a function
    }
  }
  if (name_end == std::string::npos) return info;
  const std::string head = trim(cleaned.substr(0, name_end));
  if (head.empty()) return info;
  static const std::regex name_re(R"(((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)$)");
  std::smatch m;
  if (!std::regex_search(head, m, name_re)) {
    // `operator==` and friends: keep the body attributed to *a* function
    // so nested braces stay balanced, under a non-resolvable name.
    if (head.find("operator") != std::string::npos) {
      info.is_function = true;
      info.name = "(operator)";
    }
    return info;
  }
  info.name = m[1].str();
  // A variable annotated with an MMHAR_*(args) attribute would otherwise
  // parse as a function named after the macro.
  if (info.name.rfind("MMHAR_", 0) == 0) return info;
  if (is_call_keyword(info.name)) return info;
  info.is_function = true;
  return info;
}

// Literal and non-literal env-knob read sites, for the tools' env rules.
inline void index_env_sites(SourceFile& file) {
  static const std::regex lit_re(
      R"((^|[^\w])(env_[a-z_]+|getenv)\s*\(\s*"([A-Za-z0-9_]+)\")");
  static const std::regex dyn_re(
      R"((^|[^\w])(env_int|env_double|env_string|getenv)\s*\(\s*[^"\s])");
  std::string tail;  // hoisted per-line scratch
  for (std::size_t i = 0; i < file.code_strings.size(); ++i) {
    tail = file.code_strings[i];
    std::smatch m;
    while (std::regex_search(tail, m, lit_re)) {
      file.env_sites.push_back({m[3].str(), i + 1});
      tail = m.suffix().str();
    }
    if (std::regex_search(file.code_strings[i], dyn_re))
      file.env_sites.push_back({"", i + 1});
  }
}

// ---- Pass 1: per-file scan --------------------------------------------------

// Parses one source file into function records with call sites. Function
// bodies cover their lambdas — a lambda assigned to a named variable, or
// passed to ThreadPool::parallel_for, is attributed to the enclosing
// function, so a violation inside it is charged where it executes.
class ScopeScanner {
 public:
  ScopeScanner(SourceFile& file, int file_id, const AnnotationTokens& tokens,
               std::vector<FnRecord>& functions,
               std::map<std::string, DeclFlags>& decl_flags)
      : out_(file),
        file_id_(file_id),
        tokens_(tokens),
        functions_(functions),
        decl_flags_(decl_flags) {}

  void scan() {
    bool in_block = false;
    bool in_block2 = false;
    out_.code.reserve(out_.raw.size());
    out_.code_strings.reserve(out_.raw.size());
    for (const auto& l : out_.raw) {
      out_.code.push_back(code_only(l, in_block));
      out_.code_strings.push_back(code_keeping_strings(l, in_block2));
    }
    index_env_sites(out_);
    walk_scopes();
    for (const std::size_t id : local_functions_) scan_body(functions_[id]);
  }

 private:
  struct Declarator {
    enum Kind { kNamespace, kRecord, kEnum } kind;
    std::string name;
    std::size_t pos;
  };
  struct Scope {
    enum Kind { kNamespace, kRecord, kBlock, kFunction } kind;
    std::string name;
    int depth;
    std::size_t func = SIZE_MAX;  // index into functions_, kFunction only
  };

  // Same declarator detection as mmhar_analyze's scanner.
  static std::vector<Declarator> find_declarators(const std::string& line) {
    std::vector<Declarator> found;
    static const std::regex ns_re(R"((^|[^\w])namespace(\s+([\w:]+))?\s*\{)");
    static const std::regex enum_re(
        R"((^|[^\w])enum\s+(class\s+|struct\s+)?([A-Za-z_]\w*))");
    static const std::regex rec_re(
        R"((^|[^\w])(struct|class)\s+((?:MMHAR_\w+\s*\([^)]*\)\s*)*)([A-Za-z_]\w*))");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), ns_re);
         it != std::sregex_iterator(); ++it) {
      found.push_back({Declarator::kNamespace, (*it)[3].str(),
                       static_cast<std::size_t>(it->position(0))});
    }
    static const std::regex ns_open_re(
        R"((^|[^\w])namespace(\s+([\w:]+))?\s*$)");
    std::smatch nm;
    if (std::regex_search(line, nm, ns_open_re)) {
      found.push_back({Declarator::kNamespace, nm[3].str(),
                       static_cast<std::size_t>(nm.position(0))});
    }
    std::set<std::size_t> enum_pos;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), enum_re);
         it != std::sregex_iterator(); ++it) {
      enum_pos.insert(static_cast<std::size_t>(it->position(0)));
      found.push_back({Declarator::kEnum, (*it)[3].str(),
                       static_cast<std::size_t>(it->position(0))});
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), rec_re);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position(0));
      bool inside_enum = false;
      for (const auto ep : enum_pos)
        if (ep <= pos && pos < ep + 12) inside_enum = true;
      if (!inside_enum)
        found.push_back({Declarator::kRecord, (*it)[4].str(), pos});
    }
    std::sort(found.begin(), found.end(),
              [](const Declarator& a, const Declarator& b) {
                return a.pos < b.pos;
              });
    return found;
  }

  // Namespace AND record components — member functions qualify through
  // their record (mmhar::serving::StreamingHarService::poll), unlike
  // mmhar_analyze's namespace-only symbol index.
  static std::string qualify(const std::vector<Scope>& stack,
                             const std::string& name) {
    std::string qual;
    for (const auto& s : stack) {
      if (s.kind == Scope::kNamespace) {
        if (!s.name.empty())
          qual += s.name + "::";
        else if (s.depth > 0)
          qual += "(anonymous)::";
      } else if (s.kind == Scope::kRecord) {
        qual += s.name + "::";
      }
    }
    return qual + name;
  }

  void walk_scopes() {
    std::vector<Scope> stack;
    stack.push_back({Scope::kNamespace, "", 0, SIZE_MAX});
    int depth = 0;
    bool have_pending = false;
    Declarator pending{};
    std::string stmt;
    std::size_t stmt_line = 0;
    bool continuation = false;

    std::string t;  // hoisted per-line scratch
    for (std::size_t i = 0; i < out_.code.size(); ++i) {
      const std::string& line = out_.code[i];
      t = trim(line);
      const bool skip = continuation || (!t.empty() && t[0] == '#');
      continuation = !out_.raw[i].empty() && out_.raw[i].back() == '\\';
      if (skip) continue;

      auto decls = find_declarators(line);
      std::size_t decl_idx = 0;
      for (std::size_t c = 0; c < line.size(); ++c) {
        while (decl_idx < decls.size() && decls[decl_idx].pos <= c) {
          pending = decls[decl_idx];
          have_pending = true;
          ++decl_idx;
        }
        const char ch = line[c];
        const Scope& top = stack.back();
        const bool at_scope_stmt_level =
            (top.kind == Scope::kNamespace || top.kind == Scope::kRecord) &&
            depth == top.depth;

        if (ch == '{') {
          if (have_pending && pending.kind == Declarator::kNamespace) {
            ++depth;
            stack.push_back({Scope::kNamespace, pending.name, depth, SIZE_MAX});
            have_pending = false;
            stmt.clear();
          } else if (have_pending && pending.kind == Declarator::kRecord) {
            ++depth;
            stack.push_back({Scope::kRecord, pending.name, depth, SIZE_MAX});
            have_pending = false;
            stmt.clear();
          } else if (have_pending && pending.kind == Declarator::kEnum) {
            ++depth;
            stack.push_back({Scope::kBlock, pending.name, depth, SIZE_MAX});
            have_pending = false;
            stmt.clear();
          } else if (at_scope_stmt_level) {
            const HeadInfo head = parse_head(stmt, tokens_);
            ++depth;
            if (head.is_function) {
              FnRecord fn;
              fn.qual = qualify(stack, head.name);
              fn.file = out_.path;
              fn.file_id = file_id_;
              fn.line = stmt_line == 0 ? i + 1 : stmt_line;
              fn.body_begin = i + 1;
              fn.flags = head.flags;
              fn.noreturn = head.noreturn;
              functions_.push_back(std::move(fn));
              local_functions_.push_back(functions_.size() - 1);
              stack.push_back(
                  {Scope::kFunction, head.name, depth, functions_.size() - 1});
              stmt.clear();
            } else {
              stack.push_back({Scope::kBlock, "", depth, SIZE_MAX});
            }
          } else {
            ++depth;
            stack.push_back({Scope::kBlock, "", depth, SIZE_MAX});
          }
          continue;
        }
        if (ch == '}') {
          if (stack.size() > 1 && stack.back().depth == depth) {
            if (stack.back().kind == Scope::kFunction)
              functions_[stack.back().func].body_end = i + 1;
            stack.pop_back();
          }
          if (depth > 0) --depth;
          continue;
        }
        if (ch == ';' && at_scope_stmt_level) {
          have_pending = false;
          record_declaration(stmt, stack);
          stmt.clear();
          continue;
        }
        if (at_scope_stmt_level) {
          if (stmt.empty() || trim(stmt).empty()) {
            if (!std::isspace(static_cast<unsigned char>(ch)))
              stmt_line = i + 1;
          }
          stmt.push_back(ch);
        }
      }
      if (!stmt.empty()) stmt.push_back(' ');
    }
    while (stack.size() > 1) {
      if (stack.back().kind == Scope::kFunction &&
          functions_[stack.back().func].body_end == 0)
        functions_[stack.back().func].body_end = out_.code.size();
      stack.pop_back();
    }
  }

  // A ';'-terminated statement at namespace/record scope carrying an
  // annotation or [[noreturn]] is a declaration whose flags must transfer
  // to the definition (annotations live on decls in headers; the
  // [[noreturn]] on finite_check_failed exists only on its decl).
  void record_declaration(const std::string& stmt,
                          const std::vector<Scope>& stack) {
    if (stmt.find('(') == std::string::npos) return;
    const HeadInfo head = parse_head(stmt, tokens_);
    if (!head.is_function) return;
    if (head.flags == 0 && !head.noreturn) return;
    DeclFlags& flags = decl_flags_[qualify(stack, head.name)];
    flags.flags |= head.flags;
    flags.noreturn = flags.noreturn || head.noreturn;
  }

  // ---- Body scan: call sites ------------------------------------------------

  void scan_body(FnRecord& fn) {
    if (fn.body_begin == 0 || fn.body_end < fn.body_begin) return;
    std::string line_trim;  // hoisted per-line scratch
    for (std::size_t ln = fn.body_begin; ln <= fn.body_end; ++ln) {
      const std::size_t idx = ln - 1;
      if (idx >= out_.code.size()) break;
      line_trim = trim(out_.code[idx]);
      if (!line_trim.empty() && line_trim[0] == '#') continue;
      if (idx > 0 && !out_.raw[idx - 1].empty() &&
          out_.raw[idx - 1].back() == '\\')
        continue;  // macro continuation
      scan_calls(fn, blank_template_args(out_.code[idx]), ln);
    }
  }

  void scan_calls(FnRecord& fn, const std::string& line, std::size_t ln) {
    // `name<args>(` is a call too: blank_template_args has already
    // emptied the argument list, so skip the bare `< >` before the paren.
    static const std::regex call_re(
        R"(((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*(?:<\s*>\s*)?\()");
    std::string name;  // hoisted per-match scratch
    std::string last;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), call_re);
         it != std::sregex_iterator(); ++it) {
      name = (*it)[1].str();
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](unsigned char c) {
                                  return std::isspace(c) != 0;
                                }),
                 name.end());
      const std::size_t last_sep = name.rfind("::");
      last = last_sep == std::string::npos ? name : name.substr(last_sep + 2);
      if (last.empty() || is_call_keyword(last)) continue;
      if (name.rfind("MMHAR_", 0) == 0) continue;  // annotation/check macro

      const auto pos = static_cast<std::size_t>(it->position(1));
      // Preceding context decides member call vs declaration vs call.
      std::size_t p = pos;
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(line[p - 1])))
        --p;
      const char prev = p > 0 ? line[p - 1] : '\0';
      const char prev2 = p > 1 ? line[p - 2] : '\0';
      const bool member = prev == '.' || (prev == '>' && prev2 == '-');
      if (!member) {
        if (prev == '>' || prev == '*' || prev == '&') continue;  // decl
        if (std::isalnum(static_cast<unsigned char>(prev)) || prev == '_') {
          // Preceding token is an identifier: `Type name(args)` is a
          // declaration unless the token is a statement keyword.
          std::size_t q = p;
          while (q > 0 &&
                 (std::isalnum(static_cast<unsigned char>(line[q - 1])) ||
                  line[q - 1] == '_'))
            --q;
          if (!is_call_keyword(line.substr(q, p - q))) continue;
        }
      } else {
        if (member_skip_list().count(last) > 0) {
          // Growth members fall through; vocabulary members are opaque.
          if (growth_members().count(last) == 0) continue;
        }
        if (growth_members().count(last) > 0) {
          // Resolution decides downstream: repo function -> call edge,
          // otherwise raw container growth under the tool's rules.
          fn.calls.push_back({last, ln, true, true});
          continue;
        }
      }
      fn.calls.push_back({member ? last : name, ln, member, false});
    }
  }

  SourceFile& out_;
  int file_id_;
  const AnnotationTokens& tokens_;
  std::vector<FnRecord>& functions_;
  std::map<std::string, DeclFlags>& decl_flags_;
  std::vector<std::size_t> local_functions_;
};

// ---- Pass 2: resolution and reachability -----------------------------------

class CallGraph {
 public:
  CallGraph(std::vector<SourceFile> files, std::vector<FnRecord> functions,
            std::map<std::string, DeclFlags> decl_flags)
      : files_(std::move(files)), functions_(std::move(functions)) {
    // Union decl-carried flags into definitions, by qualified name.
    for (auto& fn : functions_) {
      const auto it = decl_flags.find(fn.qual);
      if (it == decl_flags.end()) continue;
      fn.flags |= it->second.flags;
      fn.noreturn = fn.noreturn || it->second.noreturn;
    }
    std::string last;  // hoisted per-function scratch
    for (std::size_t i = 0; i < functions_.size(); ++i) {
      last = last_component(functions_[i].qual);
      by_last_[last].push_back(i);
    }
  }

  const std::vector<SourceFile>& files() const { return files_; }
  const std::vector<FnRecord>& functions() const { return functions_; }

  const SourceFile& file_of(const FnRecord& fn) const {
    return files_[static_cast<std::size_t>(fn.file_id)];
  }

  static std::string last_component(const std::string& qual) {
    const std::size_t sep = qual.rfind("::");
    return sep == std::string::npos ? qual : qual.substr(sep + 2);
  }

  // `qual` ends with `suffix` on a :: component boundary. Anonymous-
  // namespace components are transparent so a roots-file entry like
  // `dsp::plan_for` can name the file-local mmhar::dsp::(anonymous)::
  // plan_for without hard-coding the linkage detail.
  static bool suffix_matches(const std::string& qual,
                             const std::string& suffix) {
    const auto ends_on_boundary = [](const std::string& q,
                                     const std::string& s) {
      if (q == s) return true;
      if (q.size() <= s.size()) return false;
      if (q.compare(q.size() - s.size(), s.size(), s) != 0) return false;
      return q.compare(q.size() - s.size() - 2, 2, "::") == 0;
    };
    if (ends_on_boundary(qual, suffix)) return true;
    std::string stripped = qual;
    for (std::size_t at = stripped.find("(anonymous)::");
         at != std::string::npos; at = stripped.find("(anonymous)::"))
      stripped.erase(at, 13);
    return ends_on_boundary(stripped, suffix);
  }

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
               std::vector<std::size_t>& out) const {
    out.clear();
    const auto it = by_last_.find(last_component(call.name));
    if (it == by_last_.end()) return;
    bool any_same_file = false;
    for (const std::size_t id : it->second) {
      const FnRecord& f = functions_[id];
      if (call.member) {
        if (f.file_id == caller_file) out.push_back(id);
        continue;
      }
      if (call.name != last_component(call.name) &&
          !suffix_matches(f.qual, call.name))
        continue;
      out.push_back(id);
      any_same_file = any_same_file || f.file_id == caller_file;
    }
    if (!call.member && any_same_file) {
      out.erase(std::remove_if(out.begin(), out.end(),
                               [&](std::size_t id) {
                                 return functions_[id].file_id != caller_file;
                               }),
                out.end());
    }
  }

 private:
  std::vector<SourceFile> files_;
  std::vector<FnRecord> functions_;
  std::map<std::string, std::vector<std::size_t>> by_last_;
};

// Breadth-first reachability from a root set, recording for each reached
// function the parent edge it was first discovered through so the exact
// call chain from the nearest root can be printed with a violation.
class Reachability {
 public:
  struct Via {
    std::size_t parent;
    bool is_root;
  };

  // `cut(fn, line)` returning true stops call-graph traversal out of that
  // line (the tools map their `allow(calls)` suppression onto it).
  // [[noreturn] ] targets are never traversed: they only execute when the
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
  std::string chain(const CallGraph& graph, std::size_t id) const {
    const auto& functions = graph.functions();
    std::string chain;
    for (std::size_t cur = id;;) {
      const FnRecord& f = functions[cur];
      chain.insert(0, f.qual + (chain.empty() ? "" : " -> "));
      const Via& step = via_.at(cur);
      if (step.is_root && cur == id) break;
      if (step.is_root || step.parent == cur) break;
      cur = step.parent;
    }
    return chain;
  }

 private:
  std::map<std::size_t, Via> via_;
};

// ---- Shared input loaders ---------------------------------------------------

// One row of a required-roots file: `<kind> <qualified-name-suffix>`.
struct RootSpec {
  std::string kind;
  std::string name;
  std::size_t line;  // in the roots file
};

// Loads a roots file whose rows are `<kind> <suffix>` with `kind` drawn
// from `kinds`. Returns false when the file is unreadable; a readable file
// with a malformed row sets `parse_error` (reported as a usage error).
inline bool load_root_specs(const std::filesystem::path& path,
                            const std::vector<std::string>& kinds,
                            std::vector<RootSpec>& out,
                            std::string& parse_error) {
  std::vector<std::string> raw;
  if (!read_lines(path, raw)) return false;
  std::string kind_alt;
  for (const auto& k : kinds) {
    if (!kind_alt.empty()) kind_alt += "|";
    kind_alt += k;
  }
  const std::regex row_re("^\\s*(" + kind_alt + ")\\s+(\\S+)\\s*$");
  std::string t;  // hoisted per-line scratch
  for (std::size_t i = 0; i < raw.size(); ++i) {
    t = trim(raw[i]);
    if (t.empty() || t[0] == '#') continue;
    std::smatch m;
    if (!std::regex_match(t, m, row_re)) {
      parse_error = "line " + std::to_string(i + 1) + ": expected '<" +
                    kind_alt + "> <qualified-name-suffix>', got: " + t;
      return true;
    }
    out.push_back({m[1].str(), m[2].str(), i + 1});
  }
  return true;
}

// Knob names out of src/common/env_registry.cpp rows: {"MMHAR_FOO", ...}.
inline bool load_env_registry(const std::filesystem::path& path,
                              std::set<std::string>& out) {
  static const std::regex row_re(R"re(\{\s*"(MMHAR_\w+)"\s*,)re");
  std::vector<std::string> raw;
  if (!read_lines(path, raw)) return false;
  bool in_block = false;
  std::string code;  // hoisted per-line scratch
  for (const auto& line : raw) {
    code = code_keeping_strings(line, in_block);
    std::smatch m;
    if (std::regex_search(code, m, row_re)) out.insert(m[1].str());
  }
  return true;
}

}  // namespace mmhar_tools
