// The per-file scan and the call graph; see callgraph.h.
#include "callgraph.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <regex>
#include <utility>

#include "analysis_text.h"

namespace mmhar_tools {

namespace {

// Member-call names that never resolve to repo functions: std containers /
// atomics / chrono vocabulary. Lock/wait names are here too — those are
// caught as primitives by the rt rules, and keeping them out of the graph
// keeps capability wrappers' internals (Mutex::lock calling inner_.lock)
// from appearing as reachable nodes.
const std::set<std::string>& member_skip_list() {
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
// a repo function it is a transitive call edge, otherwise the rt rules
// treat it as raw container growth.
const std::set<std::string>& growth_members() {
  static const std::set<std::string> grow = {
      "push_back", "emplace_back", "push_front",       "emplace_front",
      "resize",    "reserve",      "insert",           "emplace",
      "try_emplace", "append",     "assign",           "insert_or_assign"};
  return grow;
}

bool is_call_keyword(const std::string& name) {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",   "switch",        "return",
      "sizeof", "alignof",  "alignas", "decltype",      "noexcept",
      "catch",  "throw",    "new",     "delete",        "static_assert",
      "assert", "defined",  "case",    "else",          "do",
      "goto",   "co_await", "co_return", "co_yield",    "requires"};
  return kw.count(name) > 0;
}

// The annotation macros, in flag-bit order. Word boundaries keep prefixed
// tokens disjoint: MMHAR_REALTIME does not match inside
// MMHAR_REALTIME_HANDOFF because the \b after the E sees '_', a word
// character.
unsigned annotation_flags(const std::string& stmt) {
  static const std::regex res[] = {std::regex(R"(\bMMHAR_REALTIME\b)"),
                                   std::regex(R"(\bMMHAR_REALTIME_HANDOFF\b)"),
                                   std::regex(R"(\bMMHAR_DETERMINISTIC\b)")};
  unsigned flags = 0;
  if (stmt.find("MMHAR_") == std::string::npos) return flags;
  for (std::size_t i = 0; i < 3; ++i)
    if (std::regex_search(stmt, res[i])) flags |= 1U << i;
  return flags;
}

// ---- Function-head dissection ----------------------------------------------

struct HeadInfo {
  bool is_function = false;
  std::string name;  // possibly Record::name-qualified as written
  unsigned flags = 0;
  bool noreturn = false;
};

// Dissect an accumulated namespace/record-scope statement that ended in
// '{' (definition) or ';' (declaration): find the declarator name before
// the first top-level '(' and the annotation tokens anywhere in the head.
HeadInfo parse_head(const std::string& stmt) {
  HeadInfo info;
  static const std::regex noret_re(R"(\bnoreturn\b)");
  info.flags = annotation_flags(stmt);
  info.noreturn = stmt.find("noreturn") != std::string::npos &&
                  std::regex_search(stmt, noret_re);

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

// ---- Member-statement dissection -------------------------------------------

// Remove every MMHAR_<NAME>(balanced-args) occurrence; report whether one of
// them was a GUARDED_BY flavour.
std::string strip_annotation_macros(const std::string& stmt, bool* guarded) {
  std::string out;
  out.reserve(stmt.size());
  std::string macro;  // hoisted per-match scratch
  for (std::size_t i = 0; i < stmt.size();) {
    if (stmt.compare(i, 6, "MMHAR_") == 0 &&
        (i == 0 || !(std::isalnum(static_cast<unsigned char>(stmt[i - 1])) ||
                     stmt[i - 1] == '_'))) {
      std::size_t j = i + 6;
      while (j < stmt.size() &&
             (std::isalnum(static_cast<unsigned char>(stmt[j])) ||
              stmt[j] == '_'))
        ++j;
      macro.assign(stmt, i, j - i);
      std::size_t k = j;
      while (k < stmt.size() &&
             std::isspace(static_cast<unsigned char>(stmt[k])))
        ++k;
      if (k < stmt.size() && stmt[k] == '(') {
        int depth = 0;
        do {
          if (stmt[k] == '(') ++depth;
          if (stmt[k] == ')') --depth;
          ++k;
        } while (k < stmt.size() && depth > 0);
        if (guarded != nullptr && (macro == "MMHAR_GUARDED_BY" ||
                                   macro == "MMHAR_PT_GUARDED_BY"))
          *guarded = true;
        i = k;
        continue;
      }
    }
    out.push_back(stmt[i]);
    ++i;
  }
  return out;
}

// Classification of a record-scope statement for lock-annotation-coverage.
enum class MemberKind { kNotAMember, kSyncPrimitive, kExemptStorage, kData };

MemberKind classify_member(const std::string& raw_stmt, bool* is_mutex,
                           bool* guarded) {
  *is_mutex = false;
  *guarded = false;
  std::string stmt = trim(strip_annotation_macros(raw_stmt, guarded));
  // Drop access-specifier labels that got folded into the statement.
  static const std::regex access_re(R"(\b(public|private|protected)\s*:)");
  stmt = std::regex_replace(stmt, access_re, "");
  stmt = trim(blank_template_args(stmt));
  if (stmt.empty()) return MemberKind::kNotAMember;

  static const std::regex skip_head_re(
      R"(^(using|typedef|friend|template|explicit|virtual|operator|~)\b)");
  if (std::regex_search(stmt, skip_head_re)) return MemberKind::kNotAMember;
  // `T& operator=(...) = delete;` and friends: the '=' in the operator name
  // would otherwise be mistaken for an initializer.
  if (stmt.find("operator") != std::string::npos)
    return MemberKind::kNotAMember;
  static const std::regex fwd_re(R"(^(struct|class|enum|union)\s+\w+$)");
  if (std::regex_match(stmt, fwd_re)) return MemberKind::kNotAMember;

  static const std::regex storage_re(R"(\b(static|constexpr)\b)");
  static const std::regex const_re(R"(^(mutable\s+)?const\b)");
  const bool exempt_storage = std::regex_search(stmt, storage_re) ||
                              std::regex_search(stmt, const_re);

  // Cut the initializer: everything from the first '=' onward. (Brace
  // initializers were already skipped by the scope walk.)
  const std::size_t eq = stmt.find('=');
  std::string decl = trim(eq == std::string::npos ? stmt : stmt.substr(0, eq));
  if (decl.empty()) return MemberKind::kNotAMember;
  // Anything still holding a paren is a function/constructor declaration.
  if (decl.find('(') != std::string::npos) return MemberKind::kNotAMember;

  static const std::regex name_re(R"(([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*$)");
  if (!std::regex_search(decl, name_re)) return MemberKind::kNotAMember;

  static const std::regex mutex_re(
      R"(\b(std::\s*)?(mutex|shared_mutex|recursive_mutex|timed_mutex)\b|\bMutex\b|\bSharedMutex\b)");
  if (std::regex_search(decl, mutex_re)) {
    *is_mutex = true;
    return MemberKind::kSyncPrimitive;
  }
  static const std::regex sync_re(
      R"(\b(CondVar|MutexLock|ReaderLock|WriterLock)\b|\b(std::\s*)?(condition_variable|condition_variable_any|atomic|once_flag|counting_semaphore|binary_semaphore|barrier|latch)\b)");
  if (std::regex_search(decl, sync_re)) return MemberKind::kSyncPrimitive;
  if (exempt_storage) return MemberKind::kExemptStorage;
  return MemberKind::kData;
}

// ---- The scan ----------------------------------------------------------------

// Parses one source file. Function bodies cover their lambdas — a lambda
// assigned to a named variable, or passed to ThreadPool::parallel_for, is
// attributed to the enclosing function, so a finding inside it is charged
// where it executes.
class Scanner {
 public:
  explicit Scanner(FileScan& out) : out_(out) {}

  void scan() {
    bool in_block = false;
    bool in_block2 = false;
    out_.code.reserve(out_.raw.size());
    out_.code_strings.reserve(out_.raw.size());
    for (const auto& l : out_.raw) {
      out_.code.push_back(code_only(l, in_block));
      out_.code_strings.push_back(code_keeping_strings(l, in_block2));
    }
    index_lines();
    walk_scopes();
    for (auto& fn : out_.functions) scan_body(fn);
  }

 private:
  struct Declarator {
    enum Kind { kNamespace, kRecord, kEnum } kind;
    std::string name;
    std::size_t pos;  // column on its line
  };
  struct Scope {
    enum Kind { kNamespace, kRecord, kBlock, kFunction } kind;
    std::string name;
    int depth;
    std::size_t index = SIZE_MAX;  // into functions / records by kind
  };

  // Line-granular indexes: env-knob reads, MMHAR_* macro use, include
  // edges, and unordered-container declarations.
  void index_lines() {
    static const std::regex lit_re(
        R"((^|[^\w])(env_[a-z_]+|getenv)\s*\(\s*"([A-Za-z0-9_]+)\")");
    static const std::regex dyn_re(
        R"((^|[^\w])(env_int|env_double|env_string|getenv)\s*\(\s*[^"\s])");
    static const std::regex use_re(R"(\bMMHAR_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED|RELEASE|TRY_ACQUIRE|EXCLUDES|CAPABILITY|SCOPED_CAPABILITY|ASSERT_CAPABILITY|RETURN_CAPABILITY|NO_THREAD_SAFETY_ANALYSIS|REALTIME|REALTIME_HANDOFF|DETERMINISTIC)\b)");
    static const std::regex unordered_re(
        R"(\bunordered_(map|set|multimap|multiset)\s*<[^<>]*>\s*[&*]?\s*([A-Za-z_]\w*))");
    static const std::regex include_re(R"(^\s*#\s*include\s+"([^"]+)\")");
    std::string tail;  // hoisted per-line scratch
    std::smatch m;
    for (std::size_t i = 0; i < out_.code.size(); ++i) {
      const std::string& code = out_.code[i];
      const std::string& strings = out_.code_strings[i];
      // Substring tests gate each regex: they are necessary conditions of
      // a match, and std::regex is the scan's dominant cost.
      if (strings.find("env") != std::string::npos) {
        tail = strings;
        while (std::regex_search(tail, m, lit_re)) {
          out_.env_sites.push_back({m[3].str(), i + 1});
          tail = m.suffix().str();
        }
        if (std::regex_search(strings, dyn_re))
          out_.env_sites.push_back({"", i + 1});
      }
      if (out_.first_annotation_line == 0 &&
          code.find("MMHAR_") != std::string::npos &&
          std::regex_search(code, use_re))
        out_.first_annotation_line = i + 1;
      if (out_.raw[i].find("#include \"common/thread_annotations.h\"") !=
          std::string::npos)
        out_.includes_thread_annotations = true;
      if (code.find("unordered_") != std::string::npos) {
        tail = blank_template_args(code);
        if (std::regex_search(tail, m, unordered_re))
          out_.unordered_names.insert(m[2].str());
      }
      // Include paths live inside string literals, so read the
      // strings-preserved view.
      if (strings.find("include") != std::string::npos &&
          std::regex_search(strings, m, include_re))
        out_.includes.push_back({m[1].str(), i + 1});
    }
  }

  // Declarator tokens (namespace/struct/class/enum heads) on one line, in
  // column order, so `namespace a { namespace b {` pairs each brace with
  // the right head.
  static std::vector<Declarator> find_declarators(const std::string& line) {
    std::vector<Declarator> found;
    static const std::regex ns_re(R"((^|[^\w])namespace(\s+([\w:]+))?\s*\{)");
    static const std::regex enum_re(
        R"((^|[^\w])enum\s+(class\s+|struct\s+)?([A-Za-z_]\w*))");
    static const std::regex rec_re(
        R"((^|[^\w])(struct|class)\s+((?:MMHAR_\w+\s*\([^)]*\)\s*)*)([A-Za-z_]\w*))");
    const auto has = [&](const char* word) {
      return line.find(word) != std::string::npos;
    };
    if (!has("namespace") && !has("enum") && !has("struct") && !has("class"))
      return found;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), ns_re);
         it != std::sregex_iterator(); ++it) {
      found.push_back({Declarator::kNamespace, (*it)[3].str(),
                       static_cast<std::size_t>(it->position(0))});
    }
    // `namespace x {` matched above requires the brace on the same line;
    // also catch a bare `namespace x` whose brace is on the next line.
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
      // `enum class X` already claimed by the enum scan.
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

  // Function records qualify through namespaces AND records
  // (mmhar::serving::StreamingHarService::poll); header symbols through
  // namespaces only.
  static std::string qualify(const std::vector<Scope>& stack,
                             const std::string& name, bool through_records) {
    std::string qual;
    for (const auto& s : stack) {
      if (s.kind == Scope::kNamespace) {
        if (!s.name.empty())
          qual += s.name + "::";
        else if (s.depth > 0)
          qual += "(anonymous)::";
      } else if (s.kind == Scope::kRecord && through_records) {
        qual += s.name + "::";
      }
    }
    return qual + name;
  }

  static bool namespace_only(const std::vector<Scope>& stack) {
    for (const auto& s : stack)
      if (s.kind != Scope::kNamespace) return false;
    return true;
  }

  void walk_scopes() {
    std::vector<Scope> stack;
    stack.push_back({Scope::kNamespace, "", 0});
    int depth = 0;
    bool have_pending = false;
    Declarator pending{};
    std::size_t pending_line = 0;
    std::string stmt;           // statement accumulator for the top scope
    std::size_t stmt_line = 0;  // 1-based line where the statement started
    bool continuation = false;  // previous line ended with '\'

    std::string t;  // hoisted per-line scratch
    for (std::size_t i = 0; i < out_.code.size(); ++i) {
      const std::string& line = out_.code[i];
      t = trim(line);
      const bool skip = continuation || (!t.empty() && t[0] == '#');
      continuation = !out_.raw[i].empty() && out_.raw[i].back() == '\\';
      if (skip) continue;

      const auto decls = find_declarators(line);
      std::size_t decl_idx = 0;
      for (std::size_t c = 0; c < line.size(); ++c) {
        while (decl_idx < decls.size() && decls[decl_idx].pos <= c) {
          pending = decls[decl_idx];
          have_pending = true;
          pending_line = i + 1;
          ++decl_idx;
        }
        const char ch = line[c];
        const Scope& top = stack.back();
        const bool at_scope_stmt_level =
            (top.kind == Scope::kNamespace || top.kind == Scope::kRecord) &&
            depth == top.depth;

        if (ch == '{') {
          ++depth;
          if (have_pending) {
            // A header symbol is namespace-scope when every scope beneath
            // its own is a namespace.
            const bool ns_scope = out_.is_header && namespace_only(stack);
            if (pending.kind == Declarator::kNamespace) {
              stack.push_back({Scope::kNamespace, pending.name, depth});
            } else if (pending.kind == Declarator::kRecord) {
              if (ns_scope) emit_symbol(stack, pending.name, "record", pending_line);
              out_.records.push_back({pending.name, pending_line, false, {}});
              stack.push_back({Scope::kRecord, pending.name, depth,
                               out_.records.size() - 1});
            } else {
              if (ns_scope) emit_symbol(stack, pending.name, "enum", pending_line);
              stack.push_back({Scope::kBlock, pending.name, depth});
            }
            have_pending = false;
            stmt.clear();
          } else if (at_scope_stmt_level) {
            if (top.kind == Scope::kNamespace && out_.is_header)
              emit_namespace_def(stack, stmt, stmt_line);
            const HeadInfo head = parse_head(stmt);
            if (head.is_function) {
              FnRecord fn;
              fn.qual = qualify(stack, head.name, true);
              fn.file = out_.path;
              fn.line = stmt_line == 0 ? i + 1 : stmt_line;
              fn.body_begin = i + 1;
              fn.flags = head.flags;
              fn.noreturn = head.noreturn;
              out_.functions.push_back(std::move(fn));
              stack.push_back({Scope::kFunction, head.name, depth,
                               out_.functions.size() - 1});
              stmt.clear();
            } else {
              stack.push_back({Scope::kBlock, "", depth});
            }
          } else {
            stack.push_back({Scope::kBlock, "", depth});
          }
          continue;
        }
        if (ch == '}') {
          if (stack.size() > 1 && stack.back().depth == depth) {
            if (stack.back().kind == Scope::kFunction)
              out_.functions[stack.back().index].body_end = i + 1;
            stack.pop_back();
            // A member statement may continue after a nested block
            // (`struct S { ... } s;`, brace initializers); keep the
            // accumulator, it is cleared at ';'.
          }
          if (depth > 0) --depth;
          continue;
        }
        if (ch == ';' && at_scope_stmt_level) {
          have_pending = false;  // forward declaration / alias / using
          if (top.kind == Scope::kRecord)
            record_member(out_.records[top.index], stmt, stmt_line);
          else if (out_.is_header)
            emit_namespace_var(stack, stmt, stmt_line);
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
      if (!stmt.empty()) stmt.push_back(' ');  // line break inside statement
    }
    for (auto& fn : out_.functions)
      if (fn.body_end == 0) fn.body_end = out_.code.size();
  }

  // A ';'-terminated statement at namespace/record scope carrying an
  // annotation or [[noreturn]] is a declaration whose flags must transfer
  // to the definition (annotations live on decls in headers; the
  // [[noreturn]] on finite_check_failed exists only on its decl).
  void record_declaration(const std::string& stmt,
                          const std::vector<Scope>& stack) {
    if (stmt.find('(') == std::string::npos) return;
    const HeadInfo head = parse_head(stmt);
    if (!head.is_function) return;
    if (head.flags == 0 && !head.noreturn) return;
    DeclFlags& flags = out_.decl_flags[qualify(stack, head.name, true)];
    flags.flags |= head.flags;
    flags.noreturn = flags.noreturn || head.noreturn;
  }

  void emit_symbol(const std::vector<Scope>& stack, const std::string& name,
                   const char* kind, std::size_t line) {
    out_.symbols.push_back({qualify(stack, name, false), kind, line});
  }

  // A '{' opened a plain block directly at namespace scope in a header:
  // the accumulated statement is a function definition (name before the
  // first top-level paren) or a brace-initialised variable.
  void emit_namespace_def(const std::vector<Scope>& stack,
                          const std::string& stmt, std::size_t line) {
    const std::string cleaned =
        blank_template_args(strip_annotation_macros(trim(stmt), nullptr));
    if (cleaned.empty()) return;
    if (cleaned.find('=') != std::string::npos) {
      emit_namespace_var(stack, stmt, line);
      return;
    }
    const std::size_t name_end = cleaned.find('(');
    if (name_end == std::string::npos) return;
    const std::string head = trim(cleaned.substr(0, name_end));
    static const std::regex name_re(R"(([A-Za-z_]\w*)$)");
    std::smatch m;
    if (!std::regex_search(head, m, name_re)) return;
    if (head.find("operator") != std::string::npos) return;
    emit_symbol(stack, m[1].str(), "function", line);
  }

  // `inline constexpr T name = ...;` (or `{...};`) at namespace scope in a
  // header defines a variable with external visibility — index it.
  void emit_namespace_var(const std::vector<Scope>& stack,
                          const std::string& stmt, std::size_t line) {
    const std::string cleaned =
        blank_template_args(strip_annotation_macros(trim(stmt), nullptr));
    static const std::regex storage_re(R"(\b(inline|constexpr)\b)");
    if (!std::regex_search(cleaned, storage_re)) return;
    const std::size_t eq = cleaned.find('=');
    const std::string decl =
        trim(eq == std::string::npos ? cleaned : cleaned.substr(0, eq));
    if (decl.find('(') != std::string::npos) return;  // function decl
    static const std::regex name_re(R"(([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*$)");
    std::smatch m;
    if (!std::regex_search(decl, m, name_re)) return;
    emit_symbol(stack, m[1].str(), "variable", line);
  }

  static void record_member(Record& record, const std::string& stmt,
                            std::size_t line) {
    const std::string t = trim(stmt);
    if (t.empty()) return;
    bool is_mutex = false;
    bool guarded = false;
    const MemberKind kind = classify_member(t, &is_mutex, &guarded);
    if (is_mutex) record.has_mutex = true;
    if (kind == MemberKind::kData) record.members.push_back({t, line, guarded});
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

  static void scan_calls(FnRecord& fn, const std::string& line,
                         std::size_t ln) {
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
        if (growth_members().count(last) > 0) {
          // Resolution decides downstream: repo function -> call edge,
          // otherwise raw container growth under the rt rules.
          fn.calls.push_back({last, ln, true, true});
          continue;
        }
        if (member_skip_list().count(last) > 0) continue;  // opaque
      }
      fn.calls.push_back({member ? last : name, ln, member, false});
    }
  }

  FileScan& out_;
};

}  // namespace

FileScan scan_file(std::string path, std::vector<std::string> raw) {
  FileScan file;
  const std::size_t dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  file.is_header = ext == ".h" || ext == ".hpp";
  file.path = std::move(path);
  file.raw = std::move(raw);
  Scanner(file).scan();
  return file;
}

// ---- The graph -----------------------------------------------------------------

CallGraph::CallGraph(const std::vector<FileScan>& files) : files_(&files) {
  std::map<std::string, DeclFlags> decl_flags;
  for (std::size_t f = 0; f < files.size(); ++f) {
    for (const auto& [qual, flags] : files[f].decl_flags) {
      DeclFlags& merged = decl_flags[qual];
      merged.flags |= flags.flags;
      merged.noreturn = merged.noreturn || flags.noreturn;
    }
    for (const auto& fn : files[f].functions) {
      functions_.push_back(fn);
      functions_.back().file_id = static_cast<int>(f);
    }
  }
  // Union decl-carried flags into definitions, by qualified name.
  for (auto& fn : functions_) {
    const auto it = decl_flags.find(fn.qual);
    if (it == decl_flags.end()) continue;
    fn.flags |= it->second.flags;
    fn.noreturn = fn.noreturn || it->second.noreturn;
  }
  for (std::size_t i = 0; i < functions_.size(); ++i)
    by_last_[last_component(functions_[i].qual)].push_back(i);
}

std::string CallGraph::last_component(const std::string& qual) {
  const std::size_t sep = qual.rfind("::");
  return sep == std::string::npos ? qual : qual.substr(sep + 2);
}

bool CallGraph::suffix_matches(const std::string& qual,
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

void CallGraph::resolve(const CallSite& call, int caller_file,
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

std::string Reachability::chain(const CallGraph& graph, std::size_t id) const {
  const auto& functions = graph.functions();
  std::string chain;
  for (std::size_t cur = id;;) {
    chain.insert(0, functions[cur].qual + (chain.empty() ? "" : " -> "));
    const Via& step = via_.at(cur);
    if (step.is_root || step.parent == cur) break;
    cur = step.parent;
  }
  return chain;
}

}  // namespace mmhar_tools
