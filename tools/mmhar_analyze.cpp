// mmhar_analyze — cross-translation-unit analyzer for repo invariants that
// mmhar_lint's single-file rules cannot see.
//
// Pass 1 walks every source root and builds a repo-wide index: env-knob
// call sites, record (struct/class) layouts with their members, and
// namespace-scope symbols defined in headers. Pass 2 enforces three rules
// over that index:
//
//   env-knob-registry      every MMHAR_* name read through env_int /
//                          env_double / env_string / getenv must have a
//                          row in
//                          src/common/env_registry.cpp, every registry row
//                          must appear in README.md's env table, every
//                          README table row must be a registry row, and
//                          every registry row must still be read somewhere
//                          (stale rows fail). MMHAR_TEST_* is reserved for
//                          unit tests and exempt.
//   lock-annotation-coverage
//                          in any record that directly holds a mutex
//                          (std::mutex / Mutex / SharedMutex / ...), every
//                          mutable data member must carry
//                          MMHAR_GUARDED_BY / MMHAR_PT_GUARDED_BY.
//                          Synchronisation primitives themselves, atomics,
//                          and const/static/constexpr members are exempt;
//                          common/mutex.h (the capability-wrapper home) is
//                          exempt wholesale.
//   header-hygiene         (a) a file using MMHAR_* thread-safety macros
//                          must #include "common/thread_annotations.h"
//                          directly, not inherit it transitively;
//                          (b) the same namespace-scope symbol (record,
//                          enum, function or inline/constexpr variable)
//                          must not be *defined* in two different headers.
//
// Suppression: `// mmhar-analyze: allow(<rule>)` on the offending line or
// the line above, with a justification. There is deliberately no baseline
// mechanism: the tree must be clean.
//
// Usage:
//   mmhar_analyze [--registry <env_registry.cpp>] [--readme <README.md>]
//                 [--rule <name>]... <root>...
//
// The env-knob-registry rule needs both --registry and --readme; without
// them it is skipped with a note. Run in CI and as a ctest (see
// tools/CMakeLists.txt).

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis_text.h"

namespace fs = std::filesystem;
using mmhar_tools::code_keeping_strings;
using mmhar_tools::code_only;
using mmhar_tools::collect_sources;
using mmhar_tools::display_path;
using mmhar_tools::read_lines;

namespace {

constexpr const char* kMarker = "mmhar-analyze";

struct Violation {
  std::string rule;
  std::string file;
  std::size_t line;  // 1-based
  std::string message;
};

struct EnvSite {
  std::string name;  // e.g. MMHAR_THREADS
  std::string file;
  std::size_t line;
};

struct Member {
  std::string stmt;  // the declaration text, comments/strings stripped
  std::size_t line;
  bool guarded;  // carried MMHAR_GUARDED_BY / MMHAR_PT_GUARDED_BY
};

struct Record {
  std::string name;
  std::string file;
  std::size_t line;
  bool has_mutex = false;
  std::vector<Member> members;
};

struct Symbol {
  std::string qual;  // namespace-qualified name
  std::string kind;  // record | enum | function | variable
  std::string file;
  std::size_t line;
};

struct FileIndex {
  std::string path;  // display path, e.g. src/common/thread_pool.h
  bool is_header = false;
  std::vector<std::string> raw;
  std::vector<std::string> code;          // strings blanked
  std::vector<std::string> code_strings;  // strings kept
  std::vector<EnvSite> env_sites;
  std::vector<Record> records;
  std::vector<Symbol> symbols;              // namespace-scope header defs
  std::size_t first_annotation_line = 0;    // 1-based; 0 = none
  bool includes_thread_annotations = false;
};

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

// blank_template_args / trim live in analysis_text.h (shared with
// mmhar_rtcheck, unit-tested directly in tests/test_analysis_text.cpp).
using mmhar_tools::blank_template_args;
using mmhar_tools::trim;

// Classification of a record-scope statement for lock-annotation-coverage.
enum class MemberKind { kNotAMember, kSyncPrimitive, kExemptStorage, kData };

MemberKind classify_member(const std::string& raw_stmt, std::string* name,
                           bool* is_mutex, bool* guarded) {
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
  const bool exempt_storage =
      std::regex_search(stmt, storage_re) ||
      std::regex_search(stmt, std::regex(R"(^(mutable\s+)?const\b)"));

  // Cut the initializer: everything from the first '=' onward. (Brace
  // initializers were already skipped by the scope walk.)
  const std::size_t eq = stmt.find('=');
  std::string decl = trim(eq == std::string::npos ? stmt : stmt.substr(0, eq));
  if (decl.empty()) return MemberKind::kNotAMember;
  // Anything still holding a paren is a function/constructor declaration.
  if (decl.find('(') != std::string::npos) return MemberKind::kNotAMember;

  static const std::regex name_re(R"(([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*$)");
  std::smatch m;
  if (!std::regex_search(decl, m, name_re)) return MemberKind::kNotAMember;
  *name = m[1].str();

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

// ---- Pass 1: per-file structural scan --------------------------------------

class FileScanner {
 public:
  explicit FileScanner(FileIndex& out) : out_(out) {}

  void scan() {
    bool in_block = false;
    bool in_block2 = false;
    out_.code.reserve(out_.raw.size());
    out_.code_strings.reserve(out_.raw.size());
    for (const auto& l : out_.raw) {
      out_.code.push_back(code_only(l, in_block));
      out_.code_strings.push_back(code_keeping_strings(l, in_block2));
    }
    index_env_sites();
    index_annotation_use();
    walk_scopes();
  }

 private:
  struct Declarator {
    enum Kind { kNamespace, kRecord, kEnum } kind;
    std::string name;
    std::size_t pos;  // column on its line
  };
  struct Scope {
    enum Kind { kNamespace, kRecord, kBlock } kind;
    std::string name;
    int depth;
    Record record;  // only for kRecord
  };

  void index_env_sites() {
    static const std::regex re(
        R"((^|[^\w])(env_[a-z_]+|getenv)\s*\(\s*"([A-Za-z0-9_]+)\")");
    std::string tail;  // hoisted per-line scratch
    for (std::size_t i = 0; i < out_.code_strings.size(); ++i) {
      tail = out_.code_strings[i];
      std::smatch m;
      while (std::regex_search(tail, m, re)) {
        out_.env_sites.push_back({m[3].str(), out_.path, i + 1});
        tail = m.suffix().str();
      }
    }
  }

  void index_annotation_use() {
    static const std::regex use_re(R"(\bMMHAR_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED|RELEASE|TRY_ACQUIRE|EXCLUDES|CAPABILITY|SCOPED_CAPABILITY|ASSERT_CAPABILITY|RETURN_CAPABILITY|NO_THREAD_SAFETY_ANALYSIS|REALTIME|REALTIME_HANDOFF|DETERMINISTIC)\b)");
    for (std::size_t i = 0; i < out_.code.size(); ++i) {
      if (out_.first_annotation_line == 0 &&
          std::regex_search(out_.code[i], use_re))
        out_.first_annotation_line = i + 1;
      if (out_.raw[i].find("#include \"common/thread_annotations.h\"") !=
          std::string::npos)
        out_.includes_thread_annotations = true;
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
    for (auto it = std::sregex_iterator(line.begin(), line.end(), ns_re);
         it != std::sregex_iterator(); ++it) {
      found.push_back({Declarator::kNamespace, (*it)[3].str(),
                       static_cast<std::size_t>(it->position(0))});
    }
    // `namespace x {` matched above requires the brace on the same line;
    // also catch a bare `namespace x` whose brace is on the next line.
    static const std::regex ns_open_re(R"((^|[^\w])namespace(\s+([\w:]+))?\s*$)");
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

  void walk_scopes() {
    std::vector<Scope> stack;
    stack.push_back({Scope::kNamespace, "", 0, {}});
    int depth = 0;
    bool have_pending = false;
    Declarator pending{};
    std::size_t pending_line = 0;
    std::string stmt;            // statement accumulator for the top scope
    std::size_t stmt_line = 0;   // 1-based line where the statement started
    bool continuation = false;   // previous line ended with '\'

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
          pending_line = i + 1;
          ++decl_idx;
        }
        const char ch = line[c];
        const Scope& top = stack.back();
        const bool at_scope_stmt_level =
            (top.kind != Scope::kBlock) && depth == top.depth;

        if (ch == '{') {
          if (have_pending && pending.kind == Declarator::kNamespace) {
            ++depth;
            stack.push_back({Scope::kNamespace, pending.name, depth, {}});
            have_pending = false;
            stmt.clear();
          } else if (have_pending && pending.kind == Declarator::kRecord) {
            ++depth;
            Scope s{Scope::kRecord, pending.name, depth, {}};
            s.record.name = pending.name;
            s.record.file = out_.path;
            s.record.line = pending_line;
            stack.push_back(std::move(s));
            if (out_.is_header && enclosing_is_namespace_only(stack))
              emit_symbol(stack, pending.name, "record", pending_line);
            have_pending = false;
            stmt.clear();
          } else if (have_pending && pending.kind == Declarator::kEnum) {
            ++depth;
            stack.push_back({Scope::kBlock, pending.name, depth, {}});
            if (out_.is_header && enclosing_is_namespace_only(stack))
              emit_symbol(stack, pending.name, "enum", pending_line);
            have_pending = false;
            stmt.clear();
          } else {
            // Plain block: function body, initializer list, control flow.
            if (at_scope_stmt_level && top.kind == Scope::kNamespace &&
                out_.is_header)
              emit_namespace_def(stack, stmt, stmt_line);
            ++depth;
            stack.push_back({Scope::kBlock, "", depth, {}});
          }
          continue;
        }
        if (ch == '}') {
          if (stack.size() > 1 && stack.back().depth == depth) {
            if (stack.back().kind == Scope::kRecord)
              finish_record(std::move(stack.back().record));
            stack.pop_back();
            // A member statement may continue after a nested block
            // (`struct S { ... } s;`, brace initializers); keep the
            // accumulator, it is cleared at ';' or discarded when a new
            // block opens.
          }
          if (depth > 0) --depth;
          continue;
        }
        if (ch == ';' && at_scope_stmt_level) {
          have_pending = false;  // forward declaration / alias / using
          if (top.kind == Scope::kRecord) {
            record_member(stack.back(), stmt, stmt_line);
          } else if (top.kind == Scope::kNamespace && out_.is_header) {
            emit_namespace_var(stack, stmt, stmt_line);
          }
          stmt.clear();
          continue;
        }
        if (at_scope_stmt_level &&
            (top.kind == Scope::kRecord || top.kind == Scope::kNamespace)) {
          if (stmt.empty() || trim(stmt).empty()) {
            if (!std::isspace(static_cast<unsigned char>(ch)))
              stmt_line = i + 1;
          }
          stmt.push_back(ch);
        }
      }
      if (!stmt.empty()) stmt.push_back(' ');  // line break inside statement
    }
    // Unclosed records at EOF (shouldn't happen in well-formed code) are
    // still reported so truncated fixtures behave predictably.
    while (stack.size() > 1) {
      if (stack.back().kind == Scope::kRecord)
        finish_record(std::move(stack.back().record));
      stack.pop_back();
    }
  }

  static bool enclosing_is_namespace_only(const std::vector<Scope>& stack) {
    // The new scope is stack.back(); everything beneath it must be
    // namespaces for the symbol to be namespace-scope.
    for (std::size_t i = 0; i + 1 < stack.size(); ++i)
      if (stack[i].kind != Scope::kNamespace) return false;
    return true;
  }

  static std::string qualify(const std::vector<Scope>& stack,
                             const std::string& name) {
    // Non-namespace scopes are filtered by kind, so walking the whole
    // stack is safe whether the symbol's own scope is pushed yet (records,
    // enums) or not (functions, variables).
    std::string qual;
    for (const auto& s : stack) {
      if (s.kind != Scope::kNamespace) continue;
      if (!s.name.empty())
        qual += s.name + "::";
      else if (s.depth > 0)
        qual += "(anonymous)::";
    }
    return qual + name;
  }

  void emit_symbol(const std::vector<Scope>& stack, const std::string& name,
                   const std::string& kind, std::size_t line) {
    out_.symbols.push_back({qualify(stack, name), kind, out_.path, line});
  }

  // A '{' opened a plain block directly at namespace scope in a header:
  // the accumulated statement is a function definition (name before the
  // first top-level paren) or a brace-initialised variable.
  void emit_namespace_def(const std::vector<Scope>& stack,
                          const std::string& stmt, std::size_t line) {
    bool guarded = false;
    const std::string cleaned =
        blank_template_args(strip_annotation_macros(trim(stmt), &guarded));
    if (cleaned.empty()) return;
    const std::size_t eq = cleaned.find('=');
    if (eq != std::string::npos) {
      emit_namespace_var(stack, stmt, line);
      return;
    }
    int paren = 0;
    std::size_t name_end = std::string::npos;
    for (std::size_t i = 0; i < cleaned.size(); ++i) {
      if (cleaned[i] == '(') {
        if (paren == 0 && name_end == std::string::npos) name_end = i;
        ++paren;
      } else if (cleaned[i] == ')') {
        --paren;
      }
    }
    if (name_end == std::string::npos) return;
    std::string head = trim(cleaned.substr(0, name_end));
    static const std::regex name_re(R"(([A-Za-z_]\w*)$)");
    std::smatch m;
    if (!std::regex_search(head, m, name_re)) return;
    const std::string name = m[1].str();
    if (head.find("operator") != std::string::npos) return;
    emit_symbol(stack, name, "function", line);
  }

  // `inline constexpr T name = ...;` (or `{...};`) at namespace scope in a
  // header defines a variable with external visibility — index it.
  void emit_namespace_var(const std::vector<Scope>& stack,
                          const std::string& stmt, std::size_t line) {
    bool guarded = false;
    const std::string cleaned =
        blank_template_args(strip_annotation_macros(trim(stmt), &guarded));
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

  void record_member(Scope& scope, const std::string& stmt,
                     std::size_t line) {
    const std::string t = trim(stmt);
    if (t.empty()) return;
    std::string name;
    bool is_mutex = false;
    bool guarded = false;
    const MemberKind kind = classify_member(t, &name, &is_mutex, &guarded);
    if (is_mutex) scope.record.has_mutex = true;
    if (kind == MemberKind::kData) scope.record.members.push_back({t, line, guarded});
  }

  void finish_record(Record record) {
    out_.records.push_back(std::move(record));
  }

  FileIndex& out_;
};

// ---- Pass 2: rules ---------------------------------------------------------

struct RegistryRow {
  std::string name;
  std::size_t line;
};

class Analyzer {
 public:
  void add_file(FileIndex index) { files_.push_back(std::move(index)); }

  bool load_registry(const fs::path& path) {
    registry_path_ = path.generic_string();
    if (!read_lines(path, registry_raw_)) return false;
    static const std::regex row_re(R"re(\{\s*"(MMHAR_\w+)"\s*,)re");
    bool in_block = false;
    std::string code;  // hoisted per-line scratch
    for (std::size_t i = 0; i < registry_raw_.size(); ++i) {
      code = code_keeping_strings(registry_raw_[i], in_block);
      std::smatch m;
      if (std::regex_search(code, m, row_re))
        registry_.push_back({m[1].str(), i + 1});
    }
    return true;
  }

  bool load_readme(const fs::path& path) {
    readme_path_ = path.generic_string();
    if (!read_lines(path, readme_raw_)) return false;
    static const std::regex row_re(R"(^\s*\|\s*`(MMHAR_\w+)`)");
    for (std::size_t i = 0; i < readme_raw_.size(); ++i) {
      std::smatch m;
      const std::string& line = readme_raw_[i];
      if (std::regex_search(line, m, row_re))
        readme_rows_.push_back({m[1].str(), i + 1});
    }
    return true;
  }

  std::vector<Violation> run(const std::set<std::string>& rules) {
    if (rules.count("env-knob-registry")) rule_env_knob_registry();
    if (rules.count("lock-annotation-coverage")) rule_lock_coverage();
    if (rules.count("header-hygiene")) rule_header_hygiene();
    return std::move(found_);
  }

  bool has_registry() const { return !registry_path_.empty(); }
  bool has_readme() const { return !readme_path_.empty(); }

 private:
  void add(const std::string& rule, const std::string& file,
           const std::vector<std::string>& raw_lines, std::size_t line,
           std::string message) {
    if (line >= 1 && line <= raw_lines.size() &&
        mmhar_tools::is_suppressed(raw_lines, line - 1, kMarker, rule))
      return;
    found_.push_back({rule, file, line, std::move(message)});
  }

  const std::vector<std::string>& raw_for(const std::string& file) const {
    static const std::vector<std::string> empty;
    for (const auto& f : files_)
      if (f.path == file) return f.raw;
    return empty;
  }

  void rule_env_knob_registry() {
    if (registry_path_.empty() || readme_path_.empty()) return;
    std::set<std::string> registry_names;
    for (const auto& row : registry_) registry_names.insert(row.name);
    std::set<std::string> readme_names;
    for (const auto& row : readme_rows_) readme_names.insert(row.name);
    std::set<std::string> read_names;

    for (const auto& f : files_) {
      for (const auto& site : f.env_sites) {
        if (site.name.rfind("MMHAR_", 0) != 0) continue;
        if (site.name.rfind("MMHAR_TEST_", 0) == 0) continue;
        read_names.insert(site.name);
        if (!registry_names.count(site.name)) {
          add("env-knob-registry", site.file, f.raw, site.line,
              "'" + site.name +
                  "' is read here but has no row in the env registry (" +
                  registry_path_ + "); declare it there and in the README "
                  "env table");
        }
      }
    }
    for (const auto& row : registry_) {
      if (!readme_names.count(row.name))
        add("env-knob-registry", registry_path_, registry_raw_, row.line,
            "registry row '" + row.name + "' is missing from the env table "
            "in " + readme_path_);
      if (!read_names.count(row.name))
        add("env-knob-registry", registry_path_, registry_raw_, row.line,
            "registry row '" + row.name + "' is never read in the scanned "
            "roots — delete the stale row or wire the knob up");
    }
    for (const auto& row : readme_rows_) {
      if (!registry_names.count(row.name))
        add("env-knob-registry", readme_path_, readme_raw_, row.line,
            "README env-table row '" + row.name + "' has no registry row "
            "in " + registry_path_);
    }
  }

  void rule_lock_coverage() {
    for (const auto& f : files_) {
      if (f.path.find("common/mutex.h") != std::string::npos) continue;
      if (f.path.find("common/thread_annotations.h") != std::string::npos)
        continue;
      for (const auto& rec : f.records) {
        if (!rec.has_mutex) continue;
        for (const auto& mem : rec.members) {
          if (mem.guarded) continue;
          add("lock-annotation-coverage", f.path, f.raw, mem.line,
              "record '" + rec.name + "' holds a mutex, so member `" +
                  trim(mem.stmt) +
                  "` needs MMHAR_GUARDED_BY(<mutex>) (or an allow-comment "
                  "explaining why it is not shared state)");
        }
      }
    }
  }

  void rule_header_hygiene() {
    // (a) direct include where annotation macros are used.
    for (const auto& f : files_) {
      if (f.path.find("common/thread_annotations.h") != std::string::npos)
        continue;
      if (f.first_annotation_line != 0 && !f.includes_thread_annotations) {
        add("header-hygiene", f.path, f.raw, f.first_annotation_line,
            "MMHAR_* thread-safety macros used without a direct #include "
            "of common/thread_annotations.h");
      }
    }
    // (b) one definition per namespace-scope symbol across headers.
    std::map<std::string, std::vector<const Symbol*>> defs;
    for (const auto& f : files_) {
      for (const auto& sym : f.symbols)
        defs[sym.kind + " " + sym.qual].push_back(&sym);
    }
    std::set<std::string> distinct;  // hoisted per-symbol scratch
    for (const auto& [key, syms] : defs) {
      distinct.clear();
      for (const auto* s : syms) distinct.insert(s->file);
      if (distinct.size() < 2) continue;
      const Symbol* first = syms.front();
      for (std::size_t i = 1; i < syms.size(); ++i) {
        const Symbol* dup = syms[i];
        if (dup->file == first->file) continue;
        add("header-hygiene", dup->file, raw_for(dup->file), dup->line,
            dup->kind + " '" + dup->qual + "' is also defined in " +
                first->file + ":" + std::to_string(first->line) +
                " — two headers must not define the same symbol");
      }
    }
  }

  std::vector<FileIndex> files_;
  std::vector<RegistryRow> registry_;
  std::vector<RegistryRow> readme_rows_;
  std::vector<std::string> registry_raw_;
  std::vector<std::string> readme_raw_;
  std::string registry_path_;
  std::string readme_path_;
  std::vector<Violation> found_;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  fs::path registry_path;
  fs::path readme_path;
  std::set<std::string> rules;
  std::string arg;  // hoisted per-flag scratch
  for (int i = 1; i < argc; ++i) {
    arg = argv[i];
    if (arg == "--registry" && i + 1 < argc) {
      registry_path = argv[++i];
    } else if (arg == "--readme" && i + 1 < argc) {
      readme_path = argv[++i];
    } else if (arg == "--rule" && i + 1 < argc) {
      rules.insert(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "usage: mmhar_analyze [--registry <env_registry.cpp>] "
                 "[--readme <README.md>] [--rule <name>]... <root>...\n";
    return 2;
  }
  if (rules.empty())
    rules = {"env-knob-registry", "lock-annotation-coverage",
             "header-hygiene"};

  Analyzer analyzer;
  if (!registry_path.empty() && !analyzer.load_registry(registry_path)) {
    std::cerr << "mmhar_analyze: cannot read registry " << registry_path
              << "\n";
    return 2;
  }
  if (!readme_path.empty() && !analyzer.load_readme(readme_path)) {
    std::cerr << "mmhar_analyze: cannot read README " << readme_path << "\n";
    return 2;
  }
  if (rules.count("env-knob-registry") &&
      (!analyzer.has_registry() || !analyzer.has_readme())) {
    std::cout << "mmhar_analyze: note: env-knob-registry skipped "
                 "(--registry/--readme not given)\n";
    rules.erase("env-knob-registry");
  }

  std::size_t file_count = 0;
  for (const auto& root : roots) {
    if (!fs::is_directory(root)) {
      std::cerr << "mmhar_analyze: not a directory: " << root << "\n";
      return 2;
    }
    for (const auto& path : collect_sources(root)) {
      FileIndex index;
      index.path = display_path(root, path);
      const auto ext = path.extension().string();
      index.is_header = ext == ".h" || ext == ".hpp";
      if (!read_lines(path, index.raw)) {
        std::cerr << "mmhar_analyze: cannot read " << path << "\n";
        return 2;
      }
      FileScanner(index).scan();
      analyzer.add_file(std::move(index));
      ++file_count;
    }
  }

  auto violations = analyzer.run(rules);
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  for (const auto& v : violations)
    std::cerr << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  std::cout << "mmhar_analyze: scanned " << file_count << " file(s), "
            << violations.size() << " violation(s)\n";
  // Machine-readable one-liner (same shape as the mmhar_lint and
  // mmhar_rtcheck summaries) so CI log scrapers need no per-tool parsing.
  std::cout << "mmhar_analyze: summary files=" << file_count
            << " violations=" << violations.size()
            << " status=" << (violations.empty() ? "ok" : "fail") << "\n";
  if (!violations.empty()) {
    std::cerr << "mmhar_analyze: FAIL — fix the violations above or add a "
                 "justified `// mmhar-analyze: allow(<rule>)`\n";
    return 1;
  }
  std::cout << "mmhar_analyze: OK\n";
  return 0;
}
