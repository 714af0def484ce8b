// In-process tests for the static checker (tools/check.h). The fixture
// trees under tests/lint_fixtures/ seed findings for every rule; each
// family's (rule, file, line) set is asserted exactly. The real tree is
// loaded once per process and must be clean; the mutation cases edit one
// file's lines in memory, re-scan that file alone and re-run the rule, so
// nothing is copied to disk.
//
// MMHAR_REPO_ROOT is injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis_text.h"
#include "check.h"

namespace {

namespace fs = std::filesystem;
using namespace mmhar_tools;

const fs::path kRoot = MMHAR_REPO_ROOT;
const fs::path kFixtures = kRoot / "tests" / "lint_fixtures";

std::vector<FileScan> scan(const fs::path& dir) {
  std::vector<FileScan> files;
  std::string error;
  EXPECT_TRUE(scan_dir(dir, files, error)) << error;
  return files;
}

// Fixture inputs display under their full path, as given.
TextFile text(const fs::path& file) {
  TextFile t;
  EXPECT_TRUE(read_text(file, file.string(), t)) << file;
  return t;
}

// Every family over `in`; the caller picks one family's findings.
Report check_ok(const Inputs& in) {
  Report report;
  std::string error;
  EXPECT_TRUE(check(in, report, error)) << error;
  return report;
}

std::vector<Finding> family(const std::vector<Finding>& all,
                            const std::string& name) {
  std::vector<Finding> out;
  for (const auto& f : all)
    if (family_of(f.rule) == name) out.push_back(f);
  return out;
}

// "file:line: [rule]" per finding, in report order.
std::vector<std::string> keys(const std::vector<Finding>& found) {
  std::vector<std::string> out;
  for (const auto& f : found)
    out.push_back(f.file + ":" + std::to_string(f.line) + ": [" + f.rule +
                  "]");
  return out;
}

// The findings as the CLI prints them, chains included.
std::string render(const std::vector<Finding>& found) {
  std::ostringstream os;
  print_findings(found, os);
  return os.str();
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Inputs fixture(const std::string& name) {
  Inputs in;
  in.files = scan(kFixtures / name / "src");
  return in;
}

// ---- The real tree, loaded and checked once per process -------------------

const Inputs& real_tree() {
  static const Inputs in = [] {
    Inputs loaded;
    std::string error;
    EXPECT_TRUE(load_inputs(kRoot, loaded, error)) << error;
    return loaded;
  }();
  return in;
}

const Report& real_report() {
  static const Report report = check_ok(real_tree());
  return report;
}

const std::vector<RootSpec>& real_roots() {
  static const std::vector<RootSpec> roots = [] {
    std::vector<RootSpec> parsed;
    std::string error;
    EXPECT_TRUE(parse_roots(real_tree().roots, parsed, error)) << error;
    return parsed;
  }();
  return roots;
}

std::size_t real_file(const std::string& path) {
  const auto& files = real_tree().files;
  for (std::size_t i = 0; i < files.size(); ++i)
    if (files[i].path == path) return i;
  ADD_FAILURE() << path << " is not in the scanned tree";
  return 0;
}

// The real tree with file `idx` re-scanned from `raw`.
std::vector<FileScan> with_file(std::size_t idx, std::vector<std::string> raw) {
  std::vector<FileScan> files = real_tree().files;
  files[idx] = scan_file(files[idx].path, std::move(raw));
  return files;
}

// `raw` with `line` inserted after the first line at or after the one
// holding `head` that opens a block.
std::vector<std::string> insert_into_body(std::vector<std::string> raw,
                                          const std::string& head,
                                          const std::string& line) {
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].find(head) == std::string::npos) continue;
    for (std::size_t j = i; j < raw.size(); ++j) {
      if (!raw[j].empty() && raw[j].back() == '{') {
        raw.insert(raw.begin() + static_cast<std::ptrdiff_t>(j) + 1, line);
        return raw;
      }
    }
  }
  ADD_FAILURE() << head << " not found";
  return raw;
}

// Every live annotation site in src/: not the macro definitions in
// thread_annotations.h and not comment or preprocessor lines.
struct Site {
  std::size_t file;
  std::size_t line;
};

std::vector<Site> annotation_sites(const std::string& token) {
  std::vector<Site> sites;
  const auto& files = real_tree().files;
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (files[f].path.rfind("src/", 0) != 0 ||
        files[f].path.find("thread_annotations.h") != std::string::npos)
      continue;
    const auto& raw = files[f].raw;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const auto first = raw[i].find_first_not_of(" \t");
      if (first != std::string::npos &&
          (raw[i].compare(first, 2, "//") == 0 || raw[i][first] == '#' ||
           raw[i][first] == '*'))
        continue;
      if (raw[i].find(token) != std::string::npos) sites.push_back({f, i});
    }
  }
  return sites;
}

// Strips every token in `tokens` from one site and expects the root
// coverage rule to notice, site by site.
void expect_each_deletion_fails(const std::vector<Site>& sites,
                                const std::vector<std::string>& tokens,
                                const std::string& rule,
                                const std::string& lost) {
  for (const auto& site : sites) {
    const FileScan& original = real_tree().files[site.file];
    std::vector<std::string> raw = original.raw;
    for (const auto& token : tokens)
      for (auto at = raw[site.line].find(token); at != std::string::npos;
           at = raw[site.line].find(token))
        raw[site.line].erase(at, token.size());
    const std::vector<FileScan> files = with_file(site.file, std::move(raw));
    const CallGraph graph(files);
    std::vector<Finding> found;
    check_root_coverage(graph, real_tree().roots, real_roots(), found);
    const std::string text = render(found);
    EXPECT_NE(text.find("[" + rule + "] required root"), std::string::npos)
        << "stripping the annotation from " << original.path << ":"
        << site.line + 1 << " (`" << original.raw[site.line]
        << "`) went unnoticed:\n" << text;
    EXPECT_NE(text.find(lost), std::string::npos) << text;
  }
}

// ---- Text helpers ----------------------------------------------------------

TEST(CodeOnly, StripsLineCommentsAndBlanksStringContents) {
  LexState state;
  const std::string out =
      code_only("x = \"new int\"; // naked new here", state);
  EXPECT_EQ(out.find("new"), std::string::npos) << out;
  EXPECT_EQ(out.find("naked"), std::string::npos) << out;
  // Positions survive: the statement's structure is intact.
  EXPECT_NE(out.find("x ="), std::string::npos) << out;
  EXPECT_NE(out.find(';'), std::string::npos) << out;
  EXPECT_FALSE(state.in_block_comment);
}

TEST(CodeOnly, BlockCommentStateCarriesAcrossLines) {
  LexState state;
  EXPECT_EQ(trim(code_only("a(); /* begin", state)), "a();");
  EXPECT_TRUE(state.in_block_comment);
  EXPECT_EQ(trim(code_only("still a comment: new int[4];", state)), "");
  EXPECT_TRUE(state.in_block_comment);
  EXPECT_EQ(trim(code_only("end */ b();", state)), "b();");
  EXPECT_FALSE(state.in_block_comment);
}

TEST(CodeOnly, CharLiteralContentIsBlanked) {
  LexState state;
  const std::string out = code_only("if (c == '{') depth++;", state);
  EXPECT_EQ(out.find('{'), std::string::npos) << out;
  EXPECT_NE(out.find("depth++"), std::string::npos) << out;
}

TEST(CodeOnly, RawStringQuotesDoNotFlipTheStringState) {
  // The include regex of callgraph.cpp: an ordinary-string reading sees
  // three quotes and leaves the rest of the line inside a string.
  LexState state;
  const std::string out = code_only(
      R"x(static const std::regex re(R"(^\s*#\s*include\s+"([^"]+)\")"); f(); // g()")x",
      state);
  EXPECT_EQ(out.find("include"), std::string::npos) << out;
  EXPECT_NE(out.find("f();"), std::string::npos) << out;
  EXPECT_EQ(out.find("g()"), std::string::npos) << out;
  EXPECT_TRUE(state.raw_close.empty());
}

TEST(CodeOnly, RawStringWithDelimiterSpansLines) {
  LexState state;
  EXPECT_EQ(trim(code_only("auto s = u8R\"re(first \" line", state)),
            "auto s = u8R");
  EXPECT_EQ(state.raw_close, ")re\"");
  // Neither a quote, a ')"' without the delimiter nor a comment opener
  // ends it.
  EXPECT_EQ(trim(code_only("\"( new int )\" // /*", state)), "");
  EXPECT_EQ(trim(code_only("last )re\"; next();", state)), "; next();");
  EXPECT_TRUE(state.raw_close.empty());
  EXPECT_FALSE(state.in_block_comment);
}

TEST(CodeOnly, IdentifierEndingInRIsNotARawPrefix) {
  LexState state;
  const std::string out = code_only("FOOR\"(x\" y(1);", state);
  EXPECT_TRUE(state.raw_close.empty());
  EXPECT_NE(out.find("y(1);"), std::string::npos) << out;
}

TEST(CodeKeepingStrings, LiteralsSurviveButCommentsDie) {
  LexState state;
  const std::string out = code_keeping_strings(
      "env_int(\"MMHAR_KNOB\", 3); // getenv(\"MMHAR_FAKE\")", state);
  EXPECT_NE(out.find("\"MMHAR_KNOB\""), std::string::npos) << out;
  EXPECT_EQ(out.find("MMHAR_FAKE"), std::string::npos) << out;
}

TEST(CodeKeepingStrings, RawStringSurvivesVerbatim) {
  LexState state;
  const std::string line = R"x(re(R"re({"(MMHAR_\w+)"})re"); // x)x";
  EXPECT_EQ(code_keeping_strings(line, state),
            R"x(re(R"re({"(MMHAR_\w+)"})re"); )x");
}

TEST(Trim, BothEndsAndAllWhitespaceCases) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim("\t\n  "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(BlankTemplateArgs, NestedArgumentsAreBlanked) {
  const std::string out =
      blank_template_args("std::vector<std::pair<int, int>> v;");
  EXPECT_EQ(out.find("pair"), std::string::npos) << out;
  EXPECT_NE(out.find("std::vector<"), std::string::npos) << out;
  EXPECT_NE(out.find("> v;"), std::string::npos) << out;
  EXPECT_EQ(out.size(), std::string("std::vector<std::pair<int, int>> v;")
                            .size());
}

TEST(BlankTemplateArgs, ArrowOperatorDoesNotCloseAList) {
  // `->` must not be treated as a template close, and a '<' not preceded
  // by an identifier never opens one.
  const std::string in = "p->next < q->prev;";
  EXPECT_EQ(blank_template_args(in), in);
}

TEST(Suppression, SameLineOrCommentLineAbove) {
  const std::vector<std::string> lines = {
      "// mmhar: allow(loop-alloc) grow-once",  // 0
      "std::vector<int> v;",                    // 1
      "std::vector<int> w;",                    // 2
      "int z; // mmhar: allow(banned-rng)",     // 3
      "int y;",                                 // 4
  };
  EXPECT_TRUE(suppressed(lines, 1, "loop-alloc"));
  EXPECT_FALSE(suppressed(lines, 2, "loop-alloc"));
  EXPECT_TRUE(suppressed(lines, 3, "banned-rng"));
  EXPECT_FALSE(suppressed(lines, 1, "naked-alloc"));
  // A trailing allow covers its own line only: line 3 is code.
  EXPECT_FALSE(suppressed(lines, 4, "banned-rng"));
}

// The four retired per-tool markers, spelled in pieces so they appear
// nowhere in the tree verbatim.
std::string retired_marker(const char* tool) {
  return std::string("// mmhar-") + tool + ": allow(";
}
const std::string kRetiredDetMarker = std::string("MMHAR_DET") + "CHECK_ALLOW(";

TEST(Suppression, OldSpellingsNoLongerSilence) {
  const std::vector<std::string> lines = {
      retired_marker("lint") + "banned-rng)",
      retired_marker("analyze") + "banned-rng)",
      retired_marker("rtcheck") + "banned-rng)",
      "// " + kRetiredDetMarker + "banned-rng)",
      "rand();",
  };
  EXPECT_FALSE(suppressed(lines, 4, "banned-rng"));
}

TEST(Suppression, CommaListMatchesEachRuleExactly) {
  const std::vector<std::string> lines = {
      "// mmhar: allow(alloc, lock) — justified",  // 0
      "new int[4];",                               // 1
  };
  EXPECT_TRUE(suppressed(lines, 1, "alloc"));
  EXPECT_TRUE(suppressed(lines, 1, "lock"));
  EXPECT_FALSE(suppressed(lines, 1, "block"));
  // Substrings must not match: "loc" is not "lock" or "alloc".
  EXPECT_FALSE(suppressed(lines, 1, "loc"));
}

TEST(Suppression, ScansUpThroughARunOfCommentLines) {
  const std::vector<std::string> lines = {
      "// mmhar: allow(throw) — one justification",  // 0
      "// covers this whole multi-line statement:",   // 1
      "throw Error(\"part one\"",                     // 2
      "            \"part two\");",                   // 3
  };
  EXPECT_TRUE(suppressed(lines, 2, "throw"));
  // Line 3 scans up: line 2 is code, not a comment — the run is broken
  // and the marker at line 0 is out of reach.
  EXPECT_FALSE(suppressed(lines, 3, "throw"));
}

TEST(Suppression, NonCommentLineBreaksTheUpwardScan) {
  const std::vector<std::string> lines = {
      "// mmhar: allow(alloc)",  // 0
      "int unrelated = 0;",      // 1
      "new int[4];",             // 2
  };
  EXPECT_FALSE(suppressed(lines, 2, "alloc"));
}

TEST(ReadLines, MissingFileReturnsFalse) {
  std::vector<std::string> lines = {"sentinel"};
  EXPECT_FALSE(read_lines("/nonexistent/definitely_missing.cpp", lines));
  EXPECT_TRUE(lines.empty());  // cleared even on failure
}

TEST(CollectSources, SortedAndFilteredByExtension) {
  const fs::path root = fs::temp_directory_path() / "mmhar_check_sources";
  fs::remove_all(root);
  fs::create_directories(root / "sub");
  for (const char* name : {"b.cpp", "a.h", "sub/c.cc", "notes.txt", "x.hpp"})
    std::ofstream(root / name) << "// stub\n";

  const auto files = collect_sources(root);
  ASSERT_EQ(files.size(), 4u);
  // Sorted on generic_string: deterministic regardless of readdir order.
  EXPECT_EQ(files[0].filename(), "a.h");
  EXPECT_EQ(files[1].filename(), "b.cpp");
  EXPECT_EQ(files[2].filename(), "c.cc");
  EXPECT_EQ(files[3].filename(), "x.hpp");
  fs::remove_all(root);
}

TEST(DisplayPath, PrefixedWithRootBasename) {
  EXPECT_EQ(display_path("src", "src/nn/conv.cpp"), "src/nn/conv.cpp");
  EXPECT_EQ(display_path("/abs/path/bench", "/abs/path/bench/b.cpp"),
            "bench/b.cpp");
}

// ---- lint family -----------------------------------------------------------

TEST(LintFixtures, FindsEverySeededViolationAtExactLines) {
  const Inputs in = fixture("lint");
  EXPECT_EQ(in.files.size(), 4u);
  const auto found = family(check_ok(in).findings, "lint");
  EXPECT_EQ(keys(found), (std::vector<std::string>{
                             "src/bad.cpp:14: [banned-rng]",
                             "src/bad.cpp:15: [naked-alloc]",
                             "src/bad.cpp:16: [unchecked-data-arith]",
                             "src/bad.cpp:18: [loop-alloc]",
                             "src/bad.cpp:21: [naked-cache-write]",
                             "src/bad_header.h:1: [missing-pragma-once]",
                             // After two raw strings whose quotes and
                             // unclosed paren an ordinary-string reading
                             // would take for code.
                             "src/raw_string.cpp:14: [loop-alloc]",
                         }))
      << render(found);
}

TEST(LintFixtures, SharedAccumulatorIsADetFinding) {
  // bad.cpp:28 seeds the shared-accumulator pattern. lint's old
  // parallel-ref-accum rule is gone; det's parallel-accum owns it.
  const auto all = check_ok(fixture("lint")).findings;
  EXPECT_EQ(keys(family(all, "det")),
            (std::vector<std::string>{"src/bad.cpp:28: [parallel-accum]"}))
      << render(all);
  EXPECT_EQ(render(all).find("parallel-ref-accum"), std::string::npos);
}

TEST(LintFixtures, AllowCommentSilencesTheRule) {
  // suppressed.cpp carries a seeded rand() with a justified allow-comment
  // on the line above; it must contribute zero findings.
  const std::string text =
      render(family(check_ok(fixture("lint")).findings, "lint"));
  EXPECT_EQ(text.find("suppressed.cpp"), std::string::npos) << text;
}

TEST(LintRealTree, IsClean) {
  EXPECT_TRUE(family(real_report().findings, "lint").empty())
      << render(real_report().findings);
}

// ---- analyze family --------------------------------------------------------

Inputs analyze_fixture() {
  Inputs in = fixture("analyze");
  in.registry = text(kFixtures / "analyze" / "registry.cpp");
  in.readme = text(kFixtures / "analyze" / "readme.md");
  return in;
}

TEST(AnalyzeFixtures, FindsEverySeededViolationAtExactLines) {
  const Inputs in = analyze_fixture();
  EXPECT_EQ(in.files.size(), 6u);
  const auto found = family(check_ok(in).findings, "analyze");
  const std::string registry = in.registry.path;
  const std::string readme = in.readme.path;
  std::vector<std::string> expected = {
      registry + ":5: [env-knob-registry]",
      registry + ":6: [env-knob-registry]",
      readme + ":7: [env-knob-registry]",
      "src/bad_lock.h:8: [lock-annotation-coverage]",
      "src/dup_b.h:3: [header-hygiene]",
      "src/env_read.cpp:6: [env-knob-registry]",
      "src/missing_include.h:6: [header-hygiene]",
  };
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> got = keys(found);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << render(found);
  const std::string text = render(found);
  for (const std::string& e : {
           std::string("member `int hits = 0` needs MMHAR_GUARDED_BY"),
           std::string("function 'fixture::twice' is also defined in "
                       "src/dup_a.h:3"),
           std::string("'MMHAR_FIXTURE_ROGUE' is read here but has no row "
                       "in the env registry"),
           std::string("MMHAR_* thread-safety macros used without a direct "
                       "#include of common/thread_annotations.h"),
           std::string("registry row 'MMHAR_FIXTURE_UNDOC' is missing from "
                       "the env table"),
           std::string("registry row 'MMHAR_FIXTURE_STALE' is never read"),
           std::string("README env-table row 'MMHAR_FIXTURE_ORPHAN' has no "
                       "registry row")})
    EXPECT_NE(text.find(e), std::string::npos) << "missing: " << e << "\n"
                                               << text;
}

TEST(AnalyzeFixtures, SuppressionAndTestPrefixStaySilent) {
  // suppressed.h's unguarded member carries an allow-comment, and
  // MMHAR_TEST_* reads are exempt from the registry by prefix.
  const std::string text =
      render(family(check_ok(analyze_fixture()).findings, "analyze"));
  EXPECT_EQ(text.find("suppressed.h"), std::string::npos) << text;
  EXPECT_EQ(text.find("MMHAR_TEST_ANYTHING"), std::string::npos) << text;
}

TEST(AnalyzeRealTree, IsCleanWithTheCheckedInRegistry) {
  EXPECT_TRUE(family(real_report().findings, "analyze").empty())
      << render(real_report().findings);
}

TEST(AnalyzeRealTree, ServingKnobsAreRegisteredAndDocumented) {
  // The streaming-serving knobs ship as a family; each must have both a
  // registry row and a README table row, so a future rename can't leave a
  // half-documented knob behind the checker's back.
  const char* const kServingKnobs[] = {
      "MMHAR_SERVING_BATCH",           "MMHAR_SERVING_DROP_POLICY",
      "MMHAR_SERVING_FRAMES",          "MMHAR_SERVING_MAX_STREAM_FAULTS",
      "MMHAR_SERVING_QUEUE_DEPTH",
  };
  const std::string registry =
      read_file(kRoot / "src" / "common" / "env_registry.cpp");
  const std::string readme = read_file(kRoot / "README.md");
  for (const char* knob : kServingKnobs) {
    EXPECT_NE(registry.find(std::string("{\"") + knob + "\""),
              std::string::npos)
        << knob << " has no registry row";
    EXPECT_NE(readme.find(std::string("`") + knob + "`"), std::string::npos)
        << knob << " is missing from the README env table";
  }
}

TEST(AnalyzeRealTree, DeletingAnyRegistryRowFails) {
  // The closed env-knob namespace: removing any single row from the real
  // registry must turn the rule red, because the README row and/or the
  // read site it backed becomes unaccounted for.
  const TextFile& registry = real_tree().registry;
  std::vector<std::size_t> row_lines;
  for (std::size_t i = 0; i < registry.raw.size(); ++i)
    if (registry.raw[i].find("{\"MMHAR_") != std::string::npos)
      row_lines.push_back(i);
  ASSERT_GE(row_lines.size(), 10u)
      << "registry rows not found — did the row format change?";

  for (const std::size_t drop : row_lines) {
    TextFile pruned = registry;
    pruned.raw.erase(pruned.raw.begin() + static_cast<std::ptrdiff_t>(drop));
    std::vector<Finding> found;
    check_env_registry(real_tree().files, pruned, real_tree().readme, found);
    EXPECT_FALSE(found.empty()) << "deleting registry row `"
                                << registry.raw[drop] << "` went unnoticed";
  }
}

// ---- rt family -------------------------------------------------------------

Inputs rt_fixture() {
  Inputs in = fixture("rtcheck");
  in.registry = text(kFixtures / "rtcheck" / "registry.cpp");
  in.roots = text(kFixtures / "rtcheck" / "roots.txt");
  return in;
}

TEST(RtFixtures, FindsEverySeededViolationAtExactLines) {
  const Inputs in = rt_fixture();
  EXPECT_EQ(in.files.size(), 1u);
  const Report report = check_ok(in);
  const auto found = family(report.findings, "rt");
  EXPECT_EQ(keys(found), (std::vector<std::string>{
                             "src/rt_bad.cpp:7: [alloc]",
                             "src/rt_bad.cpp:16: [alloc]",
                             "src/rt_bad.cpp:20: [lock]",
                             "src/rt_bad.cpp:24: [lock]",
                             "src/rt_bad.cpp:28: [block]",
                             "src/rt_bad.cpp:36: [alloc]",
                             "src/rt_bad.cpp:42: [throw]",
                             "src/rt_bad.cpp:46: [rt-env-read]",
                         }))
      << render(found);
  const std::string text = render(found);
  for (const char* e : {
           "src/rt_bad.cpp:7: [alloc] operator new allocates "
           "[in fixture::helper_allocates]",
           "src/rt_bad.cpp:16: [alloc] '.push_back(...)' may grow a "
           "container (allocates) [in fixture::hot_growth]",
           "src/rt_bad.cpp:20: [lock] lock acquisition outside a "
           "MMHAR_REALTIME_HANDOFF body (the annotated slot hand-off "
           "protocol) [in fixture::hot_lock]",
           "src/rt_bad.cpp:24: [lock] raw std lock acquisition",
           "src/rt_bad.cpp:28: [block] sleep blocks the real-time thread "
           "[in fixture::hot_block]",
           "src/rt_bad.cpp:36: [alloc] operator new allocates "
           "[in fixture::hot_pool]",
           "src/rt_bad.cpp:42: [throw] throw unwinds with unbounded latency",
           "src/rt_bad.cpp:46: [rt-env-read] 'MMHAR_FIXTURE_ROGUE' is not "
           "in the env registry [in fixture::hot_env]"})
    EXPECT_NE(text.find(e), std::string::npos) << "missing: " << e << "\n"
                                               << text;
  EXPECT_EQ(report.functions, 15u);
  EXPECT_EQ(report.rt.roots, 11u);
  EXPECT_EQ(report.rt.reachable, 13u);
}

TEST(RtFixtures, TransitiveViolationCarriesTheFullCallChain) {
  const std::string text = render(family(check_ok(rt_fixture()).findings, "rt"));
  EXPECT_NE(text.find("chain: fixture::hot_transitive -> "
                      "fixture::transitive_mid -> "
                      "fixture::helper_allocates"),
            std::string::npos)
      << text;
  // The lambda body inside parallel_for is charged to its enclosing
  // function, so the chain is the enclosing function itself.
  EXPECT_NE(text.find("rt_bad.cpp:36: [alloc]"), std::string::npos);
  EXPECT_NE(text.find("chain: fixture::hot_pool"), std::string::npos) << text;
}

TEST(RtFixtures, ExplicitTemplateArgumentCallIsFollowed) {
  // `packer<8>(...)` must resolve to packer like a plain call; otherwise
  // a kernel that dispatches to template instantiations hides their
  // bodies from every root.
  const std::vector<FileScan> files = {scan_file(
      "template_call/t.cpp",
      {"namespace fixture {", "template <int N>",
       "void packer(float* out) {", "  float* tmp = new float[N];",
       "  out[0] = tmp[0];", "}",
       "void hot(float* out) MMHAR_REALTIME { packer<8>(out); }",
       "}  // namespace fixture"})};
  const CallGraph graph(files);
  std::vector<Finding> found;
  check_rt(graph, TextFile{}, found);
  const std::string text = render(found);
  EXPECT_NE(text.find("t.cpp:4: [alloc]"), std::string::npos) << text;
  EXPECT_NE(text.find("chain: fixture::hot -> fixture::packer"),
            std::string::npos)
      << text;
}

TEST(RtFixtures, SuppressionsHandoffAndUnreachedStaySilent) {
  const std::string text = render(family(check_ok(rt_fixture()).findings, "rt"));
  // allow(alloc, ...) comma list suppresses hot_suppressed's new.
  EXPECT_EQ(text.find("hot_suppressed"), std::string::npos) << text;
  // allow(rt-calls) cuts traversal into cold_build; its alloc is unreported.
  EXPECT_EQ(text.find("cold_build"), std::string::npos) << text;
  // The waived parallel_for dispatch itself does not appear as [block].
  EXPECT_EQ(text.find("[block] thread-pool dispatch"), std::string::npos)
      << text;
  // A wrapper lock inside a MMHAR_REALTIME_HANDOFF body is the protocol.
  EXPECT_EQ(text.find("handoff_ok"), std::string::npos) << text;
  // Unannotated and never called from a root: not traversed at all.
  EXPECT_EQ(text.find("never_reached_alloc"), std::string::npos) << text;
  // Registered env knob reads are fine.
  EXPECT_EQ(text.find("MMHAR_FIXTURE_KNOB"), std::string::npos) << text;
}

std::vector<Finding> rt_root_coverage(const std::string& row) {
  const std::vector<FileScan> files = scan(kFixtures / "rtcheck" / "src");
  const CallGraph graph(files);
  const TextFile roots{"roots.txt", {row}};
  std::vector<RootSpec> specs;
  std::string error;
  EXPECT_TRUE(parse_roots(roots, specs, error)) << error;
  std::vector<Finding> found;
  check_root_coverage(graph, roots, specs, found);
  return found;
}

TEST(RtFixtures, RootCoverageMissingFunction) {
  const auto found = rt_root_coverage("realtime fixture::no_such_function");
  EXPECT_EQ(keys(found),
            (std::vector<std::string>{"roots.txt:1: [rt-root-coverage]"}));
  EXPECT_NE(render(found).find("required root 'fixture::no_such_function' "
                               "names no function in the scanned roots"),
            std::string::npos)
      << render(found);
}

TEST(RtFixtures, RootCoverageLostAnnotation) {
  // cold_build exists but is deliberately unannotated: requiring it must
  // report the lost annotation at the function's own location.
  const auto found = rt_root_coverage("realtime fixture::cold_build");
  EXPECT_NE(render(found).find(
                "src/rt_bad.cpp:59: [rt-root-coverage] required root "
                "'fixture::cold_build' has lost its MMHAR_REALTIME "
                "annotation"),
            std::string::npos)
      << render(found);
}

TEST(RtFixtures, MalformedRootsRowIsAUsageError) {
  Inputs in = rt_fixture();
  in.roots = TextFile{"roots_bad.txt", {"bogus fixture::hot_transitive"}};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_check(in, out, err), 2) << out.str();
  EXPECT_NE(err.str().find("bad roots file roots_bad.txt:1"),
            std::string::npos)
      << err.str();
}

TEST(RtRealTree, ServingHotPathIsCleanWithZeroWaivers) {
  EXPECT_TRUE(family(real_report().findings, "rt").empty())
      << render(real_report().findings);
  // The annotated root set must actually be non-trivial.
  EXPECT_GE(real_report().rt.roots, 20u);
  EXPECT_GT(real_report().rt.reachable, real_report().rt.roots);
}

TEST(RtRealTree, DeletingAnyRootAnnotationFails) {
  // Strip the MMHAR_REALTIME / MMHAR_REALTIME_HANDOFF token from each real
  // annotation site, one at a time; every single deletion must turn
  // rt-root-coverage red.
  const auto sites = annotation_sites("MMHAR_REALTIME");
  ASSERT_GE(sites.size(), 10u)
      << "annotation sites not found — did the annotation spelling change?";
  expect_each_deletion_fails(sites,
                             {"MMHAR_REALTIME_HANDOFF", "MMHAR_REALTIME"},
                             "rt-root-coverage", "has lost its MMHAR_REALTIME");
}

TEST(RtRealTree, ConvPanelPackerIsInsideTheConvKernelCone) {
  // conv2d_frame's B-panel packer is called with explicit template
  // arguments; an allocation seeded into its body must be charged to the
  // conv kernel's real-time root.
  const std::size_t gemm = real_file("src/tensor/gemm.cpp");
  const auto files = with_file(
      gemm, insert_into_body(real_tree().files[gemm].raw,
                             "void pack_conv_panel(",
                             "  float* probe = new float[1];"));
  const CallGraph graph(files);
  std::vector<Finding> found;
  check_rt(graph, real_tree().registry, found);
  EXPECT_NE(render(found).find("chain: mmhar::conv2d_frame -> "
                               "mmhar::(anonymous)::pack_conv_panel"),
            std::string::npos)
      << render(found);
}

TEST(RtRealTree, DetmathKernelsAreInsideTheInferenceCone) {
  // The LSTM gate nonlinearities run on the serving path through the
  // shared cell update; an allocation seeded into one of them must be
  // charged to infer_classify, the forward's LSTM half.
  const std::size_t detmath = real_file("src/tensor/detmath.cpp");
  const auto files = with_file(
      detmath, insert_into_body(real_tree().files[detmath].raw,
                                "void tanh_to(",
                                "  float* probe = new float[1];"));
  const CallGraph graph(files);
  std::vector<Finding> found;
  check_rt(graph, real_tree().registry, found);
  EXPECT_NE(render(found).find("chain: mmhar::har::infer_classify -> "
                               "mmhar::nn::lstm_cell -> "
                               "mmhar::detmath::tanh_to"),
            std::string::npos)
      << render(found);
}

TEST(RtRealTree, RtCallsCutLeavesTheDetConeWhole) {
  // Blank the first `rt-calls` allow in serving.cpp (the armed-only fault
  // injector): the rt cone must grow into the injector and find its lock,
  // while the det cone, which never honoured that cut, stays the same.
  const std::size_t serving = real_file("src/serving/serving.cpp");
  std::vector<std::string> raw = real_tree().files[serving].raw;
  bool blanked = false;
  for (auto& line : raw) {
    if (line.find("mmhar: allow(rt-calls)") == std::string::npos) continue;
    line = "//";
    blanked = true;
    break;
  }
  ASSERT_TRUE(blanked);
  const auto files = with_file(serving, std::move(raw));
  const CallGraph graph(files);
  std::vector<Finding> rt;
  std::vector<Finding> det;
  check_rt(graph, real_tree().registry, rt);
  EXPECT_FALSE(rt.empty());
  EXPECT_EQ(check_det(graph, det).reachable, real_report().det.reachable);
  EXPECT_TRUE(det.empty()) << render(det);
}

// ---- det family ------------------------------------------------------------

Inputs det_fixture() {
  Inputs in = fixture("detcheck");
  in.roots = text(kFixtures / "detcheck" / "roots.txt");
  return in;
}

TEST(DetFixtures, FindsEverySeededViolationAtExactLines) {
  const Inputs in = det_fixture();
  EXPECT_EQ(in.files.size(), 5u);
  const Report report = check_ok(in);
  const auto found = family(report.findings, "det");
  std::vector<std::string> expected = {
      in.roots.path + ":6: [det-root-coverage]",
      "src/common/bad_layer.h:5: [layering]",
      "src/det_bad.cpp:10: [nondet-call]",
      "src/det_bad.cpp:20: [unordered-iter]",
      "src/det_bad.cpp:21: [unordered-iter]",
      "src/det_bad.cpp:27: [nondet-call]",
      "src/det_bad.cpp:32: [det-env-read]",
      "src/det_bad.cpp:38: [parallel-accum]",
      "src/det_bad.cpp:48: [det-root-coverage]",
      "src/draws.cpp:7: [unsequenced-draw]",
      "src/draws.cpp:12: [unsequenced-draw]",
  };
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> got = keys(found);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << render(found);
  const std::string text = render(found);
  for (const std::string& e : {
           std::string("src/common/bad_layer.h:5: [layering] include of "
                       "\"serving/api.h\""),
           std::string("src/det_bad.cpp:10: [nondet-call] C rand-family "
                       "call"),
           std::string("chain: fixture::det_transitive -> "
                       "fixture::transitive_mid -> fixture::helper_nondet"),
           std::string("src/det_bad.cpp:20: [unordered-iter] 'table' is an "
                       "unordered container"),
           std::string("src/det_bad.cpp:27: [nondet-call] clock read"),
           std::string("src/det_bad.cpp:32: [det-env-read] "
                       "'MMHAR_FIXTURE_KNOB' is read inside the "
                       "deterministic pipeline"),
           std::string("src/det_bad.cpp:38: [parallel-accum] 'sum' is "
                       "compound-assigned inside a parallel_for [&] lambda"),
           std::string("src/det_bad.cpp:48: [det-root-coverage] required "
                       "root 'fixture::lost_annotation' has lost its "
                       "MMHAR_DETERMINISTIC annotation"),
           in.roots.path + ":6: [det-root-coverage] required root "
                           "'fixture::renamed_root' names no function"})
    EXPECT_NE(text.find(e), std::string::npos) << "missing: " << e << "\n"
                                               << text;
  EXPECT_EQ(report.functions, 17u);
  EXPECT_EQ(report.det.roots, 6u);
  EXPECT_EQ(report.det.reachable, 8u);
}

TEST(DetFixtures, SuppressedUnreachedAndDownwardIncludesStaySilent) {
  // det_suppressed's rand() at line 45 carries an allow on the line
  // directly above; never_reached_nondet is outside every root's cone;
  // serving/api.h includes common/, the legal downward direction.
  const std::string text =
      render(family(check_ok(det_fixture()).findings, "det"));
  EXPECT_EQ(text.find("det_bad.cpp:45"), std::string::npos) << text;
  EXPECT_EQ(text.find("never_reached_nondet"), std::string::npos) << text;
  EXPECT_EQ(text.find("src/serving/api.h:"), std::string::npos) << text;
}

TEST(DetFixtures, UnsequencedDrawCountsOneArgumentList) {
  // draws.cpp:7 holds two draws as two arguments; :12 one draw beside a
  // call that draws. Braces (:16), named locals (:20-22), a lambda body
  // (:26), a condition (:30) and the allow at :35 stay silent.
  const std::string text =
      render(family(check_ok(det_fixture()).findings, "det"));
  EXPECT_NE(text.find("src/draws.cpp:7: [unsequenced-draw] 2 Rng draws in "
                      "one argument list"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("src/draws.cpp:12: [unsequenced-draw] 2 Rng draws"),
            std::string::npos)
      << text;
  for (const char* line : {":16:", ":20:", ":21:", ":22:", ":26:", ":30:",
                           ":36:"})
    EXPECT_EQ(text.find(std::string("src/draws.cpp") + line),
              std::string::npos)
        << line << "\n" << text;
}

TEST(DetFixtures, SrcCallsDoNotResolveIntoTools) {
  // xtree/src/root.cpp's det root calls count(), defined in
  // xtree/src/count.cpp; xtree/tools/tokens.cpp has a Tokens::count
  // member. src/ links nothing under tools/, so scanning tools/ as well
  // must leave the det cone as it is.
  const fs::path dir = kFixtures / "xtree";
  const std::vector<FileScan> src_only = scan(dir / "src");
  std::vector<FileScan> both = src_only;
  for (FileScan& f : scan(dir / "tools")) both.push_back(std::move(f));
  std::vector<Finding> found;
  EXPECT_EQ(check_det(CallGraph(src_only), found).reachable, 2u);
  EXPECT_EQ(check_det(CallGraph(both), found).reachable, 2u);
  EXPECT_TRUE(found.empty()) << render(found);
}

TEST(DetRealTree, ConeIsTheSameWithoutTools) {
  std::vector<FileScan> no_tools;
  for (const FileScan& f : real_tree().files)
    if (f.path.rfind("tools/", 0) != 0) no_tools.push_back(f);
  ASSERT_LT(no_tools.size(), real_tree().files.size());
  std::vector<Finding> found;
  EXPECT_EQ(check_det(CallGraph(no_tools), found).reachable,
            real_report().det.reachable);
}

TEST(DetRealTree, UnsequencedNoiseDrawIsFound) {
  // The receiver-noise draw as it was once written in synthesize: two
  // draws as the two arguments of one cfloat.
  const std::string draw =
      "  cube.raw()[0] += dsp::cfloat(static_cast<float>(rng->normal(0.0, "
      "0.02)), static_cast<float>(rng->normal(0.0, 0.02)));";
  const std::size_t idx = real_file("src/radar/simulator.cpp");
  std::vector<std::string> raw = insert_into_body(
      real_tree().files[idx].raw, "dsp::RadarCube Simulator::synthesize",
      draw);
  const auto line = std::find(raw.begin(), raw.end(), draw) - raw.begin() + 1;
  const std::vector<FileScan> files = with_file(idx, std::move(raw));
  std::vector<Finding> found;
  check_det(CallGraph(files), found);
  EXPECT_EQ(keys(found),
            (std::vector<std::string>{"src/radar/simulator.cpp:" +
                                      std::to_string(line) +
                                      ": [unsequenced-draw]"}))
      << render(found);
}

TEST(DetRealTree, PipelineIsDeterminismCleanWithEnoughRoots) {
  EXPECT_TRUE(family(real_report().findings, "det").empty())
      << render(real_report().findings);
  // Acceptance floor: at least 8 annotated determinism roots.
  EXPECT_GE(real_report().det.roots, 8u);
}

TEST(DetRealTree, RootsFilePinsEveryPaperInvariant) {
  // Removing a row from the roots file must fail even though the checker
  // itself cannot see the deletion (fewer required roots is a weaker,
  // still-consistent configuration). The annotation side is guarded by
  // det-root-coverage, the roots-file side by this exact-row assertion.
  const std::string rows = read_file(kRoot / "tools" / "check_roots.txt");
  const char* const kRequired[] = {
      "deterministic dsp::compute_drai_sequence",
      "deterministic har::infer_forward",
      "deterministic har::infer_features",
      "deterministic har::infer_classify",
      "deterministic Sequential::forward",
      "deterministic Sequential::backward",
      "deterministic radar::Simulator::synthesize",
      "deterministic radar::Simulator::simulate_sequence",
      "deterministic har::train_model",
      "deterministic StreamingHarService::process_round",
      "deterministic StreamingHarService::run_inference",
  };
  for (const char* row : kRequired)
    EXPECT_NE(rows.find(row), std::string::npos)
        << "missing roots row: " << row;
}

TEST(DetRealTree, DeletingAnyRootAnnotationFails) {
  const auto sites = annotation_sites("MMHAR_DETERMINISTIC");
  ASSERT_GE(sites.size(), 9u)
      << "annotation sites not found — did the annotation spelling change?";
  expect_each_deletion_fails(sites, {"MMHAR_DETERMINISTIC"},
                             "det-root-coverage",
                             "has lost its MMHAR_DETERMINISTIC");
}

TEST(DetRealTree, ConvPanelPackerIsInsideTheConvKernelCone) {
  // A rand() call seeded into the B-panel packer's body must be reached
  // through conv2d_frame from a determinism root (infer_forward and
  // Sequential::forward both call it).
  const std::size_t gemm = real_file("src/tensor/gemm.cpp");
  const auto files = with_file(
      gemm, insert_into_body(real_tree().files[gemm].raw,
                             "void pack_conv_panel(",
                             "  const int probe = std::rand();"));
  const CallGraph graph(files);
  std::vector<Finding> found;
  check_det(graph, found);
  EXPECT_NE(render(found).find("-> mmhar::conv2d_frame -> "
                               "mmhar::(anonymous)::pack_conv_panel"),
            std::string::npos)
      << render(found);
}

TEST(DetRealTree, OldAllowSpellingNoLongerSilences) {
  // Respell thread_pool.cpp's det-env-read waiver the retired way: the
  // magic-static MMHAR_THREADS read must become a finding again.
  const std::size_t pool = real_file("src/common/thread_pool.cpp");
  std::vector<std::string> raw = real_tree().files[pool].raw;
  bool respelled = false;
  for (auto& line : raw) {
    const auto at = line.find("mmhar: allow(det-env-read)");
    if (at == std::string::npos) continue;
    line.replace(at, 26, kRetiredDetMarker + "env-read)");
    respelled = true;
  }
  ASSERT_TRUE(respelled);
  const auto files = with_file(pool, std::move(raw));
  std::vector<Finding> found;
  check_det(CallGraph(files), found);
  EXPECT_NE(render(found).find("[det-env-read] 'MMHAR_THREADS' is read"),
            std::string::npos)
      << render(found);
}

// ---- The CLI ---------------------------------------------------------------

TEST(Cli, RealTreePrintsOnlyTheSummaryAndExitsZero) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_check(real_tree(), out, err), 0) << out.str() << err.str();
  const Report& r = real_report();
  const std::string summary =
      "mmhar_check: files=" + std::to_string(real_tree().files.size()) +
      " functions=" + std::to_string(r.functions) +
      " rt.roots=" + std::to_string(r.rt.roots) +
      " rt.reachable=" + std::to_string(r.rt.reachable) +
      " det.roots=" + std::to_string(r.det.roots) +
      " det.reachable=" + std::to_string(r.det.reachable) +
      " findings=0 status=ok\n";
  EXPECT_EQ(out.str(), summary);
  EXPECT_EQ(err.str(), "");
}

TEST(Cli, FindingsPrintWithChainsAndExitOne) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_check(rt_fixture(), out, err), 1);
  EXPECT_NE(out.str().find("src/rt_bad.cpp:7: [alloc] operator new allocates "
                           "[in fixture::helper_allocates]\n"
                           "    chain: fixture::hot_transitive -> "
                           "fixture::transitive_mid -> "
                           "fixture::helper_allocates\n"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find(" status=fail\n"), std::string::npos) << out.str();
}

TEST(Cli, MissingInputIsAnIoError) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_check(kRoot / "no_such_tree", out, err), 2);
  EXPECT_NE(err.str().find("not a directory"), std::string::npos)
      << err.str();
}

}  // namespace
