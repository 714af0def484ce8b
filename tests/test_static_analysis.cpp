// End-to-end tests for the static-analysis toolchain: mmhar_lint,
// mmhar_analyze, and mmhar_detcheck are run as real subprocesses against
// the seeded fixture trees under tests/lint_fixtures/, and the exact
// (rule, file, line) findings are asserted.  The binaries and repo root
// are injected by tests/CMakeLists.txt via MMHAR_LINT_BIN /
// MMHAR_ANALYZE_BIN / MMHAR_DETCHECK_BIN / MMHAR_REPO_ROOT so the test
// works from any build directory and under every sanitizer leg.
// (mmhar_rtcheck has its own suite, tests/test_rtcheck.cpp.)

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const std::string& cmd) {
  RunResult r;
  const std::string full = cmd + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    r.output.append(buf.data(), n);
  const int status = pclose(pipe);
  if (status >= 0 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

// Appends rather than `"\"" + s + "\""`: GCC 12 under -march=native
// reports a -Wrestrict false positive on that temporary chain.
std::string q(const fs::path& p) {
  std::string s = "\"";
  s += p.string();
  s += '"';
  return s;
}

const fs::path kRoot = MMHAR_REPO_ROOT;
const std::string kLint = std::string("\"") + MMHAR_LINT_BIN + "\"";
const std::string kAnalyze = std::string("\"") + MMHAR_ANALYZE_BIN + "\"";
const std::string kDetcheck = std::string("\"") + MMHAR_DETCHECK_BIN + "\"";

const fs::path kLintFixture = kRoot / "tests" / "lint_fixtures" / "lint" / "src";
const fs::path kAnalyzeFixture = kRoot / "tests" / "lint_fixtures" / "analyze";
const fs::path kDetcheckFixture = kRoot / "tests" / "lint_fixtures" / "detcheck";

fs::path scratch_dir() {
  const fs::path d = fs::temp_directory_path() / "mmhar_static_analysis_test";
  fs::create_directories(d);
  return d;
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p);
  out << text;
  ASSERT_TRUE(out.good()) << "failed to write " << p;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Every (rule, file) pair seeded into the lint fixture tree, with the
// count the fixture produces; doubles as a baseline that waives them all.
const std::string kLintFixtureBaseline =
    "banned-rng src/bad.cpp 1\n"
    "loop-alloc src/bad.cpp 1\n"
    "missing-pragma-once src/bad_header.h 1\n"
    "naked-alloc src/bad.cpp 1\n"
    "naked-cache-write src/bad.cpp 1\n"
    "unchecked-data-arith src/bad.cpp 1\n";

TEST(LintFixtures, FindsEverySeededViolationAtExactLines) {
  const RunResult r = run(kLint + " " + q(kLintFixture));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const char* expected[] = {
      "src/bad.cpp:14: [banned-rng]",
      "src/bad.cpp:15: [naked-alloc]",
      "src/bad.cpp:16: [unchecked-data-arith]",
      "src/bad.cpp:18: [loop-alloc]",
      "src/bad.cpp:21: [naked-cache-write]",
      "src/bad_header.h:1: [missing-pragma-once]",
  };
  for (const char* e : expected)
    EXPECT_NE(r.output.find(e), std::string::npos) << "missing finding: " << e
                                                   << "\n" << r.output;
  EXPECT_NE(r.output.find("scanned 3 file(s), 6 violation(s) (0 baselined)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("FAIL"), std::string::npos) << r.output;
}

TEST(LintFixtures, ParallelRefAccumIsRetired) {
  // bad.cpp:28 still seeds the shared-accumulator pattern, but the rule
  // moved to mmhar_detcheck (parallel-accum) in PR 10; mmhar_lint must no
  // longer report it. DetcheckFixtures.FindsEverySeededViolationAtExactLines
  // proves the successor rule still catches the same pattern.
  const RunResult r = run(kLint + " " + q(kLintFixture));
  EXPECT_EQ(r.output.find("parallel-ref-accum"), std::string::npos)
      << r.output;
}

TEST(LintFixtures, AllowCommentSilencesTheRule) {
  // suppressed.cpp carries a seeded rand() with a justified allow-comment on
  // the line above; it must contribute zero findings.
  const RunResult r = run(kLint + " " + q(kLintFixture));
  EXPECT_EQ(r.output.find("suppressed.cpp"), std::string::npos) << r.output;
}

TEST(LintFixtures, NonEmptyBaselineIsAnErrorByDefault) {
  // The baseline ratchet reached zero: any row in the file is itself a
  // lint failure unless the local-archaeology flag --allow-baseline is
  // passed — which the ctest/CI invocations deliberately never do.
  const fs::path base = scratch_dir() / "base_retired.txt";
  write_file(base, kLintFixtureBaseline);
  const RunResult r =
      run(kLint + " " + q(kLintFixture) + " --baseline " + q(base));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("the baseline is retired and must stay empty"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("banned-rng src/bad.cpp 1"), std::string::npos)
      << r.output;
}

TEST(LintFixtures, BaselineWaivesExactCounts) {
  const fs::path base = scratch_dir() / "base_all.txt";
  write_file(base, kLintFixtureBaseline);
  const RunResult r = run(kLint + " " + q(kLintFixture) + " --baseline " +
                          q(base) + " --allow-baseline");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("scanned 3 file(s), 6 violation(s) (6 baselined)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("OK"), std::string::npos) << r.output;
}

TEST(LintFixtures, CountAboveBaselineFails) {
  // Same baseline minus the banned-rng row: that one finding is now new
  // debt and must fail the run even though five others stay waived.
  std::string rows = kLintFixtureBaseline;
  const std::string drop = "banned-rng src/bad.cpp 1\n";
  const auto pos = rows.find(drop);
  ASSERT_NE(pos, std::string::npos);
  rows.erase(pos, drop.size());
  const fs::path base = scratch_dir() / "base_missing_rng.txt";
  write_file(base, rows);
  const RunResult r = run(kLint + " " + q(kLintFixture) + " --baseline " +
                          q(base) + " --allow-baseline");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(
      r.output.find("rule 'banned-rng': 1 violation(s), baseline allows 0"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("(5 baselined)"), std::string::npos) << r.output;
}

TEST(LintFixtures, ShrunkCountPrintsTightenNote) {
  // A baseline looser than reality still passes, but the improvement is
  // called out so the baseline gets ratcheted down.
  std::string rows = kLintFixtureBaseline;
  const std::string tight = "banned-rng src/bad.cpp 1\n";
  const auto pos = rows.find(tight);
  ASSERT_NE(pos, std::string::npos);
  rows.replace(pos, tight.size(), "banned-rng src/bad.cpp 5\n");
  const fs::path base = scratch_dir() / "base_loose.txt";
  write_file(base, rows);
  const RunResult r = run(kLint + " " + q(kLintFixture) + " --baseline " +
                          q(base) + " --allow-baseline");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(
                "'banned-rng' improved to 1 (baseline 5) — tighten the baseline"),
            std::string::npos)
      << r.output;
}

TEST(LintFixtures, UpdateBaselineWritesCurrentCounts) {
  const fs::path base = scratch_dir() / "base_rewritten.txt";
  fs::remove(base);
  const RunResult w = run(kLint + " " + q(kLintFixture) + " --baseline " +
                          q(base) + " --update-baseline");
  EXPECT_EQ(w.exit_code, 0) << w.output;
  EXPECT_NE(w.output.find(
                "baseline rewritten with 6 violation(s) across 6 (rule, file) pair(s)"),
            std::string::npos)
      << w.output;
  const std::string written = read_file(base);
  std::istringstream rows(kLintFixtureBaseline);
  std::string row;
  while (std::getline(rows, row))
    EXPECT_NE(written.find(row), std::string::npos)
        << "missing baseline row: " << row << "\n" << written;
  // The file it wrote must immediately green-light a re-run (with the
  // archaeology flag — without it the non-empty file is itself an error).
  const RunResult r = run(kLint + " " + q(kLintFixture) + " --baseline " +
                          q(base) + " --allow-baseline");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintRealTree, CheckedInBaselineIsEmptyAndEnforced) {
  // The exact invocation ctest/CI runs: real tree, checked-in baseline,
  // NO --allow-baseline. This passing proves both that the tree is clean
  // and that the baseline file carries zero active rows.
  const RunResult r = run(kLint + " " + q(kRoot / "src") + " " +
                          q(kRoot / "bench") + " " + q(kRoot / "tools") +
                          " --baseline " +
                          q(kRoot / "tools" / "lint_baseline.txt"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s) (0 baselined)"), std::string::npos)
      << r.output;
  // Belt and braces: the file itself must contain only comments.
  const std::string baseline =
      read_file(kRoot / "tools" / "lint_baseline.txt");
  std::istringstream rows(baseline);
  std::string row;
  while (std::getline(rows, row)) {
    const auto first = row.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    EXPECT_EQ(row[first], '#') << "active baseline row: " << row;
  }
}

TEST(AnalyzeFixtures, FindsEverySeededViolationAtExactLines) {
  const fs::path registry = kAnalyzeFixture / "registry.cpp";
  const fs::path readme = kAnalyzeFixture / "readme.md";
  const RunResult r = run(kAnalyze + " --registry " + q(registry) +
                          " --readme " + q(readme) + " " +
                          q(kAnalyzeFixture / "src"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::vector<std::string> expected = {
      "src/bad_lock.h:8: [lock-annotation-coverage]",
      "member `int hits = 0` needs MMHAR_GUARDED_BY",
      "src/dup_b.h:3: [header-hygiene] function 'fixture::twice' is also "
      "defined in src/dup_a.h:3",
      "src/env_read.cpp:6: [env-knob-registry] 'MMHAR_FIXTURE_ROGUE' is read "
      "here but has no row in the env registry",
      "src/missing_include.h:6: [header-hygiene] MMHAR_* thread-safety macros "
      "used without a direct #include of common/thread_annotations.h",
      registry.string() + ":5: [env-knob-registry] registry row "
      "'MMHAR_FIXTURE_UNDOC' is missing from the env table",
      registry.string() + ":6: [env-knob-registry] registry row "
      "'MMHAR_FIXTURE_STALE' is never read",
      readme.string() + ":7: [env-knob-registry] README env-table row "
      "'MMHAR_FIXTURE_ORPHAN' has no registry row",
  };
  for (const auto& e : expected)
    EXPECT_NE(r.output.find(e), std::string::npos) << "missing finding: " << e
                                                   << "\n" << r.output;
  EXPECT_NE(r.output.find("scanned 6 file(s), 7 violation(s)"),
            std::string::npos)
      << r.output;
}

TEST(AnalyzeFixtures, SuppressionAndTestPrefixStaySilent) {
  const RunResult r = run(kAnalyze + " --registry " +
                          q(kAnalyzeFixture / "registry.cpp") + " --readme " +
                          q(kAnalyzeFixture / "readme.md") + " " +
                          q(kAnalyzeFixture / "src"));
  // suppressed.h's unguarded member carries mmhar-analyze: allow(...), and
  // MMHAR_TEST_* reads are exempt from the registry by prefix.
  EXPECT_EQ(r.output.find("suppressed.h"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("MMHAR_TEST_ANYTHING"), std::string::npos)
      << r.output;
}

TEST(AnalyzeRealTree, IsCleanWithTheCheckedInRegistry) {
  const RunResult r = run(kAnalyze + " --registry " +
                          q(kRoot / "src" / "common" / "env_registry.cpp") +
                          " --readme " + q(kRoot / "README.md") + " " +
                          q(kRoot / "src") + " " + q(kRoot / "bench") + " " +
                          q(kRoot / "tools"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

TEST(AnalyzeRealTree, ServingKnobsAreRegisteredAndDocumented) {
  // The streaming-serving knobs ship as a family; each must have both a
  // registry row and a README table row, so a future rename can't leave a
  // half-documented knob behind the analyzer's back.
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

TEST(DetcheckFixtures, FindsEverySeededViolationAtExactLines) {
  const fs::path roots = kDetcheckFixture / "roots.txt";
  const RunResult r = run(kDetcheck + " --roots " + q(roots) + " " +
                          q(kDetcheckFixture / "src"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::vector<std::string> expected = {
      "src/common/bad_layer.h:5: [layering] include of \"serving/api.h\"",
      "src/det_bad.cpp:10: [nondet-call] C rand-family call",
      "chain: fixture::det_transitive -> fixture::transitive_mid -> "
      "fixture::helper_nondet",
      "src/det_bad.cpp:20: [unordered-iter] 'table' is an unordered container",
      "src/det_bad.cpp:21: [unordered-iter] 'table' is an unordered container",
      "src/det_bad.cpp:27: [nondet-call] clock read",
      "src/det_bad.cpp:32: [env-read] 'MMHAR_FIXTURE_KNOB' is read inside the "
      "deterministic pipeline",
      "src/det_bad.cpp:38: [parallel-accum] 'sum' is compound-assigned inside "
      "a parallel_for [&] lambda",
      "src/det_bad.cpp:48: [root-coverage] required root "
      "'fixture::lost_annotation' has lost its MMHAR_DETERMINISTIC annotation",
      roots.string() + ":6: [root-coverage] required root "
      "'fixture::renamed_root' names no function",
  };
  for (const auto& e : expected)
    EXPECT_NE(r.output.find(e), std::string::npos) << "missing finding: " << e
                                                   << "\n" << r.output;
  EXPECT_NE(r.output.find("mmhar_detcheck: summary files=4 functions=10 "
                          "roots=6 reachable=8 violations=9 status=fail"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("FAIL"), std::string::npos) << r.output;
}

TEST(DetcheckFixtures, SuppressedUnreachedAndDownwardIncludesStaySilent) {
  const RunResult r = run(kDetcheck + " --roots " +
                          q(kDetcheckFixture / "roots.txt") + " " +
                          q(kDetcheckFixture / "src"));
  // det_suppressed's rand() at line 45 carries MMHAR_DETCHECK_ALLOW on the
  // line directly above; never_reached_nondet is outside every root's cone;
  // serving/api.h includes common/ which is the legal downward direction.
  EXPECT_EQ(r.output.find("det_bad.cpp:45"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("never_reached_nondet"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("src/serving/api.h:"), std::string::npos)
      << r.output;
}

std::string detcheck_tree_cmd(const fs::path& root, const fs::path& roots) {
  return kDetcheck + " --roots " + q(roots) + " " + q(root / "src") + " " +
         q(root / "bench") + " " + q(root / "tools");
}

TEST(DetcheckRealTree, PipelineIsDeterminismCleanWithEnoughRoots) {
  // The exact invocation ctest/CI runs: src + bench + tools against the
  // checked-in roots file. Passing proves the bit-identity cone is clean
  // end to end, with no baseline to hide behind.
  const RunResult r =
      run(detcheck_tree_cmd(kRoot, kRoot / "tools" / "detcheck_roots.txt"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("violations=0 status=ok"), std::string::npos)
      << r.output;
  // Acceptance floor: at least 8 annotated determinism roots.
  const auto at = r.output.find("roots=");
  ASSERT_NE(at, std::string::npos) << r.output;
  const int roots = std::atoi(r.output.c_str() + at + 6);
  EXPECT_GE(roots, 8) << r.output;
}

TEST(DetcheckRealTree, RootsFilePinsEveryPaperInvariant) {
  // Removing a row from detcheck_roots.txt must fail ctest even though the
  // checker itself cannot see the deletion (fewer required roots is a
  // weaker, still-consistent configuration). This pin is the other half of
  // the deletion property: the annotation side is guarded by root-coverage,
  // the roots-file side by this exact-row assertion.
  const std::string rows = read_file(kRoot / "tools" / "detcheck_roots.txt");
  const char* const kRequired[] = {
      "deterministic dsp::compute_drai_sequence",
      "deterministic har::infer_forward",
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

TEST(DetcheckRealTree, DeletingAnyRootAnnotationFails) {
  // Acceptance property: strip the MMHAR_DETERMINISTIC token from each real
  // annotation site, one at a time, in a scratch copy of the repo; every
  // single deletion must turn root-coverage red.
  const fs::path tmp = scratch_dir() / "dettree";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  for (const char* dir : {"src", "bench", "tools"})
    fs::copy(kRoot / dir, tmp / dir, fs::copy_options::recursive);

  struct Site {
    fs::path file;
    std::size_t line_idx;
    std::string original;
  };
  std::vector<Site> sites;
  for (const auto& entry : fs::recursive_directory_iterator(tmp / "src")) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename() == "thread_annotations.h") continue;
    const auto ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cpp") continue;
    std::ifstream in(entry.path());
    std::string line;
    std::size_t idx = 0;
    for (; std::getline(in, line); ++idx) {
      const auto first = line.find_first_not_of(" \t");
      if (first != std::string::npos &&
          (line.compare(first, 2, "//") == 0 || line[first] == '#' ||
           line[first] == '*'))
        continue;
      if (line.find("MMHAR_DETERMINISTIC") != std::string::npos)
        sites.push_back({entry.path(), idx, line});
    }
  }
  ASSERT_GE(sites.size(), 9u)
      << "annotation sites not found — did the annotation spelling change?";

  for (const auto& site : sites) {
    std::ifstream in(site.file);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    ASSERT_LT(site.line_idx, lines.size());

    std::string stripped = lines[site.line_idx];
    const std::string token = "MMHAR_DETERMINISTIC";
    for (auto at = stripped.find(token); at != std::string::npos;
         at = stripped.find(token))
      stripped.erase(at, token.size());
    lines[site.line_idx] = stripped;
    {
      std::ofstream out(site.file);
      for (const auto& l : lines) out << l << "\n";
    }

    const RunResult r =
        run(detcheck_tree_cmd(tmp, kRoot / "tools" / "detcheck_roots.txt"));
    EXPECT_EQ(r.exit_code, 1)
        << "stripping the annotation from " << site.file << ":"
        << site.line_idx + 1 << " (`" << site.original
        << "`) went unnoticed:\n" << r.output;
    EXPECT_NE(r.output.find("[root-coverage]"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("has lost its MMHAR_DETERMINISTIC"),
              std::string::npos)
        << r.output;

    // Restore for the next site.
    lines[site.line_idx] = site.original;
    std::ofstream out(site.file);
    for (const auto& l : lines) out << l << "\n";
  }
  fs::remove_all(tmp);
}

TEST(AnalyzeRealTree, DeletingAnyRegistryRowFails) {
  // The acceptance property for the closed env-knob namespace: removing any
  // single row from the real registry must turn the analyzer red, because
  // the README row and/or the read site it backed becomes unaccounted for.
  const fs::path real_registry = kRoot / "src" / "common" / "env_registry.cpp";
  std::ifstream in(real_registry);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  std::vector<std::size_t> row_lines;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].find("{\"MMHAR_") != std::string::npos) row_lines.push_back(i);
  ASSERT_GE(row_lines.size(), 10u)
      << "registry rows not found — did the row format change?";

  const fs::path tmp = scratch_dir() / "registry_minus_one.cpp";
  for (const std::size_t drop : row_lines) {
    std::ostringstream pruned;
    for (std::size_t i = 0; i < lines.size(); ++i)
      if (i != drop) pruned << lines[i] << "\n";
    write_file(tmp, pruned.str());
    const RunResult r = run(kAnalyze + " --registry " + q(tmp) + " --readme " +
                            q(kRoot / "README.md") + " " + q(kRoot / "src") +
                            " " + q(kRoot / "bench") + " " + q(kRoot / "tools"));
    EXPECT_EQ(r.exit_code, 1)
        << "deleting registry row `" << lines[drop]
        << "` went unnoticed:\n" << r.output;
    EXPECT_NE(r.output.find("[env-knob-registry]"), std::string::npos)
        << r.output;
  }
}


TEST(DetcheckRealTree, ConvPanelPackerIsInsideTheConvKernelCone) {
  // conv2d_frame's B-panel packer is called with explicit template
  // arguments; a rand() call seeded into its body, in a scratch copy of
  // the repo, must be reached through conv2d_frame from a determinism
  // root (infer_forward and Sequential::forward both call it).
  const fs::path tmp = scratch_dir() / "packtree";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  for (const char* dir : {"src", "bench", "tools"})
    fs::copy(kRoot / dir, tmp / dir, fs::copy_options::recursive);
  const fs::path gemm = tmp / "src" / "tensor" / "gemm.cpp";
  std::string text = read_file(gemm);
  const auto head = text.find("void pack_conv_panel(");
  ASSERT_NE(head, std::string::npos) << "pack_conv_panel not found";
  const auto body = text.find("{\n", head);
  ASSERT_NE(body, std::string::npos);
  text.insert(body + 2, "  const int probe = std::rand();\n");
  write_file(gemm, text);

  const RunResult r =
      run(detcheck_tree_cmd(tmp, kRoot / "tools" / "detcheck_roots.txt"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("-> mmhar::conv2d_frame -> "
                          "mmhar::(anonymous)::pack_conv_panel"),
            std::string::npos)
      << r.output;
  fs::remove_all(tmp);
}

}  // namespace
