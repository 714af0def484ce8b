// End-to-end tests for mmhar_rtcheck, the cross-TU real-time-safety
// checker. The binary runs as a real subprocess — first over the seeded
// fixture tree in tests/lint_fixtures/rtcheck/ (every rule asserted at
// its exact file:line with its call chain), then over the real repo
// (which must be clean), and finally over a mutated copy of the repo
// proving the acceptance property: deleting the MMHAR_REALTIME /
// MMHAR_REALTIME_HANDOFF annotation from any required root turns the
// check red instead of silently shrinking the verified set.
//
// MMHAR_RTCHECK_BIN and MMHAR_REPO_ROOT are injected by
// tests/CMakeLists.txt so the test works from any build directory.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
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
const std::string kRtcheck = std::string("\"") + MMHAR_RTCHECK_BIN + "\"";

const fs::path kFixture = kRoot / "tests" / "lint_fixtures" / "rtcheck";

fs::path scratch_dir() {
  const fs::path d = fs::temp_directory_path() / "mmhar_rtcheck_test";
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

std::string fixture_cmd() {
  return kRtcheck + " --registry " + q(kFixture / "registry.cpp") +
         " --roots " + q(kFixture / "roots.txt") + " " + q(kFixture / "src");
}

TEST(RtcheckFixtures, FindsEverySeededViolationAtExactLines) {
  const RunResult r = run(fixture_cmd());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const char* expected[] = {
      "src/rt_bad.cpp:7: [alloc] operator new allocates "
      "[in fixture::helper_allocates]",
      "src/rt_bad.cpp:16: [alloc] '.push_back(...)' may grow a container "
      "(allocates) [in fixture::hot_growth]",
      "src/rt_bad.cpp:20: [lock] lock acquisition outside a "
      "MMHAR_REALTIME_HANDOFF body (the annotated slot hand-off protocol) "
      "[in fixture::hot_lock]",
      "src/rt_bad.cpp:24: [lock] raw std lock acquisition",
      "src/rt_bad.cpp:28: [block] sleep blocks the real-time thread "
      "[in fixture::hot_block]",
      "src/rt_bad.cpp:36: [alloc] operator new allocates "
      "[in fixture::hot_pool]",
      "src/rt_bad.cpp:42: [throw] throw unwinds with unbounded latency",
      "src/rt_bad.cpp:46: [env-read] 'MMHAR_FIXTURE_ROGUE' is not in the "
      "env registry [in fixture::hot_env]",
  };
  for (const char* e : expected)
    EXPECT_NE(r.output.find(e), std::string::npos)
        << "missing finding: " << e << "\n" << r.output;
  EXPECT_NE(r.output.find("8 violation(s)"), std::string::npos) << r.output;
  EXPECT_NE(
      r.output.find("mmhar_rtcheck: summary files=1 functions=15 roots=11 "
                    "reachable=13 violations=8 status=fail"),
      std::string::npos)
      << r.output;
}

TEST(RtcheckFixtures, TransitiveViolationCarriesTheFullCallChain) {
  const RunResult r = run(fixture_cmd());
  EXPECT_NE(r.output.find("chain: fixture::hot_transitive -> "
                          "fixture::transitive_mid -> "
                          "fixture::helper_allocates"),
            std::string::npos)
      << r.output;
  // The lambda body inside parallel_for is charged to its enclosing
  // function, so the chain is the enclosing function itself.
  EXPECT_NE(r.output.find("rt_bad.cpp:36: [alloc]"), std::string::npos);
  EXPECT_NE(r.output.find("chain: fixture::hot_pool"), std::string::npos)
      << r.output;
}

TEST(RtcheckFixtures, ExplicitTemplateArgumentCallIsFollowed) {
  // `packer<8>(...)` must resolve to packer like a plain call; otherwise
  // a kernel that dispatches to template instantiations hides their
  // bodies from every root.
  const fs::path dir = scratch_dir() / "template_call";
  fs::remove_all(dir);
  fs::create_directories(dir);
  write_file(dir / "t.cpp",
             "namespace fixture {\n"
             "template <int N>\n"
             "void packer(float* out) {\n"
             "  float* tmp = new float[N];\n"
             "  out[0] = tmp[0];\n"
             "}\n"
             "void hot(float* out) MMHAR_REALTIME { packer<8>(out); }\n"
             "}  // namespace fixture\n");
  const RunResult r = run(kRtcheck + " --rule alloc " + q(dir));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("t.cpp:4: [alloc]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("chain: fixture::hot -> fixture::packer"),
            std::string::npos)
      << r.output;
  fs::remove_all(dir);
}

TEST(RtcheckFixtures, SuppressionsHandoffAndUnreachedStaySilent) {
  const RunResult r = run(fixture_cmd());
  // allow(alloc, ...) comma list suppresses hot_suppressed's new.
  EXPECT_EQ(r.output.find("hot_suppressed"), std::string::npos) << r.output;
  // allow(calls) cuts traversal into cold_build; its alloc is unreported.
  EXPECT_EQ(r.output.find("cold_build"), std::string::npos) << r.output;
  // The waived parallel_for dispatch itself does not appear as [block].
  EXPECT_EQ(r.output.find("[block] thread-pool dispatch"), std::string::npos)
      << r.output;
  // A wrapper lock inside a MMHAR_REALTIME_HANDOFF body is the protocol.
  EXPECT_EQ(r.output.find("handoff_ok"), std::string::npos) << r.output;
  // Unannotated and never called from a root: not traversed at all.
  EXPECT_EQ(r.output.find("never_reached_alloc"), std::string::npos)
      << r.output;
  // Registered env knob reads are fine.
  EXPECT_EQ(r.output.find("MMHAR_FIXTURE_KNOB"), std::string::npos)
      << r.output;
}

TEST(RtcheckFixtures, ReportFileMirrorsTheFindings) {
  const fs::path report = scratch_dir() / "report.txt";
  fs::remove(report);
  const RunResult r = run(fixture_cmd() + " --report " + q(report));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string text = read_file(report);
  EXPECT_NE(text.find("src/rt_bad.cpp:7: [alloc] operator new allocates"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("chain: fixture::hot_transitive -> "
                      "fixture::transitive_mid -> "
                      "fixture::helper_allocates"),
            std::string::npos)
      << text;
}

TEST(RtcheckFixtures, RootCoverageMissingFunction) {
  const fs::path roots = scratch_dir() / "roots_missing.txt";
  write_file(roots, "realtime fixture::no_such_function\n");
  const RunResult r = run(kRtcheck + " --rule root-coverage --roots " +
                          q(roots) + " " + q(kFixture / "src"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("required root 'fixture::no_such_function' names "
                          "no function in the scanned roots"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(":1: [root-coverage]"), std::string::npos)
      << r.output;
}

TEST(RtcheckFixtures, RootCoverageLostAnnotation) {
  // cold_build exists but is deliberately unannotated: requiring it must
  // report the lost annotation at the function's own location.
  const fs::path roots = scratch_dir() / "roots_lost.txt";
  write_file(roots, "realtime fixture::cold_build\n");
  const RunResult r = run(kRtcheck + " --rule root-coverage --roots " +
                          q(roots) + " " + q(kFixture / "src"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/rt_bad.cpp:59: [root-coverage] required root "
                          "'fixture::cold_build' has lost its MMHAR_REALTIME "
                          "annotation"),
            std::string::npos)
      << r.output;
}

TEST(RtcheckFixtures, MalformedRootsRowIsAUsageError) {
  const fs::path roots = scratch_dir() / "roots_bad.txt";
  write_file(roots, "bogus fixture::hot_transitive\n");
  const RunResult r = run(kRtcheck + " --roots " + q(roots) + " " +
                          q(kFixture / "src"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("bad roots file"), std::string::npos) << r.output;
}

std::string real_tree_cmd(const fs::path& root, const fs::path& roots_file) {
  return kRtcheck + " --registry " +
         q(root / "src" / "common" / "env_registry.cpp") + " --roots " +
         q(roots_file) + " " + q(root / "src") + " " + q(root / "bench") +
         " " + q(root / "tools");
}

TEST(RtcheckRealTree, ServingHotPathIsCleanWithZeroWaivers) {
  const RunResult r =
      run(real_tree_cmd(kRoot, kRoot / "tools" / "rtcheck_roots.txt"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("status=ok"), std::string::npos) << r.output;
  // The annotated root set must actually be non-trivial: the roots file
  // floor plus the definitions it covers.
  EXPECT_NE(r.output.find("annotated root(s)"), std::string::npos)
      << r.output;
}

TEST(RtcheckRealTree, DeletingAnyRootAnnotationFails) {
  // Acceptance property: strip the MMHAR_REALTIME / MMHAR_REALTIME_HANDOFF
  // token from each real annotation site, one at a time, in a scratch copy
  // of the repo; every single deletion must turn root-coverage red.
  const fs::path tmp = scratch_dir() / "tree";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  for (const char* dir : {"src", "bench", "tools"})
    fs::copy(kRoot / dir, tmp / dir, fs::copy_options::recursive);

  // Find every live annotation site (skip the macro definitions in
  // thread_annotations.h and prose mentions in comments).
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
      if (line.find("MMHAR_REALTIME") != std::string::npos)
        sites.push_back({entry.path(), idx, line});
    }
  }
  ASSERT_GE(sites.size(), 10u)
      << "annotation sites not found — did the annotation spelling change?";

  for (const auto& site : sites) {
    std::ifstream in(site.file);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    ASSERT_LT(site.line_idx, lines.size());

    std::string stripped = lines[site.line_idx];
    for (const char* token : {"MMHAR_REALTIME_HANDOFF", "MMHAR_REALTIME"}) {
      for (auto at = stripped.find(token); at != std::string::npos;
           at = stripped.find(token))
        stripped.erase(at, std::string(token).size());
    }
    lines[site.line_idx] = stripped;
    {
      std::ofstream out(site.file);
      for (const auto& l : lines) out << l << "\n";
    }

    const RunResult r =
        run(real_tree_cmd(tmp, kRoot / "tools" / "rtcheck_roots.txt"));
    EXPECT_EQ(r.exit_code, 1)
        << "stripping the annotation from " << site.file << ":"
        << site.line_idx + 1 << " (`" << site.original
        << "`) went unnoticed:\n" << r.output;
    EXPECT_NE(r.output.find("[root-coverage]"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("has lost its MMHAR_REALTIME"), std::string::npos)
        << r.output;

    // Restore for the next site.
    lines[site.line_idx] = site.original;
    std::ofstream out(site.file);
    for (const auto& l : lines) out << l << "\n";
  }
  fs::remove_all(tmp);
}


TEST(RtcheckRealTree, ConvPanelPackerIsInsideTheConvKernelCone) {
  // conv2d_frame's B-panel packer is called with explicit template
  // arguments; an allocation seeded into its body, in a scratch copy of
  // the repo, must be charged to the conv kernel's real-time root.
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
  text.insert(body + 2, "  float* probe = new float[1];\n");
  write_file(gemm, text);

  const RunResult r =
      run(real_tree_cmd(tmp, kRoot / "tools" / "rtcheck_roots.txt"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("chain: mmhar::conv2d_frame -> "
                          "mmhar::(anonymous)::pack_conv_panel"),
            std::string::npos)
      << r.output;
  fs::remove_all(tmp);
}

TEST(RtcheckRealTree, DetmathKernelsAreInsideTheInferenceCone) {
  // The LSTM gate nonlinearities run on the serving path through the
  // shared cell update; an allocation seeded into one of them, in a
  // scratch copy of the repo, must be charged to infer_forward.
  const fs::path tmp = scratch_dir() / "detmathtree";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  for (const char* dir : {"src", "bench", "tools"})
    fs::copy(kRoot / dir, tmp / dir, fs::copy_options::recursive);
  const fs::path detmath = tmp / "src" / "tensor" / "detmath.cpp";
  std::string text = read_file(detmath);
  const auto head = text.find("void tanh_to(");
  ASSERT_NE(head, std::string::npos) << "tanh_to not found";
  const auto body = text.find("{\n", head);
  ASSERT_NE(body, std::string::npos);
  text.insert(body + 2, "  float* probe = new float[1];\n");
  write_file(detmath, text);

  const RunResult r =
      run(real_tree_cmd(tmp, kRoot / "tools" / "rtcheck_roots.txt"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("chain: mmhar::har::infer_forward -> "
                          "mmhar::har::(anonymous)::forward_rows -> "
                          "mmhar::nn::lstm_cell -> mmhar::detmath::tanh_to"),
            std::string::npos)
      << r.output;
  fs::remove_all(tmp);
}

}  // namespace
