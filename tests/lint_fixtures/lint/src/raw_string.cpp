// Lint fixture: quotes and parens inside raw string literals must not hide
// a later loop-body allocation from loop-alloc. Line numbers are asserted
// by tests/test_check.cpp.
#include <regex>
#include <string>

static const std::regex kInclude(R"(^\s*#\s*include\s+"([^"]+)\")");
static const char* kUsage = R"doc(
  usage: a "quoted" ( paren that never closes
)doc";

void fixture_after_raw_strings(int n) {
  for (int i = 0; i < n; ++i) {
    std::string label = "x";
    (void)label;
  }
}
