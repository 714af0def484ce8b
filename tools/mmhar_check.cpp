// mmhar_check — the repo's one static checker. See check.h for the rule
// families and README "Static checking" for the rule table.
//
// Usage: mmhar_check <repo-root>
//
// Reads <repo-root>/{src,bench,tools}, src/common/env_registry.cpp,
// README.md and tools/check_roots.txt. Exit codes: 0 clean, 1 findings,
// 2 usage/IO error.
#include <iostream>

#include "check.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: mmhar_check <repo-root>\n";
    return 2;
  }
  return mmhar_tools::run_check(argv[1], std::cout, std::cerr);
}
