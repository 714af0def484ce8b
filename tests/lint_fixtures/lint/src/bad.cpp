// Seeded lint-family violations; every line number in this file is
// asserted by tests/test_check.cpp — renumber there if you
// edit here.
#include <cstdlib>
#include <fstream>
#include <vector>

struct FakePool {
  template <class F>
  void parallel_for(int, int, F) {}
};

void fixture_lint_bait(std::vector<float>& v) {
  int r = rand();
  float* p = new float[4];
  float* q = v.data() + 3;
  for (int i = 0; i < 4; ++i) {
    std::vector<int> scratch(4);
    scratch[0] = i;
  }
  std::ofstream out("cache.bin");
  out << *p << *q << r;
  delete[] p;
}

void fixture_race(FakePool& pool, double& total) {
  pool.parallel_for(0, 8, [&](int i) {
    total += i;
  });
}
