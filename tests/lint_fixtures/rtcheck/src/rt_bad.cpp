// mmhar_check rt fixture: seeded real-time violations, asserted at exact
// (rule, file, line) with their call chains by tests/test_check.cpp.
// Scanned as text only — never compiled. Keep line numbers stable.
namespace fixture {

void helper_allocates() {
  int* p = new int[4];
  (void)p;
}

void transitive_mid() { helper_allocates(); }

void hot_transitive() MMHAR_REALTIME { transitive_mid(); }

void hot_growth(std::vector<float>& buf) MMHAR_REALTIME {
  buf.push_back(1.0F);
}

void hot_lock(Mutex& mu) MMHAR_REALTIME {
  MutexLock guard(mu);
}

void hot_raw_lock(std::mutex& m) MMHAR_REALTIME {
  std::lock_guard<std::mutex> g(m);
}

void hot_block() MMHAR_REALTIME {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void hot_pool(ThreadPool& pool, std::size_t n) MMHAR_REALTIME {
  // The dispatch itself is waived so the test can show the lambda body
  // is still charged to this function:
  // mmhar: allow(block) — fixture: dispatch waived on purpose
  pool.parallel_for(0, n, [&](std::size_t i) {
    double* q = new double[i + 1];
    (void)q;
  });
}

void hot_throw(int x) MMHAR_REALTIME {
  if (x < 0) throw 1;
}

void hot_env() MMHAR_REALTIME {
  const char* rogue = std::getenv("MMHAR_FIXTURE_ROGUE");
  const char* known = std::getenv("MMHAR_FIXTURE_KNOB");
  (void)rogue;
  (void)known;
}

void hot_suppressed() MMHAR_REALTIME {
  // Grow-once pattern, justified (comma list also covers the delete):
  // mmhar: allow(alloc, lock) — fixture: cold first-call growth
  float* w = new float[16];
  (void)w;
}

void cold_build() {
  long* t = new long[32];
  (void)t;
}

void hot_cold_call() MMHAR_REALTIME {
  // mmhar: allow(rt-calls) — fixture: provably cold first-use path
  cold_build();
}

struct Service {
  void handoff_ok() MMHAR_REALTIME_HANDOFF {
    MutexLock guard(mu_);
  }
  int mu_ = 0;
};

void never_reached_alloc() {
  char* c = new char[8];
  (void)c;
}

}  // namespace fixture
