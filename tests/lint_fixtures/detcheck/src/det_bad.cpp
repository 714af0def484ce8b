// mmhar_check det fixture: seeded determinism violations, asserted at
// exact (rule, file, line) with their call chains by
// tests/test_check.cpp. Scanned as text only — never compiled.
// Keep line numbers stable.
namespace fixture {

std::unordered_map<int, float> table;

int helper_nondet() {
  return std::rand();
}

int transitive_mid() { return helper_nondet(); }

int det_transitive() MMHAR_DETERMINISTIC;
int det_transitive() { return transitive_mid(); }

int det_unordered() MMHAR_DETERMINISTIC {
  int acc = 0;
  for (const auto& kv : table) acc += kv.first;
  auto it = table.begin();
  (void)it;
  return acc;
}

double det_clock() MMHAR_DETERMINISTIC {
  const auto t0 = std::chrono::steady_clock::now();
  return t0.time_since_epoch().count() * 1e-9;
}

int det_env() MMHAR_DETERMINISTIC {
  return env_int("MMHAR_FIXTURE_KNOB", 0);
}

float det_parallel(ThreadPool& pool, std::size_t n) MMHAR_DETERMINISTIC {
  float sum = 0.0F;
  pool.parallel_for(0, n, [&](std::size_t i) {
    sum += static_cast<float>(i);
  });
  return sum;
}

int det_suppressed() MMHAR_DETERMINISTIC {
  // mmhar: allow(nondet-call) — fixture: waived on purpose
  return std::rand();
}

int lost_annotation() {
  return 7;
}

int never_reached_nondet() {
  return std::rand();
}

}  // namespace fixture
