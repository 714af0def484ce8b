#include <cstdlib>

int fixture_allowed() {
  // seeded for the suppression test. mmhar: allow(banned-rng)
  return rand();
}
