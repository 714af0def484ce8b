// Fixture env registry for the env-knob-registry analyzer rule; the row
// line numbers are asserted by tests/test_check.cpp.
constexpr const char* kFixtureRows[][4] = {
    {"MMHAR_FIXTURE_USED", "int", "0", "documented and read"},
    {"MMHAR_FIXTURE_UNDOC", "int", "0", "read but missing from the readme"},
    {"MMHAR_FIXTURE_STALE", "int", "0", "documented but never read"},
};
