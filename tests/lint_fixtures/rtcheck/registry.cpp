// mmhar_check rt fixture env registry — same row shape as the real
// src/common/env_registry.cpp; only the quoted first field is parsed.
namespace fixture {
const EnvRow kRows[] = {
    {"MMHAR_FIXTURE_KNOB", "registered fixture knob"},
};
}  // namespace fixture
