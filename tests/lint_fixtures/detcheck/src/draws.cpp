// mmhar_check det fixture for unsequenced-draw, asserted at exact
// (rule, file, line) by tests/test_check.cpp. Scanned as text only —
// never compiled. Keep line numbers stable.
namespace fixture {

std::complex<float> draws_in_one_call(Rng& rng) {
  return std::complex<float>(static_cast<float>(rng.normal()),
                             static_cast<float>(rng.normal()));
}

float draw_beside_a_drawing_call(Rng* rng) {
  return mix(rng->uniform(), scale(rng->index(4), 2.0F));
}

std::vector<double> draws_in_braces(Rng& rng) {
  return std::vector<double>{rng.normal(), rng.normal()};
}

void draws_into_named_locals(Rng& rng, std::complex<float>& v) {
  const float im = static_cast<float>(rng.normal());
  const float re = static_cast<float>(rng.normal());
  v += std::complex<float>(re, im);
}

void draws_in_a_lambda_body(ThreadPool& pool, Rng& rng) {
  pool.parallel_for(0, 4, [&](std::size_t) { rng.uniform(); rng.uniform(); });
}

int draws_in_a_condition(Rng& rng) {
  if (rng.bernoulli(0.5) && rng.bernoulli(0.25)) return 1;
  return 0;
}

double draws_waived(Rng& rng) {
  // mmhar: allow(unsequenced-draw) — fixture: waived on purpose
  return combine(rng.next_u64(), rng.bernoulli(0.5));
}

}  // namespace fixture
