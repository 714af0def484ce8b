#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/serialize.h"

namespace mmhar {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
constexpr std::size_t kFillBlock = 256;  // pairs per certified block

// One Box–Muller pair with the host libm: r*cos(theta) is the draw
// normal() returns, r*sin(theta) its spare.
struct NormalPair {
  double cos_part;
  double sin_part;
};

NormalPair box_muller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = kTwoPi * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

// ---- normal_fill's own log and sincos --------------------------------------
// Written branch-free (selects, 64-bit masks and shifts, and the 0x1.8p52
// rounding trick; no int64 <-> double conversion), so one loop over a
// block vectorises on every x86-64 ISA level. They need not match the
// host libm bit for bit: the certificate in normal_fill only needs them
// within kCertificateSlack of it.

inline double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

// fdlibm e_log.c for normal x > 0, its branches turned into selects.
inline double own_log(double x) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  const std::uint64_t ix = std::bit_cast<std::uint64_t>(x);
  // x = 2^(e-1023) * m with m in [1, 2); both read off the bits.
  const double m =
      from_bits((ix & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
  const double e = from_bits((ix >> 52) | 0x4330000000000000ULL) - 0x1p52;
  // fdlibm's high-word tests on m, as compares: m >= 0x1.6a09cp0 is
  // scaled into [sqrt(2)/2, 1), and the mantissa band
  // [0x6147a, 0x6b851] takes the hfsq form.
  const bool high = m >= 0x1.6a09cp0;
  const bool band = (m >= 0x1.6147ap0) & (m < 0x1.6b852p0);
  const double f = (high ? 0.5 * m : m) - 1.0;
  const double dk = e - (high ? 1022.0 : 1023.0);
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  const double with_hfsq =
      dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
  const double without = dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f);
  return band ? with_hfsq : without;
}

// The power of two at or below |x| (0 for 0), for fdlibm's exponent tests.
inline double pow2_floor(double x) {
  return from_bits(std::bit_cast<std::uint64_t>(x) & 0x7ff0000000000000ULL);
}

// sin and cos of theta in [0, 2*pi]: fdlibm __ieee754_rem_pio2's
// medium-range reduction with its second and third steps taken by select,
// then the FreeBSD __kernel_sin / __kernel_cos polynomials.
inline void own_sincos(double theta, double& sin_out, double& cos_out) {
  constexpr double kInvPio2 = 6.36619772367581382433e-01;
  constexpr double kPio2_1 = 1.57079632673412561417e+00;
  constexpr double kPio2_1t = 6.07710050650619224932e-11;
  constexpr double kPio2_2 = 6.07710050630396597660e-11;
  constexpr double kPio2_2t = 2.02226624879595063154e-21;
  constexpr double kPio2_3 = 2.02226624871116645580e-21;
  constexpr double kPio2_3t = 8.47842766036889956997e-32;
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;
  // n = rint(theta * 2/pi), in 0..4.
  const double fn = (theta * kInvPio2 + 0x1.8p52) - 0x1.8p52;
  // Step 1 (good to 85 bits); steps 2 and 3 where fdlibm takes them,
  // after cancellation of more than 16 and 49 bits.
  const double r1 = theta - fn * kPio2_1;
  const double w1 = fn * kPio2_1t;
  const double a2 = fn * kPio2_2;
  const double r2 = r1 - a2;
  const double w2 = fn * kPio2_2t - ((r1 - r2) - a2);
  const double a3 = fn * kPio2_3;
  const double r3 = r2 - a3;
  const double w3 = fn * kPio2_3t - ((r2 - r3) - a3);
  const double top = pow2_floor(theta);
  const bool step2 = pow2_floor(r1 - w1) * 0x1p16 < top;
  const bool step3 = step2 & (pow2_floor(r2 - w2) * 0x1p49 < top);
  const double r = step3 ? r3 : step2 ? r2 : r1;
  const double w = step3 ? w3 : step2 ? w2 : w1;
  const double y0 = r - w;
  const double y1 = (r - y0) - w;
  // sin(y0 + y1) and cos(y0 + y1), |y0| <= pi/4.
  const double z = y0 * y0;
  const double zz = z * z;
  const double sr = kS2 + z * (kS3 + z * kS4) + z * zz * (kS5 + z * kS6);
  const double v = z * y0;
  const double ks = y0 - ((z * (0.5 * y1 - v * sr) - y1) - v * kS1);
  const double cr = z * (kC1 + z * (kC2 + z * kC3)) +
                    zz * zz * (kC4 + z * (kC5 + z * kC6));
  const double hz = 0.5 * z;
  const double one_hz = 1.0 - hz;
  const double kc = one_hz + (((1.0 - one_hz) - hz) + (z * cr - y0 * y1));
  // Quadrant n mod 4 picks and signs the kernels.
  const bool odd = (fn == 1.0) | (fn == 3.0);
  const double sv = odd ? kc : ks;
  const double cv = odd ? ks : kc;
  sin_out = (fn == 2.0) | (fn == 3.0) ? -sv : sv;
  cos_out = (fn == 1.0) | (fn == 2.0) ? -cv : cv;
}

// One block of Box–Muller pairs. For each pair it evaluates the output
// at the four corners of the box that r and cos (then r and sin) widened
// by kCertificateSlack span. fl32(0 + stddev*(r*c)) is monotone in r and
// in c separately, so four equal corners prove that every (r, c) in the
// box, the host libm's included, gives the same float. Pairs whose
// corners differ are redone with box_muller. Returns how many.
std::size_t certified_block(const double* u1, const double* u2,
                            std::size_t count, double stddev, float* out) {
  constexpr double kLo = 1.0 - rng_detail::kCertificateSlack;
  constexpr double kHi = 1.0 + rng_detail::kCertificateSlack;
  std::uint32_t unsettled[kFillBlock] = {};
  const auto output_bits = [stddev](double x) {
    return std::bit_cast<std::uint32_t>(static_cast<float>(0.0 + stddev * x));
  };
  for (std::size_t i = 0; i < count; ++i) {
    const double r = std::sqrt(-2.0 * own_log(u1[i]));
    double s = 0.0;
    double c = 0.0;
    own_sincos(kTwoPi * u2[i], s, c);
    const double r_lo = r * kLo;
    const double r_hi = r * kHi;
    const std::uint32_t c0 = output_bits(r_lo * (c * kLo));
    const std::uint32_t c1 = output_bits(r_lo * (c * kHi));
    const std::uint32_t c2 = output_bits(r_hi * (c * kLo));
    const std::uint32_t c3 = output_bits(r_hi * (c * kHi));
    const std::uint32_t s0 = output_bits(r_lo * (s * kLo));
    const std::uint32_t s1 = output_bits(r_lo * (s * kHi));
    const std::uint32_t s2 = output_bits(r_hi * (s * kLo));
    const std::uint32_t s3 = output_bits(r_hi * (s * kHi));
    out[2 * i] = std::bit_cast<float>(c0);
    out[2 * i + 1] = std::bit_cast<float>(s0);
    unsettled[i] = (c0 ^ c1) | (c0 ^ c2) | (c0 ^ c3) | (s0 ^ s1) |
                   (s0 ^ s2) | (s0 ^ s3);
  }
  std::size_t redone = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (unsettled[i] == 0) continue;
    const NormalPair p = box_muller(u1[i], u2[i]);
    out[2 * i] = static_cast<float>(0.0 + stddev * p.cos_part);
    out[2 * i + 1] = static_cast<float>(0.0 + stddev * p.sin_part);
    ++redone;
  }
  return redone;
}

}  // namespace

namespace rng_detail {

double log(double x) { return own_log(x); }

void sincos(double theta, double& s, double& c) { own_sincos(theta, s, c); }

}  // namespace rng_detail

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t tag) {
  // Mix the parent's next output with the tag to seed the child.
  const std::uint64_t base = next_u64();
  std::uint64_t sm = base ^ (tag * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  Rng child(0);
  for (auto& s : child.s_) s = splitmix64(sm);
  return child;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MMHAR_REQUIRE(lo <= hi, "uniform bounds out of order");
  return lo + (hi - lo) * uniform();
}

void Rng::box_muller_uniforms(double& u1, double& u2) {
  u1 = 0.0;
  while (u1 <= 1e-300) u1 = uniform();
  u2 = uniform();
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  double u2 = 0.0;
  box_muller_uniforms(u1, u2);
  const NormalPair p = box_muller(u1, u2);
  spare_ = p.sin_part;
  has_spare_ = true;
  return p.cos_part;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::size_t Rng::normal_fill(double stddev, float* out, std::size_t n) {
  if (n > 0 && has_spare_) {
    *out++ = static_cast<float>(normal(0.0, stddev));
    --n;
  }
  double u1[kFillBlock] = {};
  double u2[kFillBlock] = {};
  std::size_t redone = 0;
  while (n >= 2) {
    const std::size_t count = std::min(kFillBlock, n / 2);
    for (std::size_t i = 0; i < count; ++i) box_muller_uniforms(u1[i], u2[i]);
    redone += certified_block(u1, u2, count, stddev, out);
    out += 2 * count;
    n -= 2 * count;
    // Scalar calls leave the last pair's consumed sine behind in spare_,
    // and save() writes it. (An odd tail overwrites it below.)
    if (n == 0) spare_ = box_muller(u1[count - 1], u2[count - 1]).sin_part;
  }
  // An odd tail draws one more pair and keeps its sine as the spare.
  if (n == 1) *out = static_cast<float>(normal(0.0, stddev));
  return redone;
}

std::size_t Rng::index(std::size_t n) {
  MMHAR_REQUIRE(n > 0, "index() over empty range");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return static_cast<std::size_t>(x % n);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  MMHAR_REQUIRE(k <= n, "cannot sample " << k << " from " << n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher–Yates: first k entries become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

void Rng::shuffle(std::vector<std::size_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = index(i);
    std::swap(v[i - 1], v[j]);
  }
}

void Rng::save(BinaryWriter& w) const {
  for (const std::uint64_t s : s_) w.write_u64(s);
  w.write_f64(spare_);
  w.write_u32(has_spare_ ? 1 : 0);
}

void Rng::load(BinaryReader& r) {
  for (auto& s : s_) s = r.read_u64();
  spare_ = r.read_f64();
  has_spare_ = r.read_u32() != 0;
}

}  // namespace mmhar
