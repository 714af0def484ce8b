#include "tensor/detmath.h"

#include <bit>
#include <cmath>
#include <cstdint>

// Built with -ffp-contract=off -fno-trapping-math (src/tensor/
// CMakeLists.txt): every fused multiply-add below is explicit, and no
// other operation pair may be fused, or the results would leave the
// reference bits.

namespace mmhar::detmath {
namespace {

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

// cond ? a : b as a bit-mask blend. Plain ternaries chained on one value
// merge into a many-way phi that GCC 12 will not if-convert, which keeps
// the loop scalar.
[[gnu::always_inline]] inline float blend(bool cond, float a, float b) {
  const std::uint32_t m = 0U - static_cast<std::uint32_t>(cond);
  return from_bits((bits(a) & m) | (bits(b) & ~m));
}

// fdlibm expm1f (glibc s_expm1f.c) for the arguments tanh passes it:
// y = -2|x| in (-2, 0] or y = 2|x| in [2, 44). On that domain the reduced
// exponent k is 0 (|y| <= ln2/2), -1 (|y| < 1.5 ln2), -2 or -3 (y < 0),
// or 3..63 (y >= 2), so the k == 1 and |y| >= 27 ln2 paths are never
// taken and not ported. Every path is evaluated and the one fdlibm's
// branches would take is selected, so the loop has no branches.
[[gnu::always_inline]] inline float expm1_tanh_arg(float y) {
  constexpr float kLn2Hi = 0x1.62e3p-1F;       // 0x3f317180
  constexpr float kLn2Lo = 0x1.2fefa2p-17F;    // 0x3717f7d1
  constexpr float kInvLn2 = 0x1.715476p+0F;    // 0x3fb8aa3b
  constexpr float kQ1 = -0x1.111112p-5F;       // 0xbd088889
  constexpr float kQ2 = 0x1.a01a02p-10F;       // 0x3ad00d01
  constexpr float kQ3 = -0x1.4ce19ap-14F;      // 0xb8a670cd
  constexpr float kQ4 = 0x1.0cfca8p-18F;       // 0x36867e54
  constexpr float kQ5 = -0x1.afdb76p-23F;      // 0xb457edbb

  const std::uint32_t hy = bits(y) & 0x7fffffffU;
  const bool neg = (bits(y) >> 31) != 0;
  // Argument reduction: y = k ln2 + x, x = hi - lo, c the rounding error.
  // k is masked, not selected, for the same reason as blend().
  int k = static_cast<int>(kInvLn2 * y + (neg ? -0.5F : 0.5F));
  k |= -static_cast<int>(hy < 0x3f851592U);  // |y| < 1.5 ln2 (y < 0 here): -1
  k &= -static_cast<int>(hy > 0x3eb17218U);  // |y| <= ln2/2: 0, no reduction
  // With t = 0 or +-1 these are exactly fdlibm's special-cased forms.
  const float t = static_cast<float>(k);
  const float hi = y - t * kLn2Hi;
  const float lo = t * kLn2Lo;
  const float x = hi - lo;
  const float c = (hi - x) - lo;

  const float hfx = 0.5F * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0F + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t3 = 3.0F - r1 * hfx;
  const float e0 = hxs * ((r1 - t3) / (6.0F - x * t3));
  const float r_k0 = x - (x * e0 - hxs);                           // k == 0
  const float e = (x * (e0 - c) - c) - hxs;
  const float r_km1 = 0.5F * (x - e) - 0.5F;                       // k == -1
  const std::uint32_t k_exp = static_cast<std::uint32_t>(k) << 23;  // 2^k
  const float r_far = from_bits(bits(1.0F - (e - x)) + k_exp) - 1.0F;
  const float two_mk = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);
  // 2 <= k < 23: t = 1 - 2^-k, exact (fdlibm builds the same bits).
  const float r_mid = from_bits(bits((1.0F - two_mk) - (e - x)) + k_exp);
  // 23 <= k <= 56: t = 2^-k.
  const float r_hi = from_bits(bits((x - (e + two_mk)) + 1.0F) + k_exp);

  float r = blend(k < 23, r_mid, r_hi);
  r = blend(k <= -2 || k > 56, r_far, r);
  r = blend(k == -1, r_km1, r);
  r = blend(k == 0, r_k0, r);
  return blend(hy < 0x33000000U, y, r);  // |y| < 2^-25: expm1(y) = y
}

// fdlibm tanhf (glibc s_tanhf.c).
[[gnu::always_inline]] inline float tanh_scalar(float x) {
  const std::uint32_t jx = bits(x);
  const std::uint32_t ix = jx & 0x7fffffffU;
  // |x| >= 22, inf and NaN leave through a special case below; run the
  // main path on a harmless stand-in there.
  const bool main_path = ix < 0x41b00000U;
  const float a = main_path ? from_bits(ix) : 1.0F;
  const bool ge_one = ix >= 0x3f800000U;
  const float t = expm1_tanh_arg(ge_one ? 2.0F * a : -2.0F * a);
  // z = 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below: one division.
  const float q = (ge_one ? 2.0F : -t) / (t + 2.0F);
  const float z = ge_one ? 1.0F - q : q;
  float r = blend(main_path, z, 1.0F);  // |x| >= 22 and +-inf: +-1
  r = blend((jx >> 31) != 0, -r, r);
  r = blend(ix < 0x24000000U, x, r);  // |x| < 2^-55, +-0 and denormals: x
  return blend(ix > 0x7f800000U, x + x, r);  // NaN
}

// a * b + c as glibc's x86-64 FMA build of expf evaluates it: fused
// where the target has FMA. Elsewhere std::fma would be a libm call that
// keeps the sigmoid loop scalar; the rounded multiply-add gives the same
// sigmoid for all 2^32 inputs (DetMath.DISABLED_ExhaustiveAllFloats).
[[gnu::always_inline]] inline double madd(double a, double b, double c) {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

// glibc's expf (sysdeps/ieee754/flt-32/e_expf.c with the exp2f_data
// table).
constexpr std::uint64_t kExp2Tab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

[[gnu::always_inline]] inline float exp_scalar(float x) {
  constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
  constexpr double kShift = 0x1.8p+52;
  constexpr double kC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
  constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
  constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32;

  // x*32/ln2 = k + r with r in [-1/2, 1/2]; exp(x) = 2^(k/32) 2^(r/32).
  const double xd = x;
  const double kd_shifted = madd(kInvLn2N, xd, kShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd_shifted);
  const double kd = kd_shifted - kShift;
  const double r = madd(kInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(kExp2Tab[ki % 32] + (ki << 47));
  const double z = madd(kC0, r, kC1);
  const double r2 = r * r;
  const double y = madd(z, r2, madd(kC2, r, 1.0)) * s;
  const float main_result = static_cast<float>(y);

  // |x| >= 88, inf and NaN: the special cases, in glibc's order.
  float special = main_result;
  special = x < -0x1.9d1d9ep6F ? 0x1p-149F : special;  // may underflow
  special = x < -0x1.9fe368p6F ? 0.0F : special;       // underflow
  special = x > 0x1.62e42ep6F ? HUGE_VALF : special;   // overflow
  special = (bits(x) & 0x7fffffffU) >= 0x7f800000U ? x + x : special;
  special = x == -HUGE_VALF ? 0.0F : special;
  return ((bits(x) >> 20) & 0x7ffU) >= 0x42bU ? special : main_result;
}

}  // namespace

void tanh_to(const float* __restrict in, float* __restrict out,
             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tanh_scalar(in[i]);
}

void tanh_inplace(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = tanh_scalar(x[i]);
}

void sigmoid_inplace(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 1.0F / (1.0F + exp_scalar(-x[i]));
}

}  // namespace mmhar::detmath
