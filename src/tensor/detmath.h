// Elementwise tanh and logistic sigmoid for the LSTM gates, owned by the
// library instead of taken from the host libm.
//
// Each kernel is a select-based (branch-free) port of the routine x86-64
// glibc runs for the same call, so the results are the bits that
// `std::tanh(x)` and `1.0F / (1.0F + std::exp(-x))` give there, for every
// float input (checked against glibc 2.36 over all 2^32 inputs):
//
//  * tanh is fdlibm's `tanhf` over its `expm1f` (`s_tanhf.c`,
//    `s_expm1f.c`): plain float operations, no fused multiply-add.
//  * sigmoid evaluates `expf` with the 32-entry `exp2f` table algorithm,
//    in double, with each fused step written as an explicit `std::fma`
//    (glibc's x86-64 FMA variant fuses exactly those steps), and keeps
//    its |x| >= 88 special cases.
//
// detmath.cpp is compiled with -ffp-contract=off, so the compiler adds
// no fusion of its own, and the loops vectorise. Without a hardware FMA
// (`MMHAR_NATIVE=OFF`) `std::fma` is a correctly rounded libm call:
// slower, the same bits. The results therefore no longer depend on the
// host's libm version or on whether it picks a vector or scalar variant.
#pragma once

#include <cstddef>

namespace mmhar::detmath {

/// out[i] = tanh(in[i]) for i < n. `in` and `out` must not overlap.
void tanh_to(const float* in, float* out, std::size_t n);

/// x[i] = tanh(x[i]) for i < n.
void tanh_inplace(float* x, std::size_t n);

/// x[i] = 1 / (1 + exp(-x[i])) for i < n.
void sigmoid_inplace(float* x, std::size_t n);

}  // namespace mmhar::detmath
