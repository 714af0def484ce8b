// Deterministic random number generation.
//
// All stochastic components of the library (dataset generation, weight
// initialization, SHAP sampling, poisoning choices) draw from an explicitly
// plumbed `Rng` so that every experiment is reproducible from a single seed.
// `Rng::fork(tag)` derives statistically independent child streams, which
// lets parallel workers consume randomness without sharing state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmhar {

class BinaryReader;
class BinaryWriter;

/// SplitMix64-seeded xoshiro256** generator with convenience samplers.
///
/// Not cryptographic; chosen for speed, tiny state, and good statistical
/// quality (passes BigCrush). Copyable value type.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive an independent child stream. Children with distinct tags (or
  /// from distinct parents) do not overlap in practice.
  Rng fork(std::uint64_t tag);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached spare deviate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Writes out[i] == static_cast<float>(normal(0.0, stddev)) for i in call
  /// order and leaves the generator (spare included) where n scalar calls
  /// would. Blocks of pairs go through a vectorised Box–Muller whose every
  /// output is certified to round as the host libm's would; a pair the
  /// certificate cannot settle is redone by normal()'s own arithmetic
  /// (DESIGN §6d). Returns the number of pairs redone that way.
  std::size_t normal_fill(double stddev, float* out, std::size_t n);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Sample k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// In-place Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& v);

  /// Serialize the full generator state (stream position included), so a
  /// restored Rng continues bit-identically. Used by training checkpoints.
  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);

 private:
  /// The two uniforms behind one Box–Muller pair, u1 in (1e-300, 1).
  void box_muller_uniforms(double& u1, double& u2);

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// normal_fill's own log and sincos, exposed for their accuracy tests.
namespace rng_detail {

/// Relative slack the certificate widens r, cos and sin by: it must cover
/// the own functions' error plus the host libm's (each within 1 ulp).
inline constexpr double kCertificateSlack = 0x1p-46;

/// log(x) for normal x > 0 (fdlibm e_log.c, branch-free).
double log(double x);

/// sin and cos of theta in [0, 2*pi] (fdlibm kernels, Cody–Waite
/// reduction in three steps, branch-free).
void sincos(double theta, double& s, double& c);

}  // namespace rng_detail

}  // namespace mmhar
