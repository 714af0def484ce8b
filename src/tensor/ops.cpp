#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/detmath.h"

namespace mmhar {

Tensor softmax_rows(const Tensor& logits) {
  MMHAR_REQUIRE(logits.rank() == 2, "softmax_rows expects rank-2");
  const std::size_t rows = logits.dim(0);
  const std::size_t cols = logits.dim(1);
  Tensor out({rows, cols});
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    const float mx = *std::max_element(in, in + cols);
    double sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::size_t c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

Tensor softmax(const Tensor& logits) {
  MMHAR_REQUIRE(logits.rank() == 1, "softmax expects rank-1");
  return softmax_rows(logits.reshaped({1, logits.size()}))
      .reshaped({logits.size()});
}

Tensor relu(const Tensor& x) {
  Tensor out = x;
  for (auto& v : out.flat()) v = std::max(v, 0.0F);
  return out;
}

Tensor tanh_elem(const Tensor& x) {
  Tensor out = x;
  detmath::tanh_inplace(out.data(), out.size());
  return out;
}

Tensor sigmoid(const Tensor& x) {
  Tensor out = x;
  detmath::sigmoid_inplace(out.data(), out.size());
  return out;
}

Tensor normalize01(const Tensor& x) {
  Tensor out = x;
  normalize01_inplace(out.data(), out.size());
  return out;
}

Tensor to_db(const Tensor& x, float eps) {
  Tensor out = x;
  to_db_inplace(out.data(), out.size(), eps);
  return out;
}

MinMax min_max(const float* x, std::size_t n) {
  MMHAR_CHECK(n > 0);
  // Four 4-lane accumulators, each lane a compare-select over a strided
  // slice. Four SSE2 vectors keep the loop portable and the select chains
  // short; wider vectors buy under 1 us per 32K floats.
  using V4 = float __attribute__((vector_size(16)));
  using M4 = std::int32_t __attribute__((vector_size(16)));
  constexpr std::size_t kAcc = 4;
  constexpr std::size_t kStep = 4 * kAcc;
  if (n < kStep)
    return {*std::min_element(x, x + n), *std::max_element(x, x + n)};
  V4 lo[kAcc];
  V4 hi[kAcc];
  M4 nan[kAcc];
  for (std::size_t a = 0; a < kAcc; ++a) {
    std::memcpy(&lo[a], x + 4 * a, sizeof(V4));
    hi[a] = lo[a];
    nan[a] = M4{};
  }
  const std::size_t body = n - n % kStep;
  for (std::size_t i = 0; i < body; i += kStep) {
    for (std::size_t a = 0; a < kAcc; ++a) {
      V4 v;
      std::memcpy(&v, x + i + 4 * a, sizeof(V4));
      lo[a] = v < lo[a] ? v : lo[a];
      hi[a] = hi[a] < v ? v : hi[a];
      nan[a] |= v != v;
    }
  }
  MinMax r{lo[0][0], hi[0][0]};
  bool any_nan = false;
  for (std::size_t a = 0; a < kAcc; ++a) {
    for (std::size_t j = 0; j < 4; ++j) {
      r.lo = lo[a][j] < r.lo ? lo[a][j] : r.lo;
      r.hi = r.hi < hi[a][j] ? hi[a][j] : r.hi;
      any_nan = any_nan || nan[a][j] != 0;
    }
  }
  for (std::size_t i = body; i < n; ++i) {
    r.lo = x[i] < r.lo ? x[i] : r.lo;
    r.hi = r.hi < x[i] ? x[i] : r.hi;
    any_nan = any_nan || x[i] != x[i];
  }
  // Without NaN, a nonzero extremum has one bit pattern, so the lanes'
  // evaluation order cannot change it. A NaN or a zero extremum (where
  // -0 and +0 tie) makes the answer depend on position: take it in
  // window order, as the std algorithms define it.
  if (!any_nan && r.lo != 0.0F && r.hi != 0.0F) return r;
  return {*std::min_element(x, x + n), *std::max_element(x, x + n)};
}

void normalize01_inplace(float* x, std::size_t n) {
  const MinMax m = min_max(x, n);
  const float range = m.hi - m.lo;
  if (range <= 0.0F) {
    std::fill(x, x + n, 0.0F);
    return;
  }
  const float inv = 1.0F / range;
  for (std::size_t i = 0; i < n; ++i) x[i] = (x[i] - m.lo) * inv;
}

void to_db_inplace(float* x, std::size_t n, float eps) {
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 20.0F * std::log10(std::max(x[i], eps));
}

Tensor mean_rows(const Tensor& x) {
  MMHAR_REQUIRE(x.rank() == 2, "mean_rows expects rank-2");
  const std::size_t rows = x.dim(0);
  const std::size_t cols = x.dim(1);
  MMHAR_REQUIRE(rows > 0, "mean_rows over empty matrix");
  Tensor out({cols});
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) out[c] += x.at(r, c);
  out *= 1.0F / static_cast<float>(rows);
  return out;
}

Tensor concat(const std::vector<Tensor>& parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Tensor out({total});
  std::size_t off = 0;
  for (const auto& p : parts) {
    MMHAR_CHECK(off + p.size() <= out.size());
    std::copy(p.data(), p.data() + p.size(), out.data() + off);
    off += p.size();
  }
  return out;
}

float cosine_similarity(const Tensor& a, const Tensor& b) {
  const float na = a.l2_norm();
  const float nb = b.l2_norm();
  if (na == 0.0F || nb == 0.0F) return 0.0F;
  return Tensor::dot(a, b) / (na * nb);
}

float pearson_correlation(const Tensor& a, const Tensor& b) {
  MMHAR_REQUIRE(a.size() == b.size() && a.size() > 1,
                "pearson needs matching sizes > 1");
  const double ma = a.mean();
  const double mb = b.mean();
  double cov = 0.0;
  double va = 0.0;
  double vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 || vb == 0.0) return 0.0F;
  return static_cast<float>(cov / std::sqrt(va * vb));
}

}  // namespace mmhar
