#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

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
  const float lo = x.min();
  const float hi = x.max();
  const float range = hi - lo;
  if (range <= 0.0F) {
    out.zero();
    return out;
  }
  const float inv = 1.0F / range;
  for (auto& v : out.flat()) v = (v - lo) * inv;
  return out;
}

Tensor to_db(const Tensor& x, float eps) {
  Tensor out = x;
  for (auto& v : out.flat())
    v = 20.0F * std::log10(std::max(v, eps));
  return out;
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
