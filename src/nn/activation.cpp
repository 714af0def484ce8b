#include "nn/activation.h"

#include "tensor/detmath.h"

namespace mmhar::nn {

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  mask_ = Tensor(input.shape());
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] > 0.0F) {
      mask_[i] = 1.0F;
    } else {
      out[i] = 0.0F;
    }
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  MMHAR_REQUIRE(grad_output.same_shape(mask_), "ReLU backward shape mismatch");
  Tensor g = grad_output;
  g.mul_elementwise(mask_);
  return g;
}

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
  output_ = input;
  detmath::tanh_inplace(output_.data(), output_.size());
  return output_;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  MMHAR_REQUIRE(grad_output.same_shape(output_),
                "Tanh backward shape mismatch");
  Tensor g = grad_output;
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] *= 1.0F - output_[i] * output_[i];
  return g;
}

Dropout::Dropout(double p, Rng& rng) : p_(p), rng_(rng.fork(0xD70D)) {
  MMHAR_REQUIRE(p >= 0.0 && p < 1.0, "dropout p must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  last_training_ = training;
  if (!training || p_ == 0.0) return input;
  mask_ = Tensor(input.shape());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng_.bernoulli(p_)) {
      mask_[i] = 0.0F;
      out[i] = 0.0F;
    } else {
      mask_[i] = keep_scale;
      out[i] *= keep_scale;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!last_training_ || p_ == 0.0) return grad_output;
  Tensor g = grad_output;
  g.mul_elementwise(mask_);
  return g;
}

}  // namespace mmhar::nn
