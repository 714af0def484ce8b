// 2-D convolution and max-pooling layers. Conv2D's forward runs the
// frame-at-a-time packed kernel (tensor/gemm.h conv2d_frame); its backward
// uses the im2col + GEMM formulation.
#pragma once

#include <cstddef>

#include "nn/layer.h"

namespace mmhar::nn {

/// Conv2D over [B, C_in, H, W] -> [B, C_out, H_out, W_out].
/// Weight layout: [C_out, C_in * K * K]; He-normal initialization.
class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  std::string name() const override { return "Conv2D"; }

  std::size_t out_size(std::size_t in) const {
    return (in + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  void im2col(const float* img, std::size_t h, std::size_t w,
              float* col) const;
  void col2im(const float* col, std::size_t h, std::size_t w,
              float* img) const;

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;

  Tensor weight_;
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;

  // Forward cache.
  Tensor input_;
  std::size_t in_h_ = 0;
  std::size_t in_w_ = 0;
};

/// Non-overlapping 2x2 max pooling.
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(std::size_t window = 2);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2D"; }

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output cell
  std::vector<std::size_t> in_shape_;
};

/// Collapse [B, C, H, W] -> [B, C*H*W].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace mmhar::nn
