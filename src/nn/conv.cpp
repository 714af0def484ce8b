#include "nn/conv.h"

#include <cmath>
#include <limits>

#include "tensor/gemm.h"

namespace mmhar::nn {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding) {
  MMHAR_REQUIRE(kernel >= 1 && stride >= 1, "bad conv geometry");
  const std::size_t fan_in = in_channels * kernel * kernel;
  const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
  weight_ = Tensor::randn({out_channels, fan_in}, rng, 0.0F, stddev);
  bias_ = Tensor({out_channels});
  grad_weight_ = Tensor({out_channels, fan_in});
  grad_bias_ = Tensor({out_channels});
}

void Conv2D::im2col(const float* img, std::size_t h, std::size_t w,
                    float* col) const {
  // col layout: [C_in*K*K, OH*OW]
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  const std::size_t ocells = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < in_channels_; ++c) {
    const float* plane = img + c * h * w;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++row) {
        float* out = col + row * ocells;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(padding_);
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                static_cast<std::ptrdiff_t>(padding_);
            const bool inside = iy >= 0 && iy < static_cast<std::ptrdiff_t>(h) &&
                                ix >= 0 && ix < static_cast<std::ptrdiff_t>(w);
            out[oy * ow + ox] =
                inside ? plane[static_cast<std::size_t>(iy) * w +
                               static_cast<std::size_t>(ix)]
                       : 0.0F;
          }
        }
      }
    }
  }
}

void Conv2D::col2im(const float* col, std::size_t h, std::size_t w,
                    float* img) const {
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  const std::size_t ocells = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < in_channels_; ++c) {
    float* plane = img + c * h * w;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++row) {
        const float* in = col + row * ocells;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(padding_);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                static_cast<std::ptrdiff_t>(padding_);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
            plane[static_cast<std::size_t>(iy) * w +
                  static_cast<std::size_t>(ix)] += in[oy * ow + ox];
          }
        }
      }
    }
  }
}

Tensor Conv2D::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() == 4 && input.dim(1) == in_channels_,
                "Conv2D expects [B, " << in_channels_ << ", H, W], got "
                                      << input.shape_string());
  input_ = input;
  in_h_ = input.dim(2);
  in_w_ = input.dim(3);
  const std::size_t batch = input.dim(0);
  const std::size_t oh = out_size(in_h_);
  const std::size_t ow = out_size(in_w_);
  const std::size_t fan_in = in_channels_ * kernel_ * kernel_;
  const std::size_t ocells = oh * ow;

  Tensor output({batch, out_channels_, oh, ow});
  const ConvGeometry geom{in_channels_, in_h_,   in_w_,
                          kernel_,      stride_, padding_};
  std::vector<float> bordered(geom.bordered_floats());
  std::vector<float> panel(geom.panel_floats());
  // The weight matrix is replayed against every image: pack it into
  // microkernel tiles once and reuse across the batch.
  const PackedA wpack = pack_a(out_channels_, fan_in, weight_.data());
  MMHAR_CHECK(input.size() == batch * in_channels_ * in_h_ * in_w_ &&
              output.size() == batch * out_channels_ * ocells);
  for (std::size_t b = 0; b < batch; ++b)
    conv2d_frame(wpack, geom, input.data() + b * in_channels_ * in_h_ * in_w_,
                 bias_.data(), /*relu=*/false, bordered.data(), panel.data(),
                 output.data() + b * out_channels_ * ocells);
  return output;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  const std::size_t batch = input_.dim(0);
  const std::size_t oh = out_size(in_h_);
  const std::size_t ow = out_size(in_w_);
  const std::size_t ocells = oh * ow;
  const std::size_t fan_in = in_channels_ * kernel_ * kernel_;
  MMHAR_REQUIRE(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                    grad_output.dim(1) == out_channels_ &&
                    grad_output.dim(2) == oh && grad_output.dim(3) == ow,
                "Conv2D backward shape mismatch");

  Tensor grad_input({batch, in_channels_, in_h_, in_w_});
  std::vector<float> col(fan_in * ocells);
  std::vector<float> gcol(fan_in * ocells);
  // W^T is likewise shared by every image's input-gradient product.
  const PackedA wtpack = pack_at(fan_in, out_channels_, weight_.data());

  MMHAR_CHECK(grad_output.size() == batch * out_channels_ * ocells &&
              input_.size() == batch * in_channels_ * in_h_ * in_w_ &&
              grad_input.size() == input_.size());
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gout = grad_output.data() + b * out_channels_ * ocells;
    const float* in_img = input_.data() + b * in_channels_ * in_h_ * in_w_;
    float* gin_img = grad_input.data() + b * in_channels_ * in_h_ * in_w_;
    // Bias gradient.
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float* plane = gout + oc * ocells;
      float acc = 0.0F;
      for (std::size_t i = 0; i < ocells; ++i) acc += plane[i];
      grad_bias_[oc] += acc;
    }
    // Weight gradient: gW += gout[ocells layout] * col^T.
    im2col(in_img, in_h_, in_w_, col.data());
    sgemm_bt(out_channels_, ocells, fan_in, 1.0F, gout, col.data(), 1.0F,
             grad_weight_.data());
    // Input gradient: gcol = W^T * gout, then scatter with col2im.
    sgemm_packed_a(wtpack, ocells, 1.0F, gout, 0.0F, gcol.data());
    col2im(gcol.data(), in_h_, in_w_, gin_img);
  }
  return grad_input;
}

MaxPool2D::MaxPool2D(std::size_t window) : window_(window) {
  MMHAR_REQUIRE(window >= 2, "pool window must be >= 2");
}

Tensor MaxPool2D::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() == 4, "MaxPool2D expects [B, C, H, W]");
  const std::size_t batch = input.dim(0);
  const std::size_t ch = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  MMHAR_REQUIRE(h % window_ == 0 && w % window_ == 0,
                "pool window must divide spatial dims");
  const std::size_t oh = h / window_;
  const std::size_t ow = w / window_;

  in_shape_ = input.shape();
  Tensor output({batch, ch, oh, ow});
  argmax_.assign(output.size(), 0);

  MMHAR_CHECK(input.size() == batch * ch * h * w &&
              output.size() == batch * ch * oh * ow);
  for (std::size_t bc = 0; bc < batch * ch; ++bc) {
    const float* plane = input.data() + bc * h * w;
    float* out = output.data() + bc * oh * ow;
    std::size_t* arg = argmax_.data() + bc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t dy = 0; dy < window_; ++dy) {
          for (std::size_t dx = 0; dx < window_; ++dx) {
            const std::size_t idx =
                (oy * window_ + dy) * w + ox * window_ + dx;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        out[oy * ow + ox] = best;
        arg[oy * ow + ox] = bc * h * w + best_idx;
      }
    }
  }
  return output;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  Tensor grad_input(in_shape_);
  MMHAR_REQUIRE(grad_output.size() == argmax_.size(),
                "MaxPool2D backward shape mismatch");
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() >= 2, "Flatten expects batched input");
  in_shape_ = input.shape();
  std::size_t d = 1;
  for (std::size_t i = 1; i < in_shape_.size(); ++i) d *= in_shape_[i];
  return input.reshaped({in_shape_[0], d});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(in_shape_);
}

}  // namespace mmhar::nn
