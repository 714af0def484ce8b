#include "nn/lstm.h"

#include <cmath>

#include "tensor/detmath.h"
#include "tensor/gemm.h"

namespace mmhar::nn {

void lstm_cell(float* z, const float* c_prev, float* c, float* h,
               std::size_t hidden) {
  detmath::sigmoid_inplace(z, 2 * hidden);           // i, f
  detmath::tanh_inplace(z + 2 * hidden, hidden);     // g
  detmath::sigmoid_inplace(z + 3 * hidden, hidden);  // o
  const float* ig = z;
  const float* fg = z + hidden;
  const float* gg = z + 2 * hidden;
  const float* og = z + 3 * hidden;
  for (std::size_t j = 0; j < hidden; ++j)
    c[j] = fg[j] * c_prev[j] + ig[j] * gg[j];
  detmath::tanh_to(c, h, hidden);
  for (std::size_t j = 0; j < hidden; ++j) h[j] *= og[j];
}

LSTM::LSTM(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
           bool return_sequence)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      return_sequence_(return_sequence) {
  MMHAR_REQUIRE(input_dim > 0 && hidden_dim > 0, "LSTM dims must be positive");
  const float lim_x =
      std::sqrt(6.0F / static_cast<float>(input_dim + hidden_dim));
  const float lim_h = std::sqrt(6.0F / static_cast<float>(2 * hidden_dim));
  w_x_ = Tensor::rand_uniform({4 * hidden_dim, input_dim}, rng, -lim_x, lim_x);
  w_h_ = Tensor::rand_uniform({4 * hidden_dim, hidden_dim}, rng, -lim_h,
                              lim_h);
  bias_ = Tensor({4 * hidden_dim});
  // Forget-gate bias = 1.
  for (std::size_t i = hidden_dim; i < 2 * hidden_dim; ++i) bias_[i] = 1.0F;
  grad_w_x_ = Tensor({4 * hidden_dim, input_dim});
  grad_w_h_ = Tensor({4 * hidden_dim, hidden_dim});
  grad_bias_ = Tensor({4 * hidden_dim});
}

Tensor LSTM::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() == 3 && input.dim(2) == input_dim_,
                "LSTM expects [B, T, " << input_dim_ << "], got "
                                       << input.shape_string());
  input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t steps = input.dim(1);
  const std::size_t h_dim = hidden_dim_;
  const std::size_t g4 = 4 * h_dim;

  gates_.assign(steps, Tensor({batch, g4}));
  cells_.assign(steps, Tensor({batch, h_dim}));
  hiddens_.assign(steps, Tensor({batch, h_dim}));

  Tensor h_prev({batch, h_dim});
  Tensor c_prev({batch, h_dim});
  Tensor x_step({batch, input_dim_});
  MMHAR_CHECK(input.size() == batch * steps * input_dim_);

  // Pack W_x and W_h once for all steps when they fit a packed operand;
  // sgemm_packed_b gives sgemm_bt's bits without re-packing per step.
  const bool packed = input_dim_ <= kPackedBMaxK && h_dim <= kPackedBMaxK &&
                      g4 <= kPackedBMaxN;
  PackedB w_x_packed;
  PackedB w_h_packed;
  if (packed) {
    w_x_packed = pack_bt(input_dim_, g4, w_x_.data());
    w_h_packed = pack_bt(h_dim, g4, w_h_.data());
  }

  for (std::size_t t = 0; t < steps; ++t) {
    Tensor& z = gates_[t];
    // z = x_t W_x^T + h_{t-1} W_h^T + b
    MMHAR_CHECK(x_step.size() == batch * input_dim_);
    const float* x_t = input.data() + t * input_dim_;
    // Gather x_t rows (strided by T*D per batch element) into a buffer.
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = x_t + b * steps * input_dim_;
      std::copy(src, src + input_dim_, x_step.data() + b * input_dim_);
    }
    if (packed) {
      sgemm_packed_b(batch, 1.0F, x_step.data(), w_x_packed, 0.0F, z.data());
      sgemm_packed_b(batch, 1.0F, h_prev.data(), w_h_packed, 1.0F, z.data());
    } else {
      sgemm_bt(batch, input_dim_, g4, 1.0F, x_step.data(), w_x_.data(), 0.0F,
               z.data());
      sgemm_bt(batch, h_dim, g4, 1.0F, h_prev.data(), w_h_.data(), 1.0F,
               z.data());
    }
    MMHAR_CHECK(z.size() == batch * g4);
    for (std::size_t b = 0; b < batch; ++b) {
      float* zr = z.data() + b * g4;
      for (std::size_t j = 0; j < g4; ++j) zr[j] += bias_[j];
    }
    // Nonlinearities (kept in z for backward) and state update.
    Tensor& c = cells_[t];
    Tensor& h = hiddens_[t];
    MMHAR_CHECK(c_prev.size() == batch * h_dim && c.size() == batch * h_dim &&
                h.size() == batch * h_dim);
    for (std::size_t b = 0; b < batch; ++b)
      lstm_cell(z.data() + b * g4, c_prev.data() + b * h_dim,
                c.data() + b * h_dim, h.data() + b * h_dim, h_dim);
    h_prev = h;
    c_prev = c;
  }

  if (!return_sequence_) return hiddens_.back();
  Tensor out({batch, steps, h_dim});
  MMHAR_CHECK(out.size() == batch * steps * h_dim && hiddens_.size() == steps);
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t b = 0; b < batch; ++b)
      std::copy(hiddens_[t].data() + b * h_dim,
                hiddens_[t].data() + (b + 1) * h_dim,
                out.data() + (b * steps + t) * h_dim);
  return out;
}

Tensor LSTM::backward(const Tensor& grad_output) {
  const std::size_t batch = input_.dim(0);
  const std::size_t steps = input_.dim(1);
  const std::size_t h_dim = hidden_dim_;
  const std::size_t g4 = 4 * h_dim;

  Tensor grad_input({batch, steps, input_dim_});
  Tensor dh({batch, h_dim});
  Tensor dc({batch, h_dim});

  // Seed dh (and per-step additions for sequence outputs).
  const auto grad_h_at = [&](std::size_t t, std::size_t b,
                             std::size_t j) -> float {
    if (return_sequence_)
      return grad_output[(b * steps + t) * h_dim + j];
    return t == steps - 1 ? grad_output[b * h_dim + j] : 0.0F;
  };

  Tensor dz({batch, g4});
  Tensor x_step({batch, input_dim_});
  Tensor dx_step({batch, input_dim_});
  Tensor tanh_c({batch, h_dim});

  for (std::size_t t = steps; t-- > 0;) {
    const Tensor& z = gates_[t];
    const Tensor& c = cells_[t];
    const Tensor* c_prev = t > 0 ? &cells_[t - 1] : nullptr;
    const Tensor* h_prev = t > 0 ? &hiddens_[t - 1] : nullptr;

    MMHAR_CHECK(z.size() == batch * g4 && c.size() == batch * h_dim);
    detmath::tanh_to(c.data(), tanh_c.data(), batch * h_dim);
    for (std::size_t b = 0; b < batch; ++b) {
      const float* zr = z.data() + b * g4;
      const float* tcr = tanh_c.data() + b * h_dim;
      float* dhr = dh.data() + b * h_dim;
      float* dcr = dc.data() + b * h_dim;
      float* dzr = dz.data() + b * g4;
      for (std::size_t j = 0; j < h_dim; ++j) {
        const float ig = zr[j];
        const float fg = zr[h_dim + j];
        const float gg = zr[2 * h_dim + j];
        const float og = zr[3 * h_dim + j];
        const float tc = tcr[j];
        const float dh_total = dhr[j] + grad_h_at(t, b, j);
        const float dc_total = dcr[j] + dh_total * og * (1.0F - tc * tc);
        const float cp = c_prev != nullptr ? c_prev->at(b, j) : 0.0F;
        dzr[j] = dc_total * gg * ig * (1.0F - ig);              // d i
        dzr[h_dim + j] = dc_total * cp * fg * (1.0F - fg);      // d f
        dzr[2 * h_dim + j] = dc_total * ig * (1.0F - gg * gg);  // d g
        dzr[3 * h_dim + j] = dh_total * tc * og * (1.0F - og);  // d o
        dcr[j] = dc_total * fg;  // carries to t-1
      }
    }

    // Parameter gradients.
    MMHAR_CHECK(input_.size() == batch * steps * input_dim_);
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = input_.data() + (b * steps + t) * input_dim_;
      std::copy(src, src + input_dim_, x_step.data() + b * input_dim_);
    }
    sgemm_at(g4, batch, input_dim_, 1.0F, dz.data(), x_step.data(), 1.0F,
             grad_w_x_.data());
    if (h_prev != nullptr) {
      sgemm_at(g4, batch, h_dim, 1.0F, dz.data(), h_prev->data(), 1.0F,
               grad_w_h_.data());
    }
    MMHAR_CHECK(dz.size() == batch * g4);
    for (std::size_t b = 0; b < batch; ++b) {
      const float* dzr = dz.data() + b * g4;
      for (std::size_t j = 0; j < g4; ++j) grad_bias_[j] += dzr[j];
    }

    // Input gradient for this step.
    sgemm(batch, g4, input_dim_, 1.0F, dz.data(), w_x_.data(), 0.0F,
          dx_step.data());
    MMHAR_CHECK(grad_input.size() == batch * steps * input_dim_);
    for (std::size_t b = 0; b < batch; ++b)
      std::copy(dx_step.data() + b * input_dim_,
                dx_step.data() + (b + 1) * input_dim_,
                grad_input.data() + (b * steps + t) * input_dim_);

    // dh for t-1: dz * W_h.
    if (t > 0) {
      sgemm(batch, g4, h_dim, 1.0F, dz.data(), w_h_.data(), 0.0F, dh.data());
    }
  }
  return grad_input;
}

}  // namespace mmhar::nn
