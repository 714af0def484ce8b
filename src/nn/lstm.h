// LSTM over feature sequences with full backpropagation through time.
//
// Input  [B, T, D]  (batch, timesteps, feature dim)
// Output [B, H]     (hidden state after the last timestep) by default, or
//        [B, T, H]  (all hidden states) when `return_sequence` is set.
// Gate layout inside the fused weight matrices: [i; f; g; o] blocks of H
// rows each. The forget-gate bias is initialized to +1, the standard
// trick that stabilizes early training.
#pragma once

#include "nn/layer.h"

namespace mmhar::nn {

/// One cell update for one batch row, shared by LSTM::forward and the
/// eval forward (har::infer_classify). `z` holds the row's gate
/// pre-activations [i | f | g | o], `hidden` each, and is overwritten with
/// the gate activations; then c = f * c_prev + i * g and h = o * tanh(c).
/// `c_prev` may be `c` (in-place update); `h` must not overlap `c`.
void lstm_cell(float* z, const float* c_prev, float* c, float* h,
               std::size_t hidden);

class LSTM : public Layer {
 public:
  LSTM(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
       bool return_sequence = false);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override {
    return {&w_x_, &w_h_, &bias_};
  }
  std::vector<Tensor*> gradients() override {
    return {&grad_w_x_, &grad_w_h_, &grad_bias_};
  }
  std::string name() const override { return "LSTM"; }

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

 private:
  std::size_t input_dim_;
  std::size_t hidden_dim_;
  bool return_sequence_;

  Tensor w_x_;   // [4H, D]
  Tensor w_h_;   // [4H, H]
  Tensor bias_;  // [4H]
  Tensor grad_w_x_;
  Tensor grad_w_h_;
  Tensor grad_bias_;

  // Per-forward caches (indexed [t]): activations needed by BPTT.
  Tensor input_;                 // [B, T, D]
  std::vector<Tensor> gates_;    // each [B, 4H], post-nonlinearity
  std::vector<Tensor> cells_;    // c_t, each [B, H]
  std::vector<Tensor> hiddens_;  // h_t, each [B, H]
};

}  // namespace mmhar::nn
