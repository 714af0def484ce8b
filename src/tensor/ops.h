// Free-function tensor operations shared across modules.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace mmhar {

/// Row-wise softmax over a [rows x cols] matrix (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Softmax over a rank-1 tensor.
Tensor softmax(const Tensor& logits);

/// Elementwise ReLU (out of place).
Tensor relu(const Tensor& x);

/// Elementwise hyperbolic tangent.
Tensor tanh_elem(const Tensor& x);

/// Elementwise logistic sigmoid.
Tensor sigmoid(const Tensor& x);

/// Min-max normalize to [0, 1]; constant tensors map to all-zeros.
Tensor normalize01(const Tensor& x);

/// Convert linear magnitudes to dB with a floor: 20*log10(max(x, eps)).
Tensor to_db(const Tensor& x, float eps = 1e-6F);

/// The extremes of a float range.
struct MinMax {
  float lo;
  float hi;
};

/// The smallest and largest of x[0, n), n > 0: bit for bit the elements
/// std::min_element and std::max_element pick, NaNs and signed zeros
/// included.
MinMax min_max(const float* x, std::size_t n);

/// normalize01 in place over x[0, n), n > 0. Offline DRAI sequences and
/// serving windows both normalize through this one function.
void normalize01_inplace(float* x, std::size_t n);

/// to_db in place over x[0, n).
void to_db_inplace(float* x, std::size_t n, float eps);

/// Mean over the first axis of a [n x d] matrix -> rank-1 [d].
Tensor mean_rows(const Tensor& x);

/// Concatenate rank-1 tensors into one rank-1 tensor.
Tensor concat(const std::vector<Tensor>& parts);

/// Cosine similarity of flattened tensors (0 when either norm is 0).
float cosine_similarity(const Tensor& a, const Tensor& b);

/// Pearson correlation of flattened tensors.
float pearson_correlation(const Tensor& a, const Tensor& b);

}  // namespace mmhar
