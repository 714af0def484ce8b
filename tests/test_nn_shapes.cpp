// Parameterized gradient-check sweeps across layer geometries — catches
// indexing bugs that only appear for particular stride/padding/channel
// combinations.
#include <gtest/gtest.h>

#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/gradcheck.h"
#include "nn/lstm.h"

namespace mmhar::nn {
namespace {

constexpr float kTol = 2.5e-2F;

struct ConvCase {
  std::size_t in_ch, out_ch, kernel, stride, padding, h, w;
};

class ConvShapes : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvShapes, GradCheck) {
  const auto p = GetParam();
  Rng rng(p.in_ch * 100 + p.kernel * 10 + p.stride);
  Conv2D conv(p.in_ch, p.out_ch, p.kernel, p.stride, p.padding, rng);
  const Tensor x = Tensor::randn({2, p.in_ch, p.h, p.w}, rng, 0.0F, 0.7F);
  const auto r = check_layer_gradients(conv, x, rng, 1e-2F, 40);
  EXPECT_LT(r.max_relative_error, kTol)
      << "conv " << p.in_ch << "->" << p.out_ch << " k" << p.kernel << " s"
      << p.stride << " p" << p.padding;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvShapes,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4, 4},    // pointwise
                      ConvCase{1, 2, 3, 1, 0, 6, 6},    // valid conv
                      ConvCase{2, 2, 3, 1, 1, 5, 5},    // same padding
                      ConvCase{1, 3, 5, 2, 2, 8, 8},    // strided 5x5
                      ConvCase{3, 1, 3, 2, 1, 8, 6},    // non-square input
                      ConvCase{2, 4, 3, 3, 0, 9, 9},    // stride 3
                      ConvCase{4, 2, 1, 2, 0, 6, 6}));  // 1x1 strided

struct DenseCase {
  std::size_t in, out, batch;
};

class DenseShapes : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseShapes, GradCheck) {
  const auto p = GetParam();
  Rng rng(p.in * 7 + p.out);
  Dense dense(p.in, p.out, rng);
  const Tensor x = Tensor::randn({p.batch, p.in}, rng);
  const auto r = check_layer_gradients(dense, x, rng, 1e-2F, 60);
  EXPECT_LT(r.max_relative_error, kTol);
}

INSTANTIATE_TEST_SUITE_P(Geometries, DenseShapes,
                         ::testing::Values(DenseCase{1, 1, 1},
                                           DenseCase{3, 7, 2},
                                           DenseCase{16, 4, 5},
                                           DenseCase{5, 32, 3}));

struct LstmCase {
  std::size_t input, hidden, steps, batch;
  bool sequence;
};

class LstmShapes : public ::testing::TestWithParam<LstmCase> {};

TEST_P(LstmShapes, GradCheck) {
  const auto p = GetParam();
  Rng rng(p.input * 31 + p.hidden + p.steps);
  LSTM lstm(p.input, p.hidden, rng, p.sequence);
  const Tensor x =
      Tensor::randn({p.batch, p.steps, p.input}, rng, 0.0F, 0.5F);
  const auto r = check_layer_gradients(lstm, x, rng, 1e-2F, 40);
  EXPECT_LT(r.max_relative_error, kTol)
      << "lstm " << p.input << "->" << p.hidden << " T" << p.steps
      << (p.sequence ? " seq" : " last");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LstmShapes,
    ::testing::Values(LstmCase{1, 1, 1, 1, false},   // degenerate
                      LstmCase{2, 3, 4, 2, false},   // small
                      LstmCase{3, 2, 8, 1, false},   // long sequence
                      LstmCase{2, 3, 4, 2, true},    // sequence output
                      LstmCase{4, 4, 2, 3, true},    // square
                      // wider input than a packed operand holds (k > 256)
                      LstmCase{300, 2, 2, 1, false}));

TEST(ConvShapesEdge, OutputSizeFormula) {
  Rng rng(1);
  Conv2D conv(1, 1, 3, 2, 1, rng);
  EXPECT_EQ(conv.out_size(32), 16u);
  EXPECT_EQ(conv.out_size(5), 3u);
  Conv2D valid(1, 1, 3, 1, 0, rng);
  EXPECT_EQ(valid.out_size(5), 3u);
}

}  // namespace
}  // namespace mmhar::nn
