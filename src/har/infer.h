// Zero-allocation micro-batched inference for the CNN-LSTM classifier.
//
// HarModel::forward is built for training: every layer allocates output
// tensors, caches activations for backward, and re-packs its weights per
// call. The serving path cannot afford any of that, so inference is split
// into two pieces with a strict ownership boundary:
//
//  * `InferencePlan` — immutable after build_inference_plan(): the model's
//    weights snapshotted into pre-packed GEMM operand layouts (conv
//    weights as PackedA tiles, Dense/LSTM/head weights as PackedB panels)
//    plus copied biases and the two conv geometries. One plan is shared by
//    any number of concurrent consumers without synchronization.
//  * `InferenceScratch` — per-caller, grow-once working buffers. After
//    reserve() (or one warm-up call) a forward performs zero heap
//    allocations.
//
// The CNN runs one frame at a time: conv1 -> ReLU -> conv2 -> ReLU ->
// 2x2 pool into that frame's row of `pooled`. Both convs go through
// conv2d_frame, the kernel Conv2D::forward itself calls, so each conv
// GEMM sees the same B-panel image, weight tiles and K order as the
// training model. The feature Dense then runs over every frame of the
// batch at once, followed by the LSTM and the head — the same GEMM
// kernels as nn::Dense and nn::LSTM, and nn::LSTM's own cell update
// (nn::lstm_cell: one vectorised detmath sigmoid/tanh pass per gate
// block, then c and h). No kernel here has a batch-size-dependent path
// and every output row's arithmetic is independent of the other rows, so
// the logits are bit-identical to HarModel::forward(…, training=false)
// for any micro-batch composition.
//
// Scratch size. With o1 = h1*w1 and o2 = h2*w2 the conv output cells,
// B1/B2 the conv geometries' bordered_floats() and P1/P2 their
// panel_floats(), a scratch reserved for `batch` windows holds
//   c1*o1 + c2*o2 + max(B1, B2) + max(P1, P2)        (conv, batch-free)
//   + batch * (T*spatial + T*F + F + 4H + 2H + C)    (per window)
// floats: about 32 KB plus 42 KB per window for the default config.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_annotations.h"
#include "har/model.h"
#include "tensor/gemm.h"

namespace mmhar::har {

/// Immutable pre-packed weight snapshot plus derived geometry.
struct InferencePlan {
  HarModelConfig config;

  ConvGeometry conv1;          ///< 1 -> c1, 5x5 stride 2 pad 2
  PackedA conv1_w;             ///< [c1, 1*5*5] in A-tile layout
  std::vector<float> conv1_b;
  ConvGeometry conv2;          ///< c1 -> c2, 3x3 stride 2 pad 1
  PackedA conv2_w;             ///< [c2, c1*3*3] in A-tile layout
  std::vector<float> conv2_b;
  PackedB fc_w;                ///< feature Dense, packed from [F, spatial]
  std::vector<float> fc_b;
  PackedB lstm_wx;             ///< packed from W_x [4H, F]
  PackedB lstm_wh;             ///< packed from W_h [4H, H]
  std::vector<float> lstm_b;
  PackedB head_w;              ///< packed from [C, H]
  std::vector<float> head_b;

  // Pooling geometry derived from config (conv2 output -> 2x2 pool).
  std::size_t h2 = 0, w2 = 0;  ///< after conv2
  std::size_t hp = 0, wp = 0;  ///< after pooling
  std::size_t spatial = 0;     ///< flattened CNN output, hp*wp*c2
};

/// Snapshot `model`'s weights into a plan. The plan is independent of the
/// model afterwards: training the model further does not change it.
InferencePlan build_inference_plan(HarModel& model);

/// Grow-once working buffers for infer_forward. Safe to reuse across
/// calls from one thread; never shared between concurrent callers.
struct InferenceScratch {
  // One frame's CNN working set, independent of the batch size.
  std::vector<float> act1;      ///< conv1 output [c1, h1, w1]
  std::vector<float> act2;      ///< conv2 output [c2, h2, w2]
  std::vector<float> bordered;  ///< conv2d_frame's bordered frame
  std::vector<float> panel;     ///< conv2d_frame's B panel
  // Batch-sized: N = batch * T frames, K = batch windows.
  std::vector<float> pooled;    ///< pool/flatten output [N, spatial]
  std::vector<float> feats;     ///< per-frame features [N, F]
  std::vector<float> x_step;    ///< LSTM input gather [K, F]
  std::vector<float> z;         ///< LSTM pre-activations [K, 4H]
  std::vector<float> h;         ///< LSTM hidden state [K, H]
  std::vector<float> c;         ///< LSTM cell state [K, H]
  std::vector<float> out;       ///< head output [K, C] before the scatter

  /// Grow every buffer to the sizes `max_batch` samples need. Forwards of
  /// any batch <= max_batch then allocate nothing.
  void reserve(const InferencePlan& plan, std::size_t max_batch);
};

/// Micro-batched forward over selected rows: window i of the batch is row
/// rows[i] of `input` ([*, T, H, W], flat, row-major) and its logits go to
/// row rows[i] of `logits` ([*, C]); other rows are not touched. Runs
/// entirely on the calling thread; zero heap allocations once `scratch`
/// covers `batch`. Bit-identical to HarModel::forward(window,
/// /*training=*/false) on the weights the plan was built from.
void infer_forward(const InferencePlan& plan, InferenceScratch& scratch,
                   const float* input, const std::size_t* rows,
                   std::size_t batch,
                   float* logits) MMHAR_REALTIME MMHAR_DETERMINISTIC;

/// Contiguous form: input [batch, T, H, W] -> logits [batch, C]. Same
/// contract; mmhar_rtcheck and mmhar_detcheck key annotations by name, so
/// the row form's annotations make this overload a root too.
void infer_forward(const InferencePlan& plan, InferenceScratch& scratch,
                   const float* input, std::size_t batch, float* logits);

}  // namespace mmhar::har
