// The one eval-mode forward of the CNN-LSTM classifier: serving, offline
// evaluation, the training loop's validation, SHAP frame scoring (Eq. 1)
// and the trigger-position objective (Eq. 2) all run it. HarModel::forward
// is the training graph (per-layer allocations, activation caches,
// per-call weight packing); with training=false it is the reference this
// forward is tested against, bit for bit.
//
//  * `InferencePlan` — immutable after build_inference_plan(): the weights
//    pre-packed for the GEMM kernels (conv weights as PackedA tiles,
//    Dense/LSTM/head weights as PackedB panels), the biases, and the frame
//    CNN's geometry (model.h). Shared by any number of threads.
//  * `InferenceScratch` — per-caller, grow-once working buffers; once
//    reserved, a forward performs zero heap allocations.
//
// infer_features is the CNN l_θ, one frame at a time (conv1 -> ReLU ->
// conv2 -> ReLU -> 2x2 pool, both convs through conv2d_frame, the kernel
// Conv2D::forward calls), then the feature Dense, T frames per GEMM.
// infer_classify is the LSTM (nn::lstm_cell, the cell update
// nn::LSTM::forward calls) and the head. infer_forward runs both; serving
// runs them apart, features as each window completes and one classify
// per model per cycle. No kernel has a batch-size-dependent path and no
// output row depends on another, so the outputs are bit-identical to
// HarModel::forward(…, training=false) for any batch composition.
//
// Scratch size. With o1 = h1*w1 and o2 = h2*w2 the conv output cells,
// B1/B2 the conv geometries' bordered_floats() and P1/P2 their
// panel_floats(), a scratch reserved for `batch` windows holds
//   c1*o1 + c2*o2 + max(B1, B2) + max(P1, P2) + T*spatial  (batch-free)
//   + batch * (T*F + F + 4H + 2H)                          (per window)
// floats: about 65 KB plus 10 KB per window for the default config.
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
  FrameCnnGeometry cnn;        ///< frame_cnn_geometry(config)

  PackedA conv1_w;             ///< [c1, cnn.conv1.fan_in()], A-tile layout
  std::vector<float> conv1_b;
  PackedA conv2_w;             ///< [c2, cnn.conv2.fan_in()], A-tile layout
  std::vector<float> conv2_b;
  PackedB fc_w;                ///< feature Dense, packed from [F, spatial]
  std::vector<float> fc_b;
  PackedB lstm_wx;             ///< packed from W_x [4H, F]
  PackedB lstm_wh;             ///< packed from W_h [4H, H]
  std::vector<float> lstm_b;
  PackedB head_w;              ///< packed from [C, H]
  std::vector<float> head_b;
};

/// Snapshot `model`'s weights into a plan. The plan is independent of the
/// model afterwards: training the model further does not change it.
InferencePlan build_inference_plan(HarModel& model);

/// Grow-once working buffers for the plan's forward. Safe to reuse across
/// calls from one thread; never shared between concurrent callers.
struct InferenceScratch {
  // The CNN working set of one frame, and the flatten of T frames:
  // independent of the batch size.
  std::vector<float> act1;      ///< conv1 output [c1, h1, w1]
  std::vector<float> act2;      ///< conv2 output [c2, h2, w2]
  std::vector<float> bordered;  ///< conv2d_frame's bordered frame
  std::vector<float> panel;     ///< conv2d_frame's B panel
  std::vector<float> pooled;    ///< pool/flatten output [T, spatial]
  // Batch-sized: K = batch windows.
  std::vector<float> feats;     ///< features [K, T, F]: infer_forward's,
                                ///< or a caller's input to infer_classify
  std::vector<float> x_step;    ///< LSTM input gather [K, F]
  std::vector<float> z;         ///< LSTM pre-activations [K, 4H]
  std::vector<float> h;         ///< LSTM hidden state [K, H]
  std::vector<float> c;         ///< LSTM cell state [K, H]

  /// Grow every buffer to the sizes `max_batch` samples need. Forwards of
  /// any batch <= max_batch then allocate nothing.
  void reserve(const InferencePlan& plan, std::size_t max_batch);
};

/// Frames [n, H, W] (flat, row-major; n need not be a whole number of
/// windows) -> features [n, F]. Allocation-free once `scratch` is
/// reserved for any batch: the frames go through T at a time.
void infer_features(const InferencePlan& plan, InferenceScratch& scratch,
                    const float* frames, std::size_t n,
                    float* feats) MMHAR_REALTIME MMHAR_DETERMINISTIC;

/// Features [batch, T, F] -> logits [batch, C]. Allocation-free once
/// `scratch` covers `batch`; never touches scratch.feats.
void infer_classify(const InferencePlan& plan, InferenceScratch& scratch,
                    const float* feats, std::size_t batch,
                    float* logits) MMHAR_REALTIME MMHAR_DETERMINISTIC;

/// Micro-batched forward: input [batch, T, H, W] (flat, row-major) ->
/// logits [batch, C]. Runs entirely on the calling thread;
/// allocation-free once `scratch` covers `batch`.
void infer_forward(const InferencePlan& plan, InferenceScratch& scratch,
                   const float* input, std::size_t batch,
                   float* logits) MMHAR_REALTIME MMHAR_DETERMINISTIC;

}  // namespace mmhar::har
