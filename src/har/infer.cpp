#include "har/infer.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "nn/lstm.h"

namespace mmhar::har {

InferencePlan build_inference_plan(HarModel& model) {
  InferencePlan plan;
  plan.config = model.config();
  plan.cnn = frame_cnn_geometry(plan.config);
  const HarModelConfig& cfg = plan.config;

  // parameters() order is fixed by HarModel's construction: conv1 w/b,
  // conv2 w/b, feature Dense w/b, LSTM w_x/w_h/b, head w/b.
  const std::vector<Tensor*> params = model.parameters();
  MMHAR_REQUIRE(params.size() == 11,
                "build_inference_plan: unexpected parameter count "
                    << params.size());
  const std::size_t fan1 = plan.cnn.conv1.fan_in();
  const std::size_t fan2 = plan.cnn.conv2.fan_in();
  const std::size_t g4 = 4 * cfg.lstm_hidden;
  const Tensor& c1w = *params[0];
  const Tensor& c2w = *params[2];
  const Tensor& fcw = *params[4];
  const Tensor& wx = *params[6];
  const Tensor& wh = *params[7];
  const Tensor& hw = *params[9];
  const auto bias = [&params](std::size_t i) {
    const std::span<const float> flat = params[i]->flat();
    return std::vector<float>(flat.begin(), flat.end());
  };
  MMHAR_REQUIRE(c1w.size() == cfg.conv1_channels * fan1 &&
                    c2w.size() == cfg.conv2_channels * fan2 &&
                    fcw.size() == cfg.feature_dim * plan.cnn.spatial &&
                    wx.size() == g4 * cfg.feature_dim &&
                    wh.size() == g4 * cfg.lstm_hidden &&
                    hw.size() == cfg.num_classes * cfg.lstm_hidden,
                "build_inference_plan: weight shapes do not match config");

  plan.conv1_w = pack_a(cfg.conv1_channels, fan1, c1w.data());
  plan.conv1_b = bias(1);
  plan.conv2_w = pack_a(cfg.conv2_channels, fan2, c2w.data());
  plan.conv2_b = bias(3);
  plan.fc_w = pack_bt(plan.cnn.spatial, cfg.feature_dim, fcw.data());
  plan.fc_b = bias(5);
  plan.lstm_wx = pack_bt(cfg.feature_dim, g4, wx.data());
  plan.lstm_wh = pack_bt(cfg.lstm_hidden, g4, wh.data());
  plan.lstm_b = bias(8);
  plan.head_w = pack_bt(cfg.lstm_hidden, cfg.num_classes, hw.data());
  plan.head_b = bias(10);
  return plan;
}

void InferenceScratch::reserve(const InferencePlan& plan,
                               std::size_t max_batch) {
  const HarModelConfig& cfg = plan.config;
  const ConvGeometry& g1 = plan.cnn.conv1;
  const ConvGeometry& g2 = plan.cnn.conv2;
  const auto grow = [](std::vector<float>& v, std::size_t need) {
    // mmhar: allow(alloc) — grow-once scratch; a forward at a
    // warmed batch size takes the size check, never the resize.
    if (v.size() < need) v.resize(need);
  };
  grow(act1, cfg.conv1_channels * g1.out_h() * g1.out_w());
  grow(act2, cfg.conv2_channels * g2.out_h() * g2.out_w());
  grow(bordered, std::max(g1.bordered_floats(), g2.bordered_floats()));
  grow(panel, std::max(g1.panel_floats(), g2.panel_floats()));
  grow(pooled, cfg.frames * plan.cnn.spatial);
  grow(feats, max_batch * cfg.frames * cfg.feature_dim);
  grow(x_step, max_batch * cfg.feature_dim);
  grow(z, max_batch * 4 * cfg.lstm_hidden);
  grow(h, max_batch * cfg.lstm_hidden);
  grow(c, max_batch * cfg.lstm_hidden);
}

void infer_features(const InferencePlan& plan, InferenceScratch& scratch,
                    const float* frames, std::size_t n, float* feats) {
  MMHAR_REQUIRE(frames != nullptr && feats != nullptr && n > 0,
                "infer_features: null buffers or no frames");
  const HarModelConfig& cfg = plan.config;
  scratch.reserve(plan, 1);  // no-op once warmed; nothing here grows with n
  const std::size_t frame_len = cfg.height * cfg.width;
  const FrameCnnGeometry& g = plan.cnn;
  const std::size_t w2 = g.conv2.out_w();
  const std::size_t o2 = g.conv2.out_h() * w2;
  const std::size_t f_dim = cfg.feature_dim;

  // T frames at a time into the [T, spatial] flatten, then their feature
  // Dense + ReLU as one GEMM: y = x W^T + b. sgemm_packed_b's row
  // arithmetic does not depend on m, so the chunking changes no bit.
  float* const act1 = scratch.act1.data();
  float* const act2 = scratch.act2.data();
  float* const pooled = scratch.pooled.data();
  const float* const fc_b = plan.fc_b.data();
  for (std::size_t f0 = 0; f0 < n; f0 += cfg.frames) {
    const std::size_t m = std::min(cfg.frames, n - f0);
    // One frame at a time so its activations stay in cache: conv1 -> ReLU
    // -> conv2 -> ReLU -> 2x2 max pool into the frame's flatten row. Pool
    // scan order and the strict `>` tie-break match MaxPool2D::forward.
    for (std::size_t f = 0; f < m; ++f) {
      conv2d_frame(plan.conv1_w, g.conv1, frames + (f0 + f) * frame_len,
                   plan.conv1_b.data(), /*relu=*/true,
                   scratch.bordered.data(), scratch.panel.data(), act1);
      conv2d_frame(plan.conv2_w, g.conv2, act1, plan.conv2_b.data(),
                   /*relu=*/true, scratch.bordered.data(),
                   scratch.panel.data(), act2);
      float* out = pooled + f * g.spatial;
      for (std::size_t ch = 0; ch < cfg.conv2_channels; ++ch) {
        const float* plane = act2 + ch * o2;
        for (std::size_t oy = 0; oy < g.hp; ++oy) {
          for (std::size_t ox = 0; ox < g.wp; ++ox) {
            float best = -std::numeric_limits<float>::infinity();
            for (std::size_t dy = 0; dy < g.kPool; ++dy) {
              for (std::size_t dx = 0; dx < g.kPool; ++dx) {
                const float v =
                    plane[(oy * g.kPool + dy) * w2 + ox * g.kPool + dx];
                if (v > best) best = v;
              }
            }
            *out++ = best;
          }
        }
      }
    }
    float* const chunk = feats + f0 * f_dim;
    sgemm_packed_b(m, 1.0F, pooled, plan.fc_w, 0.0F, chunk);
    for (std::size_t r = 0; r < m; ++r) {
      float* row = chunk + r * f_dim;
      for (std::size_t j = 0; j < f_dim; ++j) {
        const float v = row[j] + fc_b[j];
        row[j] = v > 0.0F ? v : 0.0F;
      }
    }
  }
}

void infer_classify(const InferencePlan& plan, InferenceScratch& scratch,
                    const float* feats, std::size_t batch, float* logits) {
  MMHAR_REQUIRE(feats != nullptr && logits != nullptr && batch > 0,
                "infer_classify: null buffers or empty batch");
  scratch.reserve(plan, batch);  // no-op once warmed
  const HarModelConfig& cfg = plan.config;
  const std::size_t f_dim = cfg.feature_dim;
  const std::size_t h_dim = cfg.lstm_hidden;
  const std::size_t g4 = 4 * h_dim;

  // LSTM over [batch, T, F]. The cell update is nn::LSTM::forward's own
  // (nn::lstm_cell), in place on the one c buffer.
  float* const x_step = scratch.x_step.data();
  float* const z = scratch.z.data();
  float* const hbuf = scratch.h.data();
  float* const cbuf = scratch.c.data();
  std::fill(hbuf, hbuf + batch * h_dim, 0.0F);
  std::fill(cbuf, cbuf + batch * h_dim, 0.0F);
  const float* const lstm_b = plan.lstm_b.data();
  for (std::size_t t = 0; t < cfg.frames; ++t) {
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = feats + (b * cfg.frames + t) * f_dim;
      std::copy(src, src + f_dim, x_step + b * f_dim);
    }
    sgemm_packed_b(batch, 1.0F, x_step, plan.lstm_wx, 0.0F, z);
    sgemm_packed_b(batch, 1.0F, hbuf, plan.lstm_wh, 1.0F, z);
    for (std::size_t b = 0; b < batch; ++b) {
      float* zr = z + b * g4;
      for (std::size_t j = 0; j < g4; ++j) zr[j] += lstm_b[j];
    }
    for (std::size_t b = 0; b < batch; ++b) {
      float* cr = cbuf + b * h_dim;
      nn::lstm_cell(z + b * g4, cr, cr, hbuf + b * h_dim, h_dim);
    }
  }

  // Classifier head on the final hidden state.
  sgemm_packed_b(batch, 1.0F, hbuf, plan.head_w, 0.0F, logits);
  const float* const head_b = plan.head_b.data();
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = logits + b * cfg.num_classes;
    for (std::size_t j = 0; j < cfg.num_classes; ++j) row[j] += head_b[j];
  }
}

void infer_forward(const InferencePlan& plan, InferenceScratch& scratch,
                   const float* input, std::size_t batch, float* logits) {
  MMHAR_REQUIRE(input != nullptr && logits != nullptr && batch > 0,
                "infer_forward: null buffers or empty batch");
  scratch.reserve(plan, batch);  // before taking scratch.feats' address
  const HarModelConfig& cfg = plan.config;
  const std::size_t wlen = cfg.frames * cfg.height * cfg.width;
  float* const feats = scratch.feats.data();
  for (std::size_t b = 0; b < batch; ++b)
    infer_features(plan, scratch, input + b * wlen, cfg.frames,
                   feats + b * cfg.frames * cfg.feature_dim);
  infer_classify(plan, scratch, feats, batch, logits);
}

}  // namespace mmhar::har
