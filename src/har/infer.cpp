#include "har/infer.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "nn/lstm.h"

namespace mmhar::har {
namespace {

// Conv geometry is fixed by the model architecture (model.cpp): conv1 is
// 5x5 stride 2 pad 2, conv2 is 3x3 stride 2 pad 1, pool is 2x2.
constexpr std::size_t kConv1Kernel = 5;
constexpr std::size_t kConv1Stride = 2;
constexpr std::size_t kConv1Pad = 2;
constexpr std::size_t kConv2Kernel = 3;
constexpr std::size_t kConv2Stride = 2;
constexpr std::size_t kConv2Pad = 1;
constexpr std::size_t kPool = 2;

std::vector<float> copy_bias(const Tensor& t) {
  const std::span<const float> flat = t.flat();
  return std::vector<float>(flat.begin(), flat.end());
}

}  // namespace

InferencePlan build_inference_plan(HarModel& model) {
  InferencePlan plan;
  plan.config = model.config();
  const HarModelConfig& cfg = plan.config;

  plan.conv1 = {1, cfg.height, cfg.width, kConv1Kernel, kConv1Stride,
                kConv1Pad};
  plan.conv2 = {cfg.conv1_channels, plan.conv1.out_h(), plan.conv1.out_w(),
                kConv2Kernel, kConv2Stride, kConv2Pad};
  plan.h2 = plan.conv2.out_h();
  plan.w2 = plan.conv2.out_w();
  plan.hp = plan.h2 / kPool;
  plan.wp = plan.w2 / kPool;
  plan.spatial = plan.hp * plan.wp * cfg.conv2_channels;

  // parameters() order is fixed by HarModel's construction: conv1 w/b,
  // conv2 w/b, feature Dense w/b, LSTM w_x/w_h/b, head w/b.
  const std::vector<Tensor*> params = model.parameters();
  MMHAR_REQUIRE(params.size() == 11,
                "build_inference_plan: unexpected parameter count "
                    << params.size());
  const std::size_t fan1 = plan.conv1.fan_in();
  const std::size_t fan2 = plan.conv2.fan_in();
  const std::size_t g4 = 4 * cfg.lstm_hidden;
  const Tensor& c1w = *params[0];
  const Tensor& c2w = *params[2];
  const Tensor& fcw = *params[4];
  const Tensor& wx = *params[6];
  const Tensor& wh = *params[7];
  const Tensor& hw = *params[9];
  MMHAR_REQUIRE(c1w.size() == cfg.conv1_channels * fan1 &&
                    c2w.size() == cfg.conv2_channels * fan2 &&
                    fcw.size() == cfg.feature_dim * plan.spatial &&
                    wx.size() == g4 * cfg.feature_dim &&
                    wh.size() == g4 * cfg.lstm_hidden &&
                    hw.size() == cfg.num_classes * cfg.lstm_hidden,
                "build_inference_plan: weight shapes do not match config");

  plan.conv1_w = pack_a(cfg.conv1_channels, fan1, c1w.data());
  plan.conv1_b = copy_bias(*params[1]);
  plan.conv2_w = pack_a(cfg.conv2_channels, fan2, c2w.data());
  plan.conv2_b = copy_bias(*params[3]);
  plan.fc_w = pack_bt(plan.spatial, cfg.feature_dim, fcw.data());
  plan.fc_b = copy_bias(*params[5]);
  plan.lstm_wx = pack_bt(cfg.feature_dim, g4, wx.data());
  plan.lstm_wh = pack_bt(cfg.lstm_hidden, g4, wh.data());
  plan.lstm_b = copy_bias(*params[8]);
  plan.head_w = pack_bt(cfg.lstm_hidden, cfg.num_classes, hw.data());
  plan.head_b = copy_bias(*params[10]);
  return plan;
}

void InferenceScratch::reserve(const InferencePlan& plan,
                               std::size_t max_batch) {
  const HarModelConfig& cfg = plan.config;
  const std::size_t n = max_batch * cfg.frames;
  const ConvGeometry& g1 = plan.conv1;
  const ConvGeometry& g2 = plan.conv2;
  const auto grow = [](std::vector<float>& v, std::size_t need) {
    // mmhar: allow(alloc) — grow-once scratch; a forward at a
    // warmed batch size takes the size check, never the resize.
    if (v.size() < need) v.resize(need);
  };
  grow(act1, cfg.conv1_channels * g1.out_h() * g1.out_w());
  grow(act2, cfg.conv2_channels * plan.h2 * plan.w2);
  grow(bordered, std::max(g1.bordered_floats(), g2.bordered_floats()));
  grow(panel, std::max(g1.panel_floats(), g2.panel_floats()));
  grow(pooled, n * plan.spatial);
  grow(feats, n * cfg.feature_dim);
  grow(x_step, max_batch * cfg.feature_dim);
  grow(z, max_batch * 4 * cfg.lstm_hidden);
  grow(h, max_batch * cfg.lstm_hidden);
  grow(c, max_batch * cfg.lstm_hidden);
  grow(out, max_batch * cfg.num_classes);
}

namespace {

// Window i is row rows[i] of input and logits, or row i when rows is null.
void forward_rows(const InferencePlan& plan, InferenceScratch& scratch,
                  const float* input, const std::size_t* rows,
                  std::size_t batch, float* logits) {
  MMHAR_REQUIRE(input != nullptr && logits != nullptr && batch > 0,
                "infer_forward: null buffers or empty batch");
  scratch.reserve(plan, batch);  // no-op once warmed
  const HarModelConfig& cfg = plan.config;
  const std::size_t n = batch * cfg.frames;
  const std::size_t frame_len = cfg.height * cfg.width;
  const std::size_t o2 = plan.h2 * plan.w2;
  const std::size_t f_dim = cfg.feature_dim;
  const std::size_t h_dim = cfg.lstm_hidden;
  const std::size_t g4 = 4 * h_dim;

  // Per-frame CNN, one frame at a time so its activations stay in cache:
  // conv1 -> ReLU -> conv2 -> ReLU -> 2x2 max pool into the frame's row of
  // the [N, spatial] flatten. Pool scan order and the strict `>`
  // tie-break match MaxPool2D::forward.
  float* const act1 = scratch.act1.data();
  float* const act2 = scratch.act2.data();
  float* const pooled = scratch.pooled.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* window =
        input + (rows != nullptr ? rows[b] : b) * cfg.frames * frame_len;
    for (std::size_t t = 0; t < cfg.frames; ++t) {
      conv2d_frame(plan.conv1_w, plan.conv1, window + t * frame_len,
                   plan.conv1_b.data(), /*relu=*/true, scratch.bordered.data(),
                   scratch.panel.data(), act1);
      conv2d_frame(plan.conv2_w, plan.conv2, act1, plan.conv2_b.data(),
                   /*relu=*/true, scratch.bordered.data(),
                   scratch.panel.data(), act2);
      float* out = pooled + (b * cfg.frames + t) * plan.spatial;
      for (std::size_t ch = 0; ch < cfg.conv2_channels; ++ch) {
        const float* plane = act2 + ch * o2;
        for (std::size_t oy = 0; oy < plan.hp; ++oy) {
          for (std::size_t ox = 0; ox < plan.wp; ++ox) {
            float best = -std::numeric_limits<float>::infinity();
            for (std::size_t dy = 0; dy < kPool; ++dy) {
              for (std::size_t dx = 0; dx < kPool; ++dx) {
                const float v =
                    plane[(oy * kPool + dy) * plan.w2 + ox * kPool + dx];
                if (v > best) best = v;
              }
            }
            *out++ = best;
          }
        }
      }
    }
  }

  // Feature Dense + ReLU: y = x W^T + b over all N frames at once.
  float* const feats = scratch.feats.data();
  sgemm_packed_b(n, 1.0F, pooled, plan.fc_w, 0.0F, feats);
  const float* const fc_b = plan.fc_b.data();
  for (std::size_t r = 0; r < n; ++r) {
    float* row = feats + r * f_dim;
    for (std::size_t j = 0; j < f_dim; ++j) {
      const float v = row[j] + fc_b[j];
      row[j] = v > 0.0F ? v : 0.0F;
    }
  }

  // LSTM over [batch, T, F]; feats is already laid out [b][t][F]. The
  // cell update is nn::LSTM::forward's own (nn::lstm_cell), in place on
  // the one c buffer.
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

  // Classifier head on the final hidden state, then scatter to the rows.
  float* const head_out = scratch.out.data();
  sgemm_packed_b(batch, 1.0F, hbuf, plan.head_w, 0.0F, head_out);
  const float* const head_b = plan.head_b.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* src = head_out + b * cfg.num_classes;
    float* row = logits + (rows != nullptr ? rows[b] : b) * cfg.num_classes;
    for (std::size_t j = 0; j < cfg.num_classes; ++j)
      row[j] = src[j] + head_b[j];
  }
}

}  // namespace

void infer_forward(const InferencePlan& plan, InferenceScratch& scratch,
                   const float* input, const std::size_t* rows,
                   std::size_t batch, float* logits) {
  MMHAR_REQUIRE(rows != nullptr, "infer_forward: null row list");
  forward_rows(plan, scratch, input, rows, batch, logits);
}

void infer_forward(const InferencePlan& plan, InferenceScratch& scratch,
                   const float* input, std::size_t batch, float* logits) {
  forward_rows(plan, scratch, input, nullptr, batch, logits);
}

}  // namespace mmhar::har
