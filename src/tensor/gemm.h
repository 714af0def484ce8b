// Single-precision matrix multiply kernels.
//
// The NN library routes every dense contraction (Conv2D forward through
// conv2d_frame, its backward through im2col; Dense; LSTM gate blocks)
// through these. The implementation is a packed, register-tiled
// microkernel: B is packed into cache-resident panels of
// width kNR, A into zero-padded kMR-row tiles, and a kMR x kNR accumulator
// tile stays in registers across each k-block so the inner loop is
// branch-free FMA code. Large products are split across row tiles on the
// global thread pool; the per-element reduction order is fixed by the
// k-blocking alone, so results are bit-identical for any MMHAR_THREADS.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_annotations.h"

namespace mmhar {

/// C[m x n] = alpha * A[m x k] * B[k x n] + beta * C. Row-major, no aliasing.
void sgemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
           const float* a, const float* b, float beta, float* c);

/// C[m x n] += A^T[m x k] * B[k x n] where A is stored k x m (row-major).
/// Used by backward passes that need the transpose of a stored weight.
/// Packs A directly from the transposed storage; no materialized copy.
void sgemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
              const float* a, const float* b, float beta, float* c);

/// C[m x n] += A[m x k] * B^T[k x n] where B is stored n x k (row-major).
/// Packs B directly from the transposed storage; no materialized copy.
void sgemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
              const float* a, const float* b, float beta, float* c);

/// A matrix pre-packed into the microkernel's A-tile layout (kMR-row tiles,
/// k-major within a tile, tail rows zero-padded). Callers that multiply
/// the same left operand against many right-hand sides — conv2d_frame
/// replaying one weight matrix over every frame of a batch, for instance —
/// pack once and amortize the packing traffic across all products.
struct PackedA {
  std::size_t m = 0;
  std::size_t k = 0;
  std::vector<float> data;
};

/// Pack row-major A[m x k] into microkernel tile layout.
PackedA pack_a(std::size_t m, std::size_t k, const float* a);

/// Pack A^T (logical m x k) where A is stored k x m row-major.
PackedA pack_at(std::size_t m, std::size_t k, const float* a);

/// C[a.m x n] = alpha * A * B[a.k x n] + beta * C with a pre-packed A.
/// Bit-identical to sgemm()/sgemm_at() on the same operands for m > 1
/// (m == 1 takes a separate single-row fast path in sgemm).
void sgemm_packed_a(const PackedA& a, std::size_t n, float alpha,
                    const float* b, float beta, float* c);

/// Geometry of one 2-D convolution over a single [in_channels, height,
/// width] frame: square kernel, equal stride and zero padding on both axes.
struct ConvGeometry {
  std::size_t in_channels = 1;
  std::size_t height = 1;
  std::size_t width = 1;
  std::size_t kernel = 1;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (height + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (width + 2 * pad - kernel) / stride + 1; }
  /// K of the convolution GEMM: rows of the im2col operand.
  std::size_t fan_in() const { return in_channels * kernel * kernel; }
  /// Floats conv2d_frame needs in `bordered`.
  std::size_t bordered_floats() const;
  /// Floats conv2d_frame needs in `panel`.
  std::size_t panel_floats() const;
};

/// One frame of Conv2D: out[w.m, out_h*out_w] = W * im2col(in) + bias,
/// then ReLU when `relu`, with W pre-packed as [out_channels, fan_in].
/// The frame is copied once into `bordered` (zero border, split into
/// stride x stride phase planes so every kernel tap reads a contiguous
/// run of output columns). Each kNR-wide B panel of the K x N operand is
/// then packed straight from there with contiguous row copies and run
/// through every weight row tile. No im2col matrix is built; each panel
/// is byte-for-byte what packing one would give, and the k-blocking is
/// the GEMM driver's, so the output is bit-identical to im2col +
/// sgemm_packed_a for every geometry. Serial and allocation-free:
/// `bordered` and `panel` hold g.bordered_floats() and g.panel_floats().
void conv2d_frame(const PackedA& w, const ConvGeometry& g, const float* in,
                  const float* bias, bool relu, float* bordered,
                  float* panel, float* out) MMHAR_REALTIME;

/// A right-hand operand pre-packed into the microkernel's panel layout
/// (kNR-wide column panels, k-major within a panel, tail columns
/// zero-padded). Restricted to operands that fit a single cache block
/// (k <= 256, n <= 1024) so the packed image is exactly what the driver
/// would build per call — inference-sized weight matrices (Dense, LSTM
/// gate blocks, classifier heads) all qualify. Pack once at plan-build
/// time; every later product skips the B-packing traffic entirely, which
/// is the dominant cost of small-m gate GEMMs.
struct PackedB {
  std::size_t k = 0;
  std::size_t n = 0;
  std::vector<float> data;
};

/// The largest operand PackedB holds: one cache block of the driver.
inline constexpr std::size_t kPackedBMaxK = 256;
inline constexpr std::size_t kPackedBMaxN = 1024;

/// Pack row-major B[k x n] into microkernel panel layout.
PackedB pack_b(std::size_t k, std::size_t n, const float* b);

/// Pack B^T (logical k x n) where B is stored n x k row-major — the
/// layout sgemm_bt consumes (weights stored [out x in]).
PackedB pack_bt(std::size_t k, std::size_t n, const float* b);

/// C[m x b.n] = alpha * A[m x b.k] * B + beta * C with a pre-packed B.
/// Runs entirely on the calling thread and performs no heap allocation
/// (A tiles are packed into a stack buffer). Bit-identical to
/// sgemm()/sgemm_bt() on the same operands for any m — there is no
/// single-row fast path here, so micro-batched and per-sample forwards
/// agree to the bit.
void sgemm_packed_b(std::size_t m, float alpha, const float* a,
                    const PackedB& b, float beta, float* c) MMHAR_REALTIME;

}  // namespace mmhar
