#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace mmhar {
namespace {

// Register-tile geometry. A kMR x kNR accumulator block (4 x 32 floats =
// eight 16-lane vectors) lives in registers across an entire k-block; the
// microkernel reads one packed A column (kMR floats, broadcast) and one
// packed B row (kNR floats, two vector loads) per k step. Tails are
// handled by zero-padding the packed operands, never by branching inside
// the FMA loop.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 32;
// Cache blocking: a kBlockK x kBlockN slice of B is packed once per block
// and streamed through every row tile (<= 1 MiB, L2-resident).
constexpr std::size_t kBlockK = kPackedBMaxK;
constexpr std::size_t kBlockN = kPackedBMaxN;
// Below this many multiply-adds the threading overhead dominates.
constexpr std::size_t kParallelThreshold = 1u << 18;

constexpr std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

void scale_rows(std::size_t m, std::size_t n, float beta, float* c) {
  if (beta == 1.0F) return;
  if (beta == 0.0F) {
    std::fill(c, c + m * n, 0.0F);
    return;
  }
  for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
}

// Operand storage order handed to the packing routines.
enum class Layout {
  kRowMajor,    // a[i * ld + p], b[p * ld + j]
  kTransposed,  // a[p * ld + i], b[j * ld + p]
};

// Pack rows [i0, i0+mr) x cols [kk, kend) of A into ap[p * kMR + r],
// zero-padding rows mr..kMR so the microkernel never branches on mr.
void pack_a_tile(Layout layout, const float* a, std::size_t lda,
                 std::size_t i0, std::size_t mr, std::size_t kk,
                 std::size_t kend, float* ap) {
  const std::size_t kc = kend - kk;
  if (layout == Layout::kRowMajor) {
    for (std::size_t r = 0; r < kMR; ++r) {
      if (r < mr) {
        const float* src = a + (i0 + r) * lda + kk;
        for (std::size_t p = 0; p < kc; ++p) ap[p * kMR + r] = src[p];
      } else {
        for (std::size_t p = 0; p < kc; ++p) ap[p * kMR + r] = 0.0F;
      }
    }
  } else {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = a + (kk + p) * lda + i0;
      for (std::size_t r = 0; r < kMR; ++r)
        ap[p * kMR + r] = r < mr ? src[r] : 0.0F;
    }
  }
}

// Pack the [kk, kend) x [nn, nend) slice of B into kNR-wide panels:
// panel jt/kNR at bp + jt * kc, element [p * kNR + jj], zero-padded to
// kNR columns.
void pack_b_panels(Layout layout, const float* b, std::size_t ldb,
                   std::size_t kk, std::size_t kend, std::size_t nn,
                   std::size_t nend, float* bp) {
  const std::size_t kc = kend - kk;
  const std::size_t nc = nend - nn;
  for (std::size_t jt = 0; jt < nc; jt += kNR) {
    const std::size_t nr = std::min(kNR, nc - jt);
    float* panel = bp + jt * kc;
    if (layout == Layout::kRowMajor) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = b + (kk + p) * ldb + nn + jt;
        float* dst = panel + p * kNR;
        for (std::size_t jj = 0; jj < nr; ++jj) dst[jj] = src[jj];
        for (std::size_t jj = nr; jj < kNR; ++jj) dst[jj] = 0.0F;
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        float* dst = panel + p * kNR;
        for (std::size_t jj = 0; jj < nr; ++jj)
          dst[jj] = b[(nn + jt + jj) * ldb + kk + p];
        for (std::size_t jj = nr; jj < kNR; ++jj) dst[jj] = 0.0F;
      }
    }
  }
}

// C[0:mr, 0:nr] += alpha * sum_p ap[p][:] (x) bp[p][:]. The accumulator
// tile is computed over the full padded kMR x kNR footprint (padded lanes
// multiply zeros); only the valid mr x nr corner is written back.
void micro_kernel(std::size_t kc, const float* ap, const float* bp,
                  float alpha, float* c, std::size_t ldc, std::size_t mr,
                  std::size_t nr) {
  float acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMR;
    const float* brow = bp + p * kNR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  if (mr == kMR && nr == kNR) {
    for (std::size_t r = 0; r < kMR; ++r) {
      float* crow = c + r * ldc;
      for (std::size_t j = 0; j < kNR; ++j) crow[j] += alpha * acc[r][j];
    }
  } else {
    for (std::size_t r = 0; r < mr; ++r) {
      float* crow = c + r * ldc;
      for (std::size_t j = 0; j < nr; ++j) crow[j] += alpha * acc[r][j];
    }
  }
}

// Row-tile range [tile_lo, tile_hi) of one (kk, nn) block. `apacked`
// (optional) supplies pre-packed A tiles; otherwise tiles are packed
// on the fly into a stack buffer.
void gemm_block_rows(Layout la, const float* a, std::size_t lda,
                     const float* apacked, std::size_t m, std::size_t k,
                     std::size_t kk, std::size_t kend, std::size_t nn,
                     std::size_t nend, const float* bp, float alpha, float* c,
                     std::size_t ldc, std::size_t tile_lo,
                     std::size_t tile_hi) {
  const std::size_t kc = kend - kk;
  const std::size_t nc = nend - nn;
  alignas(64) float abuf[kMR * kBlockK];
  for (std::size_t it = tile_lo; it < tile_hi; ++it) {
    const std::size_t i0 = it * kMR;
    const std::size_t mr = std::min(kMR, m - i0);
    const float* ap;
    if (apacked != nullptr) {
      ap = apacked + it * kMR * k + kk * kMR;
    } else {
      pack_a_tile(la, a, lda, i0, mr, kk, kend, abuf);
      ap = abuf;
    }
    for (std::size_t jt = 0; jt < nc; jt += kNR) {
      const std::size_t nr = std::min(kNR, nc - jt);
      micro_kernel(kc, ap, bp + jt * kc, alpha, c + i0 * ldc + nn + jt, ldc,
                   mr, nr);
    }
  }
}

// Grow-only thread-local B panel buffer, sized for one (kBlockK, kBlockN)
// cache block. Steady-state calls at a previously seen (or smaller) shape
// return the existing buffer without touching the allocator, which is what
// the streaming batcher's zero-alloc contract depends on.
float* ensure_b_panel_buffer(std::size_t k, std::size_t n) {
  thread_local std::vector<float> bbuf;
  const std::size_t need = std::min(k, kBlockK) *
                           round_up(std::min(n, kBlockN), kNR);
  if (bbuf.size() < need) {
    // mmhar: allow(alloc) — grow-once thread-local workspace; a
    // steady-state call at a warmed shape takes the branch, never the grow.
    bbuf.resize(need);
  }
  return bbuf.data();
}

// Serial driver core: every block runs on the calling thread, so this path
// never references the thread pool — the real-time checker relies on that
// separation, not on a runtime flag. Per output element the reduction
// order is fixed by the (kk ascending, p ascending) block order, so the
// threaded driver below (which partitions only row tiles) is bit-identical.
void gemm_driver_serial(std::size_t m, std::size_t k, std::size_t n,
                        float alpha, Layout la, const float* a,
                        std::size_t lda, const float* apacked, Layout lb,
                        const float* b, std::size_t ldb,
                        float* c) MMHAR_REALTIME {
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  float* const bp = ensure_b_panel_buffer(k, n);
  for (std::size_t kk = 0; kk < k; kk += kBlockK) {
    const std::size_t kend = std::min(k, kk + kBlockK);
    for (std::size_t nn = 0; nn < n; nn += kBlockN) {
      const std::size_t nend = std::min(n, nn + kBlockN);
      pack_b_panels(lb, b, ldb, kk, kend, nn, nend, bp);
      gemm_block_rows(la, a, lda, apacked, m, k, kk, kend, nn, nend, bp,
                      alpha, c, n, 0, row_tiles);
    }
  }
}

// Threaded driver. Small products fall through to the serial core; large
// ones split row tiles across the global pool. The B panel buffer is
// resolved on the calling thread — the lambda below may run on pool
// workers, whose own thread_local buffer is a different (empty) one.
void gemm_driver(std::size_t m, std::size_t k, std::size_t n, float alpha,
                 Layout la, const float* a, std::size_t lda,
                 const float* apacked, Layout lb, const float* b,
                 std::size_t ldb, float* c) {
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  if (m * n * k < kParallelThreshold || row_tiles <= 1) {
    gemm_driver_serial(m, k, n, alpha, la, a, lda, apacked, lb, b, ldb, c);
    return;
  }
  float* const bp = ensure_b_panel_buffer(k, n);
  for (std::size_t kk = 0; kk < k; kk += kBlockK) {
    const std::size_t kend = std::min(k, kk + kBlockK);
    for (std::size_t nn = 0; nn < n; nn += kBlockN) {
      const std::size_t nend = std::min(n, nn + kBlockN);
      pack_b_panels(lb, b, ldb, kk, kend, nn, nend, bp);
      global_pool().parallel_for_chunked(
          0, row_tiles, [&, bp](std::size_t lo, std::size_t hi) {
            gemm_block_rows(la, a, lda, apacked, m, k, kk, kend, nn, nend,
                            bp, alpha, c, n, lo, hi);
          });
    }
  }
}

// Single-row product: C[1 x n] += alpha * a[k] * B. Skips packing — the
// padded 4-row tile would waste 3/4 of the FMA throughput, and SHAP-style
// per-sample forwards hit this shape thousands of times.
void gemv_row(std::size_t k, std::size_t n, float alpha, const float* a,
              const float* b, float* c) {
  for (std::size_t p = 0; p < k; ++p) {
    const float av = alpha * a[p];
    const float* brow = b + p * n;
    for (std::size_t j = 0; j < n; ++j) c[j] += av * brow[j];
  }
}

}  // namespace

void sgemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
           const float* a, const float* b, float beta, float* c) {
  scale_rows(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0F) return;
  if (m == 1) {
    gemv_row(k, n, alpha, a, b, c);
    return;
  }
  gemm_driver(m, k, n, alpha, Layout::kRowMajor, a, k, nullptr,
              Layout::kRowMajor, b, n, c);
}

void sgemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
              const float* a, const float* b, float beta, float* c) {
  scale_rows(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0F) return;
  gemm_driver(m, k, n, alpha, Layout::kTransposed, a, m, nullptr,
              Layout::kRowMajor, b, n, c);
}

void sgemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
              const float* a, const float* b, float beta, float* c) {
  scale_rows(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0F) return;
  gemm_driver(m, k, n, alpha, Layout::kRowMajor, a, k, nullptr,
              Layout::kTransposed, b, k, c);
}

namespace {

PackedA pack_a_impl(Layout layout, std::size_t m, std::size_t k,
                    const float* a) {
  PackedA packed;
  packed.m = m;
  packed.k = k;
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  packed.data.resize(row_tiles * kMR * k);
  MMHAR_REQUIRE(packed.data.size() == row_tiles * kMR * k,
                "packed-A buffer must cover every row tile");
  for (std::size_t it = 0; it < row_tiles; ++it) {
    const std::size_t i0 = it * kMR;
    const std::size_t mr = std::min(kMR, m - i0);
    pack_a_tile(layout, a, layout == Layout::kRowMajor ? k : m, i0, mr, 0, k,
                packed.data.data() + it * kMR * k);
  }
  return packed;
}

}  // namespace

PackedA pack_a(std::size_t m, std::size_t k, const float* a) {
  return pack_a_impl(Layout::kRowMajor, m, k, a);
}

PackedA pack_at(std::size_t m, std::size_t k, const float* a) {
  return pack_a_impl(Layout::kTransposed, m, k, a);
}

void sgemm_packed_a(const PackedA& a, std::size_t n, float alpha,
                    const float* b, float beta, float* c) {
  scale_rows(a.m, n, beta, c);
  if (a.m == 0 || n == 0 || a.k == 0 || alpha == 0.0F) return;
  gemm_driver(a.m, a.k, n, alpha, Layout::kRowMajor, nullptr, a.k,
              a.data.data(), Layout::kRowMajor, b, n, c);
}

// ---- Convolution -----------------------------------------------------------
//
// conv2d_frame's operand for kernel tap (c, ky, kx) is, for output cell
// (oy, ox), padded pixel (oy*s + ky, ox*s + kx). Splitting the zero-padded
// frame into s x s phase planes — plane (py, px) holds padded pixels
// (qy*s + py, qx*s + px) — turns that into plane (ky%s, kx%s) at
// (oy + ky/s, ox + kx/s): for a fixed tap, consecutive ox are consecutive
// floats, so each B-panel row is a few contiguous runs, one per output row
// the panel spans.

std::size_t ConvGeometry::bordered_floats() const {
  const std::size_t qh = (height + 2 * pad + stride - 1) / stride;
  const std::size_t qw = (width + 2 * pad + stride - 1) / stride;
  return in_channels * stride * stride * qh * qw;
}

std::size_t ConvGeometry::panel_floats() const {
  return std::min(fan_in(), kBlockK) * kNR;
}

namespace {

// Phase-plane layout of one bordered frame: s x s planes of qh x qw.
struct PhaseLayout {
  std::size_t s, qh, qw, plane;
  explicit PhaseLayout(const ConvGeometry& g)
      : s(g.stride),
        qh((g.height + 2 * g.pad + s - 1) / s),
        qw((g.width + 2 * g.pad + s - 1) / s),
        plane(qh * qw) {}
};

// Copy the [C, H, W] frame into its zero-bordered phase planes.
void fill_bordered(const ConvGeometry& g, const PhaseLayout& l,
                   const float* in, float* bordered) {
  const std::size_t s = l.s;
  std::fill(bordered, bordered + g.in_channels * s * s * l.plane, 0.0F);
  for (std::size_t px = 0; px < s; ++px) {
    // Phase px holds padded columns q*s + px; the input columns among them
    // are q in [q0, q1), input column q*s + px - pad.
    const std::size_t q0 = (g.pad + s - 1 - px) / s;
    const std::size_t q1 = (g.pad + g.width + s - 1 - px) / s;
    if (q1 <= q0) continue;
    const std::size_t skew = q0 * s + px - g.pad;
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t iy = 0; iy < g.height; ++iy) {
        const std::size_t y = iy + g.pad;
        const float* src = in + (c * g.height + iy) * g.width + skew;
        float* dst = bordered + ((c * s + y % s) * s + px) * l.plane +
                     (y / s) * l.qw + q0;
        // Fixed 8-wide chunks vectorize as strided loads; then the tail.
        std::size_t q = 0;
        for (; q + 8 <= q1 - q0; q += 8)
          for (std::size_t j = 0; j < 8; ++j) dst[q + j] = src[(q + j) * s];
        for (; q < q1 - q0; ++q) dst[q] = src[q * s];
      }
    }
  }
}

// Pack rows [kk, kk + kc) x cols [j0, j0 + nr) of im2col(frame), nr <=
// kNR, into one kNR-wide panel, reading the phase planes directly: row p
// is the tap at koff[p], and for a fixed tap an output row's cells are
// contiguous, so the panel's columns split into runs of constant oy. OW is
// the output width when it is one of the HAR layers' 8 or 16, which divide
// kNR (every panel then starts on an output row and each run is one whole
// row of fixed length: a few vector moves), 0 otherwise. Byte-for-byte the
// panel pack_b_panels builds from a materialized im2col matrix.
template <std::size_t OW>
void pack_conv_panel(const float* bordered, const std::size_t* koff,
                     std::size_t kc, std::size_t qw, std::size_t ow_rt,
                     std::size_t j0, std::size_t nr, float* panel) {
  const std::size_t ow = OW != 0 ? OW : ow_rt;
  const std::size_t oy0 = j0 / ow;
  const std::size_t ox0 = j0 % ow;
  for (std::size_t p = 0; p < kc; ++p) {
    const float* src = bordered + koff[p] + oy0 * qw + ox0;
    float* dst = panel + p * kNR;
    if constexpr (OW != 0) {
      for (std::size_t r = 0; r < nr / OW; ++r)
        for (std::size_t i = 0; i < OW; ++i) dst[r * OW + i] = src[r * qw + i];
    } else {
      for (std::size_t jj = 0, ox = ox0; jj < nr; ox = 0) {
        const std::size_t len = std::min(ow - ox, nr - jj);
        for (std::size_t i = 0; i < len; ++i) dst[jj + i] = src[i];
        jj += len;
        src += qw - ox;  // the next output row, from ox = 0
      }
    }
    for (std::size_t jj = nr; jj < kNR; ++jj) dst[jj] = 0.0F;
  }
}

// koff[p] for K rows [kk, kk + kc): row r is tap (c, ky, kx), and its
// operand for output (0, 0) sits in phase plane (ky % s, kx % s), shifted
// by (ky / s, kx / s).
void tap_offsets(const ConvGeometry& g, const PhaseLayout& l, std::size_t kk,
                 std::size_t kc, std::size_t* koff) {
  const std::size_t s = l.s;
  const std::size_t kw = g.kernel;
  std::size_t c = kk / (kw * kw);
  std::size_t ky = kk / kw % kw;
  std::size_t kx = kk % kw;
  for (std::size_t p = 0; p < kc; ++p) {
    koff[p] = ((c * s + ky % s) * s + kx % s) * l.plane + (ky / s) * l.qw +
              kx / s;
    if (++kx == kw) {
      kx = 0;
      if (++ky == kw) {
        ky = 0;
        ++c;
      }
    }
  }
}

}  // namespace

void conv2d_frame(const PackedA& w, const ConvGeometry& g, const float* in,
                  const float* bias, bool relu, float* bordered,
                  float* panel, float* out) {
  const std::size_t m = w.m;
  const std::size_t k = g.fan_in();
  const std::size_t ow = g.out_w();
  const std::size_t n = g.out_h() * ow;
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  MMHAR_CHECK(w.k == k && w.data.size() == row_tiles * kMR * k &&
              g.stride >= 1 && g.kernel >= 1 &&
              g.kernel <= g.height + 2 * g.pad &&
              g.kernel <= g.width + 2 * g.pad);
  const float* a = w.data.data();
  std::fill(out, out + m * n, 0.0F);
  const PhaseLayout l(g);
  fill_bordered(g, l, in, bordered);
  // The GEMM driver's k-blocking, so every output element sums its K
  // terms exactly as sgemm_packed_a on the im2col matrix does. Within a
  // block, one panel at a time goes straight through every row tile while
  // it is hot; which panels share a pack never changes an element's sum.
  std::size_t koff[kBlockK];
  for (std::size_t kk = 0; kk < k; kk += kBlockK) {
    const std::size_t kc = std::min(k, kk + kBlockK) - kk;
    tap_offsets(g, l, kk, kc, koff);
    const float* ap = a + kk * kMR;
    for (std::size_t jt = 0; jt < n; jt += kNR) {
      const std::size_t nr = std::min(kNR, n - jt);
      switch (ow) {
        case 8:
          pack_conv_panel<8>(bordered, koff, kc, l.qw, ow, jt, nr, panel);
          break;
        case 16:
          pack_conv_panel<16>(bordered, koff, kc, l.qw, ow, jt, nr, panel);
          break;
        default:
          pack_conv_panel<0>(bordered, koff, kc, l.qw, ow, jt, nr, panel);
      }
      for (std::size_t it = 0; it < row_tiles; ++it) {
        const std::size_t i0 = it * kMR;
        micro_kernel(kc, ap + it * kMR * k, panel, 1.0F, out + i0 * n + jt,
                     n, std::min(kMR, m - i0), nr);
      }
    }
  }
  for (std::size_t oc = 0; oc < m; ++oc) {
    const float bv = bias[oc];
    float* plane = out + oc * n;
    if (relu) {
      for (std::size_t i = 0; i < n; ++i) {
        const float v = plane[i] + bv;
        plane[i] = v > 0.0F ? v : 0.0F;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) plane[i] += bv;
    }
  }
}

namespace {

PackedB pack_b_impl(Layout layout, std::size_t k, std::size_t n,
                    const float* b) {
  MMHAR_REQUIRE(k > 0 && k <= kBlockK && n > 0 && n <= kBlockN,
                "pack_b: operand must fit one cache block (k <= "
                    << kBlockK << ", n <= " << kBlockN << "), got k=" << k
                    << " n=" << n);
  PackedB packed;
  packed.k = k;
  packed.n = n;
  packed.data.resize(k * round_up(n, kNR));
  // Single (kk=0, nn=0) block: the packed image is byte-identical to what
  // gemm_driver builds per call, so sgemm_packed_b replays the exact same
  // microkernel inputs as sgemm/sgemm_bt.
  pack_b_panels(layout, b, layout == Layout::kRowMajor ? n : k, 0, k, 0, n,
                packed.data.data());
  return packed;
}

}  // namespace

PackedB pack_b(std::size_t k, std::size_t n, const float* b) {
  return pack_b_impl(Layout::kRowMajor, k, n, b);
}

PackedB pack_bt(std::size_t k, std::size_t n, const float* b) {
  return pack_b_impl(Layout::kTransposed, k, n, b);
}

void sgemm_packed_b(std::size_t m, float alpha, const float* a,
                    const PackedB& b, float beta, float* c) {
  scale_rows(m, b.n, beta, c);
  if (m == 0 || b.n == 0 || b.k == 0 || alpha == 0.0F) return;
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  MMHAR_CHECK(b.data.size() == b.k * round_up(b.n, kNR));
  gemm_block_rows(Layout::kRowMajor, a, b.k, nullptr, m, b.k, 0, b.k, 0, b.n,
                  b.data.data(), alpha, c, b.n, 0, row_tiles);
}

}  // namespace mmhar
