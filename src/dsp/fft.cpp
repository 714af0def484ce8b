#include "dsp/fft.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace mmhar::dsp {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr std::size_t kLanes = kFftManyLanes;

struct Plan {
  std::vector<std::size_t> bit_reverse;  // permutation indices
  std::vector<cfloat> twiddles;          // per-stage roots of unity
};

// Build the bit-reversal permutation and twiddle ladder for size n.
Plan build_plan(std::size_t n) {
  Plan plan;
  plan.bit_reverse.resize(n);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0; b < log2n; ++b)
      if (i & (std::size_t{1} << b)) rev |= std::size_t{1} << (log2n - 1 - b);
    plan.bit_reverse[i] = rev;
  }
  // Twiddles for each butterfly stage, concatenated: stage m uses m/2 roots.
  for (std::size_t m = 2; m <= n; m <<= 1) {
    for (std::size_t j = 0; j < m / 2; ++j) {
      const double angle = -2.0 * kPi * static_cast<double>(j) /
                           static_cast<double>(m);
      plan.twiddles.emplace_back(static_cast<float>(std::cos(angle)),
                                 static_cast<float>(std::sin(angle)));
    }
  }
  return plan;
}

// Read-mostly plan cache. Lookups take a shared lock only; a miss builds
// the plan OUTSIDE any lock (two threads racing first-use of different
// sizes never serialize each other) and then inserts under the exclusive
// lock — try_emplace discards the duplicate if another thread won the
// race. std::map nodes are address-stable, so returned references survive
// later insertions.
struct PlanCache {
  SharedMutex mu;
  std::map<std::size_t, Plan> plans MMHAR_GUARDED_BY(mu);
};

const Plan& plan_for(std::size_t n) MMHAR_REALTIME_HANDOFF {
  static PlanCache cache;
  {
    ReaderLock lk(cache.mu);
    const auto it = cache.plans.find(n);
    if (it != cache.plans.end()) return it->second;
  }
  // mmhar: allow(alloc, rt-calls) — first-use-per-size plan
  // construction (build_plan allocates freely on this cold path); every
  // later call at this size returns through the shared-lock lookup above
  // without touching the allocator.
  Plan built = build_plan(n);
  WriterLock lk(cache.mu);
  // mmhar: allow(alloc) — same cold path: one map node per FFT
  // size for the lifetime of the process.
  return cache.plans.try_emplace(n, std::move(built)).first->second;
}

// Per-thread SoA scratch for the batched engine: re/im hold one lane block
// in element-major order (re[j * kLanes + l]), acc holds the running
// magnitude sum for the mag-accum emitter. Grown on demand, never shrunk,
// reused across every fft_many* call on the thread — the engine performs
// no per-call allocation.
struct Workspace {
  std::vector<float> re;
  std::vector<float> im;
  std::vector<float> acc;

  void ensure(std::size_t n, bool want_acc) {
    const std::size_t need = n * kLanes;
    if (re.size() < need) {
      re.resize(need);   // mmhar: allow(alloc) — grow-once
      im.resize(need);   // mmhar: allow(alloc) — thread-local
    }
    if (want_acc && acc.size() < need)
      acc.resize(need);  // mmhar: allow(alloc) — workspace; a
    // warmed steady-state call takes the size check, never the grow.
  }
};

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

// Gather one lane block into bit-reversed SoA scratch, fusing the window
// multiply and the zero-padding. Lanes [nl, kLanes) are zero-filled so the
// butterfly loops always run the full fixed width (no garbage values, no
// denormal stalls, branch-free inner loops).
void load_block(const FftManyJob& job, const Plan& plan, std::size_t rep,
                std::size_t lane0, std::size_t nl, float* re, float* im) {
  const cfloat* base =
      job.in + rep * job.in_rep_stride + lane0 * job.in_lane_stride;
  for (std::size_t j = 0; j < job.n; ++j) {
    float* r = re + plan.bit_reverse[j] * kLanes;
    float* q = im + plan.bit_reverse[j] * kLanes;
    if (j < job.in_len) {
      const float w = job.window != nullptr ? job.window[j] : 1.0F;
      const cfloat* src = base + j * job.in_elem_stride;
      if (job.in_lane_stride == 1) {
        for (std::size_t l = 0; l < nl; ++l) {
          r[l] = src[l].real() * w;
          q[l] = src[l].imag() * w;
        }
      } else {
        for (std::size_t l = 0; l < nl; ++l) {
          const cfloat v = src[l * job.in_lane_stride];
          r[l] = v.real() * w;
          q[l] = v.imag() * w;
        }
      }
      for (std::size_t l = nl; l < kLanes; ++l) {
        r[l] = 0.0F;
        q[l] = 0.0F;
      }
    } else {
      for (std::size_t l = 0; l < kLanes; ++l) {
        r[l] = 0.0F;
        q[l] = 0.0F;
      }
    }
  }
}

// Radix-2 butterflies over the whole block; the twiddle is a scalar
// broadcast and the inner loop sweeps the kLanes contiguous lanes, which
// is the SIMD axis. The per-transform operation order is identical to
// fft_inplace, so a lane's spectrum is bit-identical to the scalar path.
void butterflies(const Plan& plan, std::size_t n, float* re, float* im) {
  std::size_t tw_off = 0;
  for (std::size_t m = 2; m <= n; m <<= 1) {
    const std::size_t half = m / 2;
    for (std::size_t start = 0; start < n; start += m) {
      for (std::size_t j = 0; j < half; ++j) {
        const cfloat w = plan.twiddles[tw_off + j];
        const float wr = w.real();
        const float wi = w.imag();
        float* ar = re + (start + j) * kLanes;
        float* ai = im + (start + j) * kLanes;
        float* br = re + (start + j + half) * kLanes;
        float* bi = im + (start + j + half) * kLanes;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const float tr = wr * br[l] - wi * bi[l];
          const float ti = wr * bi[l] + wi * br[l];
          br[l] = ar[l] - tr;
          bi[l] = ai[l] - ti;
          ar[l] += tr;
          ai[l] += ti;
        }
      }
    }
    tw_off += half;
  }
}

void validate_job(const FftManyJob& job) {
  MMHAR_REQUIRE(is_power_of_two(job.n),
                "fft_many length must be a power of two, got " << job.n);
  MMHAR_REQUIRE(job.in != nullptr, "fft_many: null input");
  MMHAR_REQUIRE(job.lanes > 0 && job.reps > 0, "fft_many: empty batch");
  MMHAR_REQUIRE(job.in_len > 0 && job.in_len <= job.n,
                "fft_many: in_len must be in (0, n], got " << job.in_len);
}

// Prototype-job validation for the *_multi entry points: geometry rules
// are identical but the base pointer lives in the io list, not the job.
void validate_proto(const FftManyJob& proto) {
  MMHAR_REQUIRE(is_power_of_two(proto.n),
                "fft_many length must be a power of two, got " << proto.n);
  MMHAR_REQUIRE(proto.in == nullptr,
                "fft_many_*_multi: prototype job must leave `in` null — "
                "inputs come from the io list");
  MMHAR_REQUIRE(proto.lanes > 0 && proto.reps > 0, "fft_many: empty batch");
  MMHAR_REQUIRE(proto.in_len > 0 && proto.in_len <= proto.n,
                "fft_many: in_len must be in (0, n], got " << proto.in_len);
}

// Gather one lane block whose lanes may span frame boundaries: bases[l]
// points at lane l's transform start for the current rep (lane and rep
// strides already folded in). Produces exactly the values load_block
// gathers for the same lane, so the downstream butterflies are
// bit-identical to the single-base path.
void load_block_bases(const FftManyJob& job, const Plan& plan,
                      const cfloat* const* bases, std::size_t nl, float* re,
                      float* im) {
  for (std::size_t j = 0; j < job.n; ++j) {
    float* r = re + plan.bit_reverse[j] * kLanes;
    float* q = im + plan.bit_reverse[j] * kLanes;
    if (j < job.in_len) {
      const float w = job.window != nullptr ? job.window[j] : 1.0F;
      const std::size_t off = j * job.in_elem_stride;
      for (std::size_t l = 0; l < nl; ++l) {
        const cfloat v = bases[l][off];
        r[l] = v.real() * w;
        q[l] = v.imag() * w;
      }
      for (std::size_t l = nl; l < kLanes; ++l) {
        r[l] = 0.0F;
        q[l] = 0.0F;
      }
    } else {
      for (std::size_t l = 0; l < kLanes; ++l) {
        r[l] = 0.0F;
        q[l] = 0.0F;
      }
    }
  }
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft_inplace(std::span<cfloat> data) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  MMHAR_REQUIRE(is_power_of_two(n), "FFT size must be a power of two, got " << n);
  const Plan& plan = plan_for(n);

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = plan.bit_reverse[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  std::size_t tw_off = 0;
  for (std::size_t m = 2; m <= n; m <<= 1) {
    const std::size_t half = m / 2;
    for (std::size_t start = 0; start < n; start += m) {
      for (std::size_t j = 0; j < half; ++j) {
        const cfloat w = plan.twiddles[tw_off + j];
        const cfloat t = w * data[start + j + half];
        const cfloat u = data[start + j];
        data[start + j] = u + t;
        data[start + j + half] = u - t;
      }
    }
    tw_off += half;
  }
}

void ifft_inplace(std::span<cfloat> data) {
  for (auto& v : data) v = std::conj(v);
  fft_inplace(data);
  const float inv = 1.0F / static_cast<float>(data.size());
  for (auto& v : data) v = std::conj(v) * inv;
}

std::vector<cfloat> fft(std::span<const cfloat> data) {
  std::vector<cfloat> out(data.begin(), data.end());
  fft_inplace(out);
  return out;
}

std::vector<cfloat> ifft(std::span<const cfloat> data) {
  std::vector<cfloat> out(data.begin(), data.end());
  ifft_inplace(out);
  return out;
}

std::vector<cfloat> dft_reference(std::span<const cfloat> data) {
  const std::size_t n = data.size();
  std::vector<cfloat> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += std::complex<double>(data[t]) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = cfloat(static_cast<float>(acc.real()),
                    static_cast<float>(acc.imag()));
  }
  return out;
}

void fftshift_inplace(std::span<cfloat> data) {
  const std::size_t n = data.size();
  MMHAR_REQUIRE(n % 2 == 0, "fftshift needs even length");
  for (std::size_t i = 0; i < n / 2; ++i) std::swap(data[i], data[i + n / 2]);
}

void fftshift_inplace(std::span<float> data) {
  const std::size_t n = data.size();
  MMHAR_REQUIRE(n % 2 == 0, "fftshift needs even length");
  for (std::size_t i = 0; i < n / 2; ++i) std::swap(data[i], data[i + n / 2]);
}

void fft_many_crop(const FftManyJob& job, std::size_t keep, cfloat* out,
                   std::size_t out_lane_stride,
                   std::size_t out_elem_stride) {
  validate_job(job);
  MMHAR_REQUIRE(job.reps == 1, "fft_many_crop: accumulation axis unsupported");
  MMHAR_REQUIRE(keep > 0 && keep <= job.n,
                "fft_many_crop: keep must be in (0, n]");
  MMHAR_REQUIRE(out != nullptr, "fft_many_crop: null output");

  const Plan& plan = plan_for(job.n);
  const std::size_t blocks = (job.lanes + kLanes - 1) / kLanes;
  // Lane blocks are fixed-size and independent, so the result does not
  // depend on how parallel_for partitions them across threads.
  parallel_for(0, blocks, [&](std::size_t b) {
    Workspace& ws = tls_workspace();
    ws.ensure(job.n, false);
    const std::size_t lane0 = b * kLanes;
    const std::size_t nl = std::min(kLanes, job.lanes - lane0);
    load_block(job, plan, 0, lane0, nl, ws.re.data(), ws.im.data());
    butterflies(plan, job.n, ws.re.data(), ws.im.data());
    const float* re = ws.re.data();
    const float* im = ws.im.data();
    for (std::size_t l = 0; l < nl; ++l) {
      cfloat* dst = out + (lane0 + l) * out_lane_stride;
      for (std::size_t j = 0; j < keep; ++j)
        dst[j * out_elem_stride] = cfloat(re[j * kLanes + l],
                                          im[j * kLanes + l]);
    }
  });
}

void fft_many(const FftManyJob& job, cfloat* out, std::size_t out_lane_stride,
              std::size_t out_elem_stride) {
  fft_many_crop(job, job.n, out, out_lane_stride, out_elem_stride);
}

void fft_many_mag_accum(const FftManyJob& job, bool shift, float* out,
                        std::size_t out_lane_stride,
                        std::size_t out_elem_stride) {
  validate_job(job);
  MMHAR_REQUIRE(out != nullptr, "fft_many_mag_accum: null output");

  const Plan& plan = plan_for(job.n);
  const std::size_t blocks = (job.lanes + kLanes - 1) / kLanes;
  parallel_for(0, blocks, [&](std::size_t b) {
    Workspace& ws = tls_workspace();
    ws.ensure(job.n, true);
    const std::size_t lane0 = b * kLanes;
    const std::size_t nl = std::min(kLanes, job.lanes - lane0);
    float* acc = ws.acc.data();
    const std::size_t total = job.n * kLanes;
    // The rep axis folds serially in index order, so the accumulated sum
    // has one fixed rounding order regardless of thread count.
    for (std::size_t rep = 0; rep < job.reps; ++rep) {
      load_block(job, plan, rep, lane0, nl, ws.re.data(), ws.im.data());
      butterflies(plan, job.n, ws.re.data(), ws.im.data());
      const float* re = ws.re.data();
      const float* im = ws.im.data();
      if (rep == 0) {
        for (std::size_t i = 0; i < total; ++i)
          acc[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
      } else {
        for (std::size_t i = 0; i < total; ++i)
          acc[i] += std::sqrt(re[i] * re[i] + im[i] * im[i]);
      }
    }
    const std::size_t half = job.n / 2;
    for (std::size_t l = 0; l < nl; ++l) {
      float* dst = out + (lane0 + l) * out_lane_stride;
      for (std::size_t p = 0; p < job.n; ++p) {
        const std::size_t bin = shift ? (p + half) % job.n : p;
        dst[p * out_elem_stride] = acc[bin * kLanes + l];
      }
    }
  });
}

void fft_many_crop_multi(const FftManyJob& proto, std::size_t keep,
                         std::span<const FftManyIo> ios,
                         std::size_t out_lane_stride,
                         std::size_t out_elem_stride) {
  validate_proto(proto);
  MMHAR_REQUIRE(proto.reps == 1,
                "fft_many_crop_multi: accumulation axis unsupported");
  MMHAR_REQUIRE(keep > 0 && keep <= proto.n,
                "fft_many_crop_multi: keep must be in (0, n]");
  MMHAR_REQUIRE(!ios.empty(), "fft_many_crop_multi: empty io list");

  const Plan& plan = plan_for(proto.n);
  const std::size_t per = proto.lanes;
  const std::size_t total = per * ios.size();
  Workspace& ws = tls_workspace();
  ws.ensure(proto.n, false);
  const cfloat* bases[kLanes];
  for (std::size_t lane0 = 0; lane0 < total; lane0 += kLanes) {
    const std::size_t nl = std::min(kLanes, total - lane0);
    for (std::size_t l = 0; l < nl; ++l) {
      const std::size_t g = lane0 + l;
      MMHAR_CHECK(ios[g / per].in != nullptr);
      bases[l] = ios[g / per].in + (g % per) * proto.in_lane_stride;
    }
    load_block_bases(proto, plan, bases, nl, ws.re.data(), ws.im.data());
    butterflies(plan, proto.n, ws.re.data(), ws.im.data());
    const float* re = ws.re.data();
    const float* im = ws.im.data();
    for (std::size_t l = 0; l < nl; ++l) {
      const std::size_t g = lane0 + l;
      MMHAR_CHECK(ios[g / per].out != nullptr);
      cfloat* dst = ios[g / per].out + (g % per) * out_lane_stride;
      for (std::size_t j = 0; j < keep; ++j)
        dst[j * out_elem_stride] =
            cfloat(re[j * kLanes + l], im[j * kLanes + l]);
    }
  }
}

void fft_many_mag_accum_multi(const FftManyJob& proto, bool shift,
                              std::span<const FftManyMagIo> ios,
                              std::size_t out_lane_stride,
                              std::size_t out_elem_stride) {
  validate_proto(proto);
  MMHAR_REQUIRE(!ios.empty(), "fft_many_mag_accum_multi: empty io list");

  const Plan& plan = plan_for(proto.n);
  const std::size_t per = proto.lanes;
  const std::size_t total = per * ios.size();
  Workspace& ws = tls_workspace();
  ws.ensure(proto.n, true);
  const cfloat* bases[kLanes];
  for (std::size_t lane0 = 0; lane0 < total; lane0 += kLanes) {
    const std::size_t nl = std::min(kLanes, total - lane0);
    float* acc = ws.acc.data();
    const std::size_t block = proto.n * kLanes;
    // The rep axis folds serially in index order, exactly as in
    // fft_many_mag_accum, so every lane's sum keeps one fixed rounding
    // order no matter how frames are batched together.
    for (std::size_t rep = 0; rep < proto.reps; ++rep) {
      for (std::size_t l = 0; l < nl; ++l) {
        const std::size_t g = lane0 + l;
        MMHAR_CHECK(ios[g / per].in != nullptr);
        bases[l] = ios[g / per].in + rep * proto.in_rep_stride +
                   (g % per) * proto.in_lane_stride;
      }
      load_block_bases(proto, plan, bases, nl, ws.re.data(), ws.im.data());
      butterflies(plan, proto.n, ws.re.data(), ws.im.data());
      const float* re = ws.re.data();
      const float* im = ws.im.data();
      if (rep == 0) {
        for (std::size_t i = 0; i < block; ++i)
          acc[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
      } else {
        for (std::size_t i = 0; i < block; ++i)
          acc[i] += std::sqrt(re[i] * re[i] + im[i] * im[i]);
      }
    }
    const std::size_t half = proto.n / 2;
    for (std::size_t l = 0; l < nl; ++l) {
      const std::size_t g = lane0 + l;
      MMHAR_CHECK(ios[g / per].out != nullptr);
      float* dst = ios[g / per].out + (g % per) * out_lane_stride;
      for (std::size_t p = 0; p < proto.n; ++p) {
        const std::size_t bin = shift ? (p + half) % proto.n : p;
        dst[p * out_elem_stride] = acc[bin * kLanes + l];
      }
    }
  }
}

}  // namespace mmhar::dsp
