// NEON distance primitives for AArch64, where NEON is part of the baseline
// ISA — no runtime feature check or target attributes needed; the TU is
// simply empty on other architectures.

#include "vec/kernels_arch.h"

#if defined(PEXESO_HAVE_NEON_KERNELS)

#include <arm_neon.h>

#include <cmath>

namespace pexeso::simd {
namespace {

double NeonSqL2(const float* a, const float* b, uint32_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  uint32_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    const float32x4_t d1 =
        vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d, d);
  }
  double total = static_cast<double>(vaddvq_f32(vaddq_f32(acc0, acc1)));
  float tail = 0.0f;
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return total + static_cast<double>(tail);
}

void NeonSqL2Many(const float* q, const float* base, size_t n, uint32_t dim,
                  double* out) {
  for (size_t r = 0; r < n; ++r) out[r] = NeonSqL2(q, base + r * dim, dim);
}

double NeonDot(const float* a, const float* b, uint32_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  uint32_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= dim; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  double total = static_cast<double>(vaddvq_f32(vaddq_f32(acc0, acc1)));
  float tail = 0.0f;
  for (; i < dim; ++i) tail += a[i] * b[i];
  return total + static_cast<double>(tail);
}

void NeonDotMany(const float* q, const float* base, size_t n, uint32_t dim,
                 double* out) {
  for (size_t r = 0; r < n; ++r) out[r] = NeonDot(q, base + r * dim, dim);
}

double NeonCosCore(const float* a, const float* b, uint32_t dim, double* na2,
                   double* nb2) {
  float32x4_t dot = vdupq_n_f32(0.0f);
  float32x4_t na = vdupq_n_f32(0.0f);
  float32x4_t nb = vdupq_n_f32(0.0f);
  uint32_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t va = vld1q_f32(a + i);
    const float32x4_t vb = vld1q_f32(b + i);
    dot = vfmaq_f32(dot, va, vb);
    na = vfmaq_f32(na, va, va);
    nb = vfmaq_f32(nb, vb, vb);
  }
  double dsum = static_cast<double>(vaddvq_f32(dot));
  double nasum = static_cast<double>(vaddvq_f32(na));
  double nbsum = static_cast<double>(vaddvq_f32(nb));
  float dt = 0.0f, at = 0.0f, bt = 0.0f;
  for (; i < dim; ++i) {
    dt += a[i] * b[i];
    at += a[i] * a[i];
    bt += b[i] * b[i];
  }
  *na2 = nasum + static_cast<double>(at);
  *nb2 = nbsum + static_cast<double>(bt);
  return dsum + static_cast<double>(dt);
}

double NeonL1(const float* a, const float* b, uint32_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  uint32_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vaddq_f32(acc0, vabdq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc1 = vaddq_f32(acc1,
                     vabdq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  for (; i + 4 <= dim; i += 4) {
    acc0 = vaddq_f32(acc0, vabdq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  double total = static_cast<double>(vaddvq_f32(vaddq_f32(acc0, acc1)));
  float tail = 0.0f;
  for (; i < dim; ++i) tail += std::fabs(a[i] - b[i]);
  return total + static_cast<double>(tail);
}

void NeonL1Many(const float* q, const float* base, size_t n, uint32_t dim,
                double* out) {
  for (size_t r = 0; r < n; ++r) out[r] = NeonL1(q, base + r * dim, dim);
}

void NeonNorms(const float* base, size_t n, uint32_t dim, float* out) {
  for (size_t r = 0; r < n; ++r) {
    const float* v = base + r * dim;
    out[r] = static_cast<float>(std::sqrt(NeonDot(v, v, dim)));
  }
}

// Many-to-many tiles, blocked four query rows deep: each chunk of a base
// row is loaded once and fed to all four rows' accumulators (see the AVX2
// TU for the rationale). Each row keeps the one-pair kernel's exact order
// (two accumulators over 8-float chunks, a last 4-float chunk on the
// first, a scalar tail added after the horizontal sum), so a tile cell
// equals the one-pair value bit for bit whatever the row's position in the
// tile; leftover rows call the one-to-many kernel.

inline float32x4_t SqStep(float32x4_t acc, float32x4_t q, float32x4_t v) {
  const float32x4_t d = vsubq_f32(q, v);
  return vfmaq_f32(acc, d, d);
}
inline float SqTerm(float q, float v) {
  const float d = q - v;
  return d * d;
}
inline float32x4_t DotStep(float32x4_t acc, float32x4_t q, float32x4_t v) {
  return vfmaq_f32(acc, q, v);
}
inline float DotTerm(float q, float v) { return q * v; }
inline float32x4_t AbsStep(float32x4_t acc, float32x4_t q, float32x4_t v) {
  return vaddq_f32(acc, vabdq_f32(q, v));
}
inline float AbsTerm(float q, float v) { return std::fabs(q - v); }

template <float32x4_t (*Step)(float32x4_t, float32x4_t, float32x4_t),
          float (*Term)(float, float)>
void NeonTile(const float* qs, size_t nq, const float* base, size_t nv,
              uint32_t dim, double* out,
              void (*many)(const float*, const float*, size_t, uint32_t,
                           double*)) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      float32x4_t lo0 = vdupq_n_f32(0.0f), hi0 = vdupq_n_f32(0.0f);
      float32x4_t lo1 = vdupq_n_f32(0.0f), hi1 = vdupq_n_f32(0.0f);
      float32x4_t lo2 = vdupq_n_f32(0.0f), hi2 = vdupq_n_f32(0.0f);
      float32x4_t lo3 = vdupq_n_f32(0.0f), hi3 = vdupq_n_f32(0.0f);
      uint32_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const float32x4_t va = vld1q_f32(v + i);
        const float32x4_t vb = vld1q_f32(v + i + 4);
        lo0 = Step(lo0, vld1q_f32(q0 + i), va);
        hi0 = Step(hi0, vld1q_f32(q0 + i + 4), vb);
        lo1 = Step(lo1, vld1q_f32(q1 + i), va);
        hi1 = Step(hi1, vld1q_f32(q1 + i + 4), vb);
        lo2 = Step(lo2, vld1q_f32(q2 + i), va);
        hi2 = Step(hi2, vld1q_f32(q2 + i + 4), vb);
        lo3 = Step(lo3, vld1q_f32(q3 + i), va);
        hi3 = Step(hi3, vld1q_f32(q3 + i + 4), vb);
      }
      for (; i + 4 <= dim; i += 4) {
        const float32x4_t va = vld1q_f32(v + i);
        lo0 = Step(lo0, vld1q_f32(q0 + i), va);
        lo1 = Step(lo1, vld1q_f32(q1 + i), va);
        lo2 = Step(lo2, vld1q_f32(q2 + i), va);
        lo3 = Step(lo3, vld1q_f32(q3 + i), va);
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; i < dim; ++i) {
        const float x = v[i];
        t0 += Term(q0[i], x);
        t1 += Term(q1[i], x);
        t2 += Term(q2[i], x);
        t3 += Term(q3[i], x);
      }
      out[(r + 0) * nv + c] = static_cast<double>(vaddvq_f32(
                                  vaddq_f32(lo0, hi0))) +
                              static_cast<double>(t0);
      out[(r + 1) * nv + c] = static_cast<double>(vaddvq_f32(
                                  vaddq_f32(lo1, hi1))) +
                              static_cast<double>(t1);
      out[(r + 2) * nv + c] = static_cast<double>(vaddvq_f32(
                                  vaddq_f32(lo2, hi2))) +
                              static_cast<double>(t2);
      out[(r + 3) * nv + c] = static_cast<double>(vaddvq_f32(
                                  vaddq_f32(lo3, hi3))) +
                              static_cast<double>(t3);
    }
  }
  for (; r < nq; ++r) many(qs + r * dim, base, nv, dim, out + r * nv);
}

void NeonSqL2Tile(const float* qs, size_t nq, const float* base, size_t nv,
                  uint32_t dim, double* out) {
  NeonTile<SqStep, SqTerm>(qs, nq, base, nv, dim, out, &NeonSqL2Many);
}

void NeonDotTile(const float* qs, size_t nq, const float* base, size_t nv,
                 uint32_t dim, double* out) {
  NeonTile<DotStep, DotTerm>(qs, nq, base, nv, dim, out, &NeonDotMany);
}

void NeonL1Tile(const float* qs, size_t nq, const float* base, size_t nv,
                uint32_t dim, double* out) {
  NeonTile<AbsStep, AbsTerm>(qs, nq, base, nv, dim, out, &NeonL1Many);
}

constexpr Ops kNeonOps = {
    SimdLevel::kNeon, &NeonSqL2,    &NeonSqL2Many,
    &NeonDot,         &NeonDotMany, &NeonCosCore,
    &NeonL1,          &NeonL1Many,  &NeonNorms,
    &NeonSqL2Tile,    &NeonDotTile, &NeonL1Tile,
};

}  // namespace

const Ops& NeonOps() { return kNeonOps; }

}  // namespace pexeso::simd

#endif  // PEXESO_HAVE_NEON_KERNELS
