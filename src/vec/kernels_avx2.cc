// AVX2+FMA distance primitives. Every function carries a target attribute,
// so this TU compiles into any x86-64 binary without raising the global
// -march baseline; kernels.cc only routes calls here after
// Avx2CpuSupported() confirms the CPU at startup.

#include "vec/kernels_arch.h"

#if defined(PEXESO_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>

namespace pexeso::simd {
namespace {

#define PEXESO_AVX2 __attribute__((target("avx2,fma")))

/// Horizontal sum of an 8-lane float register, widened to double.
PEXESO_AVX2 inline double HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return static_cast<double>(_mm_cvtss_f32(s));
}

PEXESO_AVX2 double Avx2SqL2(const float* a, const float* b, uint32_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  uint32_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  double total = HSum(_mm256_add_ps(acc0, acc1));
  float tail = 0.0f;
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return total + static_cast<double>(tail);
}

PEXESO_AVX2 void Avx2SqL2Many(const float* q, const float* base, size_t n,
                              uint32_t dim, double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = Avx2SqL2(q, base + r * dim, dim);
  }
}

PEXESO_AVX2 double Avx2Dot(const float* a, const float* b, uint32_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  uint32_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  double total = HSum(_mm256_add_ps(acc0, acc1));
  float tail = 0.0f;
  for (; i < dim; ++i) tail += a[i] * b[i];
  return total + static_cast<double>(tail);
}

PEXESO_AVX2 void Avx2DotMany(const float* q, const float* base, size_t n,
                             uint32_t dim, double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = Avx2Dot(q, base + r * dim, dim);
  }
}

PEXESO_AVX2 double Avx2CosCore(const float* a, const float* b, uint32_t dim,
                               double* na2, double* nb2) {
  __m256 dot = _mm256_setzero_ps();
  __m256 na = _mm256_setzero_ps();
  __m256 nb = _mm256_setzero_ps();
  uint32_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    dot = _mm256_fmadd_ps(va, vb, dot);
    na = _mm256_fmadd_ps(va, va, na);
    nb = _mm256_fmadd_ps(vb, vb, nb);
  }
  double dsum = HSum(dot), nasum = HSum(na), nbsum = HSum(nb);
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

PEXESO_AVX2 double Avx2L1(const float* a, const float* b, uint32_t dim) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  uint32_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_add_ps(acc0, _mm256_andnot_ps(sign_mask, d0));
    acc1 = _mm256_add_ps(acc1, _mm256_andnot_ps(sign_mask, d1));
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_add_ps(acc0, _mm256_andnot_ps(sign_mask, d));
  }
  double total = HSum(_mm256_add_ps(acc0, acc1));
  float tail = 0.0f;
  for (; i < dim; ++i) tail += std::fabs(a[i] - b[i]);
  return total + static_cast<double>(tail);
}

PEXESO_AVX2 void Avx2L1Many(const float* q, const float* base, size_t n,
                            uint32_t dim, double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = Avx2L1(q, base + r * dim, dim);
  }
}

PEXESO_AVX2 void Avx2Norms(const float* base, size_t n, uint32_t dim,
                           float* out) {
  for (size_t r = 0; r < n; ++r) {
    const float* v = base + r * dim;
    out[r] = static_cast<float>(std::sqrt(Avx2Dot(v, v, dim)));
  }
}

// Many-to-many tiles, blocked four query rows deep: each chunk of a base
// row is loaded once and fed to all four rows' accumulators, so the tile is
// ~4x less load-bound than four independent one-to-many sweeps. Each row
// keeps the one-pair kernel's exact order (two accumulators over 16-float
// chunks, a last 8-float chunk on the first, a scalar tail added after the
// horizontal sum), so a tile cell equals the one-pair value bit for bit
// whatever the row's position in the tile; leftover rows call the
// one-to-many kernel.

PEXESO_AVX2 inline __m256 SqStep(__m256 acc, __m256 q, __m256 v) {
  const __m256 d = _mm256_sub_ps(q, v);
  return _mm256_fmadd_ps(d, d, acc);
}
PEXESO_AVX2 inline float SqTerm(float q, float v) {
  const float d = q - v;
  return d * d;
}
PEXESO_AVX2 inline __m256 DotStep(__m256 acc, __m256 q, __m256 v) {
  return _mm256_fmadd_ps(q, v, acc);
}
PEXESO_AVX2 inline float DotTerm(float q, float v) { return q * v; }
PEXESO_AVX2 inline __m256 AbsStep(__m256 acc, __m256 q, __m256 v) {
  return _mm256_add_ps(
      acc, _mm256_andnot_ps(_mm256_set1_ps(-0.0f), _mm256_sub_ps(q, v)));
}
PEXESO_AVX2 inline float AbsTerm(float q, float v) { return std::fabs(q - v); }

template <__m256 (*Step)(__m256, __m256, __m256), float (*Term)(float, float)>
PEXESO_AVX2 void Avx2Tile(const float* qs, size_t nq, const float* base,
                          size_t nv, uint32_t dim, double* out,
                          void (*many)(const float*, const float*, size_t,
                                       uint32_t, double*)) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      __m256 lo0 = _mm256_setzero_ps(), hi0 = _mm256_setzero_ps();
      __m256 lo1 = _mm256_setzero_ps(), hi1 = _mm256_setzero_ps();
      __m256 lo2 = _mm256_setzero_ps(), hi2 = _mm256_setzero_ps();
      __m256 lo3 = _mm256_setzero_ps(), hi3 = _mm256_setzero_ps();
      uint32_t i = 0;
      for (; i + 16 <= dim; i += 16) {
        const __m256 va = _mm256_loadu_ps(v + i);
        const __m256 vb = _mm256_loadu_ps(v + i + 8);
        lo0 = Step(lo0, _mm256_loadu_ps(q0 + i), va);
        hi0 = Step(hi0, _mm256_loadu_ps(q0 + i + 8), vb);
        lo1 = Step(lo1, _mm256_loadu_ps(q1 + i), va);
        hi1 = Step(hi1, _mm256_loadu_ps(q1 + i + 8), vb);
        lo2 = Step(lo2, _mm256_loadu_ps(q2 + i), va);
        hi2 = Step(hi2, _mm256_loadu_ps(q2 + i + 8), vb);
        lo3 = Step(lo3, _mm256_loadu_ps(q3 + i), va);
        hi3 = Step(hi3, _mm256_loadu_ps(q3 + i + 8), vb);
      }
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(v + i);
        lo0 = Step(lo0, _mm256_loadu_ps(q0 + i), va);
        lo1 = Step(lo1, _mm256_loadu_ps(q1 + i), va);
        lo2 = Step(lo2, _mm256_loadu_ps(q2 + i), va);
        lo3 = Step(lo3, _mm256_loadu_ps(q3 + i), va);
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; i < dim; ++i) {
        const float x = v[i];
        t0 += Term(q0[i], x);
        t1 += Term(q1[i], x);
        t2 += Term(q2[i], x);
        t3 += Term(q3[i], x);
      }
      out[(r + 0) * nv + c] =
          HSum(_mm256_add_ps(lo0, hi0)) + static_cast<double>(t0);
      out[(r + 1) * nv + c] =
          HSum(_mm256_add_ps(lo1, hi1)) + static_cast<double>(t1);
      out[(r + 2) * nv + c] =
          HSum(_mm256_add_ps(lo2, hi2)) + static_cast<double>(t2);
      out[(r + 3) * nv + c] =
          HSum(_mm256_add_ps(lo3, hi3)) + static_cast<double>(t3);
    }
  }
  for (; r < nq; ++r) many(qs + r * dim, base, nv, dim, out + r * nv);
}

PEXESO_AVX2 void Avx2SqL2Tile(const float* qs, size_t nq, const float* base,
                              size_t nv, uint32_t dim, double* out) {
  Avx2Tile<SqStep, SqTerm>(qs, nq, base, nv, dim, out, &Avx2SqL2Many);
}

PEXESO_AVX2 void Avx2DotTile(const float* qs, size_t nq, const float* base,
                             size_t nv, uint32_t dim, double* out) {
  Avx2Tile<DotStep, DotTerm>(qs, nq, base, nv, dim, out, &Avx2DotMany);
}

PEXESO_AVX2 void Avx2L1Tile(const float* qs, size_t nq, const float* base,
                            size_t nv, uint32_t dim, double* out) {
  Avx2Tile<AbsStep, AbsTerm>(qs, nq, base, nv, dim, out, &Avx2L1Many);
}

#undef PEXESO_AVX2

constexpr Ops kAvx2Ops = {
    SimdLevel::kAvx2, &Avx2SqL2,    &Avx2SqL2Many,
    &Avx2Dot,         &Avx2DotMany, &Avx2CosCore,
    &Avx2L1,          &Avx2L1Many,  &Avx2Norms,
    &Avx2SqL2Tile,    &Avx2DotTile, &Avx2L1Tile,
};

}  // namespace

bool Avx2CpuSupported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

const Ops& Avx2Ops() { return kAvx2Ops; }

}  // namespace pexeso::simd

#endif  // PEXESO_HAVE_AVX2_KERNELS
