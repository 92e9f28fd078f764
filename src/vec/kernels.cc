#include "vec/kernels.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "vec/kernels_arch.h"

namespace pexeso {

namespace simd {
namespace {

// ------------------------------------------------------------ scalar tier
//
// Written to auto-vectorize under -O2/-O3: float accumulation in four
// independent lanes, no cross-iteration dependence, contiguous loads. Even
// without SIMD codegen this beats the virtual Metric::Dist path by skipping
// the per-pair float->double widening and the indirect call.

double ScalarSqL2(const float* a, const float* b, uint32_t dim) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  uint32_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    acc0 += d * d;
  }
  return static_cast<double>((acc0 + acc1) + (acc2 + acc3));
}

void ScalarSqL2Many(const float* q, const float* base, size_t n, uint32_t dim,
                    double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = ScalarSqL2(q, base + r * dim, dim);
  }
}

double ScalarDot(const float* a, const float* b, uint32_t dim) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  uint32_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < dim; ++i) acc0 += a[i] * b[i];
  return static_cast<double>((acc0 + acc1) + (acc2 + acc3));
}

void ScalarDotMany(const float* q, const float* base, size_t n, uint32_t dim,
                   double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = ScalarDot(q, base + r * dim, dim);
  }
}

double ScalarCosCore(const float* a, const float* b, uint32_t dim,
                     double* na2, double* nb2) {
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (uint32_t i = 0; i < dim; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  *na2 = static_cast<double>(na);
  *nb2 = static_cast<double>(nb);
  return static_cast<double>(dot);
}

double ScalarL1(const float* a, const float* b, uint32_t dim) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  uint32_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += std::fabs(a[i] - b[i]);
    acc1 += std::fabs(a[i + 1] - b[i + 1]);
    acc2 += std::fabs(a[i + 2] - b[i + 2]);
    acc3 += std::fabs(a[i + 3] - b[i + 3]);
  }
  for (; i < dim; ++i) acc0 += std::fabs(a[i] - b[i]);
  return static_cast<double>((acc0 + acc1) + (acc2 + acc3));
}

void ScalarL1Many(const float* q, const float* base, size_t n, uint32_t dim,
                  double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = ScalarL1(q, base + r * dim, dim);
  }
}

void ScalarNorms(const float* base, size_t n, uint32_t dim, float* out) {
  for (size_t r = 0; r < n; ++r) {
    const float* v = base + r * dim;
    out[r] = static_cast<float>(std::sqrt(ScalarDot(v, v, dim)));
  }
}

// Tiles process four query rows per pass over a base row, so each base row
// is read from memory once per row-block instead of once per query row.
// Each row of a 4-row group keeps the one-pair kernel's exact summation
// order: lane l of its accumulator is that kernel's acc_l (elements
// i = l mod 4), the tail joins lane 0, and the lanes sum as
// (l0 + l1) + (l2 + l3). A tile cell therefore equals the one-pair value
// bit for bit whatever the row's position in the tile; leftover rows call
// the one-to-many kernel.

/// Four float lanes (a GCC/Clang vector extension): SSE/NEON registers
/// where the target has them, plain scalars otherwise. Each lane rounds
/// exactly as the scalar code does.
typedef float Lanes4 __attribute__((vector_size(16)));

template <typename Term>
void ScalarTile(const float* qs, size_t nq, const float* base, size_t nv,
                uint32_t dim, double* out, Term term,
                void (*many)(const float*, const float*, size_t, uint32_t,
                             double*)) {
  const auto load = [](const float* p) {
    Lanes4 x;
    std::memcpy(&x, p, sizeof(x));
    return x;
  };
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q[4] = {qs + r * dim, qs + (r + 1) * dim,
                         qs + (r + 2) * dim, qs + (r + 3) * dim};
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      Lanes4 acc[4] = {};
      uint32_t i = 0;
      for (; i + 4 <= dim; i += 4) {
        const Lanes4 x = load(v + i);
        for (int k = 0; k < 4; ++k) acc[k] += term(load(q[k] + i), x);
      }
      float tail[4] = {acc[0][0], acc[1][0], acc[2][0], acc[3][0]};
      for (; i < dim; ++i) {
        for (int k = 0; k < 4; ++k) tail[k] += term(q[k][i], v[i]);
      }
      for (int k = 0; k < 4; ++k) {
        out[(r + k) * nv + c] = static_cast<double>(
            (tail[k] + acc[k][1]) + (acc[k][2] + acc[k][3]));
      }
    }
  }
  for (; r < nq; ++r) many(qs + r * dim, base, nv, dim, out + r * nv);
}

void ScalarSqL2Tile(const float* qs, size_t nq, const float* base, size_t nv,
                    uint32_t dim, double* out) {
  ScalarTile(
      qs, nq, base, nv, dim, out,
      [](auto a, auto b) {
        const auto d = a - b;
        return d * d;
      },
      &ScalarSqL2Many);
}

void ScalarDotTile(const float* qs, size_t nq, const float* base, size_t nv,
                   uint32_t dim, double* out) {
  ScalarTile(
      qs, nq, base, nv, dim, out, [](auto a, auto b) { return a * b; },
      &ScalarDotMany);
}

void ScalarL1Tile(const float* qs, size_t nq, const float* base, size_t nv,
                  uint32_t dim, double* out) {
  ScalarTile(
      qs, nq, base, nv, dim, out,
      [](auto a, auto b) {
        const auto d = a - b;
        return d < 0 ? -d : d;  // |d|, also on Lanes4
      },
      &ScalarL1Many);
}

constexpr Ops kScalarOps = {
    SimdLevel::kScalar, &ScalarSqL2,     &ScalarSqL2Many,
    &ScalarDot,         &ScalarDotMany,  &ScalarCosCore,
    &ScalarL1,          &ScalarL1Many,   &ScalarNorms,
    &ScalarSqL2Tile,    &ScalarDotTile,  &ScalarL1Tile,
};

// ------------------------------------------------------------ dispatch

/// Case-insensitive level name; false when `s` names no known level, so an
/// unrecognized override falls back to detection instead of silently
/// pinning the scalar tier.
bool ParseLevelName(const char* s, SimdLevel* out) {
  std::string lower(s);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "scalar") *out = SimdLevel::kScalar;
  else if (lower == "avx2") *out = SimdLevel::kAvx2;
  else if (lower == "neon") *out = SimdLevel::kNeon;
  else return false;
  return true;
}

SimdLevel DetectLevel() {
  if (const char* env = std::getenv("PEXESO_SIMD")) {
    SimdLevel wanted;
    if (ParseLevelName(env, &wanted) && SimdLevelAvailable(wanted)) {
      return wanted;
    }
    // Unknown or unavailable override: fall through to detection so a
    // pinned setting stays portable across machines.
  }
#if defined(PEXESO_HAVE_AVX2_KERNELS)
  if (SimdLevelAvailable(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
#endif
#if defined(PEXESO_HAVE_NEON_KERNELS)
  if (SimdLevelAvailable(SimdLevel::kNeon)) return SimdLevel::kNeon;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

const Ops& ScalarOps() { return kScalarOps; }

const Ops* OpsFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarOps;
    case SimdLevel::kAvx2:
#if defined(PEXESO_HAVE_AVX2_KERNELS)
      if (SimdLevelAvailable(SimdLevel::kAvx2)) return &Avx2Ops();
#endif
      return nullptr;
    case SimdLevel::kNeon:
#if defined(PEXESO_HAVE_NEON_KERNELS)
      if (SimdLevelAvailable(SimdLevel::kNeon)) return &NeonOps();
#endif
      return nullptr;
  }
  return nullptr;
}

const Ops& ActiveOps() {
  static const Ops* active = OpsFor(DetectLevel());
  return *active;
}

}  // namespace simd

SimdLevel ActiveSimdLevel() { return simd::ActiveOps().level; }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

bool SimdLevelAvailable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(PEXESO_HAVE_AVX2_KERNELS)
      return simd::Avx2CpuSupported();
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if defined(PEXESO_HAVE_NEON_KERNELS)
      return true;  // NEON is baseline on AArch64
#else
      return false;
#endif
  }
  return false;
}

void ComputeNorms(const float* base, size_t n, uint32_t dim, float* out) {
  simd::ActiveOps().norms(base, n, dim, out);
}

void KernelSet::DistMany(const float* q, const float* base, size_t n,
                         uint32_t dim, double* out) const {
  switch (kind) {
    case MetricKind::kL2:
      ops->sq_l2_many(q, base, n, dim, out);
      for (size_t r = 0; r < n; ++r) out[r] = std::sqrt(out[r]);
      return;
    case MetricKind::kCosine:
      for (size_t r = 0; r < n; ++r) {
        double na2 = 0.0, nb2 = 0.0;
        const double dot = ops->cos_core(q, base + r * dim, dim, &na2, &nb2);
        out[r] = std::sqrt(CosCmpFromCore(dot, na2, nb2));
      }
      return;
    case MetricKind::kL1:
      ops->l1_many(q, base, n, dim, out);
      return;
  }
}

void KernelSet::DistTile(const float* qs, size_t nq, const float* base,
                         size_t nv, uint32_t dim, double* out) const {
  if (kind == MetricKind::kCosine) {
    // Compute both sides' norms once per tile, then share the normed path.
    std::vector<float> qn32(nq), bn(nv);
    ops->norms(qs, nq, dim, qn32.data());
    ops->norms(base, nv, dim, bn.data());
    std::vector<double> qn(nq);
    for (size_t r = 0; r < nq; ++r) qn[r] = static_cast<double>(qn32[r]);
    DistTileNormed(qs, qn.data(), base, bn.data(), nq, nv, dim, out);
    return;
  }
  CmpTileNormed(qs, nullptr, base, nullptr, nq, nv, dim, out);
  if (kind == MetricKind::kL2) {
    for (size_t i = 0; i < nq * nv; ++i) out[i] = std::sqrt(out[i]);
  }
}

void KernelSet::DistTileNormed(const float* qs, const double* qnorms,
                               const float* base, const float* base_norms,
                               size_t nq, size_t nv, uint32_t dim,
                               double* out) const {
  CmpTileNormed(qs, qnorms, base, base_norms, nq, nv, dim, out);
  if (kind != MetricKind::kL1) {
    for (size_t i = 0; i < nq * nv; ++i) out[i] = std::sqrt(out[i]);
  }
}

void KernelSet::CmpTileNormed(const float* qs, const double* qnorms,
                              const float* base, const float* base_norms,
                              size_t nq, size_t nv, uint32_t dim,
                              double* out) const {
  switch (kind) {
    case MetricKind::kL2:
      ops->sq_l2_tile(qs, nq, base, nv, dim, out);
      return;
    case MetricKind::kCosine:
      ops->dot_tile(qs, nq, base, nv, dim, out);
      for (size_t r = 0; r < nq; ++r) {
        const double qn = qnorms[r];
        double* row = out + r * nv;
        for (size_t c = 0; c < nv; ++c) {
          const double denom = qn * static_cast<double>(base_norms[c]);
          if (denom <= 0.0) {
            row[c] = 2.0;  // zero vector: dist^2 = 2 (Cmp1Normed semantics)
            continue;
          }
          double cosv = row[c] / denom;
          if (cosv > 1.0) cosv = 1.0;
          if (cosv < -1.0) cosv = -1.0;
          row[c] = 2.0 - 2.0 * cosv;
        }
      }
      return;
    case MetricKind::kL1:
      ops->l1_tile(qs, nq, base, nv, dim, out);
      return;
  }
}

void KernelSet::DistManyNormed(const float* q, double qnorm, const float* base,
                               const float* base_norms, size_t n, uint32_t dim,
                               double* out) const {
  if (kind != MetricKind::kCosine) {
    DistMany(q, base, n, dim, out);
    return;
  }
  ops->dot_many(q, base, n, dim, out);
  for (size_t r = 0; r < n; ++r) {
    const double denom = qnorm * static_cast<double>(base_norms[r]);
    if (denom <= 0.0) {
      out[r] = std::sqrt(2.0);
      continue;
    }
    double c = out[r] / denom;
    if (c > 1.0) c = 1.0;
    if (c < -1.0) c = -1.0;
    out[r] = std::sqrt(2.0 - 2.0 * c);
  }
}

namespace {

const KernelSet* MakeTable(SimdLevel level) {
  const simd::Ops* ops = simd::OpsFor(level);
  if (ops == nullptr) return nullptr;
  static KernelSet tables[3][3];  // [level][kind]
  KernelSet* row = tables[static_cast<uint8_t>(level)];
  row[0] = KernelSet{MetricKind::kL2, ops};
  row[1] = KernelSet{MetricKind::kCosine, ops};
  row[2] = KernelSet{MetricKind::kL1, ops};
  return row;
}

}  // namespace

const KernelSet* GetKernels(MetricKind kind, SimdLevel level) {
  static const KernelSet* rows[3] = {
      MakeTable(SimdLevel::kScalar),
      MakeTable(SimdLevel::kAvx2),
      MakeTable(SimdLevel::kNeon),
  };
  const KernelSet* row = rows[static_cast<uint8_t>(level)];
  return row == nullptr ? nullptr : row + static_cast<uint8_t>(kind);
}

const KernelSet* GetKernels(MetricKind kind) {
  return GetKernels(kind, ActiveSimdLevel());
}

}  // namespace pexeso
