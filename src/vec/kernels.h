#ifndef PEXESO_VEC_KERNELS_H_
#define PEXESO_VEC_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "vec/metric.h"

namespace pexeso {

/// \brief SIMD instruction-set tiers the distance kernels are compiled for.
///
/// The active level is detected once at startup (AVX2+FMA on x86-64, NEON on
/// AArch64, scalar everywhere else) and can be overridden with the
/// PEXESO_SIMD environment variable ("scalar", "avx2", "neon") — an
/// unavailable override silently falls back to detection, so a pinned CI
/// setting stays portable across machines.
enum class SimdLevel : uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Level resolved at startup (detection + PEXESO_SIMD override).
SimdLevel ActiveSimdLevel();

/// "scalar" / "avx2" / "neon".
const char* SimdLevelName(SimdLevel level);

/// Whether `level` can run on this CPU ("scalar" always can).
bool SimdLevelAvailable(SimdLevel level);

namespace simd {

/// \brief The batched arithmetic primitives one SIMD tier provides. Every
/// distance kernel is composed from these; metric-specific glue (sqrt,
/// cosine clamping, threshold transforms) lives in KernelSet and is shared
/// across tiers, so each tier only implements straight-line accumulation
/// loops.
///
/// Accumulation is float-lane (scalar tier: plain double), so results can
/// differ from the double-accumulating Metric::Dist oracle in the last few
/// ulps; tests/kernel_test.cc bounds the divergence.
struct Ops {
  SimdLevel level;
  /// sum_i (a[i] - b[i])^2
  double (*sq_l2)(const float* a, const float* b, uint32_t dim);
  /// out[r] = sum_i (q[i] - base[r*dim + i])^2
  void (*sq_l2_many)(const float* q, const float* base, size_t n,
                     uint32_t dim, double* out);
  /// dot(a, b)
  double (*dot)(const float* a, const float* b, uint32_t dim);
  /// out[r] = dot(q, base_r)
  void (*dot_many)(const float* q, const float* base, size_t n, uint32_t dim,
                   double* out);
  /// Fused single pass: returns dot(a, b), fills *na2 = dot(a,a) and
  /// *nb2 = dot(b,b). What cosine needs when no norms are precomputed.
  double (*cos_core)(const float* a, const float* b, uint32_t dim,
                     double* na2, double* nb2);
  /// sum_i |a[i] - b[i]|
  double (*l1)(const float* a, const float* b, uint32_t dim);
  /// out[r] = sum_i |q[i] - base[r*dim + i]|
  void (*l1_many)(const float* q, const float* base, size_t n, uint32_t dim,
                  double* out);
  /// out[r] = ||base_r||_2
  void (*norms)(const float* base, size_t n, uint32_t dim, float* out);

  // Many-to-many tiles: nq packed query rows against nv packed base rows,
  // out[r * nv + c] = f(qs_r, base_c). Row-blocked so each base row is
  // streamed from memory once per block of query rows instead of once per
  // row — the arithmetic-intensity win the verification pipeline's tiled
  // stage is built on. Each cell is bit-identical to the one-pair kernel
  // (sq_l2 / dot / l1) on the same rows, whatever the row's position in
  // the tile, so a pair's decision never depends on the path that took it.

  /// out[r*nv + c] = sum_i (qs[r*dim+i] - base[c*dim+i])^2
  void (*sq_l2_tile)(const float* qs, size_t nq, const float* base, size_t nv,
                     uint32_t dim, double* out);
  /// out[r*nv + c] = dot(qs_r, base_c)
  void (*dot_tile)(const float* qs, size_t nq, const float* base, size_t nv,
                   uint32_t dim, double* out);
  /// out[r*nv + c] = sum_i |qs[r*dim+i] - base[c*dim+i]|
  void (*l1_tile)(const float* qs, size_t nq, const float* base, size_t nv,
                  uint32_t dim, double* out);
};

/// The portable tier (always available; also the reference in tests).
const Ops& ScalarOps();

/// The tier matching ActiveSimdLevel().
const Ops& ActiveOps();

/// Tier by level, or nullptr when this build/CPU cannot run it.
const Ops* OpsFor(SimdLevel level);

}  // namespace simd

/// Per-vector L2 norms with the active tier: out[r] = ||base_r||.
void ComputeNorms(const float* base, size_t n, uint32_t dim, float* out);

/// \brief Devirtualized, batched distance kernels for one metric.
///
/// A KernelSet binds a metric kind to one SIMD tier's primitives. Search
/// hot paths fetch it once per search (Metric::kernels()) and then run
/// branch-predictable direct calls instead of a virtual Metric::Dist per
/// pair. Two value spaces are exposed:
///
///  - the *distance* space (Dist1 / DistMany), equal to Metric::Dist up to
///    float rounding — for code that needs true distances (pivot mapping,
///    cover-tree bounds, EPT tables);
///  - the *comparison* space (Cmp1 / Cmp1Normed vs CmpBound(tau)), a
///    monotone surrogate that skips the per-pair sqrt where the metric
///    allows it: squared distance for L2 and cosine, identity for L1.
///    `Cmp1(a,b) <= CmpBound(tau)`  <=>  `Dist1(a,b) <= tau`.
///
/// The *Normed entry points take precomputed L2 norms (VectorStore::
/// EnsureNorms) so cosine stops recomputing both norms for every pair; L2
/// and L1 ignore the norm arguments entirely.
struct KernelSet {
  MetricKind kind;
  const simd::Ops* ops;

  SimdLevel level() const { return ops->level; }

  /// True metric distance of one pair.
  double Dist1(const float* a, const float* b, uint32_t dim) const {
    switch (kind) {
      case MetricKind::kL2:
        return std::sqrt(ops->sq_l2(a, b, dim));
      case MetricKind::kCosine: {
        double na2 = 0.0, nb2 = 0.0;
        const double dot = ops->cos_core(a, b, dim, &na2, &nb2);
        return std::sqrt(CosCmpFromCore(dot, na2, nb2));
      }
      case MetricKind::kL1:
        return ops->l1(a, b, dim);
    }
    return 0.0;
  }

  /// out[r] = Dist1(q, base_r) for n packed base rows.
  void DistMany(const float* q, const float* base, size_t n, uint32_t dim,
                double* out) const;

  /// DistMany with precomputed norms (`qnorm` = ||q||, base_norms[r] =
  /// ||base_r||); only cosine reads them.
  void DistManyNormed(const float* q, double qnorm, const float* base,
                      const float* base_norms, size_t n, uint32_t dim,
                      double* out) const;

  /// Many-to-many true-distance tile: out[r*nv + c] = Dist1(qs_r, base_c)
  /// for nq packed query rows against nv packed base rows. Cosine computes
  /// both norms internally; prefer DistTileNormed when they are cached.
  void DistTile(const float* qs, size_t nq, const float* base, size_t nv,
                uint32_t dim, double* out) const;

  /// DistTile with precomputed norms (qnorms[r] = ||qs_r||, base_norms[c] =
  /// ||base_c||); only cosine reads them.
  void DistTileNormed(const float* qs, const double* qnorms, const float* base,
                      const float* base_norms, size_t nq, size_t nv,
                      uint32_t dim, double* out) const;

  /// Many-to-many comparison-space tile: out[r*nv + c] = Cmp1Normed(qs_r,
  /// base_c), bit for bit — squared distance for L2/cosine (compare against
  /// CmpBound(tau), no sqrt per slot), identity for L1. The workhorse of
  /// the staged verification pipeline (core/verify_pipeline.cc).
  void CmpTileNormed(const float* qs, const double* qnorms, const float* base,
                     const float* base_norms, size_t nq, size_t nv,
                     uint32_t dim, double* out) const;

  /// Comparison-space value of one pair (see class comment).
  double Cmp1(const float* a, const float* b, uint32_t dim) const {
    switch (kind) {
      case MetricKind::kL2:
        return ops->sq_l2(a, b, dim);
      case MetricKind::kCosine: {
        double na2 = 0.0, nb2 = 0.0;
        const double dot = ops->cos_core(a, b, dim, &na2, &nb2);
        return CosCmpFromCore(dot, na2, nb2);
      }
      case MetricKind::kL1:
        return ops->l1(a, b, dim);
    }
    return 0.0;
  }

  /// Cmp1 with precomputed L2 norms; only cosine reads them, and for it
  /// this is the cheapest per-pair path (one dot product, no sqrt).
  double Cmp1Normed(const float* a, const float* b, uint32_t dim, double na,
                    double nb) const {
    switch (kind) {
      case MetricKind::kL2:
        return ops->sq_l2(a, b, dim);
      case MetricKind::kCosine: {
        if (na <= 0.0 || nb <= 0.0) return 2.0;  // zero vector: dist^2 = 2
        double c = ops->dot(a, b, dim) / (na * nb);
        if (c > 1.0) c = 1.0;
        if (c < -1.0) c = -1.0;
        return 2.0 - 2.0 * c;
      }
      case MetricKind::kL1:
        return ops->l1(a, b, dim);
    }
    return 0.0;
  }

  /// Threshold mapped into the comparison space.
  double CmpBound(double tau) const {
    return kind == MetricKind::kL1 ? tau : tau * tau;
  }

  /// Whether the comparison space saves a sqrt per pair versus computing
  /// the true distance (L2 and cosine: yes; L1: no sqrt to save).
  bool cmp_avoids_sqrt() const { return kind != MetricKind::kL1; }

  /// ||q|| when this metric consumes norms, 1.0 otherwise (so callers can
  /// compute the query-side norm once per query unconditionally).
  double QueryNorm(const float* q, uint32_t dim) const {
    if (kind != MetricKind::kCosine) return 1.0;
    return std::sqrt(ops->dot(q, q, dim));
  }

  /// Angular cosine distance squared from the fused-core values, with the
  /// same zero-vector and clamping semantics as CosineMetric::Dist.
  static double CosCmpFromCore(double dot, double na2, double nb2) {
    if (na2 <= 0.0 || nb2 <= 0.0) return 2.0;
    double c = dot / std::sqrt(na2 * nb2);
    if (c > 1.0) c = 1.0;
    if (c < -1.0) c = -1.0;
    return 2.0 - 2.0 * c;
  }
};

/// KernelSet for `kind` at the active SIMD level. Never nullptr.
const KernelSet* GetKernels(MetricKind kind);

/// KernelSet at an explicit level (tests/benches); nullptr if unavailable.
const KernelSet* GetKernels(MetricKind kind, SimdLevel level);

/// Devirtualized single-pair distance: the kernel when the metric provides
/// one, the virtual Dist oracle otherwise (custom metrics).
inline double KernelDist(const Metric& metric, const KernelSet* ks,
                         const float* a, const float* b, uint32_t dim) {
  return ks != nullptr ? ks->Dist1(a, b, dim) : metric.Dist(a, b, dim);
}

/// \brief A compiled `dist(a, b) <= tau` predicate bound to one metric and
/// one threshold.
///
/// Resolves once, at construction, to the kernel comparison space (squared
/// distance for L2/cosine — no per-pair sqrt) when the metric has kernels,
/// and to the virtual Metric::Dist path otherwise. This is what every
/// verification loop uses; `sqrt_saved()` feeds the SearchStats counter for
/// evaluations that skipped the sqrt.
class RangePredicate {
 public:
  RangePredicate(const Metric& metric, double tau)
      : metric_(&metric),
        ks_(metric.kernels()),
        tau_(tau),
        bound_(ks_ != nullptr ? ks_->CmpBound(tau) : tau),
        sqrt_saved_(ks_ != nullptr && ks_->cmp_avoids_sqrt() ? 1 : 0) {}

  const KernelSet* kernels() const { return ks_; }

  /// 1 when each Match skips a sqrt, 0 otherwise — add it to
  /// SearchStats::sqrt_free_comparisons alongside distance_computations.
  uint64_t sqrt_saved() const { return sqrt_saved_; }

  /// Whether this metric wants precomputed norms (cosine with kernels).
  bool wants_norms() const {
    return ks_ != nullptr && ks_->kind == MetricKind::kCosine;
  }

  /// dist(a, b) <= tau, recomputing norms as needed.
  bool Match(const float* a, const float* b, uint32_t dim) const {
    if (ks_ != nullptr) return ks_->Cmp1(a, b, dim) <= bound_;
    return metric_->Dist(a, b, dim) <= tau_;
  }

  /// dist(a, b) <= tau with precomputed L2 norms. Callers that cache norms
  /// (see wants_norms()) use this; L2/L1 ignore the norm arguments.
  bool MatchNormed(const float* a, const float* b, uint32_t dim, double na,
                   double nb) const {
    if (ks_ != nullptr) return ks_->Cmp1Normed(a, b, dim, na, nb) <= bound_;
    return metric_->Dist(a, b, dim) <= tau_;
  }

 private:
  const Metric* metric_;
  const KernelSet* ks_;
  double tau_;
  double bound_;
  uint64_t sqrt_saved_;
};

}  // namespace pexeso

#endif  // PEXESO_VEC_KERNELS_H_
