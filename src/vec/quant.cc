#include "vec/quant.h"

#include <algorithm>
#include <cmath>

#include "vec/kernels.h"

namespace pexeso {
namespace {

/// Quantized sums are int32; (Δcode)^2 <= 254^2, so any dim up to ~33k is
/// overflow-safe. The cap stays far below that and bounds the code arrays.
constexpr uint32_t kMaxQuantDim = 4096;

/// Double-accumulating oracle distance (matches Metric::Dist for the
/// built-in metrics the pre-filter serves).
double OracleDist(const float* a, const float* b, uint32_t dim,
                  MetricKind kind) {
  double acc = 0.0;
  if (kind == MetricKind::kL1) {
    for (uint32_t i = 0; i < dim; ++i) {
      acc += std::fabs(static_cast<double>(a[i]) - b[i]);
    }
    return acc;
  }
  for (uint32_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

/// Pads an exactly-computed error norm so float storage and double rounding
/// can never shave it below the true value.
double PadError(double eps) { return eps * (1.0 + 1e-6) + 1e-12; }

/// Codes of one row under column params (scale, offset), returning the
/// padded reconstruction error norm. Each code is (x - offset) / scale,
/// clamped to ±127 in float (a NaN lands on -127), then rounded to the
/// nearest integer, ties to even: lrintf's result for every |t| < 2^63
/// without its libm call per element, so the loop vectorizes. The error is
/// accumulated in element order.
double QuantizeRow(const float* x, uint32_t dim, QuantColumnParam p,
                   MetricKind kind, int8_t* out) {
  // Adding then subtracting 1.5 * 2^23 leaves |t| <= 127 rounded to an
  // integer in the default rounding mode (nearest, ties to even). This
  // needs IEEE float semantics: -ffast-math would fold it to a truncation.
  constexpr float kRound = 12582912.0f;
  for (uint32_t i = 0; i < dim; ++i) {
    float t = (x[i] - p.offset) / p.scale;
    t = t > -127.0f ? t : -127.0f;
    t = t < 127.0f ? t : 127.0f;
    out[i] = static_cast<int8_t>((t + kRound) - kRound);
  }
  const double scale = static_cast<double>(p.scale);
  const double offset = static_cast<double>(p.offset);
  double eps = 0.0;
  if (kind == MetricKind::kL1) {
    for (uint32_t i = 0; i < dim; ++i) {
      eps += std::fabs(static_cast<double>(x[i]) - (scale * out[i] + offset));
    }
    return PadError(eps);
  }
  for (uint32_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(x[i]) - (scale * out[i] + offset);
    eps += d * d;
  }
  return PadError(std::sqrt(eps));
}

}  // namespace

void QuantStore::Build(const ColumnCatalog& catalog, MetricKind kind) {
  Clear();
  const uint32_t dim = catalog.dim();
  if (kind == MetricKind::kCosine || dim == 0 || dim > kMaxQuantDim ||
      catalog.num_vectors() == 0) {
    return;
  }
  kind_ = kind;
  dim_ = dim;
  valid_ = true;
  params_.reserve(catalog.num_columns());
  codes_.reserve(catalog.num_vectors() * dim);
  err_.reserve(catalog.num_vectors());
  for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
    QuantizeRange(catalog, c);
  }
  num_vectors_ = catalog.num_vectors();
  Calibrate(catalog);
}

void QuantStore::AppendLastColumn(const ColumnCatalog& catalog) {
  if (!valid_) return;
  Materialize();
  const ColumnId col = static_cast<ColumnId>(catalog.num_columns() - 1);
  QuantizeRange(catalog, col);
  num_vectors_ = catalog.num_vectors();
}

void QuantStore::Materialize() {
  if (!is_view()) return;
  codes_.assign(view_codes_, view_codes_ + num_vectors_ * dim_);
  err_.assign(view_err_, view_err_ + num_vectors_);
  view_codes_ = nullptr;
  view_err_ = nullptr;
}

void QuantStore::QuantizeRange(const ColumnCatalog& catalog, ColumnId col) {
  const VectorStore& store = catalog.store();
  const ColumnMeta& meta = catalog.column(col);
  float lo = store.View(meta.first)[0];
  float hi = lo;
  for (VecId v = meta.first; v < meta.end(); ++v) {
    const float* x = store.View(v);
    for (uint32_t i = 0; i < dim_; ++i) {
      lo = std::min(lo, x[i]);
      hi = std::max(hi, x[i]);
    }
  }
  const float offset = 0.5f * (lo + hi);
  const float half = 0.5f * (hi - lo);
  const float scale = half > 0.0f ? half / 127.0f : 1.0f;
  params_.push_back(QuantColumnParam{scale, offset});

  const size_t first = codes_.size();
  codes_.resize(first + static_cast<size_t>(meta.count) * dim_);
  for (VecId v = meta.first; v < meta.end(); ++v) {
    const double eps =
        QuantizeRow(store.View(v), dim_, params_.back(), kind_,
                    codes_.data() + first + (v - meta.first) * dim_);
    err_.push_back(static_cast<float>(eps));
  }
}

double QuantStore::QuantizeQuery(const float* q, ColumnId c,
                                 int8_t* out) const {
  return QuantizeRow(q, dim_, params_[c], kind_, out);
}

void QuantStore::Calibrate(const ColumnCatalog& catalog) {
  // The decision slack must cover how far any float kernel variant can land
  // from the double-accumulating oracle. Measure the deviation empirically
  // over sampled pairs on the tiers available here, then double it and add
  // a dim-scaled analytic floor (~dim * 2^-23 relative, generously) so a
  // snapshot calibrated under one SIMD tier stays safe under another.
  slack_abs_ = 1e-9;
  double max_rel = 0.0;
  const VectorStore& store = catalog.store();
  const size_t n = store.size();
  if (n >= 2) {
    const KernelSet* tiers[2] = {GetKernels(kind_, SimdLevel::kScalar),
                                 GetKernels(kind_)};
    for (int t = 0; t < 2; ++t) {
      const KernelSet* ks = tiers[t];
      if (ks == nullptr) continue;
      if (t == 1 && ks->level() == SimdLevel::kScalar) continue;
      for (uint32_t k = 0; k < 128; ++k) {
        const size_t i = (k * 2654435761u) % n;
        const size_t j = (k * 40503u + 1) % n;
        if (i == j) continue;
        const float* a = store.View(static_cast<VecId>(i));
        const float* b = store.View(static_cast<VecId>(j));
        const double exact = OracleDist(a, b, dim_, kind_);
        if (exact < 1e-6) continue;  // near-zero: covered by slack_abs_
        const double kv = ks->Dist1(a, b, dim_);
        max_rel = std::max(max_rel, std::fabs(kv - exact) / exact);
      }
    }
  }
  slack_rel_ = 2.0 * max_rel + static_cast<double>(dim_) * 1.2e-7;
}

}  // namespace pexeso
