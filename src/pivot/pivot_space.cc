#include "pivot/pivot_space.h"

#include "common/check.h"

namespace pexeso {

PivotSpace::PivotSpace(const float* pivots, uint32_t count, uint32_t dim,
                       const Metric* metric)
    : num_pivots_(count),
      dim_(dim),
      pivots_(pivots, pivots + static_cast<size_t>(count) * dim) {
  PEXESO_CHECK(count > 0 && dim > 0 && metric != nullptr);
  BindMetric(metric);
  axis_extent_ = metric->MaxUnitDistance(dim);
}

void PivotSpace::BindMetric(const Metric* metric) {
  metric_ = metric;
  kernels_ = metric != nullptr ? metric->kernels() : nullptr;
  pivot_norms_.assign(num_pivots_, 0.0f);
  if (kernels_ != nullptr && num_pivots_ > 0) {
    ComputeNorms(pivots_.data(), num_pivots_, dim_, pivot_norms_.data());
  }
}

void PivotSpace::Map(const float* v, double* out) const {
  if (kernels_ != nullptr) {
    const double qnorm = kernels_->QueryNorm(v, dim_);
    kernels_->DistManyNormed(v, qnorm, pivots_.data(), pivot_norms_.data(),
                             num_pivots_, dim_, out);
    return;
  }
  for (uint32_t i = 0; i < num_pivots_; ++i) {
    out[i] = metric_->Dist(pivot(i), v, dim_);
  }
}

std::vector<double> PivotSpace::MapAll(const float* data, size_t n) const {
  std::vector<double> mapped(n * num_pivots_);
  // The pivot block (|P| x dim floats) stays cache resident while the data
  // rows stream through; each row is one batched one-to-many kernel call.
  for (size_t i = 0; i < n; ++i) {
    Map(data + i * dim_, mapped.data() + i * num_pivots_);
  }
  return mapped;
}

void PivotSpace::Serialize(BinaryWriter* w) const {
  w->Write<uint32_t>(num_pivots_);
  w->Write<uint32_t>(dim_);
  w->Write<double>(axis_extent_);
  w->WriteVector(pivots_);
}

Status PivotSpace::Deserialize(BinaryReader* r, const Metric* metric) {
  PEXESO_RETURN_NOT_OK(r->Read(&num_pivots_));
  PEXESO_RETURN_NOT_OK(r->Read(&dim_));
  PEXESO_RETURN_NOT_OK(r->Read(&axis_extent_));
  PEXESO_RETURN_NOT_OK(r->ReadVector(&pivots_));
  // Both counts nonzero, so the exact size match below also bounds
  // num_pivots_ (and the norm buffer BindMetric sizes by it) by the bytes
  // actually read.
  if (num_pivots_ == 0 || dim_ == 0 ||
      pivots_.size() != static_cast<size_t>(num_pivots_) * dim_) {
    return Status::Corruption("pivot buffer size mismatch");
  }
  BindMetric(metric);
  return Status::OK();
}

}  // namespace pexeso
