#include "vec/vector_store.h"

#include <cmath>

#include "vec/kernels.h"

namespace pexeso {

void VectorStore::NormalizeInPlace(float* v, uint32_t dim) {
  double norm2 = 0.0;
  for (uint32_t i = 0; i < dim; ++i) norm2 += static_cast<double>(v[i]) * v[i];
  if (norm2 <= 0.0) {
    for (uint32_t i = 0; i < dim; ++i) v[i] = 0.0f;
    v[0] = 1.0f;
    return;
  }
  const float inv = static_cast<float>(1.0 / std::sqrt(norm2));
  for (uint32_t i = 0; i < dim; ++i) v[i] *= inv;
}

void VectorStore::NormalizeAll() {
  Materialize();
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    NormalizeInPlace(data_.data() + i * dim_, dim_);
  }
  InvalidateNorms();
}

const float* VectorStore::EnsureNorms() const {
  const size_t n = size();
  if (n == 0) return nullptr;
  if (norms_ready_.load(std::memory_order_acquire) >= n) {
    return norms_.data();
  }
  std::lock_guard<std::mutex> lock(norms_mutex_);
  size_t ready = norms_ready_.load(std::memory_order_relaxed);
  if (ready < n) {
    norms_.resize(n);
    ComputeNorms(base() + ready * dim_, n - ready, dim_,
                 norms_.data() + ready);
    norms_ready_.store(n, std::memory_order_release);
  }
  return norms_.data();
}

}  // namespace pexeso
