#ifndef PEXESO_VEC_VECTOR_STORE_H_
#define PEXESO_VEC_VECTOR_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace pexeso {

/// Identifier of a vector inside a VectorStore.
using VecId = uint32_t;

/// Identifier of a column inside a ColumnCatalog / repository.
using ColumnId = uint32_t;

/// \brief Columnar arena of dense float vectors of a fixed dimensionality.
///
/// All record embeddings live contiguously in one buffer; columns reference
/// vectors by VecId. This is the layout every index in the library is built
/// over: cache-friendly scans, trivially serializable for the out-of-core
/// partition files.
///
/// Two storage modes share one read surface: owned (the default; vectors
/// live in a heap buffer) and view (BindView points the store at external
/// packed floats — e.g. one section of an mmapped snapshot — with zero
/// copies). Mutators materialize a view into owned storage first, so view
/// stores stay read-only until someone actually writes. The norms cache is
/// always heap-resident and lazily computed in both modes, which keeps
/// cosine results bit-identical regardless of which mode served the search.
class VectorStore {
 public:
  /// Creates an empty store of the given dimensionality (> 0).
  explicit VectorStore(uint32_t dim) : dim_(dim) { PEXESO_CHECK(dim > 0); }

  VectorStore() : dim_(0) {}

  // The norms cache carries a mutex, so the special members are spelled
  // out: vector data travels, the cache is moved when possible and
  // recomputed otherwise. Copying a view store deep-copies the viewed bytes
  // (the copy owns its data; it must not silently alias a mapping it cannot
  // keep alive).
  VectorStore(const VectorStore& o) : dim_(o.dim_) {
    if (o.ext_ != nullptr) {
      data_.assign(o.ext_, o.ext_ + o.ext_count_ * dim_);
    } else {
      data_ = o.data_;
    }
  }
  VectorStore& operator=(const VectorStore& o) {
    if (this != &o) {
      dim_ = o.dim_;
      if (o.ext_ != nullptr) {
        data_.assign(o.ext_, o.ext_ + o.ext_count_ * dim_);
      } else {
        data_ = o.data_;
      }
      ext_ = nullptr;
      ext_count_ = 0;
      InvalidateNorms();
    }
    return *this;
  }
  VectorStore(VectorStore&& o) noexcept
      : dim_(o.dim_),
        data_(std::move(o.data_)),
        ext_(o.ext_),
        ext_count_(o.ext_count_),
        norms_(std::move(o.norms_)),
        norms_ready_(o.norms_ready_.load(std::memory_order_relaxed)) {
    o.ext_ = nullptr;
    o.ext_count_ = 0;
    o.InvalidateNorms();  // its norms_ buffer is gone
  }
  VectorStore& operator=(VectorStore&& o) noexcept {
    if (this != &o) {
      dim_ = o.dim_;
      data_ = std::move(o.data_);
      ext_ = o.ext_;
      ext_count_ = o.ext_count_;
      norms_ = std::move(o.norms_);
      norms_ready_.store(o.norms_ready_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      o.ext_ = nullptr;
      o.ext_count_ = 0;
      o.InvalidateNorms();
    }
    return *this;
  }

  uint32_t dim() const { return dim_; }
  size_t size() const {
    if (ext_ != nullptr) return ext_count_;
    return dim_ == 0 ? 0 : data_.size() / dim_;
  }
  bool empty() const { return size() == 0; }

  /// Points the store at `count` externally-owned packed vectors (the caller
  /// keeps the bytes alive — typically via the snapshot's MappedFile). Any
  /// owned data is discarded.
  void BindView(const float* packed, size_t count, uint32_t dim) {
    PEXESO_CHECK(dim > 0);
    dim_ = dim;
    data_.clear();
    ext_ = packed;
    ext_count_ = count;
    InvalidateNorms();
  }

  /// True when reads are served from externally-owned bytes.
  bool is_view() const { return ext_ != nullptr; }

  /// Copies viewed bytes into owned storage; no-op for owned stores. Called
  /// by every mutator, so a mapped snapshot is copy-on-write as a whole.
  void Materialize() {
    if (ext_ == nullptr) return;
    data_.assign(ext_, ext_ + ext_count_ * dim_);
    ext_ = nullptr;
    ext_count_ = 0;
  }

  /// Appends a vector; returns its id. `v.size()` must equal dim().
  VecId Add(std::span<const float> v) {
    PEXESO_DCHECK(v.size() == dim_);
    Materialize();
    const VecId id = static_cast<VecId>(size());
    data_.insert(data_.end(), v.begin(), v.end());
    return id;
  }

  /// Appends `count` vectors from a packed buffer.
  VecId AddBatch(const float* packed, size_t count) {
    Materialize();
    const VecId first = static_cast<VecId>(size());
    data_.insert(data_.end(), packed, packed + count * dim_);
    return first;
  }

  /// Reserves space for n vectors.
  void Reserve(size_t n) { data_.reserve(n * dim_); }

  /// Borrowed view of vector `id`.
  const float* View(VecId id) const {
    PEXESO_DCHECK(static_cast<size_t>(id) < size());
    return base() + static_cast<size_t>(id) * dim_;
  }

  /// Mutable view (used by normalization and tests). Invalidates the norm
  /// cache from `id` on, since the caller may rewrite the vector.
  float* MutableView(VecId id) {
    Materialize();
    PEXESO_DCHECK(static_cast<size_t>(id) < size());
    TruncateNorms(id);
    return data_.data() + static_cast<size_t>(id) * dim_;
  }

  std::span<const float> Span(VecId id) const { return {View(id), dim_}; }

  /// Scales every vector to unit L2 norm (Section V of the paper: thresholds
  /// are expressed as fractions of the max distance between unit vectors).
  /// Zero vectors are replaced by the first unit basis vector so they remain
  /// valid metric-space points.
  void NormalizeAll();

  /// Normalizes a single raw vector buffer in place.
  static void NormalizeInPlace(float* v, uint32_t dim);

  /// Per-vector L2 norms for the normed kernel paths (cosine). Computed on
  /// first use and cached; safe to call concurrently from const searches.
  /// Mutation (Add/MutableView/NormalizeAll) invalidates the
  /// affected suffix, so interleave it only with the single-writer phases.
  /// Returns nullptr for an empty store.
  const float* EnsureNorms() const;

  /// Approximate heap footprint in bytes. Viewed bytes are not counted —
  /// they are the mapping's, charged separately as bytes mapped.
  size_t MemoryBytes() const {
    return data_.capacity() * sizeof(float) + norms_.capacity() * sizeof(float);
  }

  /// Owned backing buffer; only meaningful for owned stores.
  const std::vector<float>& raw() const {
    PEXESO_DCHECK(ext_ == nullptr);
    return data_;
  }

 private:
  const float* base() const { return ext_ != nullptr ? ext_ : data_.data(); }

  void InvalidateNorms() { norms_ready_.store(0, std::memory_order_relaxed); }
  void TruncateNorms(VecId id) {
    size_t ready = norms_ready_.load(std::memory_order_relaxed);
    if (ready > id) norms_ready_.store(id, std::memory_order_relaxed);
  }

  uint32_t dim_;
  std::vector<float> data_;
  const float* ext_ = nullptr;  ///< non-null => view mode
  size_t ext_count_ = 0;        ///< vectors behind ext_

  // Lazily computed ||v|| cache. norms_ready_ counts valid prefix entries;
  // readers publish with release stores under norms_mutex_ and check with an
  // acquire load first, so the common post-warmup path is lock-free.
  mutable std::vector<float> norms_;
  mutable std::atomic<size_t> norms_ready_{0};
  mutable std::mutex norms_mutex_;
};

}  // namespace pexeso

#endif  // PEXESO_VEC_VECTOR_STORE_H_
