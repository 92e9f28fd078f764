#ifndef PEXESO_VEC_COLUMN_CATALOG_H_
#define PEXESO_VEC_COLUMN_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "vec/vector_store.h"

namespace pexeso {

/// \brief Metadata of one embedded column in the repository: which table it
/// came from and the contiguous VecId range of its record vectors.
struct ColumnMeta {
  uint32_t table_id = 0;
  /// Global column id in the unpartitioned repository; lets the out-of-core
  /// search merge per-partition results back into one id space.
  uint32_t source_id = 0;
  std::string table_name;
  std::string column_name;
  VecId first = 0;   ///< first vector id (inclusive)
  uint32_t count = 0;  ///< number of record vectors

  VecId end() const { return first + count; }
};

/// \brief The embedded repository R: a VectorStore holding RV (all record
/// vectors of all target columns) plus per-column metadata. Columns occupy
/// contiguous VecId ranges, so `ColumnOf(vec_id)` is a binary search.
class ColumnCatalog {
 public:
  explicit ColumnCatalog(uint32_t dim) : store_(dim) {}
  ColumnCatalog() = default;

  /// Appends a column of `count` packed vectors; returns its ColumnId.
  ColumnId AddColumn(ColumnMeta meta, const float* packed, size_t count) {
    PEXESO_CHECK(count > 0);
    meta.first = store_.AddBatch(packed, count);
    meta.count = static_cast<uint32_t>(count);
    columns_.push_back(std::move(meta));
    return static_cast<ColumnId>(columns_.size() - 1);
  }

  const VectorStore& store() const { return store_; }
  VectorStore* mutable_store() { return &store_; }

  size_t num_columns() const { return columns_.size(); }
  size_t num_vectors() const { return store_.size(); }
  uint32_t dim() const { return store_.dim(); }

  const ColumnMeta& column(ColumnId id) const {
    PEXESO_DCHECK(id < columns_.size());
    return columns_[id];
  }

  /// Column owning a vector id (columns are contiguous ranges).
  ColumnId ColumnOf(VecId v) const;

  /// Unit-normalizes every stored vector.
  void NormalizeAll() { store_.NormalizeAll(); }

  size_t MemoryBytes() const;

  /// Column metadata alone, without the vector store — the snapshot format
  /// stores the raw floats as their own mmap-able section and keeps only
  /// this variable-length part in a parsed section.
  void SerializeMeta(BinaryWriter* w) const;
  Status DeserializeMeta(BinaryReader* r);

 private:
  VectorStore store_;
  std::vector<ColumnMeta> columns_;
};

}  // namespace pexeso

#endif  // PEXESO_VEC_COLUMN_CATALOG_H_
