#include "vec/column_catalog.h"

#include <algorithm>

namespace pexeso {

ColumnId ColumnCatalog::ColumnOf(VecId v) const {
  PEXESO_DCHECK(!columns_.empty());
  // Find the last column whose first <= v.
  auto it = std::upper_bound(
      columns_.begin(), columns_.end(), v,
      [](VecId lhs, const ColumnMeta& rhs) { return lhs < rhs.first; });
  PEXESO_DCHECK(it != columns_.begin());
  --it;
  PEXESO_DCHECK(v >= it->first && v < it->end());
  return static_cast<ColumnId>(it - columns_.begin());
}

size_t ColumnCatalog::MemoryBytes() const {
  size_t bytes = store_.MemoryBytes();
  for (const auto& c : columns_) {
    bytes += sizeof(ColumnMeta) + c.table_name.size() + c.column_name.size();
  }
  return bytes;
}

void ColumnCatalog::SerializeMeta(BinaryWriter* w) const {
  w->Write<uint64_t>(columns_.size());
  for (const auto& c : columns_) {
    w->Write<uint32_t>(c.table_id);
    w->Write<uint32_t>(c.source_id);
    w->WriteString(c.table_name);
    w->WriteString(c.column_name);
    w->Write<VecId>(c.first);
    w->Write<uint32_t>(c.count);
  }
}

Status ColumnCatalog::DeserializeMeta(BinaryReader* r) {
  // The smallest column record: ids, two empty strings, first and count.
  constexpr uint64_t kMinColumnBytes =
      2 * sizeof(uint32_t) + 2 * sizeof(uint64_t) + sizeof(VecId) +
      sizeof(uint32_t);
  uint64_t n = 0;
  PEXESO_RETURN_NOT_OK(r->Read(&n));
  if (n > r->remaining() / kMinColumnBytes) {
    return Status::Corruption("column count implausible");
  }
  columns_.clear();
  columns_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ColumnMeta c;
    PEXESO_RETURN_NOT_OK(r->Read(&c.table_id));
    PEXESO_RETURN_NOT_OK(r->Read(&c.source_id));
    PEXESO_RETURN_NOT_OK(r->ReadString(&c.table_name));
    PEXESO_RETURN_NOT_OK(r->ReadString(&c.column_name));
    PEXESO_RETURN_NOT_OK(r->Read(&c.first));
    PEXESO_RETURN_NOT_OK(r->Read(&c.count));
    columns_.push_back(std::move(c));
  }
  return Status::OK();
}

}  // namespace pexeso
