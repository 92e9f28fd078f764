#include "invindex/inverted_index.h"

#include <algorithm>

namespace pexeso {

void InvertedIndex::Build(const HierarchicalGrid& grid,
                          const ColumnCatalog& catalog) {
  const auto& leaves = grid.LeafCells();
  cells_.assign(leaves.size(), {});
  vec_ids_.clear();
  vec_ids_.reserve(grid.num_vectors());

  // Scratch: (column, vec) pairs of one cell, sorted by column then vec.
  std::vector<std::pair<ColumnId, VecId>> scratch;
  for (size_t cell = 0; cell < leaves.size(); ++cell) {
    const auto& items = leaves[cell].items;
    PEXESO_CHECK_MSG(!items.empty(),
                     "repository grid leaves must carry vector ids");
    scratch.clear();
    scratch.reserve(items.size());
    for (VecId v : items) {
      scratch.emplace_back(catalog.ColumnOf(v), v);
    }
    std::sort(scratch.begin(), scratch.end());
    size_t i = 0;
    while (i < scratch.size()) {
      const ColumnId col = scratch[i].first;
      const uint32_t begin = static_cast<uint32_t>(vec_ids_.size());
      uint32_t count = 0;
      while (i < scratch.size() && scratch[i].first == col) {
        vec_ids_.push_back(scratch[i].second);
        ++count;
        ++i;
      }
      cells_[cell].push_back(Posting{col, begin, count});
    }
  }
}

void InvertedIndex::Materialize() {
  if (!is_view()) return;
  cells_.assign(view_num_cells_, {});
  for (size_t cell = 0; cell < view_num_cells_; ++cell) {
    const uint64_t begin = view_offsets_[cell];
    const uint64_t end = view_offsets_[cell + 1];
    cells_[cell].assign(view_postings_ + begin, view_postings_ + end);
  }
  vec_ids_.assign(view_vec_ids_, view_vec_ids_ + view_num_vec_ids_);
  view_offsets_ = nullptr;
  view_postings_ = nullptr;
  view_vec_ids_ = nullptr;
  view_num_cells_ = 0;
  view_num_vec_ids_ = 0;
}

void InvertedIndex::Append(uint32_t cell, ColumnId column,
                           std::span<const VecId> vecs) {
  Materialize();
  PEXESO_CHECK(cell < cells_.size());
  PEXESO_CHECK(!vecs.empty());
  auto& postings = cells_[cell];
  PEXESO_CHECK_MSG(postings.empty() || postings.back().column <= column,
                   "appends must use non-decreasing column ids");
  const uint32_t begin = static_cast<uint32_t>(vec_ids_.size());
  vec_ids_.insert(vec_ids_.end(), vecs.begin(), vecs.end());
  if (!postings.empty() && postings.back().column == column &&
      postings.back().vec_begin + postings.back().vec_count == begin) {
    postings.back().vec_count += static_cast<uint32_t>(vecs.size());
  } else {
    postings.push_back(
        Posting{column, begin, static_cast<uint32_t>(vecs.size())});
  }
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes = vec_ids_.capacity() * sizeof(VecId) +
                 cells_.capacity() * sizeof(std::vector<Posting>);
  for (const auto& c : cells_) bytes += c.capacity() * sizeof(Posting);
  return bytes;
}

}  // namespace pexeso
