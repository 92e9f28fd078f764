#include "invindex/inverted_index.h"

#include <algorithm>

namespace pexeso {

void InvertedIndex::Build(const HierarchicalGrid& grid,
                          const ColumnCatalog& catalog) {
  const auto& leaves = grid.LeafCells();
  std::vector<uint64_t> offsets;
  std::vector<Posting> postings;
  std::vector<VecId> vec_ids;
  offsets.reserve(leaves.size() + 1);
  offsets.push_back(0);
  vec_ids.reserve(grid.num_vectors());

  // Scratch: (column, vec) pairs of one cell, sorted by column then vec.
  std::vector<std::pair<ColumnId, VecId>> scratch;
  for (const HierarchicalGrid::Cell& leaf : leaves) {
    PEXESO_CHECK_MSG(!leaf.items.empty(),
                     "repository grid leaves must carry vector ids");
    scratch.clear();
    scratch.reserve(leaf.items.size());
    for (VecId v : leaf.items) {
      scratch.emplace_back(catalog.ColumnOf(v), v);
    }
    std::sort(scratch.begin(), scratch.end());
    size_t i = 0;
    while (i < scratch.size()) {
      const ColumnId col = scratch[i].first;
      const uint32_t begin = static_cast<uint32_t>(vec_ids.size());
      uint32_t count = 0;
      while (i < scratch.size() && scratch[i].first == col) {
        vec_ids.push_back(scratch[i].second);
        ++count;
        ++i;
      }
      postings.push_back(Posting{col, begin, count});
    }
    offsets.push_back(postings.size());
  }
  postings.shrink_to_fit();  // the index never grows
  Own(std::move(offsets), std::move(postings), std::move(vec_ids));
}

void InvertedIndex::BindView(const uint64_t* cell_offsets, size_t num_cells,
                             const Posting* postings, const VecId* vec_ids,
                             size_t num_vec_ids) {
  owned_offsets_ = {};
  owned_postings_ = {};
  owned_vec_ids_ = {};
  offsets_ = {cell_offsets, num_cells + 1};
  postings_ = {postings, static_cast<size_t>(cell_offsets[num_cells])};
  vec_ids_ = {vec_ids, num_vec_ids};
}

void InvertedIndex::Materialize() {
  if (offsets_.data() == owned_offsets_.data()) return;  // already owned
  Own(std::vector<uint64_t>(offsets_.begin(), offsets_.end()),
      std::vector<Posting>(postings_.begin(), postings_.end()),
      std::vector<VecId>(vec_ids_.begin(), vec_ids_.end()));
}

void InvertedIndex::Own(std::vector<uint64_t> offsets,
                        std::vector<Posting> postings,
                        std::vector<VecId> vec_ids) {
  owned_offsets_ = std::move(offsets);
  owned_postings_ = std::move(postings);
  owned_vec_ids_ = std::move(vec_ids);
  offsets_ = owned_offsets_;
  postings_ = owned_postings_;
  vec_ids_ = owned_vec_ids_;
}

size_t InvertedIndex::MemoryBytes() const {
  return owned_offsets_.capacity() * sizeof(uint64_t) +
         owned_postings_.capacity() * sizeof(Posting) +
         owned_vec_ids_.capacity() * sizeof(VecId);
}

}  // namespace pexeso
