#ifndef PEXESO_INVINDEX_INVERTED_INDEX_H_
#define PEXESO_INVINDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "grid/hierarchical_grid.h"
#include "vec/column_catalog.h"

namespace pexeso {

/// \brief Inverted index over the leaf cells of HGRV (Section III-C).
///
/// Keys are leaf-cell indices; each key maps to a postings list of columns
/// having at least one vector in that cell, together with the ids of those
/// vectors. Postings are sorted by ColumnId, the order the paper's
/// document-at-a-time verification merges them in. Candidate generation
/// does not depend on it: it scatters postings by column in two linear
/// passes, and the Lemma 7 early termination and the joinable-skip then run
/// per column (core/verify_pipeline.h).
///
/// Postings lists are growable per cell: appending a column (Section III-E)
/// appends to the lists of the cells its vectors fall in, in O(1) per cell,
/// preserving the sorted-by-column invariant because ColumnIds are assigned
/// in increasing order.
///
/// Storage modes: owned (per-cell vectors, growable) or view (BindView
/// points the index at a CSR image — cell offsets, a flat postings array,
/// and the vec-id pool — inside an mmapped snapshot). Reads go through
/// PostingsOf / vec_ids_data() in both modes; mutators materialize first.
class InvertedIndex {
 public:
  /// Postings of one column within one leaf cell.
  struct Posting {
    ColumnId column;
    uint32_t vec_begin;  ///< offset into vec_ids()
    uint32_t vec_count;
  };
  static_assert(sizeof(Posting) == 12 && alignof(Posting) == 4,
                "Posting is a stable on-disk POD");

  InvertedIndex() = default;

  /// Builds from a repository grid whose leaf cells carry vector ids.
  void Build(const HierarchicalGrid& grid, const ColumnCatalog& catalog);

  /// Points the index at an external CSR image: `cell_offsets` has
  /// `num_cells + 1` entries (offsets into `postings`, monotone, ending at
  /// the postings count), `vec_ids` has `num_vec_ids` entries. The caller
  /// keeps all three alive (typically via the snapshot's MappedFile) and
  /// has validated monotonicity and posting ranges.
  void BindView(const uint64_t* cell_offsets, size_t num_cells,
                const InvertedIndex::Posting* postings, const VecId* vec_ids,
                size_t num_vec_ids) {
    cells_.clear();
    vec_ids_.clear();
    view_offsets_ = cell_offsets;
    view_postings_ = postings;
    view_vec_ids_ = vec_ids;
    view_num_cells_ = num_cells;
    view_num_vec_ids_ = num_vec_ids;
  }

  /// True when reads are served from an external CSR image.
  bool is_view() const { return view_offsets_ != nullptr; }

  /// Copies a viewed CSR image into owned storage; no-op when owned.
  void Materialize();

  /// Ensures at least `n` cells exist (new ones start empty).
  void EnsureCells(size_t n) {
    Materialize();
    if (cells_.size() < n) cells_.resize(n);
  }

  /// Appends the vectors of `column` that fall into `cell`. The column id
  /// must be >= every column already present in the cell.
  void Append(uint32_t cell, ColumnId column, std::span<const VecId> vecs);

  size_t num_cells() const {
    return is_view() ? view_num_cells_ : cells_.size();
  }

  /// Postings list of leaf cell `cell` (sorted by column id).
  std::span<const Posting> PostingsOf(uint32_t cell) const {
    if (is_view()) {
      const uint64_t begin = view_offsets_[cell];
      const uint64_t end = view_offsets_[cell + 1];
      return {view_postings_ + begin, static_cast<size_t>(end - begin)};
    }
    return {cells_[cell].data(), cells_[cell].size()};
  }

  /// Vector ids referenced by postings (mode-agnostic pointer + count).
  const VecId* vec_ids_data() const {
    return is_view() ? view_vec_ids_ : vec_ids_.data();
  }
  size_t vec_ids_size() const {
    return is_view() ? view_num_vec_ids_ : vec_ids_.size();
  }

  /// Total postings across all cells.
  size_t num_postings() const {
    if (is_view()) {
      return static_cast<size_t>(view_offsets_[view_num_cells_]);
    }
    size_t n = 0;
    for (const auto& c : cells_) n += c.size();
    return n;
  }

  size_t MemoryBytes() const;

 private:
  std::vector<std::vector<Posting>> cells_;
  std::vector<VecId> vec_ids_;

  // View mode (non-null view_offsets_): CSR image owned by the snapshot.
  const uint64_t* view_offsets_ = nullptr;
  const Posting* view_postings_ = nullptr;
  const VecId* view_vec_ids_ = nullptr;
  size_t view_num_cells_ = 0;
  size_t view_num_vec_ids_ = 0;
};

}  // namespace pexeso

#endif  // PEXESO_INVINDEX_INVERTED_INDEX_H_
