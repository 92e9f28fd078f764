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
/// One CSR layout, built once and never grown: cell offsets
/// (num_cells + 1 entries into the postings), a flat postings array and the
/// vec-id pool the postings point into. Build fills owned arrays; BindView
/// points the same three spans at a snapshot's mapped sections, so every
/// read and Save take one path either way. An owned index is not copyable
/// (its spans point at its own storage); moves keep the spans valid.
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
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Builds from a repository grid whose leaf cells carry vector ids.
  void Build(const HierarchicalGrid& grid, const ColumnCatalog& catalog);

  /// Points the index at an external CSR image: `cell_offsets` has
  /// `num_cells + 1` entries (offsets into `postings`, monotone, ending at
  /// the postings count), `vec_ids` has `num_vec_ids` entries. The caller
  /// keeps all three alive (typically via the snapshot's MappedFile) and
  /// has validated monotonicity and posting ranges.
  void BindView(const uint64_t* cell_offsets, size_t num_cells,
                const Posting* postings, const VecId* vec_ids,
                size_t num_vec_ids);

  /// Copies a viewed CSR image into owned storage; no-op when owned.
  void Materialize();

  size_t num_cells() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Postings list of leaf cell `cell` (sorted by column id).
  std::span<const Posting> PostingsOf(uint32_t cell) const {
    return postings_.subspan(offsets_[cell],
                             offsets_[cell + 1] - offsets_[cell]);
  }

  /// The three CSR arrays, as Save writes them.
  std::span<const uint64_t> cell_offsets() const { return offsets_; }
  std::span<const Posting> postings() const { return postings_; }
  /// Vector ids referenced by postings.
  std::span<const VecId> vec_ids() const { return vec_ids_; }

  /// Heap bytes of owned arrays (0 while viewing a snapshot).
  size_t MemoryBytes() const;

 private:
  /// Takes the arrays as owned storage and points the spans at them.
  void Own(std::vector<uint64_t> offsets, std::vector<Posting> postings,
           std::vector<VecId> vec_ids);

  std::span<const uint64_t> offsets_;
  std::span<const Posting> postings_;
  std::span<const VecId> vec_ids_;

  // Owned storage behind the spans; empty while viewing a snapshot.
  std::vector<uint64_t> owned_offsets_;
  std::vector<Posting> owned_postings_;
  std::vector<VecId> owned_vec_ids_;
};

}  // namespace pexeso

#endif  // PEXESO_INVINDEX_INVERTED_INDEX_H_
