#ifndef PEXESO_CORE_BLOCKER_H_
#define PEXESO_CORE_BLOCKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/ablation.h"
#include "grid/hierarchical_grid.h"
#include "vec/search_stats.h"

namespace pexeso {

/// \brief Output of the blocking phase, CSR by query record: record q's
/// candidate leaf cells of HGRV (LeafCells() indices) are
/// cells[offsets[q], offsets[q + 1]), in emission order.
struct BlockResult {
  std::vector<uint64_t> offsets;  ///< num_q + 1 entries
  std::vector<uint32_t> cells;

  std::span<const uint32_t> CellsOf(uint32_t q) const {
    return {cells.data() + offsets[q],
            static_cast<size_t>(offsets[q + 1] - offsets[q])};
  }
};

/// \brief Algorithm 1 (plus quick browsing) with each query record as its
/// own query cell: one depth-first descent of HGRV's descent view per
/// record produces the candidate pairs. Shared by PexesoSearcher
/// (inverted-index verification) and the PEXESO-H baseline (naive per-cell
/// verification).
///
/// A record x's candidates are its quick-browse leaf (the leaf holding
/// x's own grid coordinates, emitted first without a test) and then, in
/// depth-first order, every leaf whose ancestors and itself meet x's
/// tau-box. With a one-record query cell, Lemma 4's cell-vs-cell test is
/// Lemma 3's point-vs-cell test, applied at every level: a cell that misses
/// the box prunes its subtree, and a leaf passes only if it meets the box.
/// The test runs on integer coordinates: per axis,
/// HierarchicalGrid::AxisCellRange turns x - tau and x + tau into the
/// leaf-level coordinate range that passes the double test, and each
/// coarser level's range is that one shifted down by the level gap, so
/// every decision equals the double test. HierarchicalGrid::CellInBox tests
/// a cell on all |P| axes in one vector compare. The output is the one the
/// simultaneous HGQ x HGRV descent of the paper produces: same cells, same
/// order per record.
class GridBlocker {
 public:
  /// `rgrid` (HGRV) is borrowed.
  explicit GridBlocker(const HierarchicalGrid* rgrid) : rgrid_(rgrid) {}

  /// Blocks the `num_q` records of `mapped_q`, the pivot-space image of the
  /// query column (num_q x |P| doubles). Counts candidate_pairs per emitted
  /// (record, leaf) pair and, with Lemmas 3/4 on, cells_filtered per failed
  /// (record, cell) test.
  BlockResult Run(const double* mapped_q, uint32_t num_q, double tau,
                  const AblationConfig& ablation, SearchStats* stats) const;

 private:
  const HierarchicalGrid* rgrid_;
};

}  // namespace pexeso

#endif  // PEXESO_CORE_BLOCKER_H_
