#ifndef PEXESO_CORE_BLOCKER_H_
#define PEXESO_CORE_BLOCKER_H_

#include <cstdint>
#include <vector>

#include "core/ablation.h"
#include "grid/hierarchical_grid.h"
#include "vec/search_stats.h"

namespace pexeso {

/// \brief Output of the blocking phase: for each query vector, the leaf
/// cells of HGRV that survived Lemmas 3/4 and must be verified against.
struct BlockResult {
  std::vector<std::vector<uint32_t>> cand_cells;
};

/// \brief Algorithm 1 (plus quick browsing): the simultaneous descent over
/// HGQ and HGRV that produces the candidate pairs. Shared by
/// PexesoSearcher (inverted-index verification) and the PEXESO-H baseline
/// (naive per-cell verification).
class GridBlocker {
 public:
  /// `rgrid` (HGRV) is borrowed; it must carry the same number of levels the
  /// query grid will be built with.
  explicit GridBlocker(const HierarchicalGrid* rgrid) : rgrid_(rgrid) {}

  /// Runs quick browsing + Block over a prepared query grid. `mapped_q` is
  /// the pivot-space image of the query column (|Q| x |P|).
  BlockResult Run(const HierarchicalGrid& hgq,
                  const std::vector<double>& mapped_q, double tau,
                  const AblationConfig& ablation, SearchStats* stats) const;

 private:
  struct RunState;
  void QuickBrowse(RunState* rs) const;
  void Block(RunState* rs, uint32_t level, uint32_t cq, uint32_t cr) const;
  void BlockLeafPair(RunState* rs, uint32_t cq, uint32_t cr) const;

  const HierarchicalGrid* rgrid_;
};

}  // namespace pexeso

#endif  // PEXESO_CORE_BLOCKER_H_
