#ifndef PEXESO_GRID_HIERARCHICAL_GRID_H_
#define PEXESO_GRID_HIERARCHICAL_GRID_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "common/status.h"
#include "grid/cell_key.h"
#include "vec/vector_store.h"

namespace pexeso {

/// \brief m-level hierarchical grid over the pivot space (Section III-B).
///
/// Level l in [1..m] divides the pivot space [0, extent]^|P| into 2^(|P|*l)
/// hyper-cells; only non-empty cells are materialized. Leaf cells (level m)
/// optionally carry the ids of the vectors they contain: the query grid HGQ
/// always does (Algorithm 1 iterates query vectors in leaf cells), while for
/// the repository grid HGRV the per-cell contents live in the inverted index.
class HierarchicalGrid {
 public:
  /// One materialized cell. Geometry is implicit in (level, coords).
  struct Cell {
    CellCoord coords;
    std::vector<uint32_t> children;  ///< indices into the next level's cells
    std::vector<VecId> items;        ///< vector ids (leaf level only)
  };

  struct Options {
    uint32_t levels = 4;          ///< m, number of levels below the root
    bool store_leaf_items = true; ///< keep vector ids in leaf cells
  };

  HierarchicalGrid() = default;

  /// Builds the grid over `n` mapped vectors (row-major n x num_pivots
  /// doubles, coordinates in [0, extent]).
  void Build(const double* mapped, size_t n, uint32_t num_pivots,
             double extent, const Options& options);

  uint32_t levels() const { return levels_; }
  uint32_t num_pivots() const { return num_pivots_; }
  double extent() const { return extent_; }
  size_t num_vectors() const { return num_vectors_; }

  /// Cells of level l (1-based, l in [1..levels]).
  const std::vector<Cell>& CellsAtLevel(uint32_t l) const {
    PEXESO_DCHECK(l >= 1 && l <= levels_);
    return levels_cells_[l - 1];
  }

  /// Leaf cells (level == levels()).
  const std::vector<Cell>& LeafCells() const { return levels_cells_.back(); }

  /// Edge length of a cell at level l.
  double CellSide(uint32_t l) const {
    return extent_ / static_cast<double>(1u << l);
  }

  /// Axis-aligned bounds of cell `c` at level `l` on axis `axis`.
  double CellLower(uint32_t l, const Cell& c, uint32_t axis) const {
    return static_cast<double>(c.coords.c[axis]) * CellSide(l);
  }
  double CellUpper(uint32_t l, const Cell& c, uint32_t axis) const {
    return static_cast<double>(c.coords.c[axis] + 1) * CellSide(l);
  }

  /// Leaf cell index containing vector `v` (as assigned during Build).
  uint32_t LeafOf(VecId v) const {
    PEXESO_DCHECK(v < leaf_of_.size());
    return leaf_of_[v];
  }

  /// Looks up a leaf cell by coordinates; returns -1 if empty/absent.
  int64_t FindLeaf(const CellCoord& coords) const;

  /// Grid coordinates of a mapped vector at level l.
  CellCoord CoordsOf(const double* mapped_vec, uint32_t l) const;

  /// Inserts one mapped vector incrementally (column append, Section III-E):
  /// O(|P| + m) — creates/locates the cell chain and returns the leaf index.
  uint32_t Insert(const double* mapped_vec, VecId id, bool store_item);

  /// Approximate heap footprint in bytes (for the Figure 6b index sizes).
  size_t MemoryBytes() const;

  void Serialize(BinaryWriter* w) const;
  Status Deserialize(BinaryReader* r);

 private:
  uint32_t levels_ = 0;
  uint32_t num_pivots_ = 0;
  double extent_ = 2.0;
  size_t num_vectors_ = 0;
  bool store_leaf_items_ = true;
  /// levels_cells_[l-1] holds the cells of level l.
  std::vector<std::vector<Cell>> levels_cells_;
  /// Per-level lookup: coords -> index into CellsAtLevel(l); retained after
  /// Build so that Insert and FindLeaf are O(1) per level.
  std::vector<std::unordered_map<CellCoord, uint32_t, CellCoordHash>> lookups_;
  /// Per-vector leaf assignment.
  std::vector<uint32_t> leaf_of_;
};

}  // namespace pexeso

#endif  // PEXESO_GRID_HIERARCHICAL_GRID_H_
