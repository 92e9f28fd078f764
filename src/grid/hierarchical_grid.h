#ifndef PEXESO_GRID_HIERARCHICAL_GRID_H_
#define PEXESO_GRID_HIERARCHICAL_GRID_H_

#include <cstdint>
#include <cstring>
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
/// carry the ids of the vectors they contain; the repository grid HGRV's
/// leaves are what the inverted index is built from. Blocking descends HGRV
/// once per query record through its descent view (ViewAtLevel).
class HierarchicalGrid {
 public:
  /// One materialized cell. Geometry is implicit in (level, coords).
  struct Cell {
    CellCoord coords;
    std::vector<uint32_t> children;  ///< indices into the next level's cells
    std::vector<VecId> items;        ///< vector ids (leaf level only)
  };

  struct Options {
    uint32_t levels = 4;  ///< m, number of levels below the root
  };
  /// Most levels a grid may have: coordinates at level 14 fill 14 of a
  /// CellCoord's 16 bits.
  static constexpr uint32_t kMaxLevels = 14;

  /// One level of the descent view. The view numbers the cells breadth
  /// first: level 1 in CellsAtLevel(1) order, and each further level as the
  /// previous level's children lists, concatenated in view order. View cell
  /// i of an interior level has its children at [child_begin[i],
  /// child_begin[i + 1]) of the next level, in Cell::children order, so a
  /// depth-first walk of the view visits the cells in the order a
  /// depth-first walk of CellsAtLevel does.
  ///
  /// `coords` ends in kMaxPivots - num_pivots zero pads, so CellInBox can
  /// load kMaxPivots lanes from any cell's row, the last one included.
  struct ViewLevel {
    std::vector<uint16_t> coords;       ///< cells x num_pivots, row-major
    std::vector<uint32_t> child_begin;  ///< cells + 1 offsets; empty at leaves
  };

  /// A query box on one level's cell coordinates: a cell meets it when
  /// lo[j] <= c[j] <= hi[j] on every axis j. Lanes at or past num_pivots
  /// hold INT16_MIN and INT16_MAX, so they always pass.
  struct LaneBox {
    int16_t lo[kMaxPivots];
    int16_t hi[kMaxPivots];
  };

  /// Lemma 3 on every axis of one descent-view cell at once: true when the
  /// cell whose row starts at `c` (a ViewLevel::coords row) meets `box`.
  /// `wide` (num_pivots > 8) tests lanes 8..15 too. Each half is one
  /// compare of eight int16 lanes (coordinates are below 2^14), which GCC's
  /// vector extensions lower to SSE2 on x86-64 and NEON on AArch64.
  static bool CellInBox(const uint16_t* c, const LaneBox& box, bool wide) {
    using I16x8 = int16_t __attribute__((vector_size(16)));
    const auto half_out = [&](size_t at) {
      I16x8 v, lo, hi;
      std::memcpy(&v, c + at, sizeof v);
      std::memcpy(&lo, box.lo + at, sizeof lo);
      std::memcpy(&hi, box.hi + at, sizeof hi);
      const I16x8 out = (v < lo) | (v > hi);
      uint64_t w[2];
      std::memcpy(w, &out, sizeof w);
      return (w[0] | w[1]) != 0;
    };
    return !half_out(0) && !(wide && half_out(8));
  }

  HierarchicalGrid() = default;

  /// Builds the grid over `n` mapped vectors (row-major n x num_pivots
  /// doubles, coordinates in [0, extent]), inserting them in id order.
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

  /// The level-l cell coordinates c in [0, 2^l) whose interval [c * side,
  /// (c + 1) * side] meets [lower, upper] are exactly lo <= c <= hi: a cell
  /// with coordinate c fails `CellLower > upper || CellUpper < lower`
  /// (Lemma 3 on one axis, in the same doubles) iff c is outside [lo, hi].
  /// lo is in [0, 2^l], hi in [-1, 2^l - 1]; lo > hi when no cell meets it.
  ///
  /// A coarser level k < l needs no call of its own: its range is lo >>
  /// (l - k), hi >> (l - k). Cell c of level k has the bounds of its first
  /// and last level-l descendants (side halves exactly per level), so it
  /// meets [lower, upper] exactly when one of them does; the empty ranges
  /// hi = -1 and lo = 2^l shift to level k's.
  void AxisCellRange(uint32_t l, double lower, double upper, int32_t* lo,
                     int32_t* hi) const;

  /// Looks up a leaf cell by coordinates; returns -1 if empty/absent.
  int64_t FindLeaf(const CellCoord& coords) const;

  /// Grid coordinates of a mapped vector at level l.
  CellCoord CoordsOf(const double* mapped_vec, uint32_t l) const;

  /// The descent view of level l (1-based).
  const ViewLevel& ViewAtLevel(uint32_t l) const {
    PEXESO_DCHECK(l >= 1 && l <= levels_);
    return view_[l - 1];
  }
  /// LeafCells() index of view leaf `i`, and view index of leaf `leaf`.
  uint32_t LeafOfViewLeaf(uint32_t i) const { return view_leaf_to_leaf_[i]; }
  uint32_t ViewLeafOf(uint32_t leaf) const { return leaf_to_view_leaf_[leaf]; }

  /// Approximate heap footprint in bytes (for the Figure 6b index sizes).
  size_t MemoryBytes() const;

  /// Writes the grid image: header, every level's cells, then the
  /// per-vector leaf map, derived from the leaf items.
  void Serialize(BinaryWriter* w) const;
  /// Reads a grid image. Corruption unless the cells form a tree (every
  /// cell below level 1 is listed by exactly one parent, whose coordinates
  /// are its Parent()) and the leaf map agrees with the leaf items; the map
  /// is checked and dropped.
  Status Deserialize(BinaryReader* r);

 private:
  using CellLookup = std::unordered_map<CellCoord, uint32_t, CellCoordHash>;

  /// Inserts one mapped vector with id `id`: creates or locates the cell
  /// chain through the per-level `lookups` (coords -> cell index).
  void Insert(const double* mapped_vec, VecId id,
              std::vector<CellLookup>* lookups);
  /// Numbers the cells breadth-first into view_ and the leaf maps. The
  /// cells must form a tree.
  void BuildView();

  uint32_t levels_ = 0;
  uint32_t num_pivots_ = 0;
  double extent_ = 2.0;
  size_t num_vectors_ = 0;
  /// levels_cells_[l-1] holds the cells of level l.
  std::vector<std::vector<Cell>> levels_cells_;
  /// Leaf coords -> index into LeafCells(), for FindLeaf.
  CellLookup leaf_lookup_;
  /// view_[l-1] is the descent view of level l.
  std::vector<ViewLevel> view_;
  std::vector<uint32_t> view_leaf_to_leaf_;
  std::vector<uint32_t> leaf_to_view_leaf_;
};

}  // namespace pexeso

#endif  // PEXESO_GRID_HIERARCHICAL_GRID_H_
