#include "core/blocker.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>

namespace pexeso {

BlockResult GridBlocker::Run(const double* mapped_q, uint32_t num_q,
                             double tau, const AblationConfig& ablation,
                             SearchStats* stats) const {
  constexpr uint32_t kMaxLevels = HierarchicalGrid::kMaxLevels;
  const HierarchicalGrid& g = *rgrid_;
  const uint32_t np = g.num_pivots();
  const uint32_t m = g.levels();
  PEXESO_CHECK(m >= 1 && m <= kMaxLevels);
  const bool lemma34 = ablation.use_lemma34;
  const bool wide = np > 8;
  std::array<const uint16_t*, kMaxLevels> coords{};
  std::array<const uint32_t*, kMaxLevels> child_begin{};
  for (uint32_t l = 1; l <= m; ++l) {
    coords[l - 1] = g.ViewAtLevel(l).coords.data();
    child_begin[l - 1] = g.ViewAtLevel(l).child_begin.data();
  }
  const uint32_t num_level1 =
      static_cast<uint32_t>(g.CellsAtLevel(1).size());

  BlockResult result;
  result.offsets.reserve(size_t{num_q} + 1);
  result.offsets.push_back(0);
  uint64_t filtered = 0;
  // The record's tau-box per level; lanes past np always pass.
  std::array<HierarchicalGrid::LaneBox, kMaxLevels> box;
  for (HierarchicalGrid::LaneBox& b : box) {
    std::fill(std::begin(b.lo), std::end(b.lo), INT16_MIN);
    std::fill(std::begin(b.hi), std::end(b.hi), INT16_MAX);
  }
  uint32_t skip = UINT32_MAX;  // view index of the quick-browse leaf
  const auto meets = [&](uint32_t depth, uint32_t i) {
    if (!lemma34 ||
        HierarchicalGrid::CellInBox(coords[depth] + size_t{i} * np,
                                    box[depth], wide)) {
      return true;
    }
    ++filtered;
    return false;
  };
  const auto leaf_run = [&](uint32_t begin, uint32_t end) {
    for (uint32_t i = begin; i < end; ++i) {
      // Quick browsing already emitted this leaf; it is neither tested
      // nor emitted again.
      if (i == skip || !meets(m - 1, i)) continue;
      result.cells.push_back(g.LeafOfViewLeaf(i));
    }
  };
  struct Frame {
    uint32_t next, end;  ///< the unvisited rest of one children run
  };
  std::array<Frame, kMaxLevels> stack{};

  for (uint32_t q = 0; q < num_q; ++q) {
    const double* x = mapped_q + size_t{q} * np;
    if (lemma34) {
      // One leaf-level range per axis; each coarser level shifts it down.
      for (uint32_t j = 0; j < np; ++j) {
        int32_t lo = 0, hi = 0;
        g.AxisCellRange(m, x[j] - tau, x[j] + tau, &lo, &hi);
        for (uint32_t l = 1; l <= m; ++l) {
          box[l - 1].lo[j] = static_cast<int16_t>(lo >> (m - l));
          box[l - 1].hi[j] = static_cast<int16_t>(hi >> (m - l));
        }
      }
    }
    skip = UINT32_MAX;
    if (ablation.use_quick_browsing) {
      // The leaf with the record's own coordinates covers the record, so
      // Lemmas 3/4 can never separate them: a candidate without a test.
      const int64_t leaf = g.FindLeaf(g.CoordsOf(x, m));
      if (leaf >= 0) {
        result.cells.push_back(static_cast<uint32_t>(leaf));
        skip = g.ViewLeafOf(static_cast<uint32_t>(leaf));
      }
    }
    if (m == 1) {
      leaf_run(0, num_level1);
    } else {
      uint32_t depth = 0;
      stack[0] = {0, num_level1};
      for (;;) {
        Frame& f = stack[depth];
        if (f.next == f.end) {
          if (depth == 0) break;
          --depth;
          continue;
        }
        const uint32_t i = f.next++;
        if (!meets(depth, i)) continue;  // prunes the subtree
        const uint32_t begin = child_begin[depth][i];
        const uint32_t end = child_begin[depth][i + 1];
        if (depth + 2 == m) {
          leaf_run(begin, end);
        } else {
          stack[++depth] = {begin, end};
        }
      }
    }
    result.offsets.push_back(result.cells.size());
  }
  stats->candidate_pairs += result.cells.size();
  stats->cells_filtered += filtered;
  return result;
}

}  // namespace pexeso
