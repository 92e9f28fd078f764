#include "core/blocker.h"

#include <array>

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
  // The record's tau-box as coordinate ranges: level l, axis j passes
  // lo[(l - 1) * np + j] <= c <= hi[(l - 1) * np + j].
  std::array<int32_t, kMaxLevels * kMaxPivots> lo{}, hi{};
  uint32_t skip = UINT32_MAX;  // view index of the quick-browse leaf
  const auto meets = [&](uint32_t depth, uint32_t i) {
    if (!lemma34) return true;
    const uint16_t* c = coords[depth] + size_t{i} * np;
    const int32_t* l = lo.data() + depth * np;
    const int32_t* h = hi.data() + depth * np;
    for (uint32_t j = 0; j < np; ++j) {
      if (c[j] < l[j] || c[j] > h[j]) {
        ++filtered;
        return false;
      }
    }
    return true;
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
      for (uint32_t l = 1; l <= m; ++l) {
        for (uint32_t j = 0; j < np; ++j) {
          const size_t k = size_t{l - 1} * np + j;
          g.AxisCellRange(l, x[j] - tau, x[j] + tau, &lo[k], &hi[k]);
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
