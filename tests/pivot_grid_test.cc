#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "common/rng.h"
#include "grid/hierarchical_grid.h"
#include "la/pca.h"
#include "pivot/pivot_selector.h"
#include "pivot/pivot_space.h"
#include "test_util.h"

namespace pexeso {
namespace {

TEST(PcaTest, RecoversDominantDirection) {
  // Data stretched along a known axis: PC1 must align with it.
  Rng rng(1);
  const uint32_t dim = 6;
  std::vector<float> data;
  const size_t n = 2000;
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < dim; ++j) {
      double scale = (j == 2) ? 10.0 : 0.5;
      data.push_back(static_cast<float>(rng.Normal() * scale));
    }
  }
  Pca pca;
  pca.Fit(data.data(), n, dim, 2);
  const auto& c0 = pca.component(0);
  EXPECT_GT(std::abs(c0[2]), 0.95);
  EXPECT_GT(pca.eigenvalue(0), pca.eigenvalue(1));
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  Rng rng(2);
  const uint32_t dim = 8;
  std::vector<float> data;
  for (size_t i = 0; i < 500; ++i) {
    for (uint32_t j = 0; j < dim; ++j) {
      data.push_back(static_cast<float>(rng.Normal() * (1.0 + j)));
    }
  }
  Pca pca;
  pca.Fit(data.data(), 500, dim, 3);
  for (uint32_t a = 0; a < 3; ++a) {
    double norm = 0, dot01 = 0;
    for (uint32_t j = 0; j < dim; ++j) {
      norm += pca.component(a)[j] * pca.component(a)[j];
    }
    EXPECT_NEAR(norm, 1.0, 1e-6);
    if (a > 0) {
      for (uint32_t j = 0; j < dim; ++j) {
        dot01 += pca.component(a)[j] * pca.component(0)[j];
      }
      EXPECT_NEAR(dot01, 0.0, 1e-4);
    }
  }
}

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng rng(3);
  std::vector<float> data;
  // Two tight 2-d blobs at (0,0) and (10,10).
  for (int i = 0; i < 100; ++i) {
    data.push_back(static_cast<float>(rng.Normal() * 0.1));
    data.push_back(static_cast<float>(rng.Normal() * 0.1));
  }
  for (int i = 0; i < 100; ++i) {
    data.push_back(static_cast<float>(10 + rng.Normal() * 0.1));
    data.push_back(static_cast<float>(10 + rng.Normal() * 0.1));
  }
  KMeans km;
  KMeans::Options opts;
  opts.k = 2;
  km.Fit(data.data(), 200, 2, opts);
  const float a0 = km.centroids()[0];
  const float b0 = km.centroids()[2];
  // One centroid near 0, the other near 10 (order unspecified).
  EXPECT_NEAR(std::min(a0, b0), 0.0, 0.5);
  EXPECT_NEAR(std::max(a0, b0), 10.0, 0.5);
  const float probe_a[2] = {0.2f, -0.1f};
  const float probe_b[2] = {9.8f, 10.3f};
  EXPECT_NE(km.Assign(probe_a), km.Assign(probe_b));
}

TEST(PivotSpaceTest, MappingIsDistanceToPivots) {
  L2Metric metric;
  const float pivots[] = {1, 0, 0, 1};  // two 2-d pivots
  PivotSpace ps(pivots, 2, 2, &metric);
  const float v[] = {0, 0};
  double mapped[2];
  ps.Map(v, mapped);
  EXPECT_NEAR(mapped[0], 1.0, 1e-9);
  EXPECT_NEAR(mapped[1], 1.0, 1e-9);
}

TEST(PivotSpaceTest, Lemma1SoundnessOnRandomData) {
  // If q matches x (d <= tau) then |d(q,p) - d(x,p)| <= tau for every pivot.
  L2Metric metric;
  Rng rng(4);
  const uint32_t dim = 10;
  std::vector<float> pivots;
  std::vector<float> tmp;
  for (int i = 0; i < 3; ++i) {
    testing::RandomUnitVector(&rng, dim, &tmp);
    pivots.insert(pivots.end(), tmp.begin(), tmp.end());
  }
  PivotSpace ps(pivots.data(), 3, dim, &metric);
  const double tau = 0.3;
  std::vector<float> q, x;
  double mq[3], mx[3];
  int checked = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    testing::RandomUnitVector(&rng, dim, &q);
    x = testing::Perturb(&rng, q, 0.05);
    if (metric.Dist(q.data(), x.data(), dim) > tau) continue;
    ++checked;
    ps.Map(q.data(), mq);
    ps.Map(x.data(), mx);
    for (int i = 0; i < 3; ++i) {
      EXPECT_LE(std::abs(mq[i] - mx[i]), tau + 1e-9);
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(PivotSpaceTest, Lemma2SoundnessOnRandomData) {
  // If d(q,p) + d(x,p) <= tau for some pivot then q matches x.
  L2Metric metric;
  Rng rng(5);
  const uint32_t dim = 8;
  std::vector<float> pivot;
  testing::RandomUnitVector(&rng, dim, &pivot);
  PivotSpace ps(pivot.data(), 1, dim, &metric);
  std::vector<float> q, x;
  double mq[1], mx[1];
  int fired = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    q = testing::Perturb(&rng, pivot, 0.03);
    x = testing::Perturb(&rng, pivot, 0.03);
    ps.Map(q.data(), mq);
    ps.Map(x.data(), mx);
    const double tau = 0.4;
    if (mq[0] + mx[0] <= tau) {
      ++fired;
      EXPECT_LE(metric.Dist(q.data(), x.data(), dim), tau + 1e-9);
    }
  }
  EXPECT_GT(fired, 100);
}

TEST(PivotSpaceTest, SerializeRoundTrip) {
  L2Metric metric;
  const float pivots[] = {1, 0, 0, 0, 1, 0};
  PivotSpace ps(pivots, 2, 3, &metric);
  const std::string path = ::testing::TempDir() + "/pivots.bin";
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    BinaryWriter bw = std::move(w).ValueOrDie();
    ps.Serialize(&bw);
    ASSERT_TRUE(bw.Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  BinaryReader br = std::move(r).ValueOrDie();
  PivotSpace loaded;
  ASSERT_TRUE(loaded.Deserialize(&br, &metric).ok());
  EXPECT_EQ(loaded.num_pivots(), 2u);
  EXPECT_EQ(loaded.dim(), 3u);
  EXPECT_EQ(loaded.pivot(1)[1], 1.0f);
  std::remove(path.c_str());
}

TEST(PivotSelectorTest, PcaSelectsRequestedCount) {
  ColumnCatalog catalog = testing::MakeClusteredCatalog(6, 12, 10, 20);
  L2Metric metric;
  auto pivots = PivotSelector::SelectPca(catalog.store().raw().data(),
                                         catalog.num_vectors(), 12, 5, &metric);
  EXPECT_EQ(pivots.size(), 5u * 12);
}

TEST(PivotSelectorTest, PcaPivotsAreDistinct) {
  ColumnCatalog catalog = testing::MakeClusteredCatalog(7, 10, 10, 20);
  L2Metric metric;
  auto pivots = PivotSelector::SelectPca(catalog.store().raw().data(),
                                         catalog.num_vectors(), 10, 4, &metric);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      EXPECT_GT(metric.Dist(pivots.data() + a * 10, pivots.data() + b * 10, 10),
                1e-6);
    }
  }
}

TEST(PivotSelectorTest, RandomSelectionDeterministicPerSeed) {
  ColumnCatalog catalog = testing::MakeClusteredCatalog(8, 6, 5, 10);
  auto p1 = PivotSelector::SelectRandom(catalog.store().raw().data(),
                                        catalog.num_vectors(), 6, 3, 99);
  auto p2 = PivotSelector::SelectRandom(catalog.store().raw().data(),
                                        catalog.num_vectors(), 6, 3, 99);
  EXPECT_EQ(p1, p2);
}

class GridTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GridTest, EveryVectorLandsInExactlyOneLeaf) {
  const auto [np, levels] = GetParam();
  Rng rng(10);
  const size_t n = 500;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
  HierarchicalGrid grid;
  HierarchicalGrid::Options opts;
  opts.levels = levels;
  grid.Build(mapped.data(), n, np, 2.0, opts);

  size_t total = 0;
  std::set<VecId> seen;
  for (const auto& leaf : grid.LeafCells()) {
    total += leaf.items.size();
    for (VecId v : leaf.items) EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_EQ(total, n);
}

TEST_P(GridTest, LeafCoordsMatchVectorPosition) {
  const auto [np, levels] = GetParam();
  Rng rng(11);
  const size_t n = 300;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
  HierarchicalGrid grid;
  HierarchicalGrid::Options opts;
  opts.levels = levels;
  grid.Build(mapped.data(), n, np, 2.0, opts);
  for (const auto& leaf : grid.LeafCells()) {
    for (VecId v : leaf.items) {
      for (int j = 0; j < np; ++j) {
        const double x = mapped[v * np + j];
        EXPECT_GE(x, grid.CellLower(levels, leaf, j) - 1e-12);
        EXPECT_LE(x, grid.CellUpper(levels, leaf, j) + 1e-12);
      }
    }
  }
}

TEST_P(GridTest, ParentChildCoordsConsistent) {
  const auto [np, levels] = GetParam();
  if (levels < 2) GTEST_SKIP();
  Rng rng(12);
  const size_t n = 400;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
  HierarchicalGrid grid;
  HierarchicalGrid::Options opts;
  opts.levels = levels;
  grid.Build(mapped.data(), n, np, 2.0, opts);
  for (uint32_t l = 1; l + 1 <= static_cast<uint32_t>(levels); ++l) {
    for (const auto& cell : grid.CellsAtLevel(l)) {
      for (uint32_t child : cell.children) {
        const auto& ccell = grid.CellsAtLevel(l + 1)[child];
        EXPECT_EQ(ccell.coords.Parent(), cell.coords);
      }
    }
  }
}

/// Walks CellsAtLevel depth-first from level 1, appending leaf indices.
void DepthFirstLeaves(const HierarchicalGrid& grid, uint32_t l, uint32_t cell,
                      std::vector<uint32_t>* out) {
  if (l == grid.levels()) {
    out->push_back(cell);
    return;
  }
  for (uint32_t child : grid.CellsAtLevel(l)[cell].children) {
    DepthFirstLeaves(grid, l + 1, child, out);
  }
}

/// The descent view renumbers every level breadth-first: a permutation of
/// each level whose children runs are contiguous, carry their cells'
/// coordinates, and whose depth-first leaf order is CellsAtLevel's.
void ExpectViewMatchesCells(const HierarchicalGrid& grid) {
  const uint32_t np = grid.num_pivots();
  const uint32_t m = grid.levels();
  std::vector<uint32_t> order(grid.CellsAtLevel(1).size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (uint32_t l = 1; l <= m; ++l) {
    const auto& cells = grid.CellsAtLevel(l);
    const auto& view = grid.ViewAtLevel(l);
    ASSERT_EQ(order.size(), cells.size()) << "level " << l;
    ASSERT_EQ(view.coords.size(), cells.size() * np + kMaxPivots - np);
    std::set<uint32_t> distinct(order.begin(), order.end());
    EXPECT_EQ(distinct.size(), cells.size()) << "level " << l;
    for (size_t i = 0; i < order.size(); ++i) {
      for (uint32_t j = 0; j < np; ++j) {
        EXPECT_EQ(view.coords[i * np + j], cells[order[i]].coords.c[j]);
      }
    }
    if (l == m) {
      for (uint32_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(grid.LeafOfViewLeaf(i), order[i]);
        EXPECT_EQ(grid.ViewLeafOf(order[i]), i);
      }
      break;
    }
    ASSERT_EQ(view.child_begin.size(), cells.size() + 1);
    std::vector<uint32_t> next;
    for (size_t i = 0; i < order.size(); ++i) {
      const auto& children = cells[order[i]].children;
      EXPECT_EQ(view.child_begin[i], next.size());
      next.insert(next.end(), children.begin(), children.end());
    }
    EXPECT_EQ(view.child_begin.back(), next.size());
    order = next;
  }
  // Depth-first over the view, through its own offsets.
  std::vector<uint32_t> view_leaves;
  std::vector<uint32_t> want;
  for (uint32_t c = 0; c < grid.CellsAtLevel(1).size(); ++c) {
    DepthFirstLeaves(grid, 1, c, &want);
  }
  const std::function<void(uint32_t, uint32_t)> walk = [&](uint32_t l,
                                                           uint32_t i) {
    if (l == m) {
      view_leaves.push_back(grid.LeafOfViewLeaf(i));
      return;
    }
    const auto& cb = grid.ViewAtLevel(l).child_begin;
    for (uint32_t k = cb[i]; k < cb[i + 1]; ++k) walk(l + 1, k);
  };
  for (uint32_t i = 0; i < grid.CellsAtLevel(1).size(); ++i) walk(1, i);
  EXPECT_EQ(view_leaves, want);
}

TEST_P(GridTest, DescentViewIsBreadthFirstRenumbering) {
  const auto [np, levels] = GetParam();
  Rng rng(13);
  const size_t n = 400;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
  HierarchicalGrid grid;
  HierarchicalGrid::Options opts;
  opts.levels = levels;
  grid.Build(mapped.data(), n, np, 2.0, opts);
  ExpectViewMatchesCells(grid);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 4, 6)));

TEST(GridTest, FindLeafLocatesExistingCellOnly) {
  std::vector<double> mapped = {0.1, 0.1, 1.9, 1.9};
  HierarchicalGrid grid;
  HierarchicalGrid::Options opts;
  opts.levels = 2;
  grid.Build(mapped.data(), 2, 2, 2.0, opts);
  EXPECT_EQ(grid.LeafCells().size(), 2u);
  EXPECT_GE(grid.FindLeaf(grid.LeafCells()[0].coords), 0);
  CellCoord missing;
  missing.ndims = 2;
  missing.c[0] = 1;
  missing.c[1] = 2;
  EXPECT_EQ(grid.FindLeaf(missing), -1);
}

TEST(GridTest, AxisCellRangeMatchesTheDoubleTest) {
  Rng rng(16);
  // Extents whose cell bounds are exact (2.0) and rounded products.
  for (double extent : {2.0, 0.7, 2.0 * std::sqrt(50.0)}) {
    for (uint32_t l = 1; l <= HierarchicalGrid::kMaxLevels; ++l) {
      HierarchicalGrid grid;
      HierarchicalGrid::Options opts;
      opts.levels = l;
      std::vector<double> one(1, 0.5 * extent);
      grid.Build(one.data(), 1, 1, extent, opts);
      const double side = grid.CellSide(l);
      const int32_t cells = 1 << l;
      // Random points, points on cell boundaries and outside [0, extent],
      // and taus that put x +- tau on boundaries.
      std::vector<double> xs = {0.0, extent, extent * (1 + 1e-12),
                                extent * 1.25, -0.125 * extent};
      const int32_t step = std::max(1, cells / 64);
      for (int32_t c = 0; c <= cells; c += step) xs.push_back(c * side);
      for (int i = 0; i < 40; ++i) {
        xs.push_back(rng.UniformDouble() * 1.1 * extent);
      }
      const std::vector<double> taus = {
          0.0, side / 3, side, 1.5 * side, 0.25 * extent, extent,
          2.5 * extent};
      for (double x : xs) {
        for (double tau : taus) {
          int32_t lo = 0, hi = 0;
          grid.AxisCellRange(l, x - tau, x + tau, &lo, &hi);
          ASSERT_GE(lo, 0);
          ASSERT_LE(lo, cells);
          ASSERT_GE(hi, -1);
          ASSERT_LT(hi, cells);
          for (int32_t c = 0; c < cells; ++c) {
            const bool separated =
                static_cast<double>(c) * side > x + tau ||
                static_cast<double>(c + 1) * side < x - tau;
            if (separated == (lo <= c && c <= hi)) {
              ADD_FAILURE() << "extent=" << extent << " l=" << l
                            << " x=" << x << " tau=" << tau << " c=" << c
                            << " range [" << lo << ", " << hi << "]";
              return;
            }
          }
          // Every coarser level's range is this one shifted down, the
          // empty ranges included: blocking derives them that way.
          for (uint32_t k = 1; k < l; ++k) {
            int32_t klo = 0, khi = 0;
            grid.AxisCellRange(k, x - tau, x + tau, &klo, &khi);
            if ((lo >> (l - k)) != klo || (hi >> (l - k)) != khi) {
              ADD_FAILURE() << "extent=" << extent << " l=" << l
                            << " k=" << k << " x=" << x << " tau=" << tau
                            << " shifted [" << (lo >> (l - k)) << ", "
                            << (hi >> (l - k)) << "] vs [" << klo << ", "
                            << khi << "]";
              return;
            }
          }
        }
      }
    }
  }
}

/// The vector cell test decides every (cell, box) pair as Lemma 3 on each
/// axis does, at every |P| the grid supports: on random boxes, on bounds
/// equal to a coordinate, 0 and 2^l - 1, on empty axis ranges (lo > hi),
/// and on the view's last cell, whose load reads the tail padding.
TEST(GridTest, CellInBoxMatchesTheScalarTest) {
  Rng rng(31);
  for (uint32_t np = 1; np <= kMaxPivots; ++np) {
    for (uint32_t levels : {1u, 3u, HierarchicalGrid::kMaxLevels}) {
      // Random points plus the two corners, so coordinates 0 and 2^l - 1
      // occur on every axis.
      const size_t n = 40;
      std::vector<double> mapped(n * np);
      for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
      for (uint32_t j = 0; j < np; ++j) {
        mapped[j] = 0.0;
        mapped[np + j] = 2.0;
      }
      HierarchicalGrid grid;
      HierarchicalGrid::Options opts;
      opts.levels = levels;
      grid.Build(mapped.data(), n, np, 2.0, opts);
      for (uint32_t l = 1; l <= levels; ++l) {
        const int32_t last = (1 << l) - 1;
        const auto& view = grid.ViewAtLevel(l);
        const size_t cells = grid.CellsAtLevel(l).size();
        for (size_t i = 0; i < cells; ++i) {
          const uint16_t* c = view.coords.data() + i * np;
          for (int trial = 0; trial < 24; ++trial) {
            HierarchicalGrid::LaneBox box;
            std::fill(std::begin(box.lo), std::end(box.lo), INT16_MIN);
            std::fill(std::begin(box.hi), std::end(box.hi), INT16_MAX);
            bool meets = true;  // the scalar Lemma-3 test
            for (uint32_t j = 0; j < np; ++j) {
              int32_t lo = 0, hi = last;
              // Mostly passing axes, so whole-box passes occur too.
              switch (rng.UniformInt(0, 9)) {
                case 0:  // random, possibly empty
                  lo = static_cast<int32_t>(rng.UniformInt(0, last + 1));
                  hi = static_cast<int32_t>(rng.UniformInt(-1, last));
                  break;
                case 1:  // the empty ranges AxisCellRange returns
                  lo = rng.Bernoulli(0.5) ? last + 1 : 0;
                  hi = lo == 0 ? -1 : last;
                  break;
                case 2:  // lo > hi around the coordinate
                  lo = c[j] + 1;
                  hi = c[j];
                  break;
                case 3:  // just above the coordinate
                  lo = c[j] + 1;
                  break;
                case 4:  // just below the coordinate
                  hi = c[j] - 1;
                  break;
                case 5:  // exactly the coordinate
                  lo = hi = c[j];
                  break;
                default:  // the whole axis
                  break;
              }
              box.lo[j] = static_cast<int16_t>(lo);
              box.hi[j] = static_cast<int16_t>(hi);
              meets = meets && lo <= c[j] && c[j] <= hi;
            }
            if (HierarchicalGrid::CellInBox(c, box, np > 8) != meets) {
              ADD_FAILURE() << "np=" << np << " l=" << l << " cell " << i
                            << " of " << cells << ": scalar test " << meets;
              return;
            }
          }
        }
      }
    }
  }
}

TEST(GridTest, BuildInsertsInIdOrder) {
  Rng rng(14);
  const int np = 3, levels = 4;
  const size_t n = 200;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;

  HierarchicalGrid full;
  HierarchicalGrid::Options opts;
  opts.levels = levels;
  full.Build(mapped.data(), n, np, 2.0, opts);
  // Each vector sits in the leaf of its own coordinates.
  for (const auto& leaf : full.LeafCells()) {
    for (VecId v : leaf.items) {
      EXPECT_EQ(full.CoordsOf(mapped.data() + v * np, levels), leaf.coords);
    }
  }
  // A build over a prefix of the vectors is a prefix of the full build at
  // every level, and its leaves hold prefixes of the full leaves' items:
  // later vectors only append cells and items.
  HierarchicalGrid prefix;
  prefix.Build(mapped.data(), n / 3, np, 2.0, opts);
  for (uint32_t l = 1; l <= static_cast<uint32_t>(levels); ++l) {
    const auto& pcells = prefix.CellsAtLevel(l);
    const auto& fcells = full.CellsAtLevel(l);
    ASSERT_LE(pcells.size(), fcells.size());
    for (size_t i = 0; i < pcells.size(); ++i) {
      EXPECT_EQ(pcells[i].coords, fcells[i].coords);
      ASSERT_LE(pcells[i].items.size(), fcells[i].items.size());
      EXPECT_TRUE(std::equal(pcells[i].items.begin(), pcells[i].items.end(),
                             fcells[i].items.begin()));
    }
  }
}

TEST(GridTest, SerializeRoundTrip) {
  Rng rng(15);
  const int np = 2, levels = 3;
  const size_t n = 100;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
  HierarchicalGrid grid;
  HierarchicalGrid::Options opts;
  opts.levels = levels;
  grid.Build(mapped.data(), n, np, 2.0, opts);
  const std::string path = ::testing::TempDir() + "/grid.bin";
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    BinaryWriter bw = std::move(w).ValueOrDie();
    grid.Serialize(&bw);
    ASSERT_TRUE(bw.Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  BinaryReader br = std::move(r).ValueOrDie();
  HierarchicalGrid loaded;
  ASSERT_TRUE(loaded.Deserialize(&br).ok());
  EXPECT_EQ(loaded.levels(), grid.levels());
  EXPECT_EQ(loaded.LeafCells().size(), grid.LeafCells().size());
  EXPECT_EQ(loaded.FindLeaf(grid.LeafCells()[0].coords), 0);
  ExpectViewMatchesCells(loaded);
  for (uint32_t l = 1; l <= static_cast<uint32_t>(levels); ++l) {
    EXPECT_EQ(loaded.ViewAtLevel(l).coords, grid.ViewAtLevel(l).coords);
    EXPECT_EQ(loaded.ViewAtLevel(l).child_begin,
              grid.ViewAtLevel(l).child_begin);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pexeso
