#include <gtest/gtest.h>

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
  opts.store_leaf_items = true;
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
  for (size_t i = 0; i < n; ++i) {
    const auto& leaf = grid.LeafCells()[grid.LeafOf(static_cast<VecId>(i))];
    for (int j = 0; j < np; ++j) {
      const double x = mapped[i * np + j];
      EXPECT_GE(x, grid.CellLower(levels, leaf, j) - 1e-12);
      EXPECT_LE(x, grid.CellUpper(levels, leaf, j) + 1e-12);
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

TEST(GridTest, IncrementalInsertMatchesBatchBuild) {
  Rng rng(14);
  const int np = 3, levels = 4;
  const size_t n = 200;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;

  HierarchicalGrid batch;
  HierarchicalGrid::Options opts;
  opts.levels = levels;
  batch.Build(mapped.data(), n, np, 2.0, opts);

  HierarchicalGrid incr;
  incr.Build(mapped.data(), 1, np, 2.0, opts);
  for (size_t i = 1; i < n; ++i) {
    incr.Insert(mapped.data() + i * np, static_cast<VecId>(i), true);
  }
  EXPECT_EQ(incr.LeafCells().size(), batch.LeafCells().size());
  for (uint32_t l = 1; l <= static_cast<uint32_t>(levels); ++l) {
    EXPECT_EQ(incr.CellsAtLevel(l).size(), batch.CellsAtLevel(l).size());
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& bleaf = batch.LeafCells()[batch.LeafOf(i)];
    const auto& ileaf = incr.LeafCells()[incr.LeafOf(i)];
    EXPECT_EQ(bleaf.coords, ileaf.coords);
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
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pexeso
