#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "baseline/naive_searcher.h"
#include "core/part_runner.h"
#include "partition/histogram.h"
#include "partition/partitioned_pexeso.h"
#include "partition/partitioner.h"
#include "test_util.h"

namespace pexeso {
namespace {

using testing::BindQuery;
using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::ResultColumns;

TEST(HistogramTest, ProbabilitiesSumToOne) {
  ColumnCatalog catalog = MakeClusteredCatalog(70, 8, 10, 20);
  HistogramBuilder builder(catalog, {});
  auto h = builder.Build(catalog, 0);
  double sum = 0;
  for (double p : h.probs()) {
    EXPECT_GT(p, 0.0);  // Laplace smoothing: strictly positive
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(HistogramTest, DivergenceIsSymmetricNonNegativeZeroOnSelf) {
  ColumnCatalog catalog = MakeClusteredCatalog(71, 8, 6, 25);
  HistogramBuilder builder(catalog, {});
  auto hs = builder.BuildAll(catalog);
  for (size_t a = 0; a < hs.size(); ++a) {
    EXPECT_NEAR(ColumnHistogram::JsDivergence(hs[a], hs[a]), 0.0, 1e-12);
    for (size_t b = a + 1; b < hs.size(); ++b) {
      const double ab = ColumnHistogram::JsDivergence(hs[a], hs[b]);
      EXPECT_GE(ab, 0.0);
      EXPECT_NEAR(ab, ColumnHistogram::JsDivergence(hs[b], hs[a]), 1e-12);
    }
  }
}

TEST(HistogramTest, SimilarColumnsHaveSmallerDivergence) {
  // Columns drawn from one cluster vs a different cluster.
  Rng rng(72);
  const uint32_t dim = 8;
  std::vector<float> c1, c2;
  testing::RandomUnitVector(&rng, dim, &c1);
  testing::RandomUnitVector(&rng, dim, &c2);
  ColumnCatalog catalog(dim);
  auto add_column = [&](const std::vector<float>& center, const char* name) {
    std::vector<float> packed;
    for (int r = 0; r < 40; ++r) {
      auto v = testing::Perturb(&rng, center, 0.05);
      packed.insert(packed.end(), v.begin(), v.end());
    }
    ColumnMeta meta;
    meta.table_name = name;
    catalog.AddColumn(meta, packed.data(), 40);
  };
  add_column(c1, "a1");
  add_column(c1, "a2");
  add_column(c2, "b1");
  HistogramBuilder builder(catalog, {});
  auto hs = builder.BuildAll(catalog);
  const double same = ColumnHistogram::JsDivergence(hs[0], hs[1]);
  const double diff = ColumnHistogram::JsDivergence(hs[0], hs[2]);
  EXPECT_LT(same, diff);
}

class PartitionerTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerTest, AssignsEveryColumnToValidPartition) {
  const int which = GetParam();
  ColumnCatalog catalog = MakeClusteredCatalog(73, 8, 30, 15);
  Partitioner::Options opts;
  opts.k = 4;
  PartitionAssignment assign;
  switch (which) {
    case 0: assign = Partitioner::JsdClustering(catalog, opts); break;
    case 1: assign = Partitioner::Random(catalog, opts); break;
    default: assign = Partitioner::AverageKMeans(catalog, opts); break;
  }
  ASSERT_EQ(assign.size(), catalog.num_columns());
  for (uint32_t a : assign) EXPECT_LT(a, opts.k);
  // At least two partitions actually used on clustered data.
  std::set<uint32_t> used(assign.begin(), assign.end());
  EXPECT_GE(used.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PartitionerTest,
                         ::testing::Values(0, 1, 2));

TEST(PartitionerTest, JsdGroupsSimilarColumns) {
  // Build columns from 2 well-separated clusters; JSD clustering with k=2
  // should separate them (checked via majority agreement).
  Rng rng(74);
  const uint32_t dim = 8;
  std::vector<float> c1, c2;
  testing::RandomUnitVector(&rng, dim, &c1);
  testing::RandomUnitVector(&rng, dim, &c2);
  ColumnCatalog catalog(dim);
  std::vector<int> truth;
  for (int col = 0; col < 20; ++col) {
    const bool first = col % 2 == 0;
    const auto& center = first ? c1 : c2;
    std::vector<float> packed;
    for (int r = 0; r < 30; ++r) {
      auto v = testing::Perturb(&rng, center, 0.04);
      packed.insert(packed.end(), v.begin(), v.end());
    }
    ColumnMeta meta;
    meta.table_name = "t" + std::to_string(col);
    catalog.AddColumn(meta, packed.data(), 30);
    truth.push_back(first ? 0 : 1);
  }
  Partitioner::Options opts;
  opts.k = 2;
  auto assign = Partitioner::JsdClustering(catalog, opts);
  // Count agreement up to label permutation.
  size_t agree = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (static_cast<int>(assign[i]) == truth[i]) ++agree;
  }
  const size_t best = std::max(agree, truth.size() - agree);
  EXPECT_GE(best, truth.size() * 9 / 10);
}

TEST(PartitionedPexesoTest, SearchEqualsInMemorySearch) {
  namespace fs = std::filesystem;
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(75, 8, 30, 12);
  VectorStore query = MakeClusteredQuery(75, 8, 18);
  FractionalThresholds ft{0.07, 0.4};
  const SearchThresholds th = ft.Resolve(metric, 8, query.size());

  NaiveSearcher naive(&catalog, &metric);
  auto expected = ResultColumns(MustSearch(naive, query, th, nullptr));

  const std::string dir = ::testing::TempDir() + "/parts_eq";
  fs::remove_all(dir);
  Partitioner::Options popts;
  popts.k = 3;
  auto assign = Partitioner::JsdClustering(catalog, popts);
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 4;
  auto built = PartitionedPexeso::Build(catalog, assign, dir, &metric, opts);
  ASSERT_TRUE(built.ok());
  EXPECT_GE(built.value().num_partitions(), 2u);
  EXPECT_GT(built.value().DiskBytes(), 0u);

  JoinQuery sopts;
  sopts.thresholds = th;
  double io = 0.0;
  SearchStats stats;
  CollectSink merged;
  ASSERT_TRUE(PartRunner::RunParts(built.value(), BindQuery(query, sopts),
                                   &merged, &stats, &io)
                  .ok());
  EXPECT_EQ(ResultColumns(merged.columns()), expected);
  EXPECT_GT(io, 0.0);
  fs::remove_all(dir);
}

TEST(PartitionedPexesoTest, OpenFindsExistingPartitions) {
  namespace fs = std::filesystem;
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(76, 6, 12, 10);
  const std::string dir = ::testing::TempDir() + "/parts_open";
  fs::remove_all(dir);
  Partitioner::Options popts;
  popts.k = 2;
  auto assign = Partitioner::Random(catalog, popts);
  PexesoOptions opts;
  opts.num_pivots = 2;
  opts.levels = 3;
  auto built = PartitionedPexeso::Build(catalog, assign, dir, &metric, opts);
  ASSERT_TRUE(built.ok());
  auto opened = PartitionedPexeso::Open(dir, &metric);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().num_partitions(), built.value().num_partitions());
  fs::remove_all(dir);
}

TEST(PartitionedPexesoTest, OpenMissingDirFails) {
  L2Metric metric;
  auto opened = PartitionedPexeso::Open("/nonexistent/parts", &metric);
  EXPECT_FALSE(opened.ok());
}

}  // namespace
}  // namespace pexeso
