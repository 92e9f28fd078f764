#include <gtest/gtest.h>

#include <cstdio>

#include "baseline/naive_searcher.h"
#include "core/cost_model.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "pivot/pivot_selector.h"
#include "test_util.h"

namespace pexeso {
namespace {

using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::ResultColumns;

struct SearchCase {
  uint64_t seed;
  uint32_t dim;
  uint32_t num_columns;
  uint32_t col_size;
  uint32_t num_pivots;
  uint32_t levels;
  double tau_fraction;
  double t_fraction;
};

std::ostream& operator<<(std::ostream& os, const SearchCase& c) {
  return os << "seed" << c.seed << "_dim" << c.dim << "_cols" << c.num_columns
            << "_p" << c.num_pivots << "_m" << c.levels << "_tau"
            << c.tau_fraction << "_T" << c.t_fraction;
}

/// The headline property: PEXESO is an EXACT algorithm. Whatever the
/// parameters, its joinable set must equal the exhaustive scan's.
class ExactnessTest : public ::testing::TestWithParam<SearchCase> {};

TEST_P(ExactnessTest, MatchesNaiveSearcher) {
  const SearchCase c = GetParam();
  L2Metric metric;
  ColumnCatalog catalog =
      MakeClusteredCatalog(c.seed, c.dim, c.num_columns, c.col_size);
  VectorStore query = MakeClusteredQuery(c.seed, c.dim, 24);

  NaiveSearcher naive(&catalog, &metric);
  FractionalThresholds ft{c.tau_fraction, c.t_fraction};
  const SearchThresholds th = ft.Resolve(metric, c.dim, query.size());
  auto expected = ResultColumns(MustSearch(naive, query, th, nullptr));

  PexesoOptions opts;
  opts.num_pivots = c.num_pivots;
  opts.levels = c.levels;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds = th;
  SearchStats stats;
  auto got = ResultColumns(MustSearch(searcher, query, sopts, &stats));

  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, ExactnessTest,
    ::testing::Values(
        SearchCase{101, 8, 30, 12, 3, 3, 0.06, 0.6},
        SearchCase{102, 8, 30, 12, 1, 2, 0.06, 0.6},
        SearchCase{103, 8, 30, 12, 5, 5, 0.06, 0.6},
        SearchCase{104, 16, 20, 20, 3, 4, 0.02, 0.2},
        SearchCase{105, 16, 20, 20, 3, 4, 0.08, 0.8},
        SearchCase{106, 4, 40, 8, 2, 3, 0.10, 0.4},
        SearchCase{107, 32, 15, 10, 4, 3, 0.05, 0.5},
        SearchCase{108, 8, 50, 5, 3, 6, 0.06, 0.6},
        SearchCase{109, 8, 10, 50, 3, 4, 0.04, 0.3},
        SearchCase{110, 12, 25, 16, 6, 2, 0.07, 0.7}));

/// Every ablation variant must stay exact (the lemmas only prune work).
class AblationExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(AblationExactnessTest, AblatedSearchStaysExact) {
  const int variant = GetParam();
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(200 + variant, 10, 25, 15);
  VectorStore query = MakeClusteredQuery(200 + variant, 10, 20);
  FractionalThresholds ft{0.06, 0.5};
  const SearchThresholds th = ft.Resolve(metric, 10, query.size());

  NaiveSearcher naive(&catalog, &metric);
  auto expected = ResultColumns(MustSearch(naive, query, th, nullptr));

  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds = th;
  switch (variant) {
    case 0: sopts.ablation.use_lemma1 = false; break;
    case 1: sopts.ablation.use_lemma34 = false; break;
    case 2: sopts.ablation.use_lemma7 = false; break;
    case 3: sopts.ablation.use_quick_browsing = false; break;
    case 4:
      sopts.ablation.use_lemma1 = false;
      sopts.ablation.use_lemma34 = false;
      sopts.ablation.use_lemma7 = false;
      sopts.ablation.use_quick_browsing = false;
      break;
    default: break;
  }
  auto got = ResultColumns(MustSearch(searcher, query, sopts, nullptr));
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(AllSwitches, AblationExactnessTest,
                         ::testing::Range(0, 5));

TEST(PexesoSearchTest, EmptyQueryReturnsNothing) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(300, 6, 10, 8);
  PexesoOptions opts;
  opts.num_pivots = 2;
  opts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);
  VectorStore empty(6);
  JoinQuery sopts;
  sopts.thresholds = {0.1, 1};
  EXPECT_TRUE(MustSearch(searcher, empty, sopts, nullptr).empty());
}

TEST(PexesoSearchTest, IdenticalColumnIsJoinableAtFullT) {
  // A column that *is* the query must reach joinability 1.0.
  L2Metric metric;
  VectorStore query = MakeClusteredQuery(301, 8, 16);
  ColumnCatalog catalog(8);
  ColumnMeta meta;
  meta.table_name = "copy";
  catalog.AddColumn(meta, query.raw().data(), query.size());
  // Plus unrelated noise columns.
  ColumnCatalog noise = MakeClusteredCatalog(999, 8, 5, 10);
  for (ColumnId c = 0; c < noise.num_columns(); ++c) {
    const auto& m = noise.column(c);
    catalog.AddColumn(m, noise.store().View(m.first), m.count);
  }
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds.tau = 1e-6;
  sopts.thresholds.t_abs = static_cast<uint32_t>(query.size());
  auto results = MustSearch(searcher, query, sopts, nullptr);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].column, 0u);
  EXPECT_DOUBLE_EQ(results[0].joinability, 1.0);
}

TEST(PexesoSearchTest, ExactJoinabilityReportsTrueCounts) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(302, 8, 20, 15);
  VectorStore query = MakeClusteredQuery(302, 8, 20);
  FractionalThresholds ft{0.08, 0.3};
  const SearchThresholds th = ft.Resolve(metric, 8, query.size());

  // Ground-truth per-column match counts by brute force.
  std::vector<uint32_t> truth(catalog.num_columns(), 0);
  for (ColumnId col = 0; col < catalog.num_columns(); ++col) {
    const auto& meta = catalog.column(col);
    for (uint32_t q = 0; q < query.size(); ++q) {
      for (VecId v = meta.first; v < meta.end(); ++v) {
        if (metric.Dist(query.View(q), catalog.store().View(v), 8) <= th.tau) {
          ++truth[col];
          break;
        }
      }
    }
  }
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds = th;
  sopts.mode = QueryMode::kExactJoinability;
  auto results = MustSearch(searcher, query, sopts, nullptr);
  EXPECT_FALSE(results.empty());
  for (const auto& r : results) {
    EXPECT_EQ(r.match_count, truth[r.column]);
  }
}

TEST(PexesoSearchTest, MappingsPointToRealMatches) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(303, 8, 15, 12);
  VectorStore query = MakeClusteredQuery(303, 8, 15);
  FractionalThresholds ft{0.08, 0.4};
  const SearchThresholds th = ft.Resolve(metric, 8, query.size());
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds = th;
  sopts.collect_mappings = true;
  auto results = MustSearch(searcher, query, sopts, nullptr);
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) {
    EXPECT_GE(r.mapping.size(), r.match_count);
    const auto& meta = index.catalog().column(r.column);
    for (const auto& m : r.mapping) {
      EXPECT_GE(m.target_vec, meta.first);
      EXPECT_LT(m.target_vec, meta.end());
      EXPECT_LE(metric.Dist(query.View(m.query_index),
                            index.catalog().store().View(m.target_vec), 8),
                th.tau + 1e-12);
    }
  }
}

TEST(PexesoSearchTest, StatsArepopulated) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(304, 8, 30, 15);
  VectorStore query = MakeClusteredQuery(304, 8, 25);
  FractionalThresholds ft{0.06, 0.5};
  const SearchThresholds th = ft.Resolve(metric, 8, query.size());
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds = th;
  SearchStats stats;
  MustSearch(searcher, query, sopts, &stats);
  EXPECT_GT(stats.candidate_pairs, 0u);
  EXPECT_GE(stats.block_seconds, 0.0);
  EXPECT_GE(stats.verify_seconds, 0.0);
}

TEST(PexesoSearchTest, BlockingReducesDistanceComputations) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(305, 16, 40, 20);
  VectorStore query = MakeClusteredQuery(305, 16, 30);
  FractionalThresholds ft{0.04, 0.5};
  const SearchThresholds th = ft.Resolve(metric, 16, query.size());

  SearchStats naive_stats;
  {
    ColumnCatalog copy = MakeClusteredCatalog(305, 16, 40, 20);
    NaiveSearcher naive(&copy, &metric);
    MustSearch(naive, query, th, &naive_stats);
  }
  PexesoOptions opts;
  opts.num_pivots = 4;
  opts.levels = 5;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds = th;
  SearchStats stats;
  MustSearch(searcher, query, sopts, &stats);
  EXPECT_LT(stats.distance_computations, naive_stats.distance_computations);
}

TEST(PexesoIndexTest, SaveLoadRoundTripPreservesResults) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(309, 8, 15, 10);
  VectorStore query = MakeClusteredQuery(309, 8, 12);
  FractionalThresholds ft{0.07, 0.4};
  const SearchThresholds th = ft.Resolve(metric, 8, query.size());
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  JoinQuery sopts;
  sopts.thresholds = th;
  PexesoSearcher s1(&index);
  auto expected = ResultColumns(MustSearch(s1, query, sopts, nullptr));

  const std::string path = ::testing::TempDir() + "/pexeso_index.bin";
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = PexesoIndex::Load(path, &metric);
  ASSERT_TRUE(loaded.ok());
  PexesoSearcher s2(&loaded.value());
  auto got = ResultColumns(MustSearch(s2, query, sopts, nullptr));
  EXPECT_EQ(got, expected);
  std::remove(path.c_str());
}

TEST(PexesoIndexTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    BinaryWriter bw = std::move(w).ValueOrDie();
    bw.Write<uint64_t>(0x1234567890ABCDEFULL);
    ASSERT_TRUE(bw.Close().ok());
  }
  L2Metric metric;
  auto loaded = PexesoIndex::Load(path, &metric);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(PexesoIndexTest, CostModelPicksLevelsWhenZero) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(310, 8, 20, 15);
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 0;  // auto
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  EXPECT_GE(index.options().levels, 1u);
  EXPECT_LE(index.options().levels, 10u);
  EXPECT_EQ(index.grid().levels(), index.options().levels);
}

TEST(PexesoIndexTest, IndexSizeIsPositiveAndGrowsWithData) {
  L2Metric metric;
  ColumnCatalog small = MakeClusteredCatalog(311, 8, 5, 10);
  ColumnCatalog large = MakeClusteredCatalog(311, 8, 50, 10);
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 3;
  PexesoIndex is = PexesoIndex::Build(std::move(small), &metric, opts);
  PexesoIndex il = PexesoIndex::Build(std::move(large), &metric, opts);
  EXPECT_GT(is.IndexSizeBytes(), 0u);
  EXPECT_GT(il.IndexSizeBytes(), is.IndexSizeBytes());
}

TEST(CostModelTest, NmaxDecreasesWithDepth) {
  Rng rng(40);
  const uint32_t np = 3;
  const size_t n = 3000;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
  CostModel model(mapped.data(), n, np, 2.0);
  const double mq[3] = {1.0, 1.0, 1.0};
  const double n_at_2 = model.NmaxSqr(mq, 0.1, 2.0);
  const double n_at_6 = model.NmaxSqr(mq, 0.1, 6.0);
  EXPECT_GE(n_at_2, n_at_6);
  EXPECT_GT(n_at_2, 0.0);
}

TEST(CostModelTest, ExpectedCellsGrowsWithDepth) {
  Rng rng(41);
  const uint32_t np = 2;
  const size_t n = 3000;
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
  CostModel model(mapped.data(), n, np, 2.0);
  const double mq[2] = {1.0, 1.0};
  EXPECT_LE(model.ExpectedCells(mq, 0.1, 2.0),
            model.ExpectedCells(mq, 0.1, 6.0));
}

TEST(CostModelTest, OptimalMIsInteriorForClusteredData) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(42, 12, 40, 25);
  auto pivots = PivotSelector::SelectPca(catalog.store().raw().data(),
                                         catalog.num_vectors(), 12, 3, &metric);
  PivotSpace ps(pivots.data(), 3, 12, &metric);
  auto mapped = ps.MapAll(catalog.store().raw().data(), catalog.num_vectors());
  CostModel model(mapped.data(), catalog.num_vectors(), 3, ps.AxisExtent());
  Rng rng(43);
  auto workload = CostModel::SampleWorkload(catalog, mapped.data(), 3,
                                            ps.AxisExtent(), 16, &rng);
  double frac = 0.0;
  const uint32_t m = model.OptimalM(workload, 10, 4.0, &frac);
  EXPECT_GE(m, 1u);
  EXPECT_LE(m, 10u);
  EXPECT_LE(frac, static_cast<double>(m));
  EXPECT_GT(frac, static_cast<double>(m) - 1.0 - 1e-9);
}

}  // namespace
}  // namespace pexeso
