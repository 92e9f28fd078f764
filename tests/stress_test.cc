// Cross-searcher stress properties: every exact method in the library --
// PEXESO, PEXESO-H, the CTREE workflow, the EPT workflow -- must return the
// same joinable set as the exhaustive NaiveSearcher, across random seeds,
// metrics, and threshold regimes. This is the library's central invariant.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "baseline/cover_tree.h"
#include "baseline/ept.h"
#include "baseline/naive_searcher.h"
#include "baseline/pexeso_h.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "partition/partitioned_pexeso.h"
#include "test_util.h"

namespace pexeso {
namespace {

using testing::BindQuery;
using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::ResultColumns;

struct StressCase {
  uint64_t seed;
  const char* metric;
  double tau_fraction;
  double t_fraction;
};

std::ostream& operator<<(std::ostream& os, const StressCase& c) {
  return os << "seed" << c.seed << "_" << c.metric << "_tau" << c.tau_fraction
            << "_T" << c.t_fraction;
}

class AllSearchersAgree : public ::testing::TestWithParam<StressCase> {};

TEST_P(AllSearchersAgree, OnClusteredData) {
  const StressCase c = GetParam();
  auto metric = MakeMetric(c.metric);
  ASSERT_NE(metric, nullptr);
  const uint32_t dim = 10;
  ColumnCatalog catalog = MakeClusteredCatalog(c.seed, dim, 20, 12);
  VectorStore query = MakeClusteredQuery(c.seed, dim, 16);
  FractionalThresholds ft{c.tau_fraction, c.t_fraction};
  const SearchThresholds th = ft.Resolve(*metric, dim, query.size());

  NaiveSearcher naive(&catalog, metric.get());
  const auto expected = ResultColumns(MustSearch(naive, query, th, nullptr));

  // PEXESO + PEXESO-H share an index.
  {
    ColumnCatalog copy = catalog;
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    PexesoIndex index = PexesoIndex::Build(std::move(copy), metric.get(), opts);
    JoinQuery sopts;
    sopts.thresholds = th;
    EXPECT_EQ(ResultColumns(MustSearch(PexesoSearcher(&index), query, sopts,
                                                          nullptr)),
              expected)
        << "PEXESO disagrees";
    EXPECT_EQ(ResultColumns(MustSearch(PexesoHSearcher(&index), query, sopts,
                                                           nullptr)),
              expected)
        << "PEXESO-H disagrees";
  }
  {
    CoverTree tree(&catalog.store(), metric.get());
    tree.BuildAll();
    JoinableRangeSearcher searcher(&catalog, &tree);
    EXPECT_EQ(ResultColumns(MustSearch(searcher, query, th, nullptr)), expected)
        << "CTREE workflow disagrees";
  }
  {
    ExtremePivotTable ept(&catalog.store(), metric.get());
    ept.Build({});
    JoinableRangeSearcher searcher(&catalog, &ept);
    EXPECT_EQ(ResultColumns(MustSearch(searcher, query, th, nullptr)), expected)
        << "EPT workflow disagrees";
  }
}

std::vector<StressCase> MakeStressCases() {
  std::vector<StressCase> cases;
  for (uint64_t seed : {901, 902, 903, 904, 905}) {
    for (const char* metric : {"l2", "cosine"}) {
      cases.push_back({seed, metric, 0.05, 0.5});
    }
  }
  // Threshold extremes under L2.
  cases.push_back({910, "l2", 0.005, 0.2});  // tiny tau
  cases.push_back({911, "l2", 0.30, 0.2});   // huge tau: everything matches
  cases.push_back({912, "l2", 0.05, 0.05});  // tiny T
  cases.push_back({913, "l2", 0.05, 1.0});   // T = |Q|
  // L1 exercises a non-Euclidean axis extent.
  cases.push_back({914, "l1", 0.02, 0.4});
  cases.push_back({915, "l1", 0.05, 0.6});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllSearchersAgree,
                         ::testing::ValuesIn(MakeStressCases()));

TEST(PartitionedEngineTest, PexesoHEngineMatchesNaive) {
  namespace fs = std::filesystem;
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(950, 8, 24, 10);
  VectorStore query = MakeClusteredQuery(950, 8, 14);
  FractionalThresholds ft{0.07, 0.4};
  const SearchThresholds th = ft.Resolve(metric, 8, query.size());
  NaiveSearcher naive(&catalog, &metric);
  auto expected = ResultColumns(MustSearch(naive, query, th, nullptr));

  const std::string dir = ::testing::TempDir() + "/parts_engine";
  fs::remove_all(dir);
  Partitioner::Options popts;
  popts.k = 3;
  auto assign = Partitioner::JsdClustering(catalog, popts);
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 3;
  auto parts = PartitionedPexeso::Build(catalog, assign, dir, &metric, opts);
  ASSERT_TRUE(parts.ok());
  JoinQuery sopts;
  sopts.thresholds = th;
  parts.value().set_engine(PartitionedPexeso::Engine::kPexesoH);
  const JoinSearchEngine& engine = parts.value();
  EXPECT_EQ(ResultColumns(MustSearch(engine, query, sopts, nullptr)), expected);
  fs::remove_all(dir);
}

TEST(RobustnessTest, TruncatedIndexFilesFailGracefully) {
  // Save a valid index, then truncate it at several offsets: every load must
  // return a Status (never crash or hand back a half-built index).
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(960, 6, 8, 8);
  PexesoOptions opts;
  opts.num_pivots = 2;
  opts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  const std::string path = ::testing::TempDir() + "/trunc_index.bin";
  ASSERT_TRUE(index.Save(path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (double frac : {0.01, 0.1, 0.33, 0.66, 0.95}) {
    const std::string tpath = ::testing::TempDir() + "/trunc_part.bin";
    std::ofstream out(tpath, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() * frac));
    out.close();
    auto loaded = PexesoIndex::Load(tpath, &metric);
    EXPECT_FALSE(loaded.ok()) << "truncated at " << frac;
    std::remove(tpath.c_str());
  }
  std::remove(path.c_str());
}

TEST(RobustnessTest, SingleVectorColumnsAndQueries) {
  // Degenerate shapes: 1-vector columns, 1-vector query.
  L2Metric metric;
  ColumnCatalog catalog(4);
  Rng rng(970);
  std::vector<float> v;
  for (int i = 0; i < 10; ++i) {
    testing::RandomUnitVector(&rng, 4, &v);
    ColumnMeta meta;
    meta.table_name = "t" + std::to_string(i);
    catalog.AddColumn(meta, v.data(), 1);
  }
  VectorStore query(4);
  testing::RandomUnitVector(&rng, 4, &v);
  query.Add(v);

  NaiveSearcher naive(&catalog, &metric);
  SearchThresholds th{0.8, 1};
  auto expected = ResultColumns(MustSearch(naive, query, th, nullptr));

  PexesoOptions opts;
  opts.num_pivots = 2;
  opts.levels = 2;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  JoinQuery sopts;
  sopts.thresholds = th;
  EXPECT_EQ(ResultColumns(MustSearch(PexesoSearcher(&index), query, sopts, nullptr)),
            expected);
}

TEST(RobustnessTest, AllVectorsIdentical) {
  // Every record is the same point: all columns joinable at any tau >= 0.
  L2Metric metric;
  ColumnCatalog catalog(3);
  const float v[3] = {1.0f, 0.0f, 0.0f};
  std::vector<float> packed;
  for (int i = 0; i < 5; ++i) packed.insert(packed.end(), v, v + 3);
  for (int c = 0; c < 6; ++c) {
    ColumnMeta meta;
    meta.table_name = "dup" + std::to_string(c);
    catalog.AddColumn(meta, packed.data(), 5);
  }
  VectorStore query(3);
  query.Add(std::span<const float>(v, 3));

  PexesoOptions opts;
  opts.num_pivots = 2;
  opts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  JoinQuery sopts;
  sopts.thresholds = {1e-9, 1};
  auto results = MustSearch(PexesoSearcher(&index), query, sopts, nullptr);
  EXPECT_EQ(results.size(), 6u);
}

}  // namespace
}  // namespace pexeso
