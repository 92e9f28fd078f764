// Conformance of every JoinSearchEngine implementation: all seven engines
// in the library are driven through the base-class interface only, and the
// exact ones must agree with the NaiveSearcher oracle. This pins the
// contract that lets the CLI, examples, benches and BatchQueryRunner treat
// engines interchangeably.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baseline/cover_tree.h"
#include "baseline/ept.h"
#include "baseline/naive_searcher.h"
#include "baseline/pexeso_h.h"
#include "baseline/pq.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "core/topk.h"
#include "partition/partitioned_pexeso.h"
#include "test_util.h"

namespace pexeso {
namespace {

using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::ResultColumns;

/// Builds one of every engine over the same repository and exposes them as
/// (name, engine, exact) triples.
class EngineConformanceTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 12;
  static constexpr uint64_t kSeed = 2100;

  void SetUp() override {
    catalog_ = MakeClusteredCatalog(kSeed, kDim, 24, 12);
    query_ = MakeClusteredQuery(kSeed, kDim, 16);
    FractionalThresholds ft{0.07, 0.4};
    thresholds_ = ft.Resolve(metric_, kDim, query_.size());

    ColumnCatalog copy = catalog_;
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    index_ = std::make_unique<PexesoIndex>(
        PexesoIndex::Build(std::move(copy), &metric_, opts));

    naive_ = std::make_unique<NaiveSearcher>(&catalog_, &metric_);
    pexeso_ = std::make_unique<PexesoSearcher>(index_.get());
    pexeso_h_ = std::make_unique<PexesoHSearcher>(index_.get());

    ctree_ = std::make_unique<CoverTree>(&catalog_.store(), &metric_);
    ctree_->BuildAll();
    ctree_searcher_ = std::make_unique<JoinableRangeSearcher>(
        &catalog_, ctree_.get(), "ctree");

    ept_ = std::make_unique<ExtremePivotTable>(&catalog_.store(), &metric_);
    ept_->Build({});
    ept_searcher_ = std::make_unique<JoinableRangeSearcher>(
        &catalog_, ept_.get(), "ept");

    pq_ = std::make_unique<PqIndex>(&catalog_.store());
    PqIndex::Options pq_opts;
    pq_opts.num_subquantizers = 4;
    pq_opts.codebook_size = 16;
    pq_->Build(pq_opts);
    pq_->set_radius_scale(2.0);
    pq_searcher_ =
        std::make_unique<JoinableRangeSearcher>(&catalog_, pq_.get(), "pq");

    parts_dir_ = ::testing::TempDir() + "/engine_conformance_parts";
    std::filesystem::remove_all(parts_dir_);
    Partitioner::Options popts;
    popts.k = 3;
    auto assign = Partitioner::JsdClustering(catalog_, popts);
    auto parts =
        PartitionedPexeso::Build(catalog_, assign, parts_dir_, &metric_, opts);
    ASSERT_TRUE(parts.ok());
    partitioned_ = std::make_unique<PartitionedPexeso>(
        std::move(parts).ValueOrDie());
  }

  void TearDown() override { std::filesystem::remove_all(parts_dir_); }

  struct Entry {
    const char* expected_name;
    const JoinSearchEngine* engine;
    bool exact;  ///< must equal the naive oracle result set
  };

  std::vector<Entry> AllEngines() const {
    return {
        {"naive", naive_.get(), true},
        {"pexeso", pexeso_.get(), true},
        {"pexeso-h", pexeso_h_.get(), true},
        {"ctree", ctree_searcher_.get(), true},
        {"ept", ept_searcher_.get(), true},
        {"pq", pq_searcher_.get(), false},  // approximate by design
        {"pexeso-part", partitioned_.get(), true},
    };
  }

  L2Metric metric_;
  ColumnCatalog catalog_;
  VectorStore query_;
  SearchThresholds thresholds_;
  std::unique_ptr<PexesoIndex> index_;
  std::unique_ptr<NaiveSearcher> naive_;
  std::unique_ptr<PexesoSearcher> pexeso_;
  std::unique_ptr<PexesoHSearcher> pexeso_h_;
  std::unique_ptr<CoverTree> ctree_;
  std::unique_ptr<JoinableRangeSearcher> ctree_searcher_;
  std::unique_ptr<ExtremePivotTable> ept_;
  std::unique_ptr<JoinableRangeSearcher> ept_searcher_;
  std::unique_ptr<PqIndex> pq_;
  std::unique_ptr<JoinableRangeSearcher> pq_searcher_;
  std::unique_ptr<PartitionedPexeso> partitioned_;
  std::string parts_dir_;
};

TEST_F(EngineConformanceTest, CoversAllSevenImplementations) {
  EXPECT_EQ(AllEngines().size(), 7u);
}

TEST_F(EngineConformanceTest, NamesAreStable) {
  for (const Entry& e : AllEngines()) {
    EXPECT_STREQ(e.engine->name(), e.expected_name);
  }
}

TEST_F(EngineConformanceTest, ExactEnginesMatchOracleThroughInterface) {
  JoinQuery options;
  options.thresholds = thresholds_;
  const auto expected =
      ResultColumns(MustSearch(*naive_, query_, options, nullptr));
  ASSERT_FALSE(expected.empty()) << "conformance query must hit something";
  for (const Entry& e : AllEngines()) {
    if (!e.exact) continue;
    SearchStats stats;
    auto results = MustSearch(*e.engine, query_, options, &stats);
    EXPECT_EQ(ResultColumns(results), expected) << e.expected_name;
  }
}

TEST_F(EngineConformanceTest, EveryResultIsWellFormed) {
  JoinQuery options;
  options.thresholds = thresholds_;
  for (const Entry& e : AllEngines()) {
    for (const auto& r : MustSearch(*e.engine, query_, options, nullptr)) {
      EXPECT_LT(r.column, catalog_.num_columns()) << e.expected_name;
      EXPECT_GE(r.match_count, thresholds_.t_abs) << e.expected_name;
      EXPECT_GT(r.joinability, 0.0) << e.expected_name;
      EXPECT_LE(r.joinability, 1.0) << e.expected_name;
    }
  }
}

TEST_F(EngineConformanceTest, ExactJoinabilityReportsFullCounts) {
  // With exact_joinability the reported count must not clamp at T.
  JoinQuery exact;
  exact.thresholds = thresholds_;
  exact.mode = QueryMode::kExactJoinability;
  const auto by_column = [](std::vector<JoinableColumn> v) {
    std::sort(v.begin(), v.end(),
              [](const JoinableColumn& a, const JoinableColumn& b) {
                return a.column < b.column;
              });
    return v;
  };
  const auto expected = by_column(MustSearch(*naive_, query_, exact, nullptr));
  for (const Entry& e : AllEngines()) {
    if (!e.exact) continue;
    auto results = by_column(MustSearch(*e.engine, query_, exact, nullptr));
    ASSERT_EQ(results.size(), expected.size()) << e.expected_name;
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].column, expected[i].column) << e.expected_name;
      EXPECT_EQ(results[i].match_count, expected[i].match_count)
          << e.expected_name << " column " << results[i].column;
    }
  }
}

TEST_F(EngineConformanceTest, MappingsAgreeAcrossIndexEngines) {
  // The engines that honor collect_mappings (pexeso, pexeso-h, naive) must
  // produce identical record-level mappings in every query mode: one entry
  // per matching query record, first matching target vector in store order.
  for (QueryMode mode : {QueryMode::kThreshold, QueryMode::kExactJoinability,
                         QueryMode::kTopK}) {
    JoinQuery options;
    options.thresholds = thresholds_;
    options.mode = mode;
    options.k = 3;
    options.collect_mappings = true;
    const std::string label = "mode=" + std::to_string(static_cast<int>(mode));
    const auto expected = MustSearch(*naive_, query_, options, nullptr);
    ASSERT_FALSE(expected.empty()) << label;
    for (const JoinSearchEngine* e :
         {static_cast<const JoinSearchEngine*>(pexeso_.get()),
          static_cast<const JoinSearchEngine*>(pexeso_h_.get())}) {
      auto results = MustSearch(*e, query_, options, nullptr);
      ASSERT_EQ(results.size(), expected.size()) << label << " " << e->name();
      for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].column, expected[i].column)
            << label << " " << e->name();
        EXPECT_EQ(results[i].match_count, expected[i].match_count)
            << label << " " << e->name();
        EXPECT_FALSE(results[i].mapping.empty()) << label << " " << e->name();
        ASSERT_EQ(results[i].mapping.size(), expected[i].mapping.size())
            << label << " " << e->name() << " column " << results[i].column;
        for (size_t m = 0; m < results[i].mapping.size(); ++m) {
          EXPECT_EQ(results[i].mapping[m].query_index,
                    expected[i].mapping[m].query_index)
              << label << " " << e->name();
          EXPECT_EQ(results[i].mapping[m].target_vec,
                    expected[i].mapping[m].target_vec)
              << label << " " << e->name();
        }
      }
    }
  }
}

TEST_F(EngineConformanceTest, TopKModeWorksOverAnyEngine) {
  JoinQuery topk_query;
  topk_query.mode = QueryMode::kTopK;
  topk_query.thresholds.tau = thresholds_.tau;
  topk_query.k = 3;
  for (const Entry& e : AllEngines()) {
    if (!e.exact) continue;
    auto topk = MustSearch(*e.engine, query_, topk_query);
    ASSERT_LE(topk.size(), 3u) << e.expected_name;
    for (size_t i = 1; i < topk.size(); ++i) {
      EXPECT_GE(topk[i - 1].joinability, topk[i].joinability)
          << e.expected_name;
    }
  }
}

}  // namespace
}  // namespace pexeso
