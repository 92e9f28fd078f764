// The first-class query API: QueryMode::kTopK pushdown parity against the
// legacy verify-everything wrapper across the full engine matrix, and the
// deadline/cancellation controls (a dead query returns promptly with a
// partial-result status, does no verification-tile work, and leaves shared
// pools uncorrupted).

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
#include "common/thread_pool.h"
#include "core/batch_runner.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "core/topk.h"
#include "partition/partitioned_pexeso.h"
#include "serve/serve_session.h"
#include "test_util.h"

namespace pexeso {
namespace {

using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::ResultColumns;

/// What the pre-kTopK wrapper did: relax T to 1, exact-verify EVERY column,
/// rank by joinability (ties by ascending column id), truncate to k. The
/// parity matrix holds every engine's kTopK output to this, bit for bit.
std::vector<JoinableColumn> LegacyWrapperTopK(const JoinSearchEngine& engine,
                                              const VectorStore& query,
                                              double tau, size_t k,
                                              SearchStats* stats = nullptr) {
  JoinQuery options;
  options.thresholds.tau = tau;
  options.thresholds.t_abs = 1;
  options.mode = QueryMode::kExactJoinability;
  std::vector<JoinableColumn> all = MustSearch(engine, query, options, stats);
  std::sort(all.begin(), all.end(),
            [](const JoinableColumn& a, const JoinableColumn& b) {
              if (a.joinability != b.joinability) {
                return a.joinability > b.joinability;
              }
              return a.column < b.column;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectByteIdentical(const std::vector<JoinableColumn>& got,
                         const std::vector<JoinableColumn>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].column, want[i].column) << label << " rank " << i;
    EXPECT_EQ(got[i].match_count, want[i].match_count)
        << label << " rank " << i;
    EXPECT_EQ(got[i].joinability, want[i].joinability)
        << label << " rank " << i;
  }
}

class TopKFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = MakeClusteredCatalog(500, 8, 30, 15);
    query_ = MakeClusteredQuery(500, 8, 20);
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    ColumnCatalog copy = catalog_;
    index_ = std::make_unique<PexesoIndex>(
        PexesoIndex::Build(std::move(copy), &metric_, opts));
  }

  /// Ground truth joinability of every column by brute force.
  std::vector<std::pair<double, ColumnId>> BruteRanking(double tau) const {
    std::vector<std::pair<double, ColumnId>> ranking;
    for (ColumnId col = 0; col < catalog_.num_columns(); ++col) {
      const auto& meta = catalog_.column(col);
      uint32_t matches = 0;
      for (uint32_t q = 0; q < query_.size(); ++q) {
        for (VecId v = meta.first; v < meta.end(); ++v) {
          if (metric_.Dist(query_.View(q), catalog_.store().View(v), 8) <=
              tau) {
            ++matches;
            break;
          }
        }
      }
      ranking.emplace_back(
          static_cast<double>(matches) / static_cast<double>(query_.size()),
          col);
    }
    std::sort(ranking.begin(), ranking.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    return ranking;
  }

  /// Executes a kTopK request and returns the collected columns.
  std::vector<JoinableColumn> RunTopK(const JoinSearchEngine& engine,
                                      double tau, size_t k,
                                      size_t intra_threads = 0,
                                      SearchStats* stats = nullptr) {
    JoinQuery jq;
    jq.vectors = &query_;
    jq.mode = QueryMode::kTopK;
    jq.k = k;
    jq.thresholds.tau = tau;
    jq.intra_query_threads = intra_threads;
    CollectSink sink;
    const Status st = engine.Execute(jq, &sink, stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(sink.status().ok());
    return std::move(sink).TakeColumns();
  }

  L2Metric metric_;
  ColumnCatalog catalog_;
  VectorStore query_;
  std::unique_ptr<PexesoIndex> index_;
};

TEST_F(TopKFixture, TopKMatchesBruteForceRanking) {
  const double tau = 0.12;
  auto truth = BruteRanking(tau);
  PexesoSearcher searcher(index_.get());
  for (size_t k : {1u, 3u, 5u, 10u}) {
    auto topk = RunTopK(searcher, tau, k);
    ASSERT_LE(topk.size(), k);
    for (size_t i = 0; i < topk.size(); ++i) {
      EXPECT_EQ(topk[i].column, truth[i].second) << "rank " << i;
      EXPECT_DOUBLE_EQ(topk[i].joinability, truth[i].first);
    }
  }
}

TEST_F(TopKFixture, TopKIsSortedDescending) {
  PexesoSearcher searcher(index_.get());
  auto topk = RunTopK(searcher, 0.15, 8);
  for (size_t i = 1; i < topk.size(); ++i) {
    EXPECT_GE(topk[i - 1].joinability, topk[i].joinability);
  }
}

TEST_F(TopKFixture, TopKHonorsKSmallerThanMatches) {
  PexesoSearcher searcher(index_.get());
  auto all = RunTopK(searcher, 0.2, 1000);
  if (all.size() >= 2) {
    auto top1 = RunTopK(searcher, 0.2, 1);
    ASSERT_EQ(top1.size(), 1u);
    EXPECT_EQ(top1[0].column, all[0].column);
  }
}

/// The pushdown's reason to exist: fewer exact distance computations than
/// the verify-everything wrapper, with columns abandoned against the bound.
TEST_F(TopKFixture, PushdownPrunesDistanceWork) {
  PexesoSearcher searcher(index_.get());
  const double tau = 0.12;
  SearchStats wrapper_stats;
  auto want = LegacyWrapperTopK(searcher, query_, tau, 1, &wrapper_stats);
  SearchStats topk_stats;
  auto got = RunTopK(searcher, tau, 1, /*intra_threads=*/0, &topk_stats);
  ExpectByteIdentical(got, want, "pruned vs wrapper");
  EXPECT_GT(topk_stats.columns_pruned_topk, 0u);
  EXPECT_LT(topk_stats.distance_computations,
            wrapper_stats.distance_computations);
}

TEST_F(TopKFixture, BatchSearchMatchesSequential) {
  std::vector<VectorStore> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(MakeClusteredQuery(600 + i, 8, 15));
  }
  FractionalThresholds ft{0.07, 0.4};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric_, 8, 15);

  auto batched = SearchBatch(*index_, queries, sopts, 4);
  ASSERT_EQ(batched.size(), queries.size());
  PexesoSearcher searcher(index_.get());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto sequential = MustSearch(searcher, queries[i], sopts, nullptr);
    EXPECT_EQ(ResultColumns(batched[i]), ResultColumns(sequential));
  }
}

TEST_F(TopKFixture, BatchSearchAccumulatesStats) {
  std::vector<VectorStore> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(MakeClusteredQuery(700 + i, 8, 12));
  }
  FractionalThresholds ft{0.07, 0.4};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric_, 8, 12);
  SearchStats stats;
  SearchBatch(*index_, queries, sopts, 2, &stats);
  EXPECT_GT(stats.candidate_pairs + stats.matching_pairs, 0u);
}

// --------------------------------------------------------------------------
// The full-matrix half: every engine in the library, k in {1, 5, |repo|},
// intra-query threads in {1, 4} — kTopK output byte-identical to the legacy
// wrapper, and the deadline/cancellation contract held everywhere.

class QueryApiEngineMatrixTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 12;
  static constexpr uint64_t kSeed = 4100;

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

    parts_dir_ = ::testing::TempDir() + "/topk_matrix_parts";
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

  std::vector<std::pair<const char*, const JoinSearchEngine*>> AllEngines()
      const {
    return {
        {"naive", naive_.get()},
        {"pexeso", pexeso_.get()},
        {"pexeso-h", pexeso_h_.get()},
        {"ctree", ctree_searcher_.get()},
        {"ept", ept_searcher_.get()},
        {"pq", pq_searcher_.get()},
        {"pexeso-part", partitioned_.get()},
    };
  }

  JoinQuery MakeTopK(size_t k, size_t intra_threads) const {
    JoinQuery jq;
    jq.vectors = &query_;
    jq.mode = QueryMode::kTopK;
    jq.k = k;
    jq.thresholds.tau = thresholds_.tau;
    jq.intra_query_threads = intra_threads;
    return jq;
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

TEST_F(QueryApiEngineMatrixTest, TopKParityAcrossEnginesKAndIntraThreads) {
  const size_t num_cols = catalog_.num_columns();
  for (const auto& [name, engine] : AllEngines()) {
    for (size_t k : {size_t{1}, size_t{5}, num_cols}) {
      const auto want = LegacyWrapperTopK(*engine, query_, thresholds_.tau, k);
      for (size_t intra : {size_t{1}, size_t{4}}) {
        JoinQuery jq = MakeTopK(k, intra);
        CollectSink sink;
        const Status st = engine->Execute(jq, &sink, nullptr);
        ASSERT_TRUE(st.ok()) << name << " k=" << k << " intra=" << intra;
        ExpectByteIdentical(sink.columns(), want,
                            std::string(name) + " k=" + std::to_string(k) +
                                " intra=" + std::to_string(intra));
      }
    }
  }
}

TEST_F(QueryApiEngineMatrixTest, PreCancelledQueryDoesNoDistanceWork) {
  CancelToken token = CancelToken::Create();
  token.Cancel();
  for (const auto& [name, engine] : AllEngines()) {
    for (size_t intra : {size_t{1}, size_t{4}}) {
      JoinQuery jq;
      jq.vectors = &query_;
      jq.thresholds = thresholds_;
      jq.intra_query_threads = intra;
      jq.cancel = token;
      SearchStats stats;
      CollectSink sink;
      const Status st = engine->Execute(jq, &sink, &stats);
      EXPECT_EQ(st.code(), Status::Code::kCancelled)
          << name << " intra=" << intra;
      EXPECT_TRUE(st.interrupted());
      EXPECT_EQ(sink.status().code(), st.code()) << name;
      EXPECT_TRUE(sink.columns().empty()) << name;
      EXPECT_EQ(stats.distance_computations, 0u) << name;
      EXPECT_EQ(stats.tiles_evaluated, 0u) << name;
      EXPECT_GE(stats.deadline_expired, 1u) << name;
    }
  }
}

TEST_F(QueryApiEngineMatrixTest, ExpiredDeadlineSkipsVerificationTiles) {
  // The acceptance bar: an already-expired deadline returns a deadline
  // status without executing a single verification tile, at every
  // intra_query_threads setting.
  for (const auto& [name, engine] : AllEngines()) {
    for (size_t intra : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      JoinQuery jq;
      jq.vectors = &query_;
      jq.thresholds = thresholds_;
      jq.intra_query_threads = intra;
      jq.deadline = Deadline::After(-1.0);
      ASSERT_TRUE(jq.deadline.expired());
      SearchStats stats;
      CollectSink sink;
      const Status st = engine->Execute(jq, &sink, &stats);
      EXPECT_EQ(st.code(), Status::Code::kDeadlineExceeded)
          << name << " intra=" << intra;
      EXPECT_TRUE(sink.columns().empty()) << name;
      EXPECT_EQ(stats.tiles_evaluated, 0u) << name << " intra=" << intra;
      EXPECT_EQ(stats.distance_computations, 0u) << name;
      EXPECT_GE(stats.deadline_expired, 1u) << name;
    }
  }
}

TEST_F(QueryApiEngineMatrixTest, CancelledQueryLeavesSharedIntraPoolUsable) {
  // A cancelled intra-parallel query must not wedge or corrupt the shared
  // shard pool: the same pool must then serve a normal sharded search whose
  // results are byte-identical to the serial ones.
  ThreadPool pool(4);
  const auto serial = MustSearch(*pexeso_, query_, thresholds_, nullptr);
  ASSERT_FALSE(serial.empty());

  CancelToken token = CancelToken::Create();
  token.Cancel();
  JoinQuery dead;
  dead.vectors = &query_;
  dead.thresholds = thresholds_;
  dead.intra_query_threads = 4;
  dead.intra_query_pool = &pool;
  dead.cancel = token;
  CollectSink dead_sink;
  EXPECT_EQ(pexeso_->Execute(dead, &dead_sink, nullptr).code(),
            Status::Code::kCancelled);

  JoinQuery alive;
  alive.vectors = &query_;
  alive.thresholds = thresholds_;
  alive.intra_query_threads = 4;
  alive.intra_query_pool = &pool;
  CollectSink alive_sink;
  ASSERT_TRUE(pexeso_->Execute(alive, &alive_sink, nullptr).ok());
  ExpectByteIdentical(alive_sink.columns(), serial,
                      "sharded-after-cancel vs serial");
}

TEST_F(QueryApiEngineMatrixTest, BatchRunnerSkipsCancelledQueriesOnly) {
  // One cancelled request in a batch: its slot reports Cancelled with no
  // results; every other request completes identically to a serial run.
  std::vector<VectorStore> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(MakeClusteredQuery(kSeed + 1 + i, kDim, 12));
  }
  CancelToken token = CancelToken::Create();
  token.Cancel();
  std::vector<JoinQuery> jqs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    jqs[i].vectors = &queries[i];
    jqs[i].thresholds = thresholds_;
    if (i == 1) jqs[i].cancel = token;
  }
  BatchQueryRunner runner(pexeso_.get(), {.num_threads = 4});
  BatchResult batch = runner.Run(jqs);
  ASSERT_EQ(batch.statuses.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == 1) {
      EXPECT_EQ(batch.statuses[i].code(), Status::Code::kCancelled);
      EXPECT_TRUE(batch.results[i].empty());
      continue;
    }
    EXPECT_TRUE(batch.statuses[i].ok()) << i;
    const auto serial = MustSearch(*pexeso_, queries[i], thresholds_, nullptr);
    ExpectByteIdentical(batch.results[i], serial,
                        "batch query " + std::to_string(i));
  }
}

TEST_F(QueryApiEngineMatrixTest, ServeSessionReportsInterruptionAndRecovers) {
  // A pre-cancelled serve query resolves promptly with the interruption
  // status (partial results, here empty) and the session keeps serving:
  // the next query's outcome is byte-identical to the serial oracle.
  serve::ServeSession session(partitioned_.get(), {.num_threads = 2});
  CancelToken token = CancelToken::Create();
  token.Cancel();
  JoinQuery dead;
  dead.vectors = &query_;
  dead.thresholds = thresholds_;
  dead.cancel = token;
  auto dead_future = session.Submit(dead);

  JoinQuery alive;
  alive.vectors = &query_;
  alive.thresholds = thresholds_;
  auto alive_future = session.Submit(alive);

  const auto dead_outcome = dead_future.get();
  EXPECT_EQ(dead_outcome.status.code(), Status::Code::kCancelled);
  EXPECT_TRUE(dead_outcome.results.empty());
  EXPECT_GE(dead_outcome.stats.deadline_expired, 1u);

  const auto alive_outcome = alive_future.get();
  ASSERT_TRUE(alive_outcome.status.ok());
  JoinQuery serial_jq;
  serial_jq.thresholds = thresholds_;
  auto serial =
      ExecuteCollect(*partitioned_, testing::BindQuery(query_, serial_jq));
  ASSERT_TRUE(serial.ok());
  ExpectByteIdentical(alive_outcome.results, serial.value(),
                      "serve after cancel");
}

TEST_F(QueryApiEngineMatrixTest, ServeSessionTopKMatchesWrapper) {
  // kTopK through the per-part serving path (local top-ks + cross-part
  // floor sharing + rank merge) must agree with the wrapper too.
  const auto want =
      LegacyWrapperTopK(*partitioned_, query_, thresholds_.tau, 5);
  serve::ServeSession session(partitioned_.get(), {.num_threads = 3});
  auto future = session.Submit(MakeTopK(5, 0));
  const auto outcome = future.get();
  ASSERT_TRUE(outcome.status.ok());
  ExpectByteIdentical(outcome.results, want, "serve kTopK");
}

}  // namespace
}  // namespace pexeso
