// The live-lake contract: a LakeManager serving queries while columns
// arrive (delta indexes), disappear (tombstones) and compact (generation
// merges) must be indistinguishable — results AND work counters — from a
// from-scratch PEXESO build over the same logical content. The matrix here
// drives both in-memory engines through the pre-merge / mid-merge /
// post-merge lifecycle stages at 1 and 4 intra-query threads, in all three
// query modes. PEXESO being an exact method is what makes this a hard
// equality, not a recall bound.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/searcher.h"
#include "lake/lake_manager.h"
#include "partition/partitioned_pexeso.h"
#include "serve/index_cache.h"
#include "serve/serve_session.h"
#include "test_util.h"

namespace pexeso {
namespace {

using lake::LakeManager;
using lake::LakeOptions;
using serve::IndexCache;
using testing::BindQuery;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::MustSearch;
using testing::ResultColumns;

namespace fs = std::filesystem;

constexpr uint32_t kDim = 8;
constexpr uint32_t kParts = 3;
constexpr uint32_t kColSize = 12;

/// One logical column of the evolving lake: its vectors plus the global id
/// the LakeManager assigned it (base columns get their catalog position).
struct LogicalColumn {
  uint32_t global_id = 0;
  std::vector<float> packed;  // kColSize unit vectors
  uint32_t count = kColSize;
};

ColumnCatalog CatalogSlice(const std::vector<LogicalColumn>& cols) {
  ColumnCatalog catalog(kDim);
  for (const LogicalColumn& col : cols) {
    ColumnMeta meta;
    meta.table_id = col.global_id;
    meta.source_id = col.global_id;
    meta.table_name = "t" + std::to_string(col.global_id);
    meta.column_name = "c0";
    catalog.AddColumn(meta, col.packed.data(), col.count);
  }
  return catalog;
}

/// The lifecycle driver: owns the ground-truth list of live logical columns
/// and replays appends/drops against both the lake under test and the
/// reference model.
class LakeEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/lake_eq_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    opts_.index_options.num_pivots = 4;
    opts_.index_options.levels = 4;
    opts_.delta_freeze_columns = 1000;  // only explicit freezes in this test
    query_ = MakeClusteredQuery(7000, kDim, 14);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Creates the lake over `n` initial columns (assignment id % kParts, the
  /// same routing AppendColumns uses — so the reference partitioner below
  /// is one rule for both populations).
  void CreateLake(uint32_t n) {
    ColumnCatalog seed = MakeClusteredCatalog(7000, kDim, n, kColSize);
    PartitionAssignment assignment(n);
    for (uint32_t c = 0; c < n; ++c) {
      assignment[c] = c % kParts;
      LogicalColumn col;
      col.global_id = c;
      const ColumnMeta& meta = seed.column(c);
      const float* v = seed.store().View(meta.first);
      col.packed.assign(v, v + size_t{meta.count} * kDim);
      live_.push_back(std::move(col));
    }
    auto created = LakeManager::Create(seed, assignment, dir_, &metric_, opts_);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    lake_ = std::move(created).ValueOrDie();
  }

  void Append(uint32_t n, uint64_t seed) {
    ColumnCatalog batch = MakeClusteredCatalog(seed, kDim, n, kColSize);
    std::vector<uint32_t> ids = lake_->AppendColumns(batch);
    ASSERT_EQ(ids.size(), n);
    for (uint32_t c = 0; c < n; ++c) {
      LogicalColumn col;
      col.global_id = ids[c];
      const ColumnMeta& meta = batch.column(c);
      const float* v = batch.store().View(meta.first);
      col.packed.assign(v, v + size_t{meta.count} * kDim);
      live_.push_back(std::move(col));
    }
  }

  void Drop(const std::vector<uint32_t>& ids) {
    lake_->DropColumns(ids);
    for (uint32_t id : ids) {
      live_.erase(std::remove_if(live_.begin(), live_.end(),
                                 [&](const LogicalColumn& c) {
                                   return c.global_id == id;
                                 }),
                  live_.end());
    }
  }

  /// From-scratch reference: per-part indexes over the live columns (in
  /// arrival order, global ids preserved), searched serially and reduced
  /// through the same deterministic mode-aware merge as any engine.
  std::vector<JoinableColumn> ReferenceSearch(
      const JoinQuery& proto, PartitionedPexeso::Engine engine,
      SearchStats* stats = nullptr) const {
    JoinQuery jq = proto;
    jq.vectors = &query_;
    std::vector<JoinableColumn> merged;
    for (uint32_t part = 0; part < kParts; ++part) {
      std::vector<LogicalColumn> part_cols;
      for (const LogicalColumn& col : live_) {
        if (col.global_id % kParts == part) part_cols.push_back(col);
      }
      if (part_cols.empty()) continue;
      PexesoIndex index = PexesoIndex::Build(CatalogSlice(part_cols), &metric_,
                                             opts_.index_options);
      auto chunk = SearchIndexSnapshot(index, jq, engine, stats);
      EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
      auto results = std::move(chunk).ValueOrDie();
      merged.insert(merged.end(), results.begin(), results.end());
    }
    FinishQueryMerge(jq, &merged);
    return merged;
  }

  static void ExpectByteIdentical(const std::vector<JoinableColumn>& got,
                                  const std::vector<JoinableColumn>& want,
                                  const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].column, want[i].column) << label << " rank " << i;
      EXPECT_EQ(got[i].match_count, want[i].match_count)
          << label << " column " << got[i].column;
      EXPECT_DOUBLE_EQ(got[i].joinability, want[i].joinability)
          << label << " column " << got[i].column;
    }
  }

  /// The full engine x mode x thread matrix at ONE lifecycle stage.
  void ExpectStageMatchesReference(const std::string& stage) {
    FractionalThresholds ft{0.10, 0.4};
    for (auto engine : {PartitionedPexeso::Engine::kPexeso,
                        PartitionedPexeso::Engine::kPexesoH}) {
      lake_->set_engine(engine);
      const char* ename =
          engine == PartitionedPexeso::Engine::kPexeso ? "pexeso" : "pexeso-h";
      for (size_t threads : {size_t{1}, size_t{4}}) {
        const std::string label = stage + "/" + ename + "/t" +
                                  std::to_string(threads);
        JoinQuery jq;
        jq.thresholds = ft.Resolve(metric_, kDim, query_.size());
        jq.intra_query_threads = threads;

        // kThreshold: the live column id set must agree (and the stage
        // must not be vacuously empty).
        auto got_ids = ResultColumns(MustSearch(*lake_, query_, jq));
        ASSERT_FALSE(got_ids.empty()) << label;
        EXPECT_EQ(got_ids, ResultColumns(ReferenceSearch(jq, engine)))
            << label;

        // kExactJoinability: full counts, byte-identical order.
        JoinQuery exact = jq;
        exact.mode = QueryMode::kExactJoinability;
        ExpectByteIdentical(MustSearch(*lake_, query_, exact),
                            ReferenceSearch(exact, engine), label + "/exact");

        // kTopK: rank order and scores, byte-identical (the reference runs
        // without cross-part floor pushdown — pruning must not change
        // output).
        JoinQuery topk = jq;
        topk.mode = QueryMode::kTopK;
        topk.k = 5;
        ExpectByteIdentical(MustSearch(*lake_, query_, topk),
                            ReferenceSearch(topk, engine), label + "/topk");
      }
    }
    lake_->set_engine(PartitionedPexeso::Engine::kPexeso);
  }

  std::string dir_;
  L2Metric metric_;
  LakeOptions opts_;
  VectorStore query_{kDim};
  std::unique_ptr<LakeManager> lake_;
  std::vector<LogicalColumn> live_;  // ground truth, arrival order
};

TEST_F(LakeEquivalenceTest, LifecycleMatchesRebuildAcrossEnginesAndThreads) {
  CreateLake(18);

  // --- stage 1: fresh appends + drops, nothing merged (deltas + mask live).
  Append(7, 7000);
  Drop({2, 5, 19});  // two base columns and one appended column
  ExpectStageMatchesReference("pre-merge");

  // --- stage 2: first merge folds that in; then more churn lands on the
  // gen-2 bases, so bases, deltas and tombstones are all non-trivial.
  ASSERT_TRUE(lake_->MergeAll().ok());
  Append(6, 7000);
  Drop({7, 26});
  ExpectStageMatchesReference("mid-merge");

  // --- stage 3: everything compacted; no deltas, no masks left.
  ASSERT_TRUE(lake_->MergeAll().ok());
  ExpectStageMatchesReference("post-merge");
  for (uint32_t part = 0; part < kParts; ++part) {
    auto snap = lake_->Snapshot(part);
    EXPECT_TRUE(snap->deltas.empty()) << part;
    EXPECT_TRUE(snap->tombstones->empty()) << part;
    EXPECT_EQ(snap->generation, 3u) << part;
  }
}

TEST_F(LakeEquivalenceTest, PostMergeCountersEqualFromScratchRebuild) {
  CreateLake(15);
  Append(6, 7000);
  Drop({1, 4, 16});
  ASSERT_TRUE(lake_->MergeAll().ok());

  FractionalThresholds ft{0.10, 0.4};
  JoinQuery jq;
  jq.thresholds = ft.Resolve(metric_, kDim, query_.size());

  SearchStats lake_stats, ref_stats;
  auto got = MustSearch(*lake_, query_, jq, &lake_stats);
  auto want = ReferenceSearch(jq, PartitionedPexeso::Engine::kPexeso,
                              &ref_stats);
  ExpectByteIdentical(got, want, "post-merge counters");

  // A fully-merged lake IS the from-scratch index: identical filtering and
  // verification work, and none of the live-lake counters ticking.
  EXPECT_EQ(lake_stats.distance_computations, ref_stats.distance_computations);
  EXPECT_EQ(lake_stats.candidate_pairs, ref_stats.candidate_pairs);
  EXPECT_EQ(lake_stats.lemma1_filtered, ref_stats.lemma1_filtered);
  EXPECT_EQ(lake_stats.delta_columns_searched, 0u);
  EXPECT_EQ(lake_stats.tombstones_masked, 0u);
}

TEST_F(LakeEquivalenceTest, LiveLakeCountersSurfaceDeltaAndMaskWork) {
  CreateLake(12);
  Append(5, 7000);

  FractionalThresholds ft{0.10, 0.4};
  JoinQuery jq;
  jq.thresholds = ft.Resolve(metric_, kDim, query_.size());

  // Drop two columns that provably match the query, so the mask must fire.
  auto matching = ResultColumns(MustSearch(*lake_, query_, jq));
  ASSERT_GE(matching.size(), 2u);
  Drop({matching[0], matching[1]});

  SearchStats stats;
  auto results = MustSearch(*lake_, query_, jq, &stats);
  // Every unmerged appended column is searched through a delta...
  EXPECT_EQ(stats.delta_columns_searched, 5u);
  // ...and each dropped-but-matching column was found then masked out.
  EXPECT_EQ(stats.tombstones_masked, 2u);
  EXPECT_EQ(ResultColumns(results).size(), matching.size() - 2);
}

TEST_F(LakeEquivalenceTest, BackgroundMergesKeepServingIdenticalResults) {
  // Appends trip the freeze knob while a background pool merges; every
  // concurrently-served query must still return exactly the live content it
  // snapshotted. Run under TSan, this is also the merge/search race check.
  ThreadPool pool(2);
  opts_.merge_pool = &pool;
  opts_.delta_freeze_columns = 2;  // merge eagerly
  CreateLake(12);

  FractionalThresholds ft{0.10, 0.4};
  JoinQuery jq;
  jq.thresholds = ft.Resolve(metric_, kDim, query_.size());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> searches{0};
  std::thread searcher_thread([&] {
    while (!stop.load()) {
      auto results = MustSearch(*lake_, query_, jq);
      // Sanity under race: ids are well-formed and unique.
      auto ids = ResultColumns(results);
      EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
      searches.fetch_add(1);
    }
  });
  for (int batch = 0; batch < 8; ++batch) {
    Append(3, 7000);
    if (batch == 4) Drop({live_[2].global_id, live_.back().global_id});
  }
  ASSERT_TRUE(lake_->WaitForMerges().ok());
  stop.store(true);
  searcher_thread.join();
  EXPECT_GT(searches.load(), 0u);

  // Quiesced: the churned lake equals the rebuild again.
  ASSERT_TRUE(lake_->MergeAll().ok());
  ExpectByteIdentical(MustSearch(*lake_, query_, jq),
                      ReferenceSearch(jq, PartitionedPexeso::Engine::kPexeso),
                      "after background churn");
}

TEST_F(LakeEquivalenceTest, AcquiredPartSurvivesMergeAndCacheKeepsOldGen) {
  IndexCache cache({.budget_bytes = size_t{1} << 30});
  CreateLake(12);
  lake_->AttachCache(&cache);

  FractionalThresholds ft{0.10, 0.4};
  JoinQuery jq;
  jq.thresholds = ft.Resolve(metric_, kDim, query_.size());
  jq.vectors = &query_;

  // Acquire part 0 at generation 1 — loads its base through the cache.
  auto handle = lake_->AcquirePart(0, nullptr);
  ASSERT_TRUE(handle.ok());
  SearchStats s1;
  auto before = lake_->SearchPart(0, jq, &s1, nullptr, handle.value());
  ASSERT_TRUE(before.ok());
  const size_t entries_gen1 = cache.stats().entries;
  EXPECT_GT(entries_gen1, 0u);

  // Churn + merge: part 0 moves to generation 2 under a DIFFERENT cache key.
  Append(6, 7000);
  Drop({0});
  ASSERT_TRUE(lake_->MergeAll().ok());
  EXPECT_EQ(lake_->generation(0), 2u);

  // The pre-merge handle still searches the generation-1 view, IO-free —
  // column 0 is still visible through it, and the old cache entry was never
  // invalidated (it ages out by LRU, not by merge).
  auto after = lake_->SearchPart(0, jq, nullptr, nullptr, handle.value());
  ASSERT_TRUE(after.ok());
  ExpectByteIdentical(after.value(), before.value(), "old-gen handle");

  // A fresh search loads generation 2 as a NEW entry alongside the old one.
  SearchStats s2;
  auto fresh = lake_->SearchPart(0, jq, &s2, nullptr, nullptr);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(cache.stats().entries, entries_gen1);
  for (const auto& jc : fresh.value()) EXPECT_NE(jc.column, 0u);

  // Both generation files exist until Vacuum reclaims the superseded one.
  EXPECT_TRUE(fs::exists(lake_->PartPath(0, 1)));
  EXPECT_TRUE(fs::exists(lake_->PartPath(0, 2)));
  ASSERT_TRUE(lake_->Vacuum().ok());
  EXPECT_FALSE(fs::exists(lake_->PartPath(0, 1)));
  EXPECT_TRUE(fs::exists(lake_->PartPath(0, 2)));
}

TEST_F(LakeEquivalenceTest, ReopenedLakeServesMergedContent) {
  CreateLake(14);
  Append(5, 7000);
  Drop({3, 15});
  ASSERT_TRUE(lake_->MergeAll().ok());

  FractionalThresholds ft{0.10, 0.4};
  JoinQuery jq;
  jq.thresholds = ft.Resolve(metric_, kDim, query_.size());
  auto before = MustSearch(*lake_, query_, jq);

  lake_.reset();  // durability = the merge; reopen from MANIFEST
  auto reopened = LakeManager::Open(dir_, &metric_, opts_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  lake_ = std::move(reopened).ValueOrDie();

  ExpectByteIdentical(MustSearch(*lake_, query_, jq), before, "reopened");

  // Appended ids keep advancing from the persisted next_id watermark.
  ColumnCatalog one = MakeClusteredCatalog(7000, kDim, 1, kColSize);
  auto ids = lake_->AppendColumns(one);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 19u);
}

TEST_F(LakeEquivalenceTest, ServeSessionDrivesLiveLake) {
  // The lake is a PartitionedJoinEngine: the async serving layer must reduce
  // its per-part chunks to the same answer as the direct Execute path, with
  // deltas and tombstones in play.
  CreateLake(12);
  Append(5, 7000);
  Drop({1, 13});

  FractionalThresholds ft{0.10, 0.4};
  JoinQuery jq;
  jq.thresholds = ft.Resolve(metric_, kDim, query_.size());
  auto direct = MustSearch(*lake_, query_, jq);

  serve::ServeSession session(lake_.get(), {.num_threads = 2});
  auto future = session.Submit(BindQuery(query_, jq));
  auto outcome = future.get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  ExpectByteIdentical(outcome.results, direct, "serve vs direct");
  EXPECT_GT(outcome.stats.delta_columns_searched, 0u);
}

}  // namespace
}  // namespace pexeso
