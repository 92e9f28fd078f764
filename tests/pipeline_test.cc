// Determinism and correctness suite for the staged verification pipeline
// (src/core/verify_pipeline.{h,cc}): the column-sharded tiled search must
// return byte-identical results to its own serial execution at every
// intra-query thread count, across every lemma-ablation combination, with
// exact-joinability mode on and off, and with record-mapping collection — and the whole thing must agree with a
// brute-force scalar oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/pexeso_h.h"
#include "common/thread_pool.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "core/verify_pipeline.h"
#include "invindex/inverted_index.h"
#include "test_util.h"
#include "vec/kernels.h"
#include "vec/metric.h"

namespace pexeso {
namespace {

using testing::KernelFreeL2Metric;
using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;

/// The built-in metrics by name, plus "l2-kernel-free": L2 without kernels,
/// which drives every verification loop down its per-pair fallback.
std::unique_ptr<Metric> MakeTestMetric(const std::string& name) {
  if (name == "l2-kernel-free") return std::make_unique<KernelFreeL2Metric>();
  return MakeMetric(name);
}

/// Brute-force join with exact counts and first-match mappings, spelled out
/// with the double-accumulating virtual Metric::Dist oracle.
std::vector<JoinableColumn> OracleJoin(const ColumnCatalog& catalog,
                                       const Metric& metric,
                                       const VectorStore& query,
                                       const SearchThresholds& t,
                                       bool with_mappings) {
  const VectorStore& rstore = catalog.store();
  const uint32_t dim = rstore.dim();
  std::vector<JoinableColumn> out;
  for (ColumnId col = 0; col < catalog.num_columns(); ++col) {
    const ColumnMeta& meta = catalog.column(col);
    JoinableColumn jc;
    jc.column = col;
    for (uint32_t q = 0; q < query.size(); ++q) {
      for (VecId v = meta.first; v < meta.end(); ++v) {
        if (metric.Dist(query.View(q), rstore.View(v), dim) <= t.tau) {
          ++jc.match_count;
          if (with_mappings) jc.mapping.push_back(RecordMatch{q, v});
          break;
        }
      }
    }
    if (jc.match_count >= std::max<uint32_t>(1, t.t_abs)) {
      jc.joinability = static_cast<double>(jc.match_count) /
                       static_cast<double>(query.size());
      out.push_back(std::move(jc));
    }
  }
  return out;
}

void ExpectByteIdentical(const std::vector<JoinableColumn>& a,
                         const std::vector<JoinableColumn>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].column, b[i].column) << label;
    EXPECT_EQ(a[i].match_count, b[i].match_count) << label;
    EXPECT_EQ(a[i].joinability, b[i].joinability) << label;
    ASSERT_EQ(a[i].mapping.size(), b[i].mapping.size()) << label;
    for (size_t m = 0; m < a[i].mapping.size(); ++m) {
      EXPECT_EQ(a[i].mapping[m].query_index, b[i].mapping[m].query_index)
          << label;
      EXPECT_EQ(a[i].mapping[m].target_vec, b[i].mapping[m].target_vec)
          << label;
    }
  }
}

/// Counter fields must be identical at any intra-query thread count. The
/// *_seconds fields are wall-clock and shard_max_blocks is the (thread-count
/// dependent) imbalance diagnostic, so both stay out of the comparison.
void ExpectSameCounters(const SearchStats& a, const SearchStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.distance_computations, b.distance_computations) << label;
  EXPECT_EQ(a.sqrt_free_comparisons, b.sqrt_free_comparisons) << label;
  EXPECT_EQ(a.lemma1_filtered, b.lemma1_filtered) << label;
  EXPECT_EQ(a.cells_filtered, b.cells_filtered) << label;
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs) << label;
  EXPECT_EQ(a.lemma7_kills, b.lemma7_kills) << label;
  EXPECT_EQ(a.early_joinable, b.early_joinable) << label;
  EXPECT_EQ(a.candidate_blocks, b.candidate_blocks) << label;
  EXPECT_EQ(a.tiles_evaluated, b.tiles_evaluated) << label;
}

std::vector<ColumnId> Columns(const std::vector<JoinableColumn>& r) {
  std::vector<ColumnId> out;
  for (const auto& jc : r) out.push_back(jc.column);
  return out;
}

class PipelineDeterminismTest : public ::testing::TestWithParam<const char*> {
};

/// The acceptance matrix: serial pipeline == sharded pipeline at 1/2/8
/// intra-query threads, across the lemma-ablation lattice, exact joinability
/// on/off and with mapping collection — and the serial run matches the
/// brute-force oracle.
TEST_P(PipelineDeterminismTest, ShardedEqualsSerialAcrossAblations) {
  auto metric = MakeTestMetric(GetParam());
  ASSERT_NE(metric, nullptr);
  const uint32_t dim = 17;  // odd: exercises SIMD remainder lanes end to end
  ColumnCatalog catalog = MakeClusteredCatalog(77, dim, 28, 14);
  VectorStore query = MakeClusteredQuery(77, dim, 20);
  FractionalThresholds ft{0.08, 0.4};

  PexesoOptions popts;
  popts.num_pivots = 4;
  popts.levels = 4;
  ColumnCatalog copy = catalog;
  PexesoIndex index = PexesoIndex::Build(std::move(copy), metric.get(), popts);
  PexesoSearcher searcher(&index);

  for (bool use_l1 : {true, false}) {
    for (bool use_l7 : {true, false}) {
      for (bool exact : {false, true}) {
        for (bool mappings : {false, true}) {
          JoinQuery sopts;
          sopts.thresholds = ft.Resolve(*metric, dim, query.size());
          sopts.ablation.use_lemma1 = use_l1;
          sopts.ablation.use_lemma7 = use_l7;
          sopts.mode =
              exact ? QueryMode::kExactJoinability : QueryMode::kThreshold;
          sopts.collect_mappings = mappings;
          const std::string label =
              std::string(GetParam()) + " l1=" + std::to_string(use_l1) +
              " l7=" + std::to_string(use_l7) +
              " exact=" + std::to_string(exact) +
              " map=" + std::to_string(mappings);

          SearchStats serial_stats;
          const auto serial = MustSearch(searcher, query, sopts, &serial_stats);

          // Oracle agreement: the joinable set is always identical; the
          // counts are exact whenever the search reports exact counts
          // (exact mode, or mappings, which run verification exactly).
          const auto oracle = OracleJoin(catalog, *metric, query,
                                         sopts.thresholds, mappings);
          ASSERT_EQ(Columns(serial), Columns(oracle)) << label;
          if (exact || mappings) {
            for (size_t i = 0; i < serial.size(); ++i) {
              EXPECT_EQ(serial[i].match_count, oracle[i].match_count) << label;
            }
          }
          if (mappings) {
            ExpectByteIdentical(serial, oracle, label + " vs oracle");
          }

          for (size_t threads : {1, 2, 8}) {
            JoinQuery topts = sopts;
            topts.intra_query_threads = threads;
            SearchStats tstats;
            const auto threaded = MustSearch(searcher, query, topts, &tstats);
            const std::string at =
                label + " threads=" + std::to_string(threads);
            ExpectByteIdentical(threaded, serial, at);
            ExpectSameCounters(tstats, serial_stats, at);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, PipelineDeterminismTest,
                         ::testing::Values("l2", "cosine", "l1",
                                           "l2-kernel-free"));

TEST(PipelineTest, SharedIntraPoolMatchesTransientPool) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(78, 12, 30, 16);
  VectorStore query = MakeClusteredQuery(78, 12, 24);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);

  FractionalThresholds ft{0.08, 0.4};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, 12, query.size());
  sopts.collect_mappings = true;
  const auto serial = MustSearch(searcher, query, sopts, nullptr);

  // Transient pool (no intra_query_pool) vs a caller-provided shared pool
  // driven through a TaskGroup: same results either way.
  sopts.intra_query_threads = 4;
  const auto transient = MustSearch(searcher, query, sopts, nullptr);
  ThreadPool shared(4);
  sopts.intra_query_pool = &shared;
  const auto pooled = MustSearch(searcher, query, sopts, nullptr);
  ExpectByteIdentical(transient, serial, "transient pool");
  ExpectByteIdentical(pooled, serial, "shared pool");
}

/// Mapping work is verification work: it lands in the same counters.
TEST(PipelineTest, CollectMappingsRoutesStatsThroughSearchCounters) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(79, 10, 25, 15);
  VectorStore query = MakeClusteredQuery(79, 10, 20);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  FractionalThresholds ft{0.08, 0.3};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, 10, query.size());

  SearchStats without;
  const auto r0 = MustSearch(searcher, query, sopts, &without);
  ASSERT_FALSE(r0.empty());
  sopts.collect_mappings = true;
  SearchStats with;
  const auto r1 = MustSearch(searcher, query, sopts, &with);
  ASSERT_FALSE(r1.empty());
  // With mappings, stage 2 resolves every block of each joinable column
  // instead of stopping once the column reaches T, so both counters must
  // strictly grow.
  EXPECT_GT(with.distance_computations, without.distance_computations);
  EXPECT_GT(with.lemma1_filtered, without.lemma1_filtered);
}

/// Mapping work is verification work, so its wall time must land in
/// verify_seconds on both index engines. The kernel-free metric sleeps in
/// every Dist call, which bounds the phase from below by its distance
/// count: with mappings, verify_seconds covers at least the extra distances
/// mappings cost.
TEST(PipelineTest, MappingTimeIsChargedToVerifySeconds) {
  constexpr int kDelayUs = 50;
  KernelFreeL2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(84, 10, 25, 15);
  VectorStore query = MakeClusteredQuery(84, 10, 40);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  metric.set_dist_delay_us(kDelayUs);  // after the build: searches only
  PexesoSearcher pexeso(&index);
  PexesoHSearcher pexeso_h(&index);
  // A low T stops verification after a few matches per column; with
  // mappings, every query record of each result column is resolved.
  FractionalThresholds ft{0.08, 0.05};
  for (const JoinSearchEngine* engine :
       {static_cast<const JoinSearchEngine*>(&pexeso),
        static_cast<const JoinSearchEngine*>(&pexeso_h)}) {
    JoinQuery jq;
    jq.thresholds = ft.Resolve(metric, 10, query.size());
    SearchStats without;
    MustSearch(*engine, query, jq, &without);
    jq.collect_mappings = true;
    SearchStats with;
    ASSERT_FALSE(MustSearch(*engine, query, jq, &with).empty())
        << engine->name();
    ASSERT_GT(with.distance_computations, without.distance_computations)
        << engine->name();
    const uint64_t extra =
        with.distance_computations - without.distance_computations;
    EXPECT_GE(with.verify_seconds, static_cast<double>(extra) * kDelayUs * 1e-6)
        << engine->name() << ": " << extra << " mapping distances, "
        << without.distance_computations << " verification distances";
  }
}

/// A catalog and a query column drawn around the same centers.
struct TestLake {
  ColumnCatalog catalog;
  VectorStore query;
};

/// Columns of `col_sizes` vectors and a query of `num_q` records drawn
/// around one center, so every record has Lemma-1 survivors in each column.
TestLake MakeOneClusterLake(uint64_t seed, uint32_t dim,
                                  const std::vector<uint32_t>& col_sizes,
                                  uint32_t num_q, double sigma) {
  Rng rng(seed);
  std::vector<float> center;
  testing::RandomUnitVector(&rng, dim, &center);
  TestLake lake{ColumnCatalog(dim), VectorStore(dim)};
  for (uint32_t size : col_sizes) {
    std::vector<float> packed;
    for (uint32_t r = 0; r < size; ++r) {
      const auto v = testing::Perturb(&rng, center, sigma);
      packed.insert(packed.end(), v.begin(), v.end());
    }
    lake.catalog.AddColumn(ColumnMeta{}, packed.data(), size);
  }
  for (uint32_t r = 0; r < num_q; ++r) {
    lake.query.Add(testing::Perturb(&rng, center, sigma));
  }
  return lake;
}

/// Column `col` with its record mapping, as a search of `index` that
/// collects mappings returns it.
JoinableColumn MapOneColumn(const PexesoIndex& index, const VectorStore& query,
                            ColumnId col, JoinQuery jq, SearchStats* stats) {
  jq.collect_mappings = true;
  for (JoinableColumn& jc :
       MustSearch(PexesoSearcher(&index), query, jq, stats)) {
    if (jc.column == col) return jc;
  }
  ADD_FAILURE() << "column " << col << " is not joinable";
  return JoinableColumn{};
}

/// Algorithm 2 on column `col` of `index`, spelled out with the virtual
/// Metric::Dist oracle: each record walks the column in VecId order up to
/// its first match, testing Lemma 1 on each pair it reaches and computing a
/// distance for each survivor.
struct Algorithm2Pairs {
  uint64_t read = 0;              ///< distances computed
  uint64_t reached_filtered = 0;  ///< Lemma-1 failures before a match
  uint64_t mask_filtered = 0;     ///< Lemma-1 failures over the whole column
  uint64_t matched = 0;
  uint32_t live_rows = 0;         ///< records with a Lemma-1 survivor
  uint32_t union_size = 0;        ///< vectors that survive for some record
  std::vector<RecordMatch> want;
};

Algorithm2Pairs SpellOutAlgorithm2(const PexesoIndex& index,
                                   const Metric& metric,
                                   const VectorStore& query, ColumnId col,
                                   double tau) {
  const uint32_t np = index.pivots().num_pivots();
  const std::vector<double> mapped_q =
      index.pivots().MapAll(query.raw().data(), query.size());
  const ColumnMeta& meta = index.catalog().column(col);
  Algorithm2Pairs a;
  std::vector<bool> in_union(meta.count, false);
  for (uint32_t q = 0; q < query.size(); ++q) {
    bool found = false, live = false;
    for (VecId v = meta.first; v < meta.end(); ++v) {
      const double* mx = index.MappedVec(v);
      bool out = false;
      for (uint32_t p = 0; p < np; ++p) {
        out |= std::fabs(mapped_q[q * np + p] - mx[p]) > tau;
      }
      a.mask_filtered += out;
      live |= !out;
      if (!out) in_union[v - meta.first] = true;
      if (found) continue;  // past the first match: no pair is reached
      if (out) {
        ++a.reached_filtered;
        continue;
      }
      ++a.read;
      if (metric.Dist(query.View(q), index.catalog().store().View(v),
                      query.dim()) <= tau) {
        ++a.matched;
        found = true;
        a.want.push_back(RecordMatch{q, v});
      }
    }
    a.live_rows += live;
  }
  for (bool u : in_union) a.union_size += u;
  return a;
}

void ExpectMapping(const JoinableColumn& jc,
                   const std::vector<RecordMatch>& want,
                   const std::string& label) {
  ASSERT_EQ(jc.mapping.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(jc.mapping[i].query_index, want[i].query_index) << label;
    EXPECT_EQ(jc.mapping[i].target_vec, want[i].target_vec) << label;
  }
}

/// A group of no more pairs than one dense 8x8 block is resolved pair by
/// pair, as Algorithm 2 does: each record tests Lemma 1 on the pairs it
/// reaches up to its first match and computes a distance for each survivor,
/// and no tile runs.
TEST(PipelineTest, SubBlockSweepCountsExactlyThePairsRead) {
  for (const char* name : {"l2", "l1", "cosine", "l2-kernel-free"}) {
    auto metric = MakeTestMetric(name);
    TestLake lake = MakeOneClusterLake(85, 8, {12}, 5, 0.08);
    PexesoOptions popts;
    popts.num_pivots = 3;
    popts.levels = 3;
    PexesoIndex index =
        PexesoIndex::Build(std::move(lake.catalog), metric.get(), popts);
    const VectorStore& query = lake.query;
    const ColumnMeta& meta = index.catalog().column(0);
    ASSERT_LE(query.size() * meta.count, 64u);  // one group, under a block
    JoinQuery jq;
    jq.thresholds.tau = 0.12 * metric->MaxUnitDistance(8);
    const RangePredicate pred(*metric, jq.thresholds.tau);
    const Algorithm2Pairs a =
        SpellOutAlgorithm2(index, *metric, query, 0, jq.thresholds.tau);
    // Not vacuous: Lemma 1 filters before a match, a survivor misses, some
    // record matches, and a whole-column mask would count more.
    ASSERT_GT(a.reached_filtered, 0u) << name;
    ASSERT_GT(a.mask_filtered, a.reached_filtered) << name;
    ASSERT_GT(a.read, a.matched) << name;
    ASSERT_GT(a.matched, 0u) << name;

    SearchStats stats;
    const JoinableColumn jc = MapOneColumn(index, query, 0, jq, &stats);
    EXPECT_EQ(stats.distance_computations, a.read) << name;
    EXPECT_EQ(stats.sqrt_free_comparisons, a.read * pred.sqrt_saved())
        << name;
    EXPECT_EQ(stats.lemma1_filtered, a.reached_filtered) << name;
    EXPECT_EQ(stats.tiles_evaluated, 0u) << name;
    ExpectMapping(jc, a.want, name);
  }
}

/// A group of more pairs than one dense block that Lemma 1 shrinks to no
/// more than one: the Lemma-1 mask covers the whole group, and the
/// survivors take the same per-row loop as a sub-block group, so the
/// distances are again exactly Algorithm 2's pairs and no tile runs. Lemma 1
/// tests every pair of the mask but counts, as Algorithm 2 does, only the
/// failures a record reaches before its first match.
TEST(PipelineTest, GroupThatLemma1ShrinksToOneBlockReadsPairByPair) {
  constexpr uint32_t kDim = 8;
  for (const char* name : {"l2", "l1", "cosine"}) {
    auto metric = MakeMetric(name);
    // One column in one leaf cell: a few vectors near the query records
    // and many that Lemma 1 separates from them.
    Rng rng(89);
    std::vector<float> center;
    testing::RandomUnitVector(&rng, kDim, &center);
    TestLake lake{ColumnCatalog(kDim), VectorStore(kDim)};
    std::vector<float> packed;
    for (uint32_t r = 0; r < 48; ++r) {
      const auto v = testing::Perturb(&rng, center, r < 8 ? 0.03 : 0.12);
      packed.insert(packed.end(), v.begin(), v.end());
    }
    lake.catalog.AddColumn(ColumnMeta{}, packed.data(), 48);
    for (uint32_t r = 0; r < 2; ++r) {
      lake.query.Add(testing::Perturb(&rng, center, 0.03));
    }
    PexesoOptions popts;
    popts.num_pivots = 1;
    popts.levels = 1;
    PexesoIndex index =
        PexesoIndex::Build(std::move(lake.catalog), metric.get(), popts);
    const VectorStore& query = lake.query;
    JoinQuery jq;
    jq.thresholds.tau = 0.04 * metric->MaxUnitDistance(kDim);
    const RangePredicate pred(*metric, jq.thresholds.tau);
    const Algorithm2Pairs a =
        SpellOutAlgorithm2(index, *metric, query, 0, jq.thresholds.tau);

    // The group's shape: one posting holds the whole column, so every
    // record shares one range list; more pairs than a block, fewer than a
    // block after Lemma 1.
    const InvertedIndex& inv = index.inverted_index();
    uint32_t postings = 0;
    for (uint32_t cell = 0; cell < inv.num_cells(); ++cell) {
      for (const InvertedIndex::Posting& p : inv.PostingsOf(cell)) {
        postings += p.column == 0;
      }
    }
    ASSERT_EQ(postings, 1u) << name;
    ASSERT_GT(query.size() * index.catalog().column(0).count, 64u) << name;
    ASSERT_LE(a.live_rows * a.union_size, 64u) << name;
    ASSERT_GT(a.mask_filtered, a.reached_filtered) << name;
    ASSERT_GT(a.matched, 0u) << name;

    SearchStats stats;
    const JoinableColumn jc = MapOneColumn(index, query, 0, jq, &stats);
    EXPECT_EQ(stats.distance_computations, a.read) << name;
    EXPECT_EQ(stats.sqrt_free_comparisons, a.read * pred.sqrt_saved())
        << name;
    EXPECT_EQ(stats.lemma1_filtered, a.reached_filtered) << name;
    EXPECT_EQ(stats.tiles_evaluated, 0u) << name;
    ExpectMapping(jc, a.want, name);
  }
}

/// A record's first witness does not depend on the sweep's shape: the same
/// records mapped alone (a sub-block group, pair by pair) and among enough
/// others to fill dense tiles name the same vectors.
TEST(PipelineTest, FirstWitnessIsTheSameInSubBlockAndDenseSweeps) {
  for (const char* name : {"l2", "l1", "cosine"}) {
    auto metric = MakeTestMetric(name);
    TestLake lake = MakeOneClusterLake(86, 8, {40}, 12, 0.08);
    PexesoOptions popts;
    popts.num_pivots = 3;
    popts.levels = 3;
    PexesoIndex index =
        PexesoIndex::Build(std::move(lake.catalog), metric.get(), popts);
    VectorStore small(8);
    small.Add(std::vector<float>(lake.query.View(0), lake.query.View(0) + 8));
    JoinQuery jq;
    jq.thresholds.tau = 0.1 * metric->MaxUnitDistance(8);
    SearchStats dense_stats, small_stats;
    const JoinableColumn dense =
        MapOneColumn(index, lake.query, 0, jq, &dense_stats);
    const JoinableColumn alone = MapOneColumn(index, small, 0, jq,
                                              &small_stats);
    EXPECT_GT(dense_stats.tiles_evaluated, 0u)
        << name << ": the full query must fill a dense tile";
    EXPECT_EQ(small_stats.tiles_evaluated, 0u)
        << name << ": one record against 40 vectors is under a block";
    ASSERT_EQ(alone.mapping.size(), 1u) << name;
    ASSERT_FALSE(dense.mapping.empty()) << name;
    ASSERT_EQ(dense.mapping[0].query_index, 0u) << name;
    EXPECT_EQ(alone.mapping[0].target_vec, dense.mapping[0].target_vec)
        << name;
    // Not vacuous: the witness is not simply the column's first vector.
    EXPECT_GT(alone.mapping[0].target_vec, index.catalog().column(0).first)
        << name;
  }
}

/// Regression for the Lemma-7 batch headroom clamp: an unreachable T
/// (t_abs > |Q|) kills every column on its first mismatch; the batched
/// state machine must take pairs one at a time there, not underflow.
TEST(PipelineTest, UnreachableThresholdIsSafeAtAnyThreadCount) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(80, 8, 15, 10);
  VectorStore query = MakeClusteredQuery(80, 8, 12);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds.tau = 0.08;
  sopts.thresholds.t_abs = static_cast<uint32_t>(query.size()) + 5;
  SearchStats s1, s8;
  const auto serial = MustSearch(searcher, query, sopts, &s1);
  EXPECT_TRUE(serial.empty());
  sopts.intra_query_threads = 8;
  const auto threaded = MustSearch(searcher, query, sopts, &s8);
  EXPECT_TRUE(threaded.empty());
  ExpectSameCounters(s8, s1, "unreachable T");
}

/// Blocking exactly as the searcher runs it, then stage 1 with no Lemma-7
/// floor: every (record, column) block blocking finds.
CandidateSet StageOne(const PexesoIndex& index, const VectorStore& query,
                      double tau, SearchStats* stats) {
  const std::vector<double> mapped_q =
      index.pivots().MapAll(query.raw().data(), query.size());
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  GridBlocker blocker(&index.grid());
  const BlockResult blocks =
      blocker.Run(mapped_q.data(), num_q, tau, AblationConfig{}, stats);
  CandidateSet cands;
  VerifyPipeline(&index).GenerateCandidates(blocks, num_q, 0, &cands, stats);
  return cands;
}

/// Each record's candidate cells and the candidate-pair count of the
/// paper's blocking, spelled out as the simultaneous descent over a query
/// grid HGQ and HGRV (Algorithm 1 with Lemmas 3/4, plus quick browsing).
struct ReferenceBlocks {
  std::vector<std::vector<uint32_t>> cells;
  uint64_t candidate_pairs = 0;
};

ReferenceBlocks CellPairBlocking(const HierarchicalGrid& rgrid,
                                 const std::vector<double>& mapped_q,
                                 double tau, const AblationConfig& ablation) {
  const uint32_t np = rgrid.num_pivots();
  const uint32_t m = rgrid.levels();
  const size_t num_q = mapped_q.size() / np;
  HierarchicalGrid hgq;
  HierarchicalGrid::Options gopts;
  gopts.levels = m;
  hgq.Build(mapped_q.data(), num_q, np, rgrid.extent(), gopts);
  ReferenceBlocks out;
  out.cells.assign(num_q, {});
  const auto emit = [&](VecId q, uint32_t cell) {
    out.cells[q].push_back(cell);
    ++out.candidate_pairs;
  };
  if (ablation.use_quick_browsing) {
    // Leaf cells of HGQ and HGRV with the same coordinates.
    for (const auto& lq : hgq.LeafCells()) {
      const int64_t rcell = rgrid.FindLeaf(lq.coords);
      if (rcell < 0) continue;
      for (VecId q : lq.items) emit(q, static_cast<uint32_t>(rcell));
    }
  }
  std::function<void(uint32_t, uint32_t, uint32_t)> block =
      [&](uint32_t l, uint32_t cq, uint32_t cr) {
        const auto& qcell = hgq.CellsAtLevel(l)[cq];
        const auto& rcell = rgrid.CellsAtLevel(l)[cr];
        if (l == m) {
          if (ablation.use_quick_browsing && qcell.coords == rcell.coords) {
            return;  // already emitted by quick browsing
          }
          for (VecId q : qcell.items) {
            const double* x = mapped_q.data() + size_t{q} * np;
            bool separated = false;  // Lemma 3
            for (uint32_t i = 0; ablation.use_lemma34 && i < np; ++i) {
              if (rgrid.CellLower(l, rcell, i) > x[i] + tau ||
                  rgrid.CellUpper(l, rcell, i) < x[i] - tau) {
                separated = true;
                break;
              }
            }
            if (!separated) emit(q, cr);
          }
          return;
        }
        for (uint32_t i = 0; ablation.use_lemma34 && i < np; ++i) {
          // Lemma 4, the box-box form.
          if (rgrid.CellLower(l, rcell, i) > hgq.CellUpper(l, qcell, i) + tau ||
              rgrid.CellUpper(l, rcell, i) < hgq.CellLower(l, qcell, i) - tau) {
            return;
          }
        }
        for (uint32_t qchild : qcell.children) {
          for (uint32_t rchild : rcell.children) block(l + 1, qchild, rchild);
        }
      };
  for (uint32_t cq = 0; cq < hgq.CellsAtLevel(1).size(); ++cq) {
    for (uint32_t cr = 0; cr < rgrid.CellsAtLevel(1).size(); ++cr) {
      block(1, cq, cr);
    }
  }
  return out;
}

/// The per-record descent emits, for every record, the cells of the
/// HGQ x HGRV cell-pair descent in the same order, and the same number of
/// candidate pairs: over 1-9 pivots, 1-6 levels, three metrics (the L1
/// extent makes cell bounds rounded products), taus from 0 past the extent,
/// every ablation switch, and records on a cell boundary and just above the
/// extent.
TEST(PipelineTest, BlockingMatchesTheCellPairDescent) {
  constexpr uint32_t kDim = 12;
  uint64_t seed = 900;
  for (const char* metric_name : {"l2", "cosine", "l1"}) {
    const std::unique_ptr<Metric> metric = MakeMetric(metric_name);
    for (uint32_t np : {1u, 2u, 5u, 9u}) {
      for (uint32_t levels = 1; levels <= 6; ++levels) {
        ++seed;
        PexesoOptions popts;
        popts.num_pivots = np;
        popts.levels = levels;
        const PexesoIndex index = PexesoIndex::Build(
            MakeClusteredCatalog(seed, kDim, 12, 10), metric.get(), popts);
        const HierarchicalGrid& grid = index.grid();
        const uint32_t gp = grid.num_pivots();
        const VectorStore query = MakeClusteredQuery(seed, kDim, 24);
        std::vector<double> mapped_q =
            index.pivots().MapAll(query.raw().data(), query.size());
        const double extent = grid.extent();
        const double leaf_side = grid.CellSide(levels);
        // A record on leaf-cell boundaries, and one just above the extent.
        for (uint32_t j = 0; j < gp; ++j) {
          mapped_q.push_back(((3 * j + 1) % (1u << levels)) * leaf_side);
        }
        for (uint32_t j = 0; j < gp; ++j) {
          mapped_q.push_back(extent * (1.0 + 1e-9));
        }
        const uint32_t num_q = static_cast<uint32_t>(mapped_q.size() / gp);
        for (double tau : {0.0, 0.5 * leaf_side, leaf_side, 1.5 * leaf_side,
                           extent}) {
          for (int combo = 0; combo < 4; ++combo) {
            AblationConfig ablation;
            ablation.use_lemma34 = (combo & 1) != 0;
            ablation.use_quick_browsing = (combo & 2) != 0;
            SCOPED_TRACE(std::string(metric_name) + " np=" +
                         std::to_string(gp) + " m=" + std::to_string(levels) +
                         " tau=" + std::to_string(tau) +
                         " combo=" + std::to_string(combo));
            const ReferenceBlocks want =
                CellPairBlocking(grid, mapped_q, tau, ablation);
            SearchStats stats;
            const BlockResult got = GridBlocker(&grid).Run(
                mapped_q.data(), num_q, tau, ablation, &stats);
            ASSERT_EQ(got.offsets.size(), size_t{num_q} + 1);
            EXPECT_EQ(got.offsets.back(), got.cells.size());
            for (uint32_t q = 0; q < num_q; ++q) {
              const auto cells = got.CellsOf(q);
              ASSERT_EQ(std::vector<uint32_t>(cells.begin(), cells.end()),
                        want.cells[q])
                  << "record " << q;
            }
            EXPECT_EQ(stats.candidate_pairs, want.candidate_pairs);
          }
        }
      }
    }
  }
}

/// Structural invariants of stage 1: CSR grouping by column with each
/// column's pairs in ascending query order, and weights consistent with the
/// emitted ranges.
TEST(PipelineTest, CandidateSetIsColumnGroupedAndQueryOrdered) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(81, 10, 20, 12);
  VectorStore query = MakeClusteredQuery(81, 10, 16);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);

  FractionalThresholds ft{0.08, 0.4};
  const SearchThresholds th = ft.Resolve(metric, 10, query.size());
  SearchStats stats;
  const CandidateSet cands = StageOne(index, query, th.tau, &stats);

  ASSERT_EQ(cands.block_begin.size(), index.catalog().num_columns() + 1);
  EXPECT_EQ(cands.block_begin.front(), 0u);
  EXPECT_EQ(cands.block_begin.back(), cands.blocks.size());
  EXPECT_EQ(stats.candidate_blocks, cands.blocks.size());
  EXPECT_GT(cands.blocks.size(), 0u);

  uint64_t weight_sum = 0;
  for (ColumnId c = 0; c + 1 < cands.block_begin.size(); ++c) {
    EXPECT_LE(cands.block_begin[c], cands.block_begin[c + 1]);
    uint64_t col_weight = 0;
    for (size_t b = cands.block_begin[c]; b < cands.block_begin[c + 1]; ++b) {
      if (b > cands.block_begin[c]) {
        // Ascending query order within the column — the ordering the
        // stage-2 state machine relies on.
        EXPECT_LT(cands.blocks[b - 1].query, cands.blocks[b].query);
      }
      const CandidateBlock& blk = cands.blocks[b];
      EXPECT_GT(blk.range_count, 0u);
      for (uint32_t r = 0; r < blk.range_count; ++r) {
        const VecIdRange& range = cands.ranges[blk.range_begin + r];
        EXPECT_GT(range.count, 0u);
        col_weight += range.count;
      }
    }
    EXPECT_EQ(cands.weight[c], col_weight);
    weight_sum += col_weight;
  }
  EXPECT_EQ(cands.total_weight, weight_sum);
}

/// A lake for Lemma 7: eight tight clusters, a query of four records in
/// each (record r near cluster r % 8), and 24 columns of six vectors, column
/// c drawing from 1 + c % 3 consecutive clusters, so a column's candidate
/// blocks cover only some of the query's records.
TestLake MakeLemma7Lake(uint64_t seed) {
  constexpr uint32_t kDim = 8;
  constexpr uint32_t kClusters = 8;
  Rng rng(seed);
  std::vector<std::vector<float>> centers(kClusters);
  for (auto& c : centers) testing::RandomUnitVector(&rng, kDim, &c);
  TestLake lake{ColumnCatalog(kDim), VectorStore(kDim)};
  for (uint32_t r = 0; r < 4 * kClusters; ++r) {
    lake.query.Add(testing::Perturb(&rng, centers[r % kClusters], 0.05));
  }
  for (uint32_t col = 0; col < 24; ++col) {
    const uint32_t span = 1 + col % 3;
    std::vector<float> packed;
    for (uint32_t r = 0; r < 6; ++r) {
      const auto v =
          testing::Perturb(&rng, centers[(col + r % span) % kClusters], 0.05);
      packed.insert(packed.end(), v.begin(), v.end());
    }
    lake.catalog.AddColumn(ColumnMeta{}, packed.data(), 6);
  }
  return lake;
}

/// Lemma 7 counts every record without a candidate block in a column as a
/// mismatch (Lemmas 3/4 are exact), so match + the unresolved blocks bound
/// the column's count. A column with fewer blocks than T is dropped by
/// stage 1 before any distance or Lemma-1 test, and one whose verified
/// mismatches push that bound below T dies mid-column, where counting
/// verified mismatches alone (|Q| - T + 1 of them) never fires. Results
/// equal a run without Lemma 7 in both threshold modes, and the counters
/// hold at every thread count.
TEST(PipelineTest, Lemma7CountsRecordsWithoutABlock) {
  L2Metric metric;
  TestLake lake = MakeLemma7Lake(87);
  const ColumnCatalog& catalog = lake.catalog;
  const VectorStore& query = lake.query;
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  const uint32_t dim = catalog.dim();
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index =
      PexesoIndex::Build(ColumnCatalog(catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  constexpr uint32_t kT = 6;
  JoinQuery jq;
  jq.thresholds.tau = 0.08 * metric.MaxUnitDistance(dim);
  jq.thresholds.t_abs = kT;

  // Replay each column's blocks in query order against the brute-force
  // verdicts: the count bound kills where match + unresolved blocks < T.
  SearchStats gen;
  const CandidateSet cands = StageOne(index, query, jq.thresholds.tau, &gen);
  std::vector<ColumnId> short_cols, killed_mid;
  std::vector<uint32_t> blocks_of(catalog.num_columns(), 0);
  uint64_t dead = 0, joinable = 0;
  for (ColumnId col = 0; col < catalog.num_columns(); ++col) {
    const size_t bb = cands.block_begin[col];
    const uint32_t n = static_cast<uint32_t>(cands.block_begin[col + 1] - bb);
    blocks_of[col] = n;
    if (n == 0) continue;
    const ColumnMeta& meta = catalog.column(col);
    uint32_t match = 0;
    uint32_t kill_at = n;  // the pair after which the bound fires
    for (uint32_t b = 0; b < n; ++b) {
      const uint32_t q = cands.blocks[bb + b].query;
      for (VecId v = meta.first; v < meta.end(); ++v) {
        if (metric.Dist(query.View(q), catalog.store().View(v), dim) <=
            jq.thresholds.tau) {
          ++match;
          break;
        }
      }
      if (kill_at == n && match + (n - b - 1) < kT) kill_at = b;
    }
    if (match >= kT) {
      ++joinable;
      continue;
    }
    ++dead;
    if (n < kT) {
      short_cols.push_back(col);
    } else if (kill_at + 1 < n && n - match <= num_q - kT) {
      killed_mid.push_back(col);
    }
  }
  ASSERT_FALSE(short_cols.empty());
  ASSERT_FALSE(killed_mid.empty());
  ASSERT_GT(joinable, 0u);

  for (QueryMode mode : {QueryMode::kThreshold, QueryMode::kExactJoinability}) {
    JoinQuery on = jq;
    on.mode = mode;
    JoinQuery off = on;
    off.ablation.use_lemma7 = false;
    const std::string label = mode == QueryMode::kThreshold ? "threshold"
                                                            : "exact";
    SearchStats on_stats, off_stats;
    const auto with = MustSearch(searcher, query, on, &on_stats);
    const auto without = MustSearch(searcher, query, off, &off_stats);
    ASSERT_FALSE(with.empty()) << label;
    ExpectByteIdentical(with, without, label);
    EXPECT_EQ(on_stats.lemma7_kills, dead) << label;
    EXPECT_EQ(off_stats.lemma7_kills, 0u) << label;
    EXPECT_EQ(on_stats.candidate_blocks, cands.blocks.size()) << label;
    EXPECT_EQ(off_stats.candidate_blocks, cands.blocks.size()) << label;
    EXPECT_LT(on_stats.distance_computations, off_stats.distance_computations)
        << label;
    for (size_t threads : {2, 8}) {
      JoinQuery topts = on;
      topts.intra_query_threads = threads;
      SearchStats tstats;
      const std::string at = label + " threads=" + std::to_string(threads);
      ExpectByteIdentical(MustSearch(searcher, query, topts, &tstats), with,
                          at);
      ExpectSameCounters(tstats, on_stats, at);
    }
  }

  // Stage 2 applies the same bound on its own: fed every block (no stage-1
  // floor), it kills each short column before its first pair, so the
  // verification counters equal the search's.
  {
    SearchStats search_stats, stage2_stats;
    MustSearch(searcher, query, jq, &search_stats);
    std::vector<uint32_t> match_map(catalog.num_columns(), 0);
    ASSERT_TRUE(VerifyPipeline(&index)
                    .VerifyCandidates(cands, query,
                                      index.pivots().MapAll(
                                          query.raw().data(), query.size()),
                                      jq, nullptr, &match_map, nullptr,
                                      nullptr, &stage2_stats)
                    .ok());
    EXPECT_EQ(stage2_stats.distance_computations,
              search_stats.distance_computations);
    EXPECT_EQ(stage2_stats.lemma1_filtered, search_stats.lemma1_filtered);
    EXPECT_EQ(stage2_stats.tiles_evaluated, search_stats.tiles_evaluated);
    EXPECT_EQ(stage2_stats.lemma7_kills, dead);
    EXPECT_EQ(stage2_stats.early_joinable, joinable);
  }

  // One column verified alone: stage 1's output restricted to its blocks.
  const std::vector<double> mapped_q =
      index.pivots().MapAll(query.raw().data(), query.size());
  const auto alone = [&](ColumnId keep, bool use_l7) {
    const uint32_t bb = cands.block_begin[keep];
    const uint32_t be = cands.block_begin[keep + 1];
    CandidateSet one;
    one.blocks.assign(cands.blocks.begin() + bb, cands.blocks.begin() + be);
    one.ranges = cands.ranges;  // blocks keep their range indices
    one.block_begin.assign(catalog.num_columns() + 1, 0);
    for (ColumnId col = keep + 1; col <= catalog.num_columns(); ++col) {
      one.block_begin[col] = be - bb;
    }
    one.weight.assign(catalog.num_columns(), 0);
    one.weight[keep] = cands.weight[keep];
    one.total_weight = cands.weight[keep];
    JoinQuery q1 = jq;
    q1.ablation.use_lemma7 = use_l7;
    SearchStats stats;
    std::vector<uint32_t> match_map(catalog.num_columns(), 0);
    EXPECT_TRUE(VerifyPipeline(&index)
                    .VerifyCandidates(one, query, mapped_q, q1, nullptr,
                                      &match_map, nullptr, nullptr, &stats)
                    .ok());
    EXPECT_LT(match_map[keep], kT) << "column " << keep;
    EXPECT_EQ(one.blocks.size(), blocks_of[keep]) << "column " << keep;
    return stats;
  };
  const SearchStats dropped = alone(short_cols.front(), true);
  EXPECT_EQ(dropped.distance_computations, 0u);
  EXPECT_EQ(dropped.lemma1_filtered, 0u);
  EXPECT_EQ(dropped.tiles_evaluated, 0u);
  EXPECT_EQ(dropped.lemma7_kills, 1u);
  // Counting verified mismatches alone would run this column to its end,
  // which is what the run without Lemma 7 does.
  const SearchStats killed = alone(killed_mid.front(), true);
  const SearchStats ran_out = alone(killed_mid.front(), false);
  EXPECT_EQ(killed.lemma7_kills, 1u);
  EXPECT_EQ(ran_out.lemma7_kills, 0u);
  EXPECT_LT(killed.distance_computations + killed.lemma1_filtered,
            ran_out.distance_computations + ran_out.lemma1_filtered);
}

/// Stage 2 of a threshold query spelled out serially as Algorithm 2 over
/// stage 1's blocks, with the virtual Metric::Dist oracle. Per column, the
/// blocks run in query order until Lemma 7's bound (match + unresolved
/// blocks < t) kills it; per block, the record walks its candidates in
/// posting order, or in VecId order when `ascending` (a mapping query), and
/// tests Lemma 1 on each pair it reaches, up to its first match.
struct SerialStage2 {
  uint64_t filtered = 0;  ///< Lemma-1 failures before a record's match
  uint64_t reached = 0;   ///< Lemma-1 survivors reached: distances
  uint64_t pairs = 0;     ///< candidate pairs of the blocks verified
  uint64_t mask_filtered = 0;  ///< Lemma-1 failures over those pairs
  std::vector<std::vector<RecordMatch>> want;  ///< per column, query order
};

SerialStage2 ReplayStage2(const PexesoIndex& index, const Metric& metric,
                          const VectorStore& query, const CandidateSet& cands,
                          double tau, uint32_t t, bool ascending) {
  const uint32_t np = index.pivots().num_pivots();
  const std::vector<double> mapped_q =
      index.pivots().MapAll(query.raw().data(), query.size());
  const std::span<const VecId> vec_ids = index.inverted_index().vec_ids();
  const size_t ncols = index.catalog().num_columns();
  SerialStage2 s;
  s.want.resize(ncols);
  for (ColumnId col = 0; col < ncols; ++col) {
    const size_t be = cands.block_begin[col + 1];
    uint32_t match = 0;
    for (size_t i = cands.block_begin[col]; match + (be - i) >= t && i < be;
         ++i) {
      const CandidateBlock& blk = cands.blocks[i];
      std::vector<VecId> ids;
      for (uint32_t r = 0; r < blk.range_count; ++r) {
        const VecIdRange& range = cands.ranges[blk.range_begin + r];
        for (uint32_t k = 0; k < range.count; ++k) {
          ids.push_back(vec_ids[range.begin + k]);
        }
      }
      if (ascending) std::sort(ids.begin(), ids.end());
      s.pairs += ids.size();
      const double* mq = mapped_q.data() + static_cast<size_t>(blk.query) * np;
      bool found = false;
      for (VecId v : ids) {
        const double* mx = index.MappedVec(v);
        bool out = false;
        for (uint32_t p = 0; p < np; ++p) out |= std::fabs(mq[p] - mx[p]) > tau;
        s.mask_filtered += out;
        if (found) continue;  // past the first match: no pair is reached
        if (out) {
          ++s.filtered;
          continue;
        }
        ++s.reached;
        if (metric.Dist(query.View(blk.query),
                        index.catalog().store().View(v), query.dim()) <= tau) {
          ++match;
          found = true;
          s.want[col].push_back(RecordMatch{blk.query, v});
        }
      }
    }
  }
  return s;
}

/// Mappings are stage 2's witnesses, not a second pass: a threshold query
/// that collects them runs exactly the blocks an exact-joinability query
/// runs, so blocking and Lemma 7 count the same, and the counts are the
/// exact ones. Every group of this lake is under one dense block, so both
/// queries run Algorithm 2 pair by pair: the mapping query's Lemma-1 and
/// distance counts are Algorithm 2's over those blocks in VecId order (the
/// exact query's, in posting order), and each mapping is the record's
/// lowest matching vector. A second pass over the result columns would
/// raise both counts.
TEST(PipelineTest, MappingQueryVerifiesWhatAnExactQueryVerifies) {
  L2Metric metric;
  TestLake lake = MakeLemma7Lake(88);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index =
      PexesoIndex::Build(ColumnCatalog(lake.catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  constexpr uint32_t kT = 6;
  const double tau = 0.08 * metric.MaxUnitDistance(lake.catalog.dim());
  SearchStats gen;
  const CandidateSet cands = StageOne(index, lake.query, tau, &gen);
  const SerialStage2 by_vec =
      ReplayStage2(index, metric, lake.query, cands, tau, kT, true);
  const SerialStage2 by_posting =
      ReplayStage2(index, metric, lake.query, cands, tau, kT, false);
  // Not vacuous: the two orders reach different pairs.
  ASSERT_NE(by_vec.filtered, by_posting.filtered);
  for (size_t threads : {1, 8}) {
    JoinQuery mapped;
    mapped.thresholds.tau = tau;
    mapped.thresholds.t_abs = kT;
    mapped.collect_mappings = true;
    mapped.intra_query_threads = threads;
    JoinQuery exact = mapped;
    exact.collect_mappings = false;
    exact.mode = QueryMode::kExactJoinability;
    const std::string at = "threads=" + std::to_string(threads);

    SearchStats map_stats, exact_stats;
    const auto with = MustSearch(searcher, lake.query, mapped, &map_stats);
    const auto without = MustSearch(searcher, lake.query, exact, &exact_stats);
    ASSERT_FALSE(with.empty()) << at;
    ASSERT_EQ(Columns(with), Columns(without)) << at;
    for (size_t i = 0; i < with.size(); ++i) {
      EXPECT_EQ(with[i].match_count, without[i].match_count) << at;
      ExpectMapping(with[i], by_vec.want[with[i].column],
                    at + " column " + std::to_string(with[i].column));
    }
    // Not vacuous: Lemma 1 filters, Lemma 7 kills, columns reach T.
    ASSERT_GT(exact_stats.lemma1_filtered, 0u) << at;
    ASSERT_GT(exact_stats.lemma7_kills, 0u) << at;
    ASSERT_GT(exact_stats.early_joinable, 0u) << at;
    ASSERT_EQ(map_stats.tiles_evaluated, 0u) << at;
    ASSERT_EQ(exact_stats.tiles_evaluated, 0u) << at;
    EXPECT_EQ(map_stats.candidate_blocks, exact_stats.candidate_blocks) << at;
    EXPECT_EQ(map_stats.lemma7_kills, exact_stats.lemma7_kills) << at;
    EXPECT_EQ(map_stats.early_joinable, exact_stats.early_joinable) << at;
    EXPECT_EQ(map_stats.lemma1_filtered, by_vec.filtered) << at;
    EXPECT_EQ(exact_stats.lemma1_filtered, by_posting.filtered) << at;
    EXPECT_EQ(map_stats.distance_computations, by_vec.reached) << at;
    EXPECT_EQ(exact_stats.distance_computations, by_posting.reached) << at;
  }
}

/// A group of more pairs than one dense block masks every pair with Lemma 1
/// and runs dense tiles, which may compute pairs past a record's first
/// match but never a pair outside the group. Lemma 1 still counts what
/// Algorithm 2 counts: the failures a record reaches before its first
/// match, not every failure of the mask.
TEST(PipelineTest, DenseGroupCountsTheLemma1FailuresARecordReaches) {
  for (const char* name : {"l2", "l1", "cosine"}) {
    auto metric = MakeTestMetric(name);
    TestLake lake = MakeOneClusterLake(86, 8, {40}, 12, 0.08);
    PexesoOptions popts;
    popts.num_pivots = 3;
    popts.levels = 3;
    PexesoIndex index =
        PexesoIndex::Build(std::move(lake.catalog), metric.get(), popts);
    JoinQuery jq;
    jq.thresholds.tau = 0.1 * metric->MaxUnitDistance(8);
    SearchStats gen;
    const CandidateSet cands =
        StageOne(index, lake.query, jq.thresholds.tau, &gen);
    const SerialStage2 a = ReplayStage2(index, *metric, lake.query, cands,
                                        jq.thresholds.tau, jq.Lemma7T(), true);
    // Not vacuous: a whole-mask count would count more.
    ASSERT_GT(a.filtered, 0u) << name;
    ASSERT_GT(a.mask_filtered, a.filtered) << name;

    SearchStats stats;
    const JoinableColumn jc = MapOneColumn(index, lake.query, 0, jq, &stats);
    ASSERT_GT(stats.tiles_evaluated, 0u) << name;
    EXPECT_EQ(stats.lemma1_filtered, a.filtered) << name;
    EXPECT_GE(stats.distance_computations, a.reached) << name;
    EXPECT_LE(stats.distance_computations, a.pairs) << name;
    ExpectMapping(jc, a.want[0], name);
  }
}

/// The leaf cell whose postings hold vector `v`.
uint32_t CellOf(const InvertedIndex& inv, VecId v) {
  for (uint32_t cell = 0; cell < inv.num_cells(); ++cell) {
    for (const InvertedIndex::Posting& p : inv.PostingsOf(cell)) {
      for (uint32_t i = 0; i < p.vec_count; ++i) {
        if (inv.vec_ids()[p.vec_begin + i] == v) return cell;
      }
    }
  }
  ADD_FAILURE() << "vector " << v << " is in no cell";
  return 0;
}

/// Column `col`'s postings range in leaf cell `cell`.
VecIdRange RangeOf(const InvertedIndex& inv, uint32_t cell, ColumnId col) {
  for (const InvertedIndex::Posting& p : inv.PostingsOf(cell)) {
    if (p.column == col) return VecIdRange{p.vec_begin, p.vec_count};
  }
  ADD_FAILURE() << "column " << col << " has no posting in cell " << cell;
  return VecIdRange{};
}

void ExpectSameCandidates(const CandidateSet& got, const CandidateSet& want,
                          const std::string& label) {
  EXPECT_EQ(got.block_begin, want.block_begin) << label;
  EXPECT_EQ(got.weight, want.weight) << label;
  EXPECT_EQ(got.total_weight, want.total_weight) << label;
  ASSERT_EQ(got.blocks.size(), want.blocks.size()) << label;
  for (size_t b = 0; b < want.blocks.size(); ++b) {
    EXPECT_EQ(got.blocks[b].query, want.blocks[b].query)
        << label << " block " << b;
    EXPECT_EQ(got.blocks[b].range_begin, want.blocks[b].range_begin)
        << label << " block " << b;
    EXPECT_EQ(got.blocks[b].range_count, want.blocks[b].range_count)
        << label << " block " << b;
  }
  ASSERT_EQ(got.ranges.size(), want.ranges.size()) << label;
  for (size_t r = 0; r < want.ranges.size(); ++r) {
    EXPECT_EQ(got.ranges[r].begin, want.ranges[r].begin)
        << label << " range " << r;
    EXPECT_EQ(got.ranges[r].count, want.ranges[r].count)
        << label << " range " << r;
  }
}

/// Stage 1's exact output on a hand-written blocking result over a lake
/// whose cells are known: columns 0, 1 and 3 share the leaf cell of point
/// A, columns 1 and 2 that of point B. Checks range order with a repeated
/// cand cell and with the cells in either order, and a mapped snapshot of
/// the same index.
TEST(PipelineTest, CandidateSetHasExactShape) {
  L2Metric metric;
  constexpr uint32_t kDim = 4;
  const auto point = [](uint32_t axis) {
    std::vector<float> v(kDim, 0.0f);
    v[axis] = 1.0f;
    return v;
  };
  // Column c holds the given points; A = axis 0, B = axis 1, and axes 2/3
  // only widen the pivot space.
  const std::vector<std::vector<uint32_t>> layout = {
      {0, 0, 0}, {0, 0, 1, 1}, {1, 1, 1}, {0, 0}, {2, 3, 2}};
  ColumnCatalog catalog(kDim);
  for (const auto& axes : layout) {
    std::vector<float> packed;
    for (uint32_t axis : axes) {
      const std::vector<float> v = point(axis);
      packed.insert(packed.end(), v.begin(), v.end());
    }
    catalog.AddColumn(ColumnMeta{}, packed.data(), axes.size());
  }
  PexesoOptions popts;
  popts.num_pivots = 2;
  popts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  const InvertedIndex& inv = index.inverted_index();
  const uint32_t a = CellOf(inv, index.catalog().column(0).first);
  const uint32_t b = CellOf(inv, index.catalog().column(2).first);
  ASSERT_NE(a, b);
  ASSERT_EQ(inv.PostingsOf(a).size(), 3u);  // columns 0, 1, 3
  ASSERT_EQ(inv.PostingsOf(b).size(), 2u);  // columns 1, 2

  // q0: cand A, B, A (A repeated); q1: cand B, A; q2: nothing; q3: cand A.
  BlockResult blocks;
  blocks.offsets = {0, 3, 5, 5, 6};
  blocks.cells = {a, b, a, b, a, a};

  const VecIdRange a0 = RangeOf(inv, a, 0), a1 = RangeOf(inv, a, 1);
  const VecIdRange a3 = RangeOf(inv, a, 3);
  const VecIdRange b1 = RangeOf(inv, b, 1), b2 = RangeOf(inv, b, 2);
  ASSERT_EQ(a0.count, 3u);
  ASSERT_EQ(a1.count, 2u);
  ASSERT_EQ(a3.count, 2u);
  ASSERT_EQ(b1.count, 2u);
  ASSERT_EQ(b2.count, 3u);
  CandidateSet want;
  want.blocks = {
      // column 0: q0 over A twice, q1 and q3 over A
      {0, 0, 2}, {1, 2, 1}, {3, 3, 1},
      // column 1: each record in its own cand-cell order: q0 A, B, A; q1
      // B, A; q3 A
      {0, 4, 3}, {1, 7, 2}, {3, 9, 1},
      // column 2: q0 and q1 over B
      {0, 10, 1}, {1, 11, 1},
      // column 3: q0 over A twice, q1 and q3 over A; column 4 never blocked
      {0, 12, 2}, {1, 14, 1}, {3, 15, 1},
  };
  want.ranges = {a0, a0, a0, a0, a1, b1, a1, b1, a1, a1, b2, b2,
                 a3, a3, a3, a3};
  want.block_begin = {0, 3, 6, 8, 11, 11};
  want.weight = {4 * a0.count, 4 * a1.count + 2 * b1.count, 2 * b2.count,
                 4 * a3.count, 0};
  want.total_weight = 4 * a0.count + 4 * a1.count + 2 * b1.count +
                      2 * b2.count + 4 * a3.count;

  SearchStats stats;
  CandidateSet got;
  VerifyPipeline(&index).GenerateCandidates(blocks, 4, 0, &got, &stats);
  ExpectSameCandidates(got, want, "heap index");
  EXPECT_EQ(stats.candidate_blocks, 11u);

  // The same index served from a mapped snapshot (view-mode postings).
  const std::string path = ::testing::TempDir() + "/pipeline_exact_shape.pxso";
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = PexesoIndex::Load(path, &metric);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().is_mapped());
  SearchStats view_stats;
  CandidateSet view;
  VerifyPipeline(&loaded.value())
      .GenerateCandidates(blocks, 4, 0, &view, &view_stats);
  ExpectSameCandidates(view, want, "mapped snapshot");
  EXPECT_EQ(view_stats.candidate_blocks, 11u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pexeso
