// Determinism and correctness suite for the staged verification pipeline
// (src/core/verify_pipeline.{h,cc}): the column-sharded tiled search must
// return byte-identical results to its own serial execution at every
// intra-query thread count, across every lemma-ablation combination, with
// exact-joinability mode on and off, with the int8 quant tier on and off, and
// with record-mapping collection — and the whole thing must agree with a
// brute-force scalar oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
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
  EXPECT_EQ(a.quant_tile_skips, b.quant_tile_skips) << label;
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
/// on/off, quant tier on/off and with mapping collection — and the serial run
/// matches the brute-force oracle. Quant on and off return byte-identical
/// results, and every float slot the int8 tier skips is one distance the
/// quant-off run computes.
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
          std::vector<JoinableColumn> quant_on;
          SearchStats quant_on_stats;
          for (bool quant : {true, false}) {
            JoinQuery sopts;
            sopts.thresholds = ft.Resolve(*metric, dim, query.size());
            sopts.ablation.use_lemma1 = use_l1;
            sopts.ablation.use_lemma7 = use_l7;
            sopts.ablation.use_quant_prefilter = quant;
            sopts.mode = exact ? QueryMode::kExactJoinability
                               : QueryMode::kThreshold;
            sopts.collect_mappings = mappings;
            const std::string label =
                std::string(GetParam()) + " l1=" + std::to_string(use_l1) +
                " l7=" + std::to_string(use_l7) +
                " exact=" + std::to_string(exact) +
                " map=" + std::to_string(mappings) +
                " quant=" + std::to_string(quant);

            SearchStats serial_stats;
            const auto serial =
                MustSearch(searcher, query, sopts, &serial_stats);

            // Oracle agreement: the joinable set is always identical; the
            // counts are exact whenever the search reports exact counts
            // (exact mode, or the mapping post-pass upgrade).
            const auto oracle = OracleJoin(catalog, *metric, query,
                                           sopts.thresholds, mappings);
            ASSERT_EQ(Columns(serial), Columns(oracle)) << label;
            if (exact || mappings) {
              for (size_t i = 0; i < serial.size(); ++i) {
                EXPECT_EQ(serial[i].match_count, oracle[i].match_count)
                    << label;
              }
            }
            if (mappings) {
              ExpectByteIdentical(serial, oracle, label + " vs oracle");
            }

            if (quant) {
              quant_on = serial;
              quant_on_stats = serial_stats;
            } else {
              ExpectByteIdentical(quant_on, serial, label + " vs quant on");
              EXPECT_EQ(serial_stats.quant_tile_skips, 0u) << label;
              EXPECT_EQ(quant_on_stats.distance_computations +
                            quant_on_stats.quant_tile_skips,
                        serial_stats.distance_computations)
                  << label;
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

/// Satellite bugfix regression: the mapping post-pass must route its
/// distance computations and Lemma-1 filter hits through the same counters
/// as verification (it used to report nothing).
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
  // The mapping sweep re-verifies every (query record, column row) pair of
  // each joinable column, so both counters must strictly grow.
  EXPECT_GT(with.distance_computations, without.distance_computations);
  EXPECT_GT(with.lemma1_filtered, without.lemma1_filtered);
}

/// Bugfix regression: the mapping sweep is verification work, so its wall
/// time must land in verify_seconds on both index engines (it used to land
/// in no phase at all). The kernel-free metric sleeps in every Dist call,
/// which bounds the phase from below by its distance count: with mappings,
/// verify_seconds covers at least the mapping sweep's extra distances.
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
  // A low T stops verification after a few matches per column; the
  // mapping sweep then resolves every query record of each result column.
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

/// A column of `col_size` vectors and a query of `num_q` records drawn
/// around one center, so every record has Lemma-1 survivors in the column.
struct OneClusterLake {
  ColumnCatalog catalog;
  VectorStore query;
};

OneClusterLake MakeOneClusterLake(uint64_t seed, uint32_t dim,
                                  const std::vector<uint32_t>& col_sizes,
                                  uint32_t num_q, double sigma) {
  Rng rng(seed);
  std::vector<float> center;
  testing::RandomUnitVector(&rng, dim, &center);
  OneClusterLake lake{ColumnCatalog(dim), VectorStore(dim)};
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

/// Mapping sweep of column `col` for `query` straight through the pipeline.
JoinableColumn MapOneColumn(const PexesoIndex& index, const VectorStore& query,
                            ColumnId col, const JoinQuery& jq,
                            SearchStats* stats) {
  const std::vector<double> mapped_q =
      index.pivots().MapAll(query.raw().data(), query.size());
  std::vector<JoinableColumn> out(1);
  out[0].column = col;
  EXPECT_TRUE(VerifyPipeline(&index)
                  .CollectMappings(query, mapped_q, jq, &out, stats)
                  .ok());
  return out[0];
}

/// A sweep of no more pairs than one dense 8x8 block is resolved pair by
/// pair: its distance count is exactly the Lemma-1 survivors each record
/// reads in slot order up to its first match, and it runs no tile.
TEST(PipelineTest, SubBlockSweepCountsExactlyThePairsRead) {
  for (const char* name : {"l2", "l1", "cosine", "l2-kernel-free"}) {
    auto metric = MakeTestMetric(name);
    OneClusterLake lake = MakeOneClusterLake(85, 8, {12}, 5, 0.08);
    PexesoOptions popts;
    popts.num_pivots = 3;
    popts.levels = 3;
    PexesoIndex index =
        PexesoIndex::Build(std::move(lake.catalog), metric.get(), popts);
    const VectorStore& query = lake.query;
    const ColumnMeta& meta = index.catalog().column(0);
    ASSERT_LE(query.size() * meta.count, 64u);  // one sweep, under a block
    for (bool quant : {true, false}) {
      JoinQuery jq;
      jq.thresholds.tau = 0.12 * metric->MaxUnitDistance(8);
      jq.ablation.use_quant_prefilter = quant;
      const std::string label =
          std::string(name) + " quant=" + std::to_string(quant);

      // The pairs Algorithm 2 computes, spelled out: Lemma 1 masks the
      // whole column (it fits one vec-tile), then each record reads its
      // survivors in order up to its first match.
      const RangePredicate pred(*metric, jq.thresholds.tau);
      const uint32_t np = index.pivots().num_pivots();
      const std::vector<double> mapped_q =
          index.pivots().MapAll(query.raw().data(), query.size());
      uint64_t read = 0, filtered = 0, matched = 0;
      std::vector<RecordMatch> want;
      for (uint32_t q = 0; q < query.size(); ++q) {
        bool found = false;
        for (VecId v = meta.first; v < meta.end(); ++v) {
          const double* mx = index.MappedVec(v);
          bool out = false;
          for (uint32_t p = 0; p < np; ++p) {
            out |= std::fabs(mapped_q[q * np + p] - mx[p]) > jq.thresholds.tau;
          }
          if (out) {
            ++filtered;
            continue;
          }
          if (found) continue;
          ++read;
          if (metric->Dist(query.View(q), index.catalog().store().View(v),
                           8) <= jq.thresholds.tau) {
            ++matched;
            found = true;
            want.push_back(RecordMatch{q, v});
          }
        }
      }
      // Not vacuous: Lemma 1 filters, some survivor misses, some matches.
      ASSERT_GT(filtered, 0u) << label;
      ASSERT_GT(read, matched) << label;
      ASSERT_GT(matched, 0u) << label;

      SearchStats stats;
      const JoinableColumn jc = MapOneColumn(index, query, 0, jq, &stats);
      EXPECT_EQ(stats.distance_computations, read) << label;
      EXPECT_EQ(stats.sqrt_free_comparisons, read * pred.sqrt_saved())
          << label;
      EXPECT_EQ(stats.lemma1_filtered, filtered) << label;
      EXPECT_EQ(stats.tiles_evaluated, 0u) << label;
      EXPECT_EQ(stats.quant_tile_skips, 0u) << label;
      ASSERT_EQ(jc.mapping.size(), want.size()) << label;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(jc.mapping[i].query_index, want[i].query_index) << label;
        EXPECT_EQ(jc.mapping[i].target_vec, want[i].target_vec) << label;
      }
    }
  }
}

/// A record's first witness does not depend on the sweep's shape: the same
/// records mapped alone (a sub-block sweep, pair by pair) and among enough
/// others to fill dense tiles (int8 tier and float tiles) name the same
/// vectors, with the quant tier on and off.
TEST(PipelineTest, FirstWitnessIsTheSameInSubBlockAndDenseSweeps) {
  for (const char* name : {"l2", "l1", "cosine"}) {
    auto metric = MakeTestMetric(name);
    OneClusterLake lake = MakeOneClusterLake(86, 8, {40}, 12, 0.08);
    PexesoOptions popts;
    popts.num_pivots = 3;
    popts.levels = 3;
    PexesoIndex index =
        PexesoIndex::Build(std::move(lake.catalog), metric.get(), popts);
    VectorStore small(8);
    small.Add(std::vector<float>(lake.query.View(0), lake.query.View(0) + 8));
    for (bool quant : {true, false}) {
      JoinQuery jq;
      jq.thresholds.tau = 0.1 * metric->MaxUnitDistance(8);
      jq.ablation.use_quant_prefilter = quant;
      const std::string label =
          std::string(name) + " quant=" + std::to_string(quant);
      SearchStats dense_stats, small_stats;
      const JoinableColumn dense =
          MapOneColumn(index, lake.query, 0, jq, &dense_stats);
      const JoinableColumn alone = MapOneColumn(index, small, 0, jq,
                                                &small_stats);
      EXPECT_GT(dense_stats.tiles_evaluated + dense_stats.quant_tile_skips,
                0u)
          << label << ": the full query must fill a dense tile";
      EXPECT_EQ(small_stats.tiles_evaluated + small_stats.quant_tile_skips,
                0u)
          << label << ": one record against 40 vectors is under a block";
      ASSERT_EQ(alone.mapping.size(), 1u) << label;
      ASSERT_FALSE(dense.mapping.empty()) << label;
      ASSERT_EQ(dense.mapping[0].query_index, 0u) << label;
      EXPECT_EQ(alone.mapping[0].target_vec, dense.mapping[0].target_vec)
          << label;
      // Not vacuous: the witness is not simply the column's first vector.
      EXPECT_GT(alone.mapping[0].target_vec, index.catalog().column(0).first)
          << label;
    }
  }
}

/// distances + quant skips (quant on) == distances (quant off) on a lake
/// whose sweeps take both shapes. Six 3-vector columns can only give
/// sub-block sweeps (16 records x 3 slots < 64 pairs); a 120-vector column
/// fills dense tiles. Deleting the big column afterwards leaves the same
/// index with sub-block sweeps only: they count distances and run no tile.
TEST(PipelineTest, QuantInvariantHoldsOverSubBlockAndDenseSweeps) {
  for (const char* name : {"l2", "l1"}) {
    auto metric = MakeTestMetric(name);
    OneClusterLake lake =
        MakeOneClusterLake(87, 8, {3, 3, 3, 3, 3, 3, 120}, 16, 0.08);
    PexesoOptions popts;
    popts.num_pivots = 3;
    popts.levels = 3;
    PexesoIndex index =
        PexesoIndex::Build(std::move(lake.catalog), metric.get(), popts);
    PexesoSearcher searcher(&index);
    JoinQuery jq;
    jq.thresholds.tau = 0.1 * metric->MaxUnitDistance(8);
    jq.thresholds.t_abs = 8;
    jq.mode = QueryMode::kExactJoinability;

    // Quant on and off: identical results, and every skipped slot is one
    // distance of the quant-off run.
    const auto run_both = [&](const std::string& label) {
      JoinQuery on = jq, off = jq;
      off.ablation.use_quant_prefilter = false;
      SearchStats on_stats, off_stats;
      const auto on_res = MustSearch(searcher, lake.query, on, &on_stats);
      const auto off_res = MustSearch(searcher, lake.query, off, &off_stats);
      ExpectByteIdentical(on_res, off_res, label);
      EXPECT_EQ(off_stats.quant_tile_skips, 0u) << label;
      EXPECT_EQ(on_stats.distance_computations + on_stats.quant_tile_skips,
                off_stats.distance_computations)
          << label;
      return off_stats;
    };
    const SearchStats mixed = run_both(std::string(name) + " mixed");
    EXPECT_GT(mixed.tiles_evaluated, 0u) << name;
    index.DeleteColumn(6);
    const SearchStats sub_block = run_both(std::string(name) + " sub-block");
    EXPECT_EQ(sub_block.tiles_evaluated, 0u) << name;
    EXPECT_GT(sub_block.distance_computations, 0u) << name;
    EXPECT_LT(sub_block.distance_computations, mixed.distance_computations)
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

  // Re-run blocking exactly as the searcher does, then stage 1 directly.
  const PivotSpace& ps = index.pivots();
  const std::vector<double> mapped_q =
      ps.MapAll(query.raw().data(), query.size());
  HierarchicalGrid hgq;
  HierarchicalGrid::Options gopts;
  gopts.levels = index.grid().levels();
  gopts.store_leaf_items = true;
  hgq.Build(mapped_q.data(), query.size(), ps.num_pivots(), ps.AxisExtent(),
            gopts);
  GridBlocker blocker(&index.grid());
  SearchStats stats;
  const BlockResult blocks =
      blocker.Run(hgq, mapped_q, th.tau, AblationConfig{}, &stats);

  VerifyPipeline pipeline(&index);
  CandidateSet cands;
  pipeline.GenerateCandidates(blocks, static_cast<uint32_t>(query.size()),
                              &cands, &stats);

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

/// The leaf cell whose postings hold vector `v`.
uint32_t CellOf(const InvertedIndex& inv, VecId v) {
  for (uint32_t cell = 0; cell < inv.num_cells(); ++cell) {
    for (const InvertedIndex::Posting& p : inv.PostingsOf(cell)) {
      for (uint32_t i = 0; i < p.vec_count; ++i) {
        if (inv.vec_ids_data()[p.vec_begin + i] == v) return cell;
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
/// A, columns 1 and 2 that of point B, and column 3 is tombstoned. Checks
/// range order with a repeated cand cell and with the cells in either
/// order, tombstone skipping, and a mapped snapshot of the same index.
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
  index.DeleteColumn(3);
  const InvertedIndex& inv = index.inverted_index();
  const uint32_t a = CellOf(inv, index.catalog().column(0).first);
  const uint32_t b = CellOf(inv, index.catalog().column(2).first);
  ASSERT_NE(a, b);
  ASSERT_EQ(inv.PostingsOf(a).size(), 3u);  // columns 0, 1, 3
  ASSERT_EQ(inv.PostingsOf(b).size(), 2u);  // columns 1, 2

  // q0: cand A, B, A (A repeated); q1: cand B, A; q2: nothing; q3: cand A.
  BlockResult blocks;
  blocks.cand_cells = {{a, b, a}, {b, a}, {}, {a}};

  const VecIdRange a0 = RangeOf(inv, a, 0), a1 = RangeOf(inv, a, 1);
  const VecIdRange b1 = RangeOf(inv, b, 1), b2 = RangeOf(inv, b, 2);
  ASSERT_EQ(a0.count, 3u);
  ASSERT_EQ(a1.count, 2u);
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
      // column 3 is tombstoned, column 4 never blocked
  };
  want.ranges = {a0, a0, a0, a0, a1, b1, a1, b1, a1, a1, b2, b2};
  want.block_begin = {0, 3, 6, 8, 8, 8};
  want.weight = {4 * a0.count, 4 * a1.count + 2 * b1.count, 2 * b2.count, 0,
                 0};
  want.total_weight = 4 * a0.count + 4 * a1.count + 2 * b1.count +
                      2 * b2.count;

  SearchStats stats;
  CandidateSet got;
  VerifyPipeline(&index).GenerateCandidates(blocks, 4, &got, &stats);
  ExpectSameCandidates(got, want, "heap index");
  EXPECT_EQ(stats.candidate_blocks, 8u);

  // The same index served from a mapped snapshot (view-mode postings).
  const std::string path = ::testing::TempDir() + "/pipeline_exact_shape.pxso";
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = PexesoIndex::Load(path, &metric);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().inverted_index().is_view());
  SearchStats view_stats;
  CandidateSet view;
  VerifyPipeline(&loaded.value())
      .GenerateCandidates(blocks, 4, &view, &view_stats);
  ExpectSameCandidates(view, want, "mapped snapshot");
  EXPECT_EQ(view_stats.candidate_blocks, 8u);
  std::remove(path.c_str());
}

/// A deleted column's candidate blocks are skipped by every shard layout.
TEST(PipelineTest, DeletedColumnStaysDeletedUnderSharding) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(82, 8, 15, 12);
  VectorStore query = MakeClusteredQuery(82, 8, 15);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  FractionalThresholds ft{0.08, 0.3};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, 8, query.size());
  auto before = MustSearch(searcher, query, sopts, nullptr);
  ASSERT_FALSE(before.empty());
  index.DeleteColumn(before[0].column);
  sopts.intra_query_threads = 4;
  auto after = MustSearch(searcher, query, sopts, nullptr);
  for (const auto& r : after) EXPECT_NE(r.column, before[0].column);
  EXPECT_EQ(after.size(), before.size() - 1);
}

}  // namespace
}  // namespace pexeso
