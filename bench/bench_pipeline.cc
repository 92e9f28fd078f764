// bench_pipeline: the staged verification pipeline's two levers, measured.
//
//   tile        many-to-many CmpTileNormed tiles vs the pre-pipeline
//               per-pair Cmp1Normed loop (and the intermediate one-to-many
//               row sweep) on a gathered candidate set — pairs/sec per
//               metric. This is the arithmetic-intensity win: a tile
//               streams each candidate row once per 4-row block instead of
//               once per (query, candidate) pair.
//   candidate   stage-1 throughput (postings -> CandidateBlocks): a
//               two-pass counting scatter by column, linear in the postings
//               walked. Any per-record merge or sort would show here.
//   scaling     intra-query thread scaling of one large query column
//               (JoinQuery::intra_query_threads 1/2/4/8), with a
//               byte-identical check against the serial search. Wall-clock
//               speedup needs physical cores; hw_threads is recorded so a
//               1-core CI box's ~1.0x reads as what it is.
//
// Results go to stdout and BENCH_pipeline.json ("BENCH_pipeline/v2"). The
// candidate-generation row gates its SearchStats (blocking plus stage 1);
// every rate and wall time is ungated.

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/blocker.h"
#include "core/verify_pipeline.h"
#include "vec/kernels.h"

namespace pexeso::bench {
namespace {

/// Pairs/sec of `fn` over enough repetitions to fill ~80ms.
template <typename Fn>
double MeasurePairsPerSec(size_t pairs_per_call, Fn&& fn) {
  fn();  // warm up caches and the dispatch table
  size_t reps = 1;
  double elapsed = 0.0;
  for (;;) {
    Stopwatch watch;
    for (size_t i = 0; i < reps; ++i) fn();
    elapsed = watch.ElapsedSeconds();
    if (elapsed >= 0.08) break;
    reps *= 4;
  }
  return static_cast<double>(pairs_per_call) * static_cast<double>(reps) /
         elapsed;
}

std::vector<float> RandomPacked(uint64_t seed, size_t n, uint32_t dim) {
  Rng rng(seed);
  std::vector<float> out(n * dim);
  for (auto& x : out) x = static_cast<float>(rng.Normal());
  return out;
}

struct TileRow {
  const char* metric;
  uint32_t dim;
  double per_pair = 0.0;
  double one_to_many = 0.0;
  double tile = 0.0;
};

/// Tiled vs per-pair verification throughput over a synthetic gathered
/// candidate set: kRows query rows against kCands candidates, the shape the
/// pipeline's EvaluateGroup produces.
TileRow TileExperiment(const char* metric_name, uint32_t dim) {
  constexpr size_t kRows = 8;     // pipeline tile height (kTileRows)
  constexpr size_t kCands = 2048; // a hot column's candidate list
  auto metric = MakeMetric(metric_name);
  const KernelSet* ks = metric->kernels();
  const auto qs = RandomPacked(2, kRows, dim);
  const auto base = RandomPacked(3, kCands, dim);
  std::vector<float> bnorms(kCands);
  ks->ops->norms(base.data(), kCands, dim, bnorms.data());
  std::vector<double> qnorms(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    qnorms[r] = ks->QueryNorm(qs.data() + r * dim, dim);
  }
  const size_t pairs = kRows * kCands;
  std::vector<double> out(pairs);

  TileRow row{metric_name, dim};
  // The pre-pipeline idiom: one Cmp1Normed call per (query, candidate).
  row.per_pair = MeasurePairsPerSec(pairs, [&] {
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < kCands; ++c) {
        out[r * kCands + c] =
            ks->Cmp1Normed(qs.data() + r * dim, base.data() + c * dim, dim,
                           qnorms[r], bnorms[c]);
      }
    }
  });
  // One-to-many per row: batched over candidates, but the candidate matrix
  // is re-streamed once per row.
  row.one_to_many = MeasurePairsPerSec(pairs, [&] {
    for (size_t r = 0; r < kRows; ++r) {
      ks->CmpTileNormed(qs.data() + r * dim, &qnorms[r], base.data(),
                        bnorms.data(), 1, kCands, dim, out.data() + r * kCands);
    }
  });
  // The pipeline's many-to-many tile.
  row.tile = MeasurePairsPerSec(pairs, [&] {
    ks->CmpTileNormed(qs.data(), qnorms.data(), base.data(), bnorms.data(),
                      kRows, kCands, dim, out.data());
  });
  return row;
}

int PipelineExperiment() {
  // ---------------------------------------------------------------- tiles
  std::printf("\ntiled vs per-pair verification (pairs/sec, 8 rows x 2048 "
              "candidates)\n");
  std::printf("%8s %5s %14s %14s %14s %9s\n", "metric", "dim", "per-pair",
              "one-to-many", "tile", "speedup");
  BenchJson json("pipeline", 2);
  for (const char* name : {"l2", "cosine", "l1"}) {
    for (uint32_t dim : {50u, 300u}) {
      const TileRow row = TileExperiment(name, dim);
      const double speedup = row.tile / std::max(row.per_pair, 1e-9);
      std::printf("%8s %5u %14.0f %14.0f %14.0f %8.2fx\n", row.metric,
                  row.dim, row.per_pair, row.one_to_many, row.tile, speedup);
      json.Row(std::string("tile ") + name + " dim=" + std::to_string(dim))
          .Num("per_pair_pairs_per_sec", row.per_pair, 0)
          .Num("one_to_many_pairs_per_sec", row.one_to_many, 0)
          .Num("tile_pairs_per_sec", row.tile, 0)
          .Num("tile_speedup_vs_per_pair", speedup, 2);
    }
  }

  // ------------------------------------------------- search-shaped corpus
  const double scale = BenchProfiles::EnvScale();
  VectorLakeOptions profile;
  profile.dim = 50;
  profile.num_columns = static_cast<uint32_t>(400 * scale);
  profile.avg_col_size = 48.0;
  profile.num_clusters = 32;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  std::printf("\nlake: %zu columns, %zu vectors, dim %u\n",
              catalog.num_columns(), catalog.num_vectors(), catalog.dim());
  L2Metric metric;
  PexesoOptions popts;
  popts.num_pivots = 5;
  popts.levels = 5;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);

  // One LARGE query column: the intra-query case batch parallelism can't
  // help with.
  VectorStore query = GenerateVectorQuery(profile, 1024, 99);
  FractionalThresholds ft{0.06, 0.5};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, profile.dim, query.size());

  // -------------------------------------------- stage-1 regression guard
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
  SearchStats gen_stats;
  const BlockResult blocks = blocker.Run(hgq, mapped_q, sopts.thresholds.tau,
                                         sopts.ablation, &gen_stats);
  VerifyPipeline pipeline(&index);
  CandidateSet cands;
  const double gen_seconds = TimeIt([&] {
    pipeline.GenerateCandidates(blocks, static_cast<uint32_t>(query.size()),
                                &cands, &gen_stats);
  });
  const double blocks_per_sec =
      static_cast<double>(cands.blocks.size()) / std::max(gen_seconds, 1e-9);
  std::printf("\ncandidate generation: %zu blocks in %.4fs (%.0f blocks/s)\n"
              "  note: two-pass counting scatter by column, linear in the "
              "postings walked.\n",
              cands.blocks.size(), gen_seconds, blocks_per_sec);
  json.Row("candidate_gen")
      .Stats(gen_stats)
      .Num("seconds", gen_seconds, 6)
      .Num("blocks_per_sec", blocks_per_sec, 0);

  // ------------------------------------------------ intra-query scaling
  std::vector<JoinableColumn> serial_results;
  double serial_wall = 0.0;
  std::printf("\nintra-query scaling, one query column of %zu vectors "
              "(hw threads: %u)\n",
              query.size(), std::thread::hardware_concurrency());
  std::printf("%8s %12s %9s %10s\n", "threads", "wall (s)", "speedup",
              "identical");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    JoinQuery topts = sopts;
    topts.intra_query_threads = threads;
    std::vector<JoinableColumn> results;
    // Best of three: thread-pool spin-up and scheduling noise dominate the
    // tail on small boxes.
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const double t = TimeIt([&] {
        results = MustSearch(searcher, query, topts);
      });
      best = std::min(best, t);
    }
    if (threads == 1) {
      serial_results = results;
      serial_wall = best;
    }
    const bool identical = SameResults(results, serial_results);
    const double speedup = serial_wall / std::max(best, 1e-9);
    std::printf("%8zu %12.4f %8.2fx %10s\n", threads, best, speedup,
                identical ? "yes" : "NO");
    json.Row("threads=" + std::to_string(threads))
        .Num("wall_seconds", best)
        .Num("speedup_vs_serial", speedup, 2)
        .Check("identical", identical);
  }
  return json.Write();
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  Banner("bench_pipeline: staged verification pipeline",
         "the tiled-verification and intra-query-parallelism levers");
  return PipelineExperiment();
}
