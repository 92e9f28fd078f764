// bench_topk: the kTopK pushdown, measured against the legacy wrapper.
//
// The pre-redesign SearchTopK relaxed T to 1 and exact-verified EVERY
// column before ranking; QueryMode::kTopK feeds the running k-th-best
// joinability bound back into the staged verifier as a dynamic early-exit
// threshold, so non-contending columns are abandoned mid-verification.
// This bench runs both on the same lake and reports, per k:
//
//   the wrapper's exact distance computations vs kTopK's (the
//   counter-based win — meaningful on a 1-core CI box), pairs/sec for
//   both paths, kTopK's pruned columns, and a byte-identical results check.
//
// kTopK always verifies a shard's columns in descending upper-bound order.
//
// Results go to stdout and BENCH_topk.json ("BENCH_topk/v3"): one row per
// k, the wrapper's distance count and the kTopK run's SearchStats gated.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/topk.h"

namespace pexeso::bench {
namespace {

/// The legacy wrapper, spelled out: exact-verify everything at T=1, rank,
/// truncate.
std::vector<JoinableColumn> WrapperTopK(const JoinSearchEngine& engine,
                                        const VectorStore& query, double tau,
                                        size_t k, SearchStats* stats) {
  JoinQuery options;
  options.thresholds.tau = tau;
  options.thresholds.t_abs = 1;
  options.mode = QueryMode::kExactJoinability;
  std::vector<JoinableColumn> all = MustSearch(engine, query, options, stats);
  RankTopK(&all, k);
  return all;
}

int TopKExperiment() {
  const double scale = BenchProfiles::EnvScale();
  VectorLakeOptions profile;
  profile.dim = 50;
  profile.num_columns = static_cast<uint32_t>(400 * scale);
  profile.avg_col_size = 48.0;
  profile.num_clusters = 32;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  std::printf("lake: %zu columns, %zu vectors, dim %u\n",
              catalog.num_columns(), catalog.num_vectors(), catalog.dim());
  L2Metric metric;
  PexesoOptions popts;
  popts.num_pivots = 5;
  popts.levels = 5;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);

  const std::vector<VectorStore> queries = MakeQueries(profile, 4, 256);
  FractionalThresholds ft{0.06, 0.5};
  const double tau =
      ft.Resolve(metric, profile.dim, queries[0].size()).tau;

  std::printf("\nkTopK pushdown vs verify-everything wrapper "
              "(%zu query columns of %zu vectors, tau=%.3f)\n",
              queries.size(), queries[0].size(), tau);
  std::printf("%6s %16s %16s %10s %10s %10s\n", "k", "wrapper dist",
              "topk dist", "reduction", "pruned", "identical");

  BenchJson json("topk", 3);
  for (size_t k : {size_t{1}, size_t{5}, size_t{25}}) {
    uint64_t wrapper_dist = 0;
    SearchStats topk_stats;
    double wrapper_seconds = 0.0;
    double topk_seconds = 0.0;
    bool identical = true;
    for (const VectorStore& query : queries) {
      SearchStats wstats;
      std::vector<JoinableColumn> want;
      wrapper_seconds += TimeIt(
          [&] { want = WrapperTopK(searcher, query, tau, k, &wstats); });
      wrapper_dist += wstats.distance_computations;

      JoinQuery jq;
      jq.vectors = &query;
      jq.mode = QueryMode::kTopK;
      jq.k = k;
      jq.thresholds.tau = tau;
      CollectSink sink;
      topk_seconds += TimeIt([&] {
        const Status st = searcher.Execute(jq, &sink, &topk_stats);
        if (!st.ok()) std::abort();
      });
      identical = identical && SameResults(sink.columns(), want);
    }
    const uint64_t topk_dist = topk_stats.distance_computations;
    const double reduction = static_cast<double>(wrapper_dist) /
                             std::max<double>(static_cast<double>(topk_dist),
                                              1.0);
    json.Row("k=" + std::to_string(k))
        .Count("wrapper_distance_computations", wrapper_dist)
        .Stats(topk_stats)
        .Num("distance_reduction", reduction, 2)
        .Num("wrapper_pairs_per_sec",
             static_cast<double>(wrapper_dist) /
                 std::max(wrapper_seconds, 1e-9),
             0)
        .Num("topk_pairs_per_sec",
             static_cast<double>(topk_dist) / std::max(topk_seconds, 1e-9), 0)
        .Num("wrapper_seconds", wrapper_seconds)
        .Num("topk_seconds", topk_seconds)
        .Check("identical", identical);
    std::printf("%6zu %16llu %16llu %9.2fx %10llu %10s\n", k,
                static_cast<unsigned long long>(wrapper_dist),
                static_cast<unsigned long long>(topk_dist), reduction,
                static_cast<unsigned long long>(
                    topk_stats.columns_pruned_topk),
                identical ? "yes" : "NO");
  }
  return json.Write();
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  Banner("bench_topk: kTopK pushdown vs the legacy wrapper",
         "the top-k consumption mode of the ranked-search redesign");
  return TopKExperiment();
}
