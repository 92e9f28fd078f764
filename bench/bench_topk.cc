// bench_topk: the kTopK pushdown, measured against the legacy wrapper.
//
// The pre-redesign SearchTopK relaxed T to 1 and exact-verified EVERY
// column before ranking; QueryMode::kTopK feeds the running k-th-best
// joinability bound back into the staged verifier as a dynamic early-exit
// threshold, so non-contending columns are abandoned mid-verification.
// This bench runs both on the same lake and reports, per k:
//
//   wrapper_distance_computations / topk_distance_computations (the
//   counter-based win — meaningful on a 1-core CI box), pairs/sec for
//   both paths, columns_pruned_topk, and a byte-identical results check.
//
// kTopK always verifies a shard's columns in descending upper-bound order.
//
// Results go to stdout and BENCH_topk.json ("BENCH_topk/v2"), like the
// other BENCH_*.json files, so successive PRs track the trajectory.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/topk.h"

namespace pexeso::bench {
namespace {

struct TopKRow {
  size_t k = 0;
  uint64_t wrapper_dist = 0;
  uint64_t topk_dist = 0;
  uint64_t pruned_columns = 0;
  double wrapper_seconds = 0.0;
  double topk_seconds = 0.0;
  bool identical = true;
};

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

bool SameResults(const std::vector<JoinableColumn>& a,
                 const std::vector<JoinableColumn>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].column != b[i].column || a[i].match_count != b[i].match_count) {
      return false;
    }
  }
  return true;
}

void WriteTopKBenchJson(const std::vector<TopKRow>& rows) {
  const char* path_env = std::getenv("PEXESO_BENCH_TOPK_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_topk.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"BENCH_topk/v2\",\n");
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"topk\": [");
  for (size_t i = 0; i < rows.size(); ++i) {
    const TopKRow& r = rows[i];
    const double wrapper_pps =
        static_cast<double>(r.wrapper_dist) /
        std::max(r.wrapper_seconds, 1e-9);
    const double topk_pps =
        static_cast<double>(r.topk_dist) / std::max(r.topk_seconds, 1e-9);
    std::fprintf(
        f,
        "%s\n    {\"k\": %zu, "
        "\"wrapper_distance_computations\": %llu, "
        "\"topk_distance_computations\": %llu, "
        "\"distance_reduction\": %.2f, "
        "\"columns_pruned_topk\": %llu, "
        "\"wrapper_pairs_per_sec\": %.0f, "
        "\"topk_pairs_per_sec\": %.0f, "
        "\"wrapper_seconds\": %.4f, \"topk_seconds\": %.4f, "
        "\"identical\": %s}",
        i == 0 ? "" : ",", r.k,
        static_cast<unsigned long long>(r.wrapper_dist),
        static_cast<unsigned long long>(r.topk_dist),
        static_cast<double>(r.wrapper_dist) /
            std::max<double>(static_cast<double>(r.topk_dist), 1.0),
        static_cast<unsigned long long>(r.pruned_columns), wrapper_pps,
        topk_pps, r.wrapper_seconds, r.topk_seconds,
        r.identical ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

void TopKExperiment() {
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

  std::vector<TopKRow> rows;
  for (size_t k : {size_t{1}, size_t{5}, size_t{25}}) {
    TopKRow row;
    row.k = k;
    for (const VectorStore& query : queries) {
      SearchStats wstats;
      std::vector<JoinableColumn> want;
      row.wrapper_seconds += TimeIt(
          [&] { want = WrapperTopK(searcher, query, tau, k, &wstats); });
      row.wrapper_dist += wstats.distance_computations;

      JoinQuery jq;
      jq.vectors = &query;
      jq.mode = QueryMode::kTopK;
      jq.k = k;
      jq.thresholds.tau = tau;
      SearchStats tstats;
      CollectSink sink;
      row.topk_seconds += TimeIt([&] {
        const Status st = searcher.Execute(jq, &sink, &tstats);
        if (!st.ok()) std::abort();
      });
      row.topk_dist += tstats.distance_computations;
      row.pruned_columns += tstats.columns_pruned_topk;
      row.identical = row.identical && SameResults(sink.columns(), want);
    }
    rows.push_back(row);
    std::printf("%6zu %16llu %16llu %9.2fx %10llu %10s\n", k,
                static_cast<unsigned long long>(row.wrapper_dist),
                static_cast<unsigned long long>(row.topk_dist),
                static_cast<double>(row.wrapper_dist) /
                    std::max<double>(static_cast<double>(row.topk_dist), 1.0),
                static_cast<unsigned long long>(row.pruned_columns),
                row.identical ? "yes" : "NO");
  }
  WriteTopKBenchJson(rows);
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  Banner("bench_topk: kTopK pushdown vs the legacy wrapper",
         "the top-k consumption mode of the ranked-search redesign");
  TopKExperiment();
  return 0;
}
