// bench_serve: cold vs warm partitioned batch throughput through the
// serving layer.
//
// The pre-serving out-of-core path re-read and deserialized every partition
// file per query, so a batch cost O(queries x partitions) disk loads. This
// bench measures what the serving layer buys on one batch:
//
//   cold          the seed behavior: no cache, query-major — every query
//                 loads every partition itself
//   part-major    no cache, partition-major batch loop — each partition is
//                 loaded once per batch and held while all queries scan it
//   warm          IndexCache holding every partition (pre-warmed by
//                 pinning), query-major — all loads are cache hits
//
// Results (queries/s and speedup vs cold, plus a determinism check against
// the serial Execute oracle) go to stdout and BENCH_serve.json
// ("BENCH_serve/v1") so successive PRs can track the trajectory.
// Acceptance floor: warm >= 5x cold with >= 16 queries over >= 4
// partitions.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/batch_runner.h"
#include "partition/partitioned_pexeso.h"
#include "partition/partitioner.h"
#include "serve/index_cache.h"

namespace pexeso::bench {
namespace {

struct Row {
  const char* name;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double io_seconds = 0.0;
  bool identical = true;
};

bool SameResults(const std::vector<std::vector<JoinableColumn>>& a,
                 const std::vector<std::vector<JoinableColumn>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].column != b[i][j].column ||
          a[i][j].match_count != b[i][j].match_count) {
        return false;
      }
    }
  }
  return true;
}

void WriteServeBenchJson(size_t queries, size_t partitions,
                         size_t cache_budget_mb, const std::vector<Row>& rows,
                         const serve::IndexCacheStats& warm_cache) {
  const char* path_env = std::getenv("PEXESO_BENCH_SERVE_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_serve.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const double cold_qps = rows.front().qps;
  std::fprintf(f, "{\n  \"schema\": \"BENCH_serve/v1\",\n");
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"queries\": %zu,\n  \"partitions\": %zu,\n", queries,
               partitions);
  std::fprintf(f, "  \"cache_budget_mb\": %zu,\n", cache_budget_mb);
  std::fprintf(f, "  \"results\": [");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"mode\": \"%s\", \"wall_seconds\": %.6f, "
                 "\"queries_per_sec\": %.1f, \"io_seconds\": %.6f, "
                 "\"speedup_vs_cold\": %.2f, \"identical\": %s}",
                 i == 0 ? "" : ",", rows[i].name, rows[i].wall_seconds,
                 rows[i].qps, rows[i].io_seconds,
                 rows[i].qps / std::max(cold_qps, 1e-9),
                 rows[i].identical ? "true" : "false");
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f,
               "  \"warm_cache\": {\"hits\": %llu, \"misses\": %llu, "
               "\"hit_rate\": %.4f, \"bytes_resident\": %zu}\n}\n",
               static_cast<unsigned long long>(warm_cache.hits),
               static_cast<unsigned long long>(warm_cache.misses),
               warm_cache.HitRate(), warm_cache.bytes_resident);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

void ServeExperiment(const VectorLakeOptions& profile) {
  namespace fs = std::filesystem;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  std::printf("lake: %zu columns, %zu vectors, dim %u\n",
              catalog.num_columns(), catalog.num_vectors(), catalog.dim());

  const std::string dir =
      (fs::temp_directory_path() / "pexeso_bench_serve").string();
  fs::remove_all(dir);
  L2Metric metric;
  Partitioner::Options popts;
  popts.k = 4;
  auto assignment = Partitioner::JsdClustering(catalog, popts);
  PexesoOptions opts;
  opts.num_pivots = 5;
  opts.levels = 5;
  auto built =
      PartitionedPexeso::Build(catalog, assignment, dir, &metric, opts);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return;
  }
  PartitionedPexeso& parts = built.value();
  std::printf("partitions: %zu, %.2f MB on disk\n", parts.num_partitions(),
              parts.DiskBytes() / 1e6);

  const size_t num_queries = std::max<size_t>(16, NumQueries(24));
  std::vector<VectorStore> queries = MakeQueries(profile, num_queries, 20);
  FractionalThresholds ft{0.05, 0.6};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, profile.dim, 20);
  const size_t threads = std::min<size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));

  // The determinism oracle: the serial Execute per query.
  std::vector<std::vector<JoinableColumn>> oracle;
  for (const auto& q : queries) {
    auto r = ExecuteCollect(parts, BindQuery(q, sopts));
    if (!r.ok()) {
      std::fprintf(stderr, "oracle search failed: %s\n",
                   r.status().ToString().c_str());
      return;
    }
    oracle.push_back(std::move(r).ValueOrDie());
  }

  std::printf("\nbatch: %zu query columns of 20 vectors, %zu threads\n",
              num_queries, threads);
  std::printf("%12s %12s %12s %12s %10s %10s\n", "mode", "wall (s)",
              "queries/s", "io (s)", "speedup", "identical");

  std::vector<Row> rows;
  const size_t budget_mb = 512;
  serve::IndexCacheStats warm_cache_stats;
  auto run = [&](const char* name, BatchPartitionMode mode,
                 serve::IndexCache* cache, bool prewarm) {
    parts.AttachCache(cache);
    if (prewarm && cache != nullptr) {
      for (size_t p = 0; p < parts.num_partitions(); ++p) {
        if (!cache->Pin(parts.PartPath(p), &metric).ok()) {
          std::fprintf(stderr, "prewarm failed\n");
          return;
        }
      }
    }
    BatchQueryRunner runner(
        &parts, {.num_threads = threads, .partition_mode = mode});
    BatchResult batch = runner.Run(BindQueries(queries, sopts));
    Row row;
    row.name = name;
    row.wall_seconds = batch.wall_seconds;
    row.qps = static_cast<double>(num_queries) /
              std::max(batch.wall_seconds, 1e-9);
    row.io_seconds = batch.io_seconds;
    row.identical = SameResults(batch.results, oracle);
    rows.push_back(row);
    const double speedup = row.qps / std::max(rows.front().qps, 1e-9);
    std::printf("%12s %12.4f %12.1f %12.4f %9.2fx %10s\n", name,
                row.wall_seconds, row.qps, row.io_seconds, speedup,
                row.identical ? "yes" : "NO");
    parts.AttachCache(nullptr);
  };

  // Cold: the seed behavior — query-major, no cache, every query pays
  // every partition load.
  run("cold", BatchPartitionMode::kQueryMajor, nullptr, false);
  // Partition-major, still uncached: one load per partition per batch.
  run("part-major", BatchPartitionMode::kPartitionMajor, nullptr, false);
  // Warm: budget holds all partitions, pinned ahead of the batch.
  {
    serve::IndexCache cache({.budget_bytes = budget_mb << 20});
    run("warm", BatchPartitionMode::kQueryMajor, &cache, true);
    warm_cache_stats = cache.stats();
  }

  WriteServeBenchJson(num_queries, parts.num_partitions(), budget_mb, rows,
                      warm_cache_stats);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_serve: cold vs warm partitioned batch throughput",
         "the serving-layer amortization of Section IV at batch scale");
  const double scale = BenchProfiles::EnvScale();
  ServeExperiment(BenchProfiles::LwdcLike(scale));
  return 0;
}
