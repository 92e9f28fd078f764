// bench_snapshot: what the flat mmap snapshot format costs and buys.
//
//   cold load     wall time of PexesoIndex::Load on a cold cache entry
//                 (mmap + CRC pass + section validation + view binding).
//   residency     file size, and the bytes the IndexCache charges per
//                 loaded snapshot, split into private heap vs
//                 kernel-reclaimable mapped pages.
//   search        the SearchStats of one threshold-query workload over
//                 the mapped snapshot.
//
// Results go to stdout and BENCH_snapshot.json ("BENCH_snapshot/v4"): a
// snapshot row (byte counts gated, load time not) and a search row with
// its SearchStats gated.

#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/index_cache.h"

namespace pexeso::bench {
namespace {

int SnapshotExperiment(const VectorLakeOptions& profile) {
  namespace fs = std::filesystem;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  std::printf("lake: %zu columns, %zu vectors, dim %u\n",
              catalog.num_columns(), catalog.num_vectors(), catalog.dim());

  const std::string dir =
      (fs::temp_directory_path() / "pexeso_bench_snapshot").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/flat.pxso";

  L2Metric metric;
  PexesoOptions opts;
  opts.num_pivots = 5;
  opts.levels = 5;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PEXESO_CHECK(index.Save(path).ok());

  const size_t file_bytes = static_cast<size_t>(fs::file_size(path));
  size_t resident_bytes = 0;
  size_t mapped_bytes = 0;

  // Cold loads: every iteration is a full Load from disk.
  const size_t loads = 5;
  double load_seconds = 0.0;
  for (size_t i = 0; i < loads; ++i) {
    load_seconds += TimeIt([&] {
      auto loaded = PexesoIndex::Load(path, &metric);
      PEXESO_CHECK(loaded.ok());
      resident_bytes = serve::IndexCache::ResidentBytes(loaded.value());
      mapped_bytes = loaded.value().MappedBytes();
    });
  }
  load_seconds /= static_cast<double>(loads);

  std::printf("\ncold load (avg of %zu): %.2f ms  (%zu bytes on disk, %zu "
              "resident, %zu mapped)\n",
              loads, load_seconds * 1e3, file_bytes, resident_bytes,
              mapped_bytes);
  BenchJson json("snapshot", 4);
  json.Row("snapshot")
      .Int("columns", profile.num_columns)
      .Int("dim", profile.dim)
      .Count("file_bytes", file_bytes)
      .Count("resident_bytes", resident_bytes)
      .Count("mapped_bytes", mapped_bytes)
      .Int("cold_loads", loads)
      .Num("cold_load_seconds", load_seconds, 6);

  // One threshold workload over the mapped snapshot. Counters, not wall
  // time.
  auto loaded = PexesoIndex::Load(path, &metric);
  PEXESO_CHECK(loaded.ok());
  PexesoIndex flat = std::move(loaded).ValueOrDie();
  PexesoSearcher engine(&flat);
  const size_t num_queries = std::max<size_t>(8, NumQueries(8));
  std::vector<VectorStore> queries = MakeQueries(profile, num_queries, 20);
  FractionalThresholds ft{0.05, 0.6};
  JoinQuery jq;
  jq.thresholds = ft.Resolve(metric, profile.dim, 20);

  SearchStats stats;
  for (const auto& q : queries) MustSearch(engine, q, jq, &stats);

  std::printf("\nsearch over the mapped snapshot (%zu queries):\n",
              num_queries);
  std::printf("  float distances      %12llu\n",
              static_cast<unsigned long long>(stats.distance_computations));
  json.Row("search").Int("queries", num_queries).Stats(stats);
  fs::remove_all(dir);
  return json.Write();
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_snapshot: flat mmap snapshots",
         "the serving-layer cold-start and verification cost");
  const double scale = BenchProfiles::EnvScale();
  return SnapshotExperiment(BenchProfiles::LwdcLike(scale));
}
