// bench_snapshot: what the flat mmap snapshot format and the int8
// quantized pre-filter tier cost and buy.
//
//   cold load     wall time of PexesoIndex::Load on a cold cache entry
//                 (mmap + CRC pass + section validation + view binding).
//   residency     file size, and the bytes the IndexCache charges per
//                 loaded snapshot, split into private heap vs
//                 kernel-reclaimable mapped pages.
//   quant tier    float distance computations with the pre-filter off vs
//                 on, over one threshold-query workload. The reduction is
//                 a counter ratio, not wall time, so it is stable on the
//                 single-core CI box. Acceptance: >= 30% of float
//                 distances skipped, results identical.
//
// Results go to stdout and BENCH_snapshot.json ("BENCH_snapshot/v3"): a
// snapshot row (byte counts gated, load time not) and one row per quant
// setting with its SearchStats gated.

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
  BenchJson json("snapshot", 3);
  json.Row("snapshot")
      .Int("columns", profile.num_columns)
      .Int("dim", profile.dim)
      .Count("file_bytes", file_bytes)
      .Count("resident_bytes", resident_bytes)
      .Count("mapped_bytes", mapped_bytes)
      .Int("cold_loads", loads)
      .Num("cold_load_seconds", load_seconds, 6);

  // Quant tier: one threshold workload, pre-filter off vs on, over the
  // mapped snapshot. Counters, not wall time.
  auto loaded = PexesoIndex::Load(path, &metric);
  PEXESO_CHECK(loaded.ok());
  PexesoIndex flat = std::move(loaded).ValueOrDie();
  PexesoSearcher engine(&flat);
  const size_t num_queries = std::max<size_t>(8, NumQueries(8));
  std::vector<VectorStore> queries = MakeQueries(profile, num_queries, 20);
  FractionalThresholds ft{0.05, 0.6};
  JoinQuery jq;
  jq.thresholds = ft.Resolve(metric, profile.dim, 20);

  SearchStats off_stats, on_stats;
  bool identical = true;
  for (const auto& q : queries) {
    JoinQuery off = jq;
    off.ablation.use_quant_prefilter = false;
    JoinQuery on = jq;
    on.ablation.use_quant_prefilter = true;
    identical = SameResults(MustSearch(engine, q, off, &off_stats),
                            MustSearch(engine, q, on, &on_stats)) &&
                identical;
  }
  const uint64_t dc_off = off_stats.distance_computations;
  const uint64_t skips_on = on_stats.quant_tile_skips;
  const double reduction =
      dc_off == 0 ? 0.0
                  : static_cast<double>(skips_on) / static_cast<double>(dc_off);

  std::printf("\nquant pre-filter (%zu queries):\n", num_queries);
  std::printf("  float distances off  %12llu\n",
              static_cast<unsigned long long>(dc_off));
  std::printf("  float distances on   %12llu\n",
              static_cast<unsigned long long>(on_stats.distance_computations));
  std::printf("  quant tile skips     %12llu\n",
              static_cast<unsigned long long>(skips_on));
  std::printf("  reduction            %11.1f%%  (acceptance floor: 30%%)\n",
              100.0 * reduction);
  std::printf("  identical results    %12s\n", identical ? "yes" : "NO");

  json.Row("quant=off").Int("queries", num_queries).Stats(off_stats);
  json.Row("quant=on")
      .Int("queries", num_queries)
      .Stats(on_stats)
      .Num("float_distance_reduction", reduction)
      .Check("identical", identical);
  fs::remove_all(dir);
  return json.Write();
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_snapshot: flat mmap snapshots + int8 quant pre-filter",
         "the serving-layer cold-start and verification cost");
  const double scale = BenchProfiles::EnvScale();
  return SnapshotExperiment(BenchProfiles::LwdcLike(scale));
}
