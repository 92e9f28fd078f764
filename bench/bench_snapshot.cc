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
// Results go to stdout and BENCH_snapshot.json ("BENCH_snapshot/v2").

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/index_cache.h"

namespace pexeso::bench {
namespace {

struct SnapshotNumbers {
  double load_seconds = 0.0;
  size_t file_bytes = 0;
  size_t resident_bytes = 0;
  size_t mapped_bytes = 0;
  uint64_t dc_off = 0;   ///< float distance computations, quant off
  uint64_t dc_on = 0;    ///< float distance computations, quant on
  uint64_t skips_on = 0; ///< quant-proven skips, quant on
  bool identical = true;
};

void WriteSnapshotBenchJson(const VectorLakeOptions& profile, size_t loads,
                            size_t queries, const SnapshotNumbers& n) {
  const char* path_env = std::getenv("PEXESO_BENCH_SNAPSHOT_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_snapshot.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const double reduction =
      n.dc_off == 0 ? 0.0
                    : static_cast<double>(n.skips_on) /
                          static_cast<double>(n.dc_off);
  std::fprintf(f, "{\n  \"schema\": \"BENCH_snapshot/v2\",\n");
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"columns\": %u,\n  \"dim\": %u,\n",
               profile.num_columns, profile.dim);
  std::fprintf(f, "  \"cold_loads\": %zu,\n  \"queries\": %zu,\n", loads,
               queries);
  std::fprintf(f, "  \"cold_load\": {\"seconds\": %.6f},\n",
               n.load_seconds);
  std::fprintf(f,
               "  \"bytes\": {\"file\": %zu, \"resident\": %zu, "
               "\"mapped\": %zu},\n",
               n.file_bytes, n.resident_bytes, n.mapped_bytes);
  std::fprintf(f,
               "  \"quant_prefilter\": {\"distance_computations_off\": "
               "%llu, \"distance_computations_on\": %llu, "
               "\"quant_tile_skips\": %llu, \"float_distance_reduction\": "
               "%.4f, \"identical\": %s}\n}\n",
               static_cast<unsigned long long>(n.dc_off),
               static_cast<unsigned long long>(n.dc_on),
               static_cast<unsigned long long>(n.skips_on), reduction,
               n.identical ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

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

void SnapshotExperiment(const VectorLakeOptions& profile) {
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

  SnapshotNumbers n;
  n.file_bytes = static_cast<size_t>(fs::file_size(path));

  // Cold loads: every iteration is a full Load from disk.
  const size_t loads = 5;
  for (size_t i = 0; i < loads; ++i) {
    n.load_seconds += TimeIt([&] {
      auto loaded = PexesoIndex::Load(path, &metric);
      PEXESO_CHECK(loaded.ok());
      n.resident_bytes = serve::IndexCache::ResidentBytes(loaded.value());
      n.mapped_bytes = loaded.value().MappedBytes();
    });
  }
  n.load_seconds /= static_cast<double>(loads);

  std::printf("\ncold load (avg of %zu): %.2f ms  (%zu bytes on disk, %zu "
              "resident, %zu mapped)\n",
              loads, n.load_seconds * 1e3, n.file_bytes, n.resident_bytes,
              n.mapped_bytes);

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

  std::vector<std::vector<JoinableColumn>> results_off, results_on;
  SearchStats off_stats, on_stats;
  for (const auto& q : queries) {
    JoinQuery off = jq;
    off.ablation.use_quant_prefilter = false;
    results_off.push_back(MustSearch(engine, q, off, &off_stats));
    JoinQuery on = jq;
    on.ablation.use_quant_prefilter = true;
    results_on.push_back(MustSearch(engine, q, on, &on_stats));
  }
  n.dc_off = off_stats.distance_computations;
  n.dc_on = on_stats.distance_computations;
  n.skips_on = on_stats.quant_tile_skips;
  n.identical = SameResults(results_off, results_on);

  std::printf("\nquant pre-filter (%zu queries):\n", num_queries);
  std::printf("  float distances off  %12llu\n",
              static_cast<unsigned long long>(n.dc_off));
  std::printf("  float distances on   %12llu\n",
              static_cast<unsigned long long>(n.dc_on));
  std::printf("  quant tile skips     %12llu\n",
              static_cast<unsigned long long>(n.skips_on));
  std::printf("  reduction            %11.1f%%  (acceptance floor: 30%%)\n",
              n.dc_off == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(n.skips_on) /
                        static_cast<double>(n.dc_off));
  std::printf("  identical results    %12s\n", n.identical ? "yes" : "NO");

  WriteSnapshotBenchJson(profile, loads, num_queries, n);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_snapshot: flat mmap snapshots + int8 quant pre-filter",
         "the serving-layer cold-start and verification cost");
  const double scale = BenchProfiles::EnvScale();
  SnapshotExperiment(BenchProfiles::LwdcLike(scale));
  return 0;
}
