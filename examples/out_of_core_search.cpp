// Out-of-core joinable table search, serving-layer edition: the repository
// is partitioned by JSD clustering (paper Section IV), each partition is
// indexed and serialized to disk, and queries are served through the
// serve:: layer — a memory-budgeted IndexCache so a batch of queries
// deserializes each partition once (not once per query), and an async
// ServeSession that streams per-partition result chunks as they complete.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "datagen/vector_lake.h"
#include "lake/lake_manager.h"
#include "partition/partitioned_pexeso.h"
#include "serve/index_cache.h"
#include "serve/serve_session.h"

namespace {

/// A streaming consumer that surfaces degraded-mode serving: OnPartStatus
/// names each part whose contribution is missing while the healthy parts'
/// answer still arrives through OnColumn.
struct DegradationPrintingSink final : pexeso::ResultSink {
  size_t columns = 0;
  void OnColumn(pexeso::JoinableColumn&&) override { ++columns; }
  void OnPartStatus(size_t part, const pexeso::Status& status) override {
    std::printf("  [part %zu] missing from this answer: %s\n", part,
                status.ToString().c_str());
  }
  void OnDone(const pexeso::Status& status) override {
    std::printf("  done: %s — %zu joinable column(s) from the healthy "
                "parts\n",
                status.ok() ? "OK" : status.ToString().c_str(), columns);
  }
};

}  // namespace

int main() {
  using namespace pexeso;
  namespace fs = std::filesystem;

  // A mid-sized embedded repository (vectors only; in production these come
  // from TableRepository + an embedding model).
  VectorLakeOptions lake_opts;
  lake_opts.dim = 50;
  lake_opts.num_columns = 800;
  lake_opts.avg_col_size = 14;
  ColumnCatalog catalog = GenerateVectorLake(lake_opts);
  std::printf("repository: %zu columns, %zu vectors, dim %u\n",
              catalog.num_columns(), catalog.num_vectors(), catalog.dim());

  // 1. Partition by column-distribution similarity (JSD clustering).
  Partitioner::Options popts;
  popts.k = 4;
  PartitionAssignment assignment = Partitioner::JsdClustering(catalog, popts);

  // 2. Build one PexesoIndex per partition, serialized under a directory.
  const std::string dir =
      (fs::temp_directory_path() / "pexeso_example_parts").string();
  fs::remove_all(dir);
  L2Metric metric;
  PexesoOptions opts;
  opts.num_pivots = 5;
  opts.levels = 5;
  auto built = PartitionedPexeso::Build(catalog, assignment, dir, &metric,
                                        opts);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  PartitionedPexeso& parts = built.value();
  std::printf("partitions: %zu files, %.2f MB on disk at %s\n",
              parts.num_partitions(), parts.DiskBytes() / 1e6, dir.c_str());

  // 3. Attach the serving cache and warm it by pinning every partition —
  // pinned entries are exempt from eviction, so the whole batch below runs
  // from memory.
  serve::IndexCache cache({.budget_bytes = 512ull << 20});
  parts.AttachCache(&cache);
  for (size_t p = 0; p < parts.num_partitions(); ++p) {
    if (!cache.Pin(parts.PartPath(p), &metric).ok()) {
      std::fprintf(stderr, "warm-up pin failed for partition %zu\n", p);
      return 1;
    }
  }

  // 4. Serve a small query batch asynchronously. The first query streams:
  // its callback fires once per partition, as that partition's search
  // completes — a consumer can show partial joinable sets long before the
  // slowest partition finishes.
  constexpr size_t kQueries = 8;
  std::vector<VectorStore> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back(GenerateVectorQuery(lake_opts, 40, 777 + i * 13));
  }
  FractionalThresholds ft{0.06, 0.5};
  const SearchThresholds thresholds =
      ft.Resolve(metric, lake_opts.dim, queries[0].size());
  const auto make_request = [&](size_t i) {
    JoinQuery jq;
    jq.vectors = &queries[i];
    jq.thresholds = thresholds;
    // A per-query wall budget: a query past it returns the partitions that
    // completed as partial results instead of occupying the pool.
    jq.deadline = Deadline::After(30.0);
    return jq;
  };

  serve::ServeSession session(&parts, {.num_threads = 4});
  std::mutex print_mu;
  session.SubmitStreaming(make_request(0),
                          [&](const serve::StreamChunk& chunk) {
                            std::lock_guard<std::mutex> lock(print_mu);
                            std::printf(
                                "  [stream] query 0, part %zu/%zu: %zu "
                                "joinable column(s)%s\n",
                                chunk.part + 1, chunk.parts_total,
                                chunk.results.size(),
                                chunk.last ? " (done)" : "");
                          });
  for (size_t i = 1; i < kQueries; ++i) {
    session.Submit(make_request(i));
  }
  auto outcomes = session.Drain();

  // 5. Outcomes arrive in submission order with deterministic merged
  // results (byte-identical to the engine's serial Execute: the session
  // runs each part through the same PartRunner).
  std::printf("\nserved %zu queries:\n", outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].status.ok()) {
      std::printf("  query %zu FAILED: %s\n", i,
                  outcomes[i].status.ToString().c_str());
      continue;
    }
    std::printf("  query %zu: %zu joinable columns (%.4fs IO, %llu exact "
                "distance computations)\n",
                i, outcomes[i].results.size(), outcomes[i].io_seconds,
                static_cast<unsigned long long>(
                    outcomes[i].stats.distance_computations));
  }

  const serve::IndexCacheStats cs = cache.stats();
  std::printf("\nindex cache: %llu hits / %llu misses (%.1f%% hit rate), "
              "%zu resident entries, %.2f MB\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses), cs.HitRate() * 100,
              cs.entries, cs.bytes_resident / 1e6);
  std::printf("(the pre-serving loop paid %zu partition deserializations "
              "for this batch; the cache paid %llu)\n",
              kQueries * parts.num_partitions(),
              static_cast<unsigned long long>(cs.misses));
  fs::remove_all(dir);

  // 6. Degraded-mode serving: a lake whose part base goes bad on disk keeps
  // answering from the healthy parts, reporting exactly what is missing
  // through ResultSink::OnPartStatus instead of failing the query — the
  // same policy every partitioned entry point applies.
  std::printf("\ndegraded-mode serving (one part base corrupted on disk):\n");
  const std::string lake_dir =
      (fs::temp_directory_path() / "pexeso_example_lake").string();
  fs::remove_all(lake_dir);
  VectorLakeOptions small_opts = lake_opts;
  small_opts.num_columns = 90;
  ColumnCatalog lake_catalog = GenerateVectorLake(small_opts);
  PartitionAssignment lake_assignment(lake_catalog.num_columns());
  for (uint32_t c = 0; c < lake_catalog.num_columns(); ++c) {
    lake_assignment[c] = c % 3;
  }
  lake::LakeOptions lopts;
  lopts.index_options = opts;
  std::string victim_base;
  {
    auto created = lake::LakeManager::Create(lake_catalog, lake_assignment,
                                             lake_dir, &metric, lopts);
    if (!created.ok()) {
      std::fprintf(stderr, "lake create failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    auto manager = std::move(created).ValueOrDie();
    victim_base = manager->PartPath(0, manager->generation(0));
  }
  {
    // Scribble over the middle of part 0's base: the CRC-checked loader
    // will reject it on the next open.
    std::fstream f(victim_base,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(512);
    f.write("\xde\xad\xbe\xef", 4);
  }
  auto reopened = lake::LakeManager::Open(lake_dir, &metric, lopts);
  if (!reopened.ok()) {
    std::fprintf(stderr, "lake reopen failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  auto lake = std::move(reopened).ValueOrDie();
  std::printf("  recovery quarantined %zu part(s)\n",
              lake->Health().quarantined_parts);
  JoinQuery degraded_jq;
  degraded_jq.vectors = &queries[0];
  degraded_jq.thresholds = thresholds;
  SearchStats degraded_stats;
  DegradationPrintingSink degradation_sink;
  lake->Execute(degraded_jq, &degradation_sink, &degraded_stats);
  std::printf("  (stats: %llu partial response(s), %llu quarantined "
              "part(s) encountered)\n",
              static_cast<unsigned long long>(
                  degraded_stats.partial_responses),
              static_cast<unsigned long long>(
                  degraded_stats.parts_quarantined));
  fs::remove_all(lake_dir);
  return 0;
}
