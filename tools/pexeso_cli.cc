// pexeso_cli: command-line driver for the PEXESO library.
//
//   pexeso_cli index  --input <csv-dir> --output <index-file|partition-dir>
//                     [--pivots N] [--levels M] [--partitions K]
//                     [--model chargram|wordavg]
//                     [--dim D] [--metric l2|cosine|l1]
//   pexeso_cli search --index <index-file|partition-dir> --query <csv>
//                     [--column <name>] [--tau F] [--t F] [--topk K]
//                     [--deadline-ms MS] [--mappings] [--stats] [--stream]
//                     [--threads N] [--intra-threads N]
//                     [--engine pexeso|pexeso-h|naive] [--cache-mb MB]
//                     [--model chargram|wordavg] [--dim D]
//   pexeso_cli batch  --index <index-file|partition-dir> --queries <csv-dir>
//                     [--threads N] [--intra-threads N] [--tau F] [--t F]
//                     [--topk K] [--deadline-ms MS] [--stats] [--stream]
//                     [--engine pexeso|pexeso-h|naive] [--cache-mb MB]
//                     [--model ...] [--dim D]
//   pexeso_cli info   --index <index-file|partition-dir>
//
// The offline component (Figure 1 of the paper): `index` loads raw CSV
// tables, detects join-key candidate columns, embeds their records and
// builds the search structures. The online component: `search` embeds a
// query column and reports joinable columns (optionally top-k ranked, with
// record mappings). `batch` is the multi-query path: every CSV in a
// directory becomes one query column and the batch is fanned out across a
// BatchQueryRunner thread pool.
//
// Serving mode: when --index names a DIRECTORY of partition snapshots
// (part-<i>.pxso, as written by PartitionedPexeso::Build), the online
// commands run out-of-core through a memory-budgeted IndexCache
// (--cache-mb, default 256; 0 disables caching) so a batch deserializes
// each partition once instead of once per query. --stream switches to the
// ServeSession async path and prints per-partition result chunks as they
// complete; --stats additionally reports cache hit/miss/eviction counters.
//
// Every online command builds a JoinQuery and goes through
// JoinSearchEngine::Execute, so --engine swaps the search method without
// touching the driver logic. --topk selects QueryMode::kTopK (the ranking
// is pushed into the verifier, and --stats now reports through it);
// --deadline-ms budgets the query — an expired/cancelled query returns its
// partial results plus a DeadlineExceeded/Cancelled note instead of
// burning the worker pool.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <mutex>

#include "baseline/naive_searcher.h"
#include "common/stopwatch.h"
#include "baseline/pexeso_h.h"
#include "core/batch_runner.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "embed/char_gram_model.h"
#include "embed/word_avg_model.h"
#include "lake/fsck.h"
#include "net/client.h"
#include "partition/partitioned_pexeso.h"
#include "serve/index_cache.h"
#include "serve/serve_session.h"
#include "shard/coordinator.h"
#include "shard/part_subset.h"
#include "shard/shard_map.h"
#include "shard/virtual_node.h"
#include "table/csv.h"
#include "table/repository.h"
#include "table/type_detect.h"
#include "vec/kernels.h"

namespace {

using namespace pexeso;

/// Minimal flag parser: --key value pairs plus boolean --flags.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  double GetDouble(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }
  long GetInt(const std::string& key, long def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atol(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

/// --threads with a CLI-grade value check: negatives would wrap to a huge
/// size_t and ask a pool for billions of workers; treat them as 0 (auto).
size_t ThreadsFlag(const Flags& flags) {
  const long v = flags.GetInt("threads", 0);
  if (v < 0) {
    std::fprintf(stderr, "--threads %ld is negative; using auto (0)\n", v);
    return 0;
  }
  return static_cast<size_t>(v);
}

/// --intra-threads: verification shards *within* one query's search (the
/// staged pipeline's stage-2 fan-out). 0 keeps searches single-threaded —
/// the right default for batches, which already parallelize across queries;
/// raise it for one huge query column. Composes with --threads: the batch
/// runner divides its budget so outer x intra stays within --threads.
size_t IntraThreadsFlag(const Flags& flags) {
  const long v = flags.GetInt("intra-threads", 0);
  if (v < 0) {
    std::fprintf(stderr, "--intra-threads %ld is negative; using 0\n", v);
    return 0;
  }
  return static_cast<size_t>(v);
}

/// MakeMetric with a CLI-grade error path: unknown names (the factory is
/// case-insensitive, so "--metric L2" works) report what was passed and
/// what is accepted instead of silently yielding nullptr downstream.
std::unique_ptr<Metric> MakeMetricOrExplain(const Flags& flags) {
  const std::string name = flags.Get("metric", "l2");
  auto metric = MakeMetric(name);
  if (!metric) {
    std::fprintf(stderr, "unknown metric '%s' (expected %s)\n", name.c_str(),
                 KnownMetricNames());
  }
  return metric;
}

/// Prints the instrumentation counters behind --stats: one line per
/// SearchStats field, named as in the server's STATS text.
void PrintStats(const SearchStats& stats) {
  std::string lines;
  AppendStatLines(stats, &lines);
  std::printf("stats (simd=%s):\n%s", SimdLevelName(ActiveSimdLevel()),
              lines.c_str());
}

/// Prints the serving-layer cache counters behind --stats (partition-dir
/// indexes only).
void PrintCacheStats(const serve::IndexCache& cache) {
  const serve::IndexCacheStats s = cache.stats();
  std::printf("index cache (budget %.1f MB):\n",
              cache.budget_bytes() / 1e6);
  std::printf("  hits / misses:           %llu / %llu (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses), s.HitRate() * 100.0);
  std::printf("  evictions:               %llu\n",
              static_cast<unsigned long long>(s.evictions));
  std::printf("  single-flight waits:     %llu\n",
              static_cast<unsigned long long>(s.single_flight_waits));
  std::printf("  resident:                %zu entries (%zu pinned), %.1f MB\n",
              s.entries, s.pinned, s.bytes_resident / 1e6);
  std::printf("  mapped:                  %.1f MB\n", s.bytes_mapped / 1e6);
}

std::unique_ptr<EmbeddingModel> MakeModel(const Flags& flags) {
  const std::string name = flags.Get("model", "chargram");
  const uint32_t dim = static_cast<uint32_t>(flags.GetInt("dim", 50));
  if (name == "chargram") {
    CharGramModel::Options opts;
    opts.dim = dim;
    return std::make_unique<CharGramModel>(opts);
  }
  if (name == "wordavg") {
    WordAvgModel::Options opts;
    opts.dim = dim;
    return std::make_unique<WordAvgModel>(opts);
  }
  return nullptr;
}

/// Builds the search engine selected by --engine over a loaded index. All
/// engines share the index's catalog/metric, so one loaded file serves any
/// of them.
std::unique_ptr<JoinSearchEngine> MakeEngine(const std::string& name,
                                             const PexesoIndex& index) {
  if (name == "pexeso") return std::make_unique<PexesoSearcher>(&index);
  if (name == "pexeso-h") return std::make_unique<PexesoHSearcher>(&index);
  if (name == "naive") {
    return std::make_unique<NaiveSearcher>(&index.catalog(), index.metric());
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pexeso_cli "
               "<index|search|batch|info|fsck|query|stats> "
               "[--flags]\n"
               "  index  --input DIR --output FILE [--pivots N --levels M "
               "--partitions K --model chargram|wordavg --dim D "
               "--metric l2|cosine|l1]\n"
               "  search --index FILE|PARTDIR --query CSV [--column NAME "
               "--tau F --t F --topk K --deadline-ms MS --mappings --stats "
               "--stream --threads N --intra-threads N --cache-mb MB "
               "--engine pexeso|pexeso-h|naive --model ... --dim D "
               "--shards N --replication R --hedge-ms MS --no-floor-share "
               "--shard-of I]\n"
               "  batch  --index FILE|PARTDIR --queries DIR [--threads N "
               "--intra-threads N --tau F --t F --topk K --deadline-ms MS "
               "--stats --stream "
               "--cache-mb MB --engine ... --model ... --dim D]\n"
               "  info   --index FILE|PARTDIR\n"
               "  fsck   LAKEDIR [--repair] [--no-crc]\n"
               "  query  --connect HOST:PORT --query CSV [--column NAME "
               "--tau F --t F --topk K --deadline-ms MS --mappings --stats "
               "--tenant NAME --model ... --dim D --metric ...]\n"
               "  stats  --connect HOST:PORT\n"
               "PARTDIR is a PartitionedPexeso directory (part-<i>.pxso): "
               "online commands then serve out-of-core through a --cache-mb "
               "budgeted index cache; --stream emits per-partition chunks "
               "as they complete. --intra-threads shards the verification "
               "of EACH query column (use for huge query columns); "
               "--threads fans out across queries/partitions. --topk K "
               "returns the K best columns by joinability (pruned search); "
               "--deadline-ms caps a query's wall clock — on expiry you get "
               "the partial results plus a DeadlineExceeded note.\n");
  return 2;
}

/// Everything the online commands (search, batch) share: the embedding
/// model, the metric, the loaded index (single-file mode) or partition
/// handle + cache (directory mode), the selected engine and the fractional
/// thresholds from --tau/--t.
struct OnlineContext {
  std::unique_ptr<EmbeddingModel> model;
  std::unique_ptr<Metric> metric;
  std::unique_ptr<PexesoIndex> index;  ///< single-file mode only
  std::unique_ptr<serve::IndexCache> cache;  ///< partition-dir mode, optional
  std::unique_ptr<JoinSearchEngine> engine;
  /// Non-owning view of `engine` when it is a PartitionedPexeso (directory
  /// mode); null in single-file mode.
  PartitionedPexeso* parts = nullptr;
  FractionalThresholds thresholds;
};

/// One result line. Single-file mode resolves table/column names through
/// the in-memory catalog; partition-dir mode reports the global column id
/// (per-partition catalogs stay on disk).
void PrintResult(const OnlineContext& ctx, const JoinableColumn& r,
                 const char* indent) {
  if (ctx.index != nullptr) {
    const ColumnMeta& meta = ctx.index->catalog().column(r.column);
    std::printf("%s%-30s %-20s joinability %.3f\n", indent,
                meta.table_name.c_str(), meta.column_name.c_str(),
                r.joinability);
    for (const auto& m : r.mapping) {
      std::printf("%s  query[%u] <-> %s[%u]\n", indent, m.query_index,
                  meta.table_name.c_str(), m.target_vec - meta.first);
    }
  } else {
    std::printf("%sglobal column %-10u joinability %.3f (%u matching "
                "records)\n",
                indent, r.column, r.joinability, r.match_count);
    for (const auto& m : r.mapping) {
      // Per-partition catalogs stay on disk, so the target is reported as
      // the partition-local vector id rather than a resolved record index.
      std::printf("%s  query[%u] <-> partition-local vec %u\n", indent,
                  m.query_index, m.target_vec);
    }
  }
}

/// Fills `ctx` from the flags. Returns 0 on success, else the process exit
/// code (after printing the reason).
/// Reads `path`, picks the query column (`column_name`, or the best key
/// column when empty) and embeds it with `repo`'s model. Returns an empty
/// store after printing the reason when anything fails; `out_column`
/// (optional) receives the chosen column name.
VectorStore LoadQueryColumn(const TableRepository& repo, uint32_t dim,
                            const std::string& path,
                            const std::string& column_name,
                            std::string* out_column) {
  const VectorStore empty(dim);
  auto table = Csv::ReadFile(path);
  if (!table.ok()) {
    std::fprintf(stderr, "%s: load failed: %s\n", path.c_str(),
                 table.status().ToString().c_str());
    return empty;
  }
  RawTable query_table = std::move(table).ValueOrDie();
  TypeDetector::DetectAll(&query_table);

  // Query column selection, Section II-A: (1) user-specified by name,
  // (2) otherwise the string column with the best key score.
  int col_idx = -1;
  if (!column_name.empty()) {
    for (size_t c = 0; c < query_table.columns.size(); ++c) {
      if (query_table.columns[c].name == column_name) {
        col_idx = static_cast<int>(c);
      }
    }
    if (col_idx < 0) {
      std::fprintf(stderr, "no column named '%s' in %s\n", column_name.c_str(),
                   path.c_str());
      return empty;
    }
  } else {
    col_idx = TypeDetector::SelectKeyColumn(query_table);
    if (col_idx < 0) {
      std::fprintf(stderr, "%s: no string column suitable as query column\n",
                   path.c_str());
      return empty;
    }
  }
  if (out_column != nullptr) *out_column = query_table.columns[col_idx].name;
  VectorStore q = repo.EmbedQueryColumn(query_table.columns[col_idx].values);
  if (q.empty()) {
    std::fprintf(stderr, "%s: query column has no non-empty values\n",
                 path.c_str());
  }
  return q;
}

/// Directory-mode half of LoadOnlineContext: opens the partition set,
/// attaches the --cache-mb IndexCache, checks the snapshot dimensionality
/// against the embedding model (a header peek, not a full load) and warms
/// partition 0 into the cache when one is attached.
int LoadPartitionedContext(const Flags& flags, const std::string& dir,
                           OnlineContext* ctx) {
  const std::string engine_name = flags.Get("engine", "pexeso");
  if (engine_name != "pexeso" && engine_name != "pexeso-h") {
    std::fprintf(stderr,
                 "--engine %s is not available over a partition directory "
                 "(expected pexeso or pexeso-h)\n",
                 engine_name.c_str());
    return 2;
  }
  auto opened = PartitionedPexeso::Open(dir, ctx->metric.get());
  if (!opened.ok()) {
    std::fprintf(stderr, "partition dir open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto parts =
      std::make_unique<PartitionedPexeso>(std::move(opened).ValueOrDie());
  if (engine_name == "pexeso-h") {
    parts->set_engine(PartitionedPexeso::Engine::kPexesoH);
  }
  const long cache_mb = flags.GetInt("cache-mb", 256);
  if (cache_mb > 0) {
    ctx->cache = std::make_unique<serve::IndexCache>(serve::IndexCacheOptions{
        .budget_bytes = static_cast<size_t>(cache_mb) << 20});
    parts->AttachCache(ctx->cache.get());
  }
  auto dim = PexesoIndex::PeekDim(parts->PartPath(0));
  if (!dim.ok()) {
    std::fprintf(stderr, "partition read failed: %s\n",
                 dim.status().ToString().c_str());
    return 1;
  }
  if (dim.value() != ctx->model->dim()) {
    std::fprintf(stderr, "index dim %u != model dim %u (pass matching --dim)\n",
                 dim.value(), ctx->model->dim());
    return 1;
  }
  if (ctx->cache != nullptr) {
    // Pre-warm the first partition; uncached mode skips this — the load
    // would be thrown away.
    auto warm = parts->AcquirePart(0, nullptr);
    if (!warm.ok()) {
      std::fprintf(stderr, "partition load failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
  }
  ctx->parts = parts.get();
  ctx->engine = std::move(parts);
  return 0;
}

int LoadOnlineContext(const Flags& flags, OnlineContext* ctx) {
  ctx->model = MakeModel(flags);
  if (!ctx->model) return Usage();
  ctx->metric = MakeMetricOrExplain(flags);
  if (!ctx->metric) return 2;
  ctx->thresholds = {flags.GetDouble("tau", 0.35), flags.GetDouble("t", 0.5)};
  const std::string index_path = flags.Get("index");
  if (std::filesystem::is_directory(index_path)) {
    return LoadPartitionedContext(flags, index_path, ctx);
  }
  auto loaded = PexesoIndex::Load(index_path, ctx->metric.get());
  if (!loaded.ok()) {
    std::fprintf(stderr, "index load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  ctx->index =
      std::make_unique<PexesoIndex>(std::move(loaded).ValueOrDie());
  if (ctx->index->catalog().dim() != ctx->model->dim()) {
    std::fprintf(stderr, "index dim %u != model dim %u (pass matching --dim)\n",
                 ctx->index->catalog().dim(), ctx->model->dim());
    return 1;
  }
  ctx->engine = MakeEngine(flags.Get("engine", "pexeso"), *ctx->index);
  if (!ctx->engine) return Usage();
  return 0;
}

int CmdIndex(const Flags& flags) {
  const std::string input = flags.Get("input");
  const std::string output = flags.Get("output");
  if (input.empty() || output.empty()) return Usage();
  auto model = MakeModel(flags);
  if (!model) return Usage();
  auto metric = MakeMetricOrExplain(flags);
  if (!metric) return 2;

  TableRepository repo(model.get());
  auto loaded = repo.LoadDirectory(input);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu key columns (%zu record vectors) from %s\n",
              repo.catalog().num_columns(), repo.catalog().num_vectors(),
              input.c_str());
  if (repo.catalog().num_columns() == 0) {
    std::fprintf(stderr, "nothing to index\n");
    return 1;
  }
  PexesoOptions opts;
  opts.num_pivots = static_cast<uint32_t>(flags.GetInt("pivots", 5));
  opts.levels = static_cast<uint32_t>(flags.GetInt("levels", 0));

  // --partitions K: out-of-core layout — JSD-cluster the columns into K
  // partitions, one index snapshot per partition under the --output
  // directory. The online commands then serve it through the index cache.
  const long partitions = flags.GetInt("partitions", 0);
  if (partitions > 0) {
    ColumnCatalog catalog = repo.TakeCatalog();
    Partitioner::Options popts;
    popts.k = static_cast<uint32_t>(partitions);
    auto assignment = Partitioner::JsdClustering(catalog, popts);
    auto built = PartitionedPexeso::Build(catalog, assignment, output,
                                          metric.get(), opts);
    if (!built.ok()) {
      std::fprintf(stderr, "partition build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    std::printf("partitioned index written to %s/ (%zu partitions, "
                "%.1f MB on disk)\n",
                output.c_str(), built.value().num_partitions(),
                built.value().DiskBytes() / 1e6);
    return 0;
  }

  PexesoIndex index =
      PexesoIndex::Build(repo.TakeCatalog(), metric.get(), opts);
  Status st = index.Save(output);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("index written to %s (|P|=%u, m=%u, %.1f MB)\n", output.c_str(),
              index.pivots().num_pivots(), index.grid().levels(),
              index.IndexSizeBytes() / 1e6);
  return 0;
}

/// Applies the flags every online command shares to a JoinQuery whose
/// vectors/thresholds are already set: --topk, --deadline-ms,
/// --intra-threads.
void ApplyQueryFlags(const Flags& flags, JoinQuery* jq) {
  jq->intra_query_threads = IntraThreadsFlag(flags);
  const long topk = flags.GetInt("topk", 0);
  if (topk > 0) {
    jq->mode = QueryMode::kTopK;
    jq->k = static_cast<size_t>(topk);
  }
  const double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  if (deadline_ms > 0.0) jq->deadline = Deadline::AfterMillis(deadline_ms);
}

/// The --stream search path: one ServeSession query, chunks printed as the
/// partitions complete, then the deterministic merged result.
int StreamSearch(const OnlineContext& ctx, const JoinQuery& jq,
                 size_t threads, size_t intra_threads, bool want_stats) {
  serve::ServeSession session(
      ctx.engine.get(),
      {.num_threads = threads, .intra_query_threads = intra_threads});
  std::mutex print_mu;
  auto future = session.Submit(jq, [&](const serve::StreamChunk& c) {
    std::lock_guard<std::mutex> lock(print_mu);
    if (!c.status.ok()) {
      // An interrupted part is expected under --deadline-ms, not a failure.
      std::printf("[part %zu/%zu] %s: %s\n", c.part + 1, c.parts_total,
                  c.status.interrupted() ? "stopped early" : "FAILED",
                  c.status.ToString().c_str());
      return;
    }
    std::printf("[part %zu/%zu] %zu joinable column(s)%s\n", c.part + 1,
                c.parts_total, c.results.size(),
                c.last ? " <- final chunk" : "");
    for (const auto& r : c.results) PrintResult(ctx, r, "  ");
  });
  const serve::QueryOutcome out = future.get();
  if (!out.status.ok() && !out.status.interrupted()) {
    std::fprintf(stderr, "streamed search failed: %s\n",
                 out.status.ToString().c_str());
    return 1;
  }
  if (out.status.interrupted()) {
    std::printf("\nquery stopped early (%s); merged partial results:\n",
                out.status.ToString().c_str());
  }
  std::printf("\nmerged: %zu joinable column(s) via %s (%.3fs partition "
              "IO)\n",
              out.results.size(), ctx.engine->name(), out.io_seconds);
  for (const auto& r : out.results) PrintResult(ctx, r, "  ");
  if (want_stats) {
    PrintStats(out.stats);
    if (ctx.cache) PrintCacheStats(*ctx.cache);
  }
  return 0;
}

int CmdSearch(const Flags& flags) {
  const std::string index_path = flags.Get("index");
  const std::string query_path = flags.Get("query");
  if (index_path.empty() || query_path.empty()) return Usage();
  OnlineContext ctx;
  if (int rc = LoadOnlineContext(flags, &ctx); rc != 0) return rc;

  TableRepository repo(ctx.model.get());
  std::string column;
  VectorStore query = LoadQueryColumn(repo, ctx.model->dim(), query_path,
                                      flags.Get("column"), &column);
  if (query.empty()) return 1;
  if (!flags.Has("column")) {
    std::printf("query column auto-selected: '%s'\n", column.c_str());
  }

  JoinQuery jq;
  jq.vectors = &query;
  jq.thresholds =
      ctx.thresholds.Resolve(*ctx.metric, ctx.model->dim(), query.size());
  jq.collect_mappings = flags.Has("mappings");
  ApplyQueryFlags(flags, &jq);
  const bool want_stats = flags.Has("stats");

  if (flags.Has("stream")) {
    if (ctx.parts == nullptr) {
      std::fprintf(stderr,
                   "--stream needs a partition directory index (partial "
                   "results are per-partition chunks)\n");
      return 2;
    }
    if (flags.GetInt("shards", 0) > 0) {
      std::fprintf(stderr, "--shards and --stream are mutually exclusive\n");
      return 2;
    }
    return StreamSearch(ctx, jq, ThreadsFlag(flags), IntraThreadsFlag(flags),
                        want_stats);
  }

  // --shards N runs the scatter-gather coordinator over N in-process
  // virtual shard nodes (each an independent session over its round-robin
  // part subset) — the single-box twin of a pexeso_server shard fleet.
  // --shard-of I instead executes only shard I's part subset, for
  // inspecting what one shard would contribute.
  std::unique_ptr<shard::VirtualShardRouter> router;
  std::unique_ptr<shard::PartSubsetEngine> subset;
  std::unique_ptr<shard::ShardedEngine> sharded;
  const JoinSearchEngine* engine = ctx.engine.get();
  const long shards = flags.GetInt("shards", 0);
  if (shards > 0) {
    if (ctx.parts == nullptr) {
      std::fprintf(stderr,
                   "--shards needs a partition directory index (shards are "
                   "part subsets)\n");
      return 2;
    }
    if (flags.Has("shard-of")) {
      const long shard_of = flags.GetInt("shard-of", -1);
      if (shard_of < 0 || shard_of >= shards) {
        std::fprintf(stderr, "--shard-of must be in [0, %ld)\n", shards);
        return 2;
      }
      const auto map = shard::ShardMap::RoundRobin(
          ctx.parts->NumParts(), static_cast<size_t>(shards));
      subset = std::make_unique<shard::PartSubsetEngine>(
          ctx.engine.get(), map.OwnedParts(static_cast<size_t>(shard_of)));
      engine = subset.get();
    } else {
      shard::VirtualShardRouter::Options vopts;
      vopts.replication = static_cast<size_t>(
          std::max(1L, flags.GetInt("replication", 1)));
      router = std::make_unique<shard::VirtualShardRouter>(
          ctx.engine.get(), static_cast<size_t>(shards), vopts);
      shard::ShardedOptions sopts;
      sopts.hedge_after_ms = static_cast<size_t>(
          std::max(0L, flags.GetInt("hedge-ms", 0)));
      sopts.share_floor = !flags.Has("no-floor-share");
      sharded = std::make_unique<shard::ShardedEngine>(router.get(), sopts);
      engine = sharded.get();
    }
  }

  SearchStats stats;
  CollectSink sink;
  const Status st = engine->Execute(jq, &sink, want_stats ? &stats
                                                          : nullptr);
  const std::vector<JoinableColumn>& results = sink.columns();
  if (!st.ok() && !st.interrupted()) {
    std::fprintf(stderr, "search failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (st.interrupted()) {
    std::printf("query stopped early (%s); partial results:\n",
                st.ToString().c_str());
  }
  if (jq.mode == QueryMode::kTopK) {
    std::printf("top-%zu joinable column(s) via %s (tau=%.3f):\n",
                jq.k, engine->name(), jq.thresholds.tau);
  } else {
    std::printf("%zu joinable column(s) via %s (tau=%.3f, T=%u/%zu):\n",
                results.size(), engine->name(), jq.thresholds.tau,
                jq.thresholds.t_abs, query.size());
  }
  for (const auto& r : results) PrintResult(ctx, r, "  ");
  for (const auto& [part, part_st] : sink.part_statuses()) {
    std::printf("  [part %zu] %s: %s\n", part + 1,
                part_st.interrupted() ? "stopped early" : "DEGRADED",
                part_st.ToString().c_str());
  }
  if (want_stats) {
    PrintStats(stats);
    if (ctx.cache) PrintCacheStats(*ctx.cache);
  }
  return 0;
}

/// The --stream batch path: every query is a ServeSession streaming
/// submission; chunk-completion lines interleave as partitions finish, and
/// the deterministic per-query summaries print in submission order.
int StreamBatch(const OnlineContext& ctx,
                const std::vector<std::string>& names,
                const std::vector<JoinQuery>& queries, size_t threads,
                size_t intra_threads, bool want_stats) {
  serve::ServeSession session(
      ctx.engine.get(),
      {.num_threads = threads, .intra_query_threads = intra_threads});
  std::mutex print_mu;
  Stopwatch watch;
  std::vector<std::future<serve::QueryOutcome>> futures;
  for (size_t i = 0; i < queries.size(); ++i) {
    futures.push_back(session.Submit(
        queries[i], [&, i](const serve::StreamChunk& c) {
          std::lock_guard<std::mutex> lock(print_mu);
          std::printf("  %-40s part %zu/%zu: %zu joinable%s\n",
                      names[i].c_str(), c.part + 1, c.parts_total,
                      c.results.size(), c.last ? " (query done)" : "");
        }));
  }
  std::vector<serve::QueryOutcome> outcomes;
  for (auto& future : futures) outcomes.push_back(future.get());
  const double wall = watch.ElapsedSeconds();
  std::printf("\nstreamed batch of %zu query columns via %s on %zu "
              "thread(s): %.3fs (%.1f columns/s)\n",
              queries.size(), ctx.engine->name(), session.num_threads(),
              wall, static_cast<double>(queries.size()) /
                        std::max(wall, 1e-9));
  SearchStats stats;
  int rc = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].status.ok() && !outcomes[i].status.interrupted()) {
      std::printf("  %-40s FAILED: %s\n", names[i].c_str(),
                  outcomes[i].status.ToString().c_str());
      rc = 1;
      continue;
    }
    std::printf("  %-40s %zu joinable column(s)%s\n", names[i].c_str(),
                outcomes[i].results.size(),
                outcomes[i].status.interrupted() ? " (partial: stopped early)"
                                                 : "");
    for (const auto& r : outcomes[i].results) PrintResult(ctx, r, "    ");
    stats += outcomes[i].stats;
  }
  if (want_stats) {
    PrintStats(stats);
    if (ctx.cache) PrintCacheStats(*ctx.cache);
  }
  return rc;
}

int CmdBatch(const Flags& flags) {
  const std::string index_path = flags.Get("index");
  const std::string queries_dir = flags.Get("queries");
  if (index_path.empty() || queries_dir.empty()) return Usage();
  OnlineContext ctx;
  if (int rc = LoadOnlineContext(flags, &ctx); rc != 0) return rc;

  // One query column per CSV file: the auto-selected key column, embedded
  // with the same model as the repository. Sorted paths keep the batch
  // order (and therefore the output) deterministic.
  std::vector<std::string> paths;
  try {
    for (const auto& entry :
         std::filesystem::directory_iterator(queries_dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".csv") {
        paths.push_back(entry.path().string());
      }
    }
  } catch (const std::filesystem::filesystem_error& e) {
    std::fprintf(stderr, "cannot read %s: %s\n", queries_dir.c_str(),
                 e.what());
    return 1;
  }
  std::sort(paths.begin(), paths.end());

  TableRepository repo(ctx.model.get());
  std::vector<std::string> names;
  std::vector<VectorStore> queries;
  for (const std::string& path : paths) {
    std::string column;
    VectorStore q = LoadQueryColumn(repo, ctx.model->dim(), path,
                                    /*column_name=*/"", &column);
    if (q.empty()) continue;  // reason already printed; batch skips on
    names.push_back(std::filesystem::path(path).filename().string() + ":" +
                    column);
    queries.push_back(std::move(q));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no usable query columns under %s\n",
                 queries_dir.c_str());
    return 1;
  }

  // The whole batch shares one absolute deadline (resolved once here), so
  // --deadline-ms budgets the batch as a unit: queries past the budget
  // return partial results instead of queuing indefinitely.
  std::vector<JoinQuery> jqs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    jqs[i].vectors = &queries[i];
    jqs[i].thresholds =
        ctx.thresholds.Resolve(*ctx.metric, ctx.model->dim(),
                               queries[i].size());
    ApplyQueryFlags(flags, &jqs[i]);
  }

  if (flags.Has("stream")) {
    if (ctx.parts == nullptr) {
      std::fprintf(stderr,
                   "--stream needs a partition directory index (partial "
                   "results are per-partition chunks)\n");
      return 2;
    }
    return StreamBatch(ctx, names, jqs, ThreadsFlag(flags),
                       IntraThreadsFlag(flags), flags.Has("stats"));
  }

  BatchRunnerOptions bopts;
  bopts.num_threads = ThreadsFlag(flags);
  BatchQueryRunner runner(ctx.engine.get(), bopts);
  BatchResult batch = runner.Run(jqs);

  std::printf("batch of %zu query columns via %s on %zu thread(s): %.3fs "
              "(%.1f columns/s)\n",
              queries.size(), ctx.engine->name(), runner.num_threads(),
              batch.wall_seconds,
              static_cast<double>(queries.size()) /
                  std::max(batch.wall_seconds, 1e-9));
  if (batch.io_seconds > 0.0) {
    std::printf("partition-major IO: %.3fs (each partition loaded once for "
                "the whole batch)\n",
                batch.io_seconds);
  }
  int rc = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Status& st = batch.statuses[i];
    if (!st.ok() && !st.interrupted()) {
      std::printf("  %-40s FAILED: %s\n", names[i].c_str(),
                  st.ToString().c_str());
      rc = 1;
      continue;
    }
    std::printf("  %-40s %zu joinable column(s)%s\n", names[i].c_str(),
                batch.results[i].size(),
                st.interrupted() ? " (partial: stopped early)" : "");
    for (const auto& r : batch.results[i]) PrintResult(ctx, r, "    ");
  }
  if (flags.Has("stats")) {
    PrintStats(batch.stats);
    if (ctx.cache) PrintCacheStats(*ctx.cache);
  }
  return rc;
}

int CmdInfo(const Flags& flags) {
  const std::string index_path = flags.Get("index");
  if (index_path.empty()) return Usage();
  auto metric = MakeMetricOrExplain(flags);
  if (!metric) return 2;
  if (std::filesystem::is_directory(index_path)) {
    auto opened = PartitionedPexeso::Open(index_path, metric.get());
    if (!opened.ok()) {
      std::fprintf(stderr, "partition dir open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    std::printf("partitioned index: %s\n", index_path.c_str());
    std::printf("  partitions:    %zu\n", opened.value().num_partitions());
    std::printf("  on disk:       %.2f MB\n",
                opened.value().DiskBytes() / 1e6);
    return 0;
  }
  auto loaded = PexesoIndex::Load(index_path, metric.get());
  if (!loaded.ok()) {
    std::fprintf(stderr, "index load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const PexesoIndex index = std::move(loaded).ValueOrDie();
  std::printf("index: %s\n", index_path.c_str());
  std::printf("  columns:       %zu\n", index.catalog().num_columns());
  std::printf("  vectors:       %zu\n", index.catalog().num_vectors());
  std::printf("  dim:           %u\n", index.catalog().dim());
  std::printf("  pivots |P|:    %u\n", index.pivots().num_pivots());
  std::printf("  grid levels m: %u\n", index.grid().levels());
  std::printf("  leaf cells:    %zu\n", index.grid().LeafCells().size());
  std::printf("  index size:    %.2f MB\n", index.IndexSizeBytes() / 1e6);
  return 0;
}

/// Splits a --connect HOST:PORT value. Returns false (after printing the
/// reason) when the flag is missing or malformed.
bool ParseConnect(const Flags& flags, std::string* host, uint16_t* port) {
  const std::string connect = flags.Get("connect");
  const size_t colon = connect.rfind(':');
  if (connect.empty() || colon == std::string::npos ||
      colon + 1 >= connect.size()) {
    std::fprintf(stderr, "--connect expects HOST:PORT\n");
    return false;
  }
  *host = connect.substr(0, colon);
  const long p = std::atol(connect.c_str() + colon + 1);
  if (p <= 0 || p > 65535) {
    std::fprintf(stderr, "--connect port out of range\n");
    return false;
  }
  *port = static_cast<uint16_t>(p);
  return true;
}

/// `pexeso_cli query --connect host:port --query q.csv ...`: the remote
/// twin of `search` — same query-column embedding and threshold flags, but
/// the search runs on a pexeso_server and the result chunks stream back
/// over the wire protocol. Output uses the same "global column" lines as a
/// partition-dir `search`, so the two are diffable for parity checks.
int CmdRemoteQuery(const Flags& flags) {
  std::string host;
  uint16_t port = 0;
  if (!ParseConnect(flags, &host, &port)) return 2;
  const std::string query_path = flags.Get("query");
  if (query_path.empty()) return Usage();
  auto model = MakeModel(flags);
  if (!model) return Usage();
  auto metric = MakeMetricOrExplain(flags);
  if (!metric) return 2;

  net::PexesoClient client;
  Status st = client.Connect(host, port, flags.Get("tenant", "cli"));
  if (!st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (client.server_info().dim != 0 &&
      client.server_info().dim != model->dim()) {
    std::fprintf(stderr,
                 "server repository dim %u != model dim %u (pass matching "
                 "--dim)\n",
                 client.server_info().dim, model->dim());
    return 1;
  }

  TableRepository repo(model.get());
  std::string column;
  VectorStore query = LoadQueryColumn(repo, model->dim(), query_path,
                                      flags.Get("column"), &column);
  if (query.empty()) return 1;
  if (!flags.Has("column")) {
    std::printf("query column auto-selected: '%s'\n", column.c_str());
  }

  JoinQuery jq;
  jq.vectors = &query;
  const FractionalThresholds thresholds{flags.GetDouble("tau", 0.35),
                                        flags.GetDouble("t", 0.5)};
  jq.thresholds = thresholds.Resolve(*metric, model->dim(), query.size());
  jq.collect_mappings = flags.Has("mappings");
  ApplyQueryFlags(flags, &jq);

  const net::ClientQueryResult result = client.Query(jq);
  if (!result.status.ok() && !result.status.interrupted()) {
    std::fprintf(stderr, "remote query failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }
  if (result.status.interrupted()) {
    std::printf("query stopped early (%s); partial results:\n",
                result.status.ToString().c_str());
  }
  if (jq.mode == QueryMode::kTopK) {
    std::printf("top-%zu joinable column(s) via %s@%s:%u (tau=%.3f):\n",
                jq.k, client.server_info().engine.c_str(), host.c_str(),
                port, jq.thresholds.tau);
  } else {
    std::printf("%zu joinable column(s) via %s@%s:%u (tau=%.3f, T=%u/%zu):\n",
                result.columns.size(), client.server_info().engine.c_str(),
                host.c_str(), port, jq.thresholds.tau, jq.thresholds.t_abs,
                query.size());
  }
  // Remote results carry global column ids only (like partition-dir mode):
  // a default OnlineContext routes PrintResult to the global-column lines.
  const OnlineContext remote_ctx;
  for (const auto& r : result.columns) PrintResult(remote_ctx, r, "  ");
  for (const auto& [part, part_st] : result.part_statuses) {
    std::printf("  [part %zu] %s: %s\n", part + 1,
                part_st.interrupted() ? "stopped early" : "DEGRADED",
                part_st.ToString().c_str());
  }
  if (flags.Has("stats")) {
    PrintStats(result.stats);
    std::printf("protocol bytes: %llu sent / %llu received\n",
                static_cast<unsigned long long>(client.bytes_sent()),
                static_cast<unsigned long long>(client.bytes_received()));
  }
  return 0;
}

/// `pexeso_cli stats --connect host:port`: dumps the server's STATS verb
/// metrics snapshot verbatim.
int CmdRemoteStats(const Flags& flags) {
  std::string host;
  uint16_t port = 0;
  if (!ParseConnect(flags, &host, &port)) return 2;
  net::PexesoClient client;
  Status st = client.Connect(host, port, flags.Get("tenant", "cli"));
  if (!st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto text = client.Stats();
  if (!text.ok()) {
    std::fprintf(stderr, "stats failed: %s\n",
                 text.status().ToString().c_str());
    return 1;
  }
  std::fputs(text.value().c_str(), stdout);
  return 0;
}

/// `pexeso_cli fsck <lake-dir> [--repair] [--no-crc]`: one consistency pass
/// over a LakeManager directory — manifest validation, orphan sweep,
/// streamed CRC check of every referenced snapshot. --repair deletes
/// orphans and quarantines bad parts (what LakeManager::Open does on its
/// own at startup); without it the pass only reports. Exit 0 = clean (or
/// fully repaired), 1 = findings remain, 2 = could not run.
int CmdFsck(int argc, char** argv, const Flags& flags) {
  std::string dir = flags.Get("lake");
  for (int i = 2; i < argc && dir.empty(); ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) dir = argv[i];
  }
  if (dir.empty()) return Usage();
  lake::FsckOptions options;
  options.repair = flags.Has("repair");
  options.verify_crc = !flags.Has("no-crc");
  auto checked = lake::FsckLake(dir, options);
  if (!checked.ok()) {
    std::fprintf(stderr, "fsck failed: %s\n",
                 checked.status().ToString().c_str());
    return 2;
  }
  const lake::FsckReport& report = std::move(checked).ValueOrDie();
  std::printf("lake: %s\n", dir.c_str());
  std::printf("  dim:               %u\n", report.manifest.dim);
  std::printf("  parts:             %zu (%zu snapshots checked)\n",
              report.manifest.parts.size(), report.parts_checked);
  for (size_t i = 0; i < report.manifest.parts.size(); ++i) {
    const lake::ManifestPart& p = report.manifest.parts[i];
    std::printf("  part %zu: gen %llu %s%s\n", i,
                static_cast<unsigned long long>(p.generation),
                p.has_base ? "base" : "no-base",
                p.quarantined ? " QUARANTINED" : "");
  }
  for (const std::string& f : report.orphans) {
    std::printf("  orphan: %s%s\n", f.c_str(),
                report.repaired ? " (removed)" : "");
  }
  for (const std::string& f : report.corrupt) {
    std::printf("  corrupt: %s%s\n", f.c_str(),
                report.repaired ? " (quarantined)" : "");
  }
  for (const std::string& f : report.missing) {
    std::printf("  missing: %s%s\n", f.c_str(),
                report.repaired ? " (part flagged)" : "");
  }
  if (report.clean()) {
    std::printf("clean\n");
    return 0;
  }
  if (report.repaired) {
    std::printf("repaired: %zu orphans removed, %zu corrupt + %zu missing "
                "quarantined\n",
                report.orphans.size(), report.corrupt.size(),
                report.missing.size());
    return 0;
  }
  std::printf("issues found (run with --repair to fix)\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  Flags flags(argc, argv);
  if (cmd == "index") return CmdIndex(flags);
  if (cmd == "search") return CmdSearch(flags);
  if (cmd == "batch") return CmdBatch(flags);
  if (cmd == "info") return CmdInfo(flags);
  if (cmd == "fsck") return CmdFsck(argc, argv, flags);
  if (cmd == "query") return CmdRemoteQuery(flags);
  if (cmd == "stats") return CmdRemoteStats(flags);
  return Usage();
}
