// bench_shard: scatter-gather sharding and the global top-k floor.
//
// The coordinator's value proposition is that sharding must not change the
// answer and floor sharing must shrink the work: each shard's local
// k-th-best raises one shared CAS-max cell, so sibling shards prune
// against the GLOBAL k-th best instead of only their own. This bench runs
// the same kTopK workload three ways on one lake —
//
//   single  : the unsharded PartitionedPexeso (the oracle),
//   virtual : 4 in-process shard nodes under the coordinator,
//   remote  : 2 real pexeso_server shard executors over loopback TCP —
//
// each with floor sharing on and off, and reports total exact distance
// computations (the counter-based win — meaningful on a 1-core CI box),
// floor update counts, wire bytes moved (remote), and a byte-identical
// results check. Results go to stdout and BENCH_shard.json
// ("BENCH_shard/v2"). Only the rows whose work does not depend on thread
// scheduling gate their SearchStats: the single-node oracle and the
// virtual fleet without floor sharing. A shared floor is raised in
// whatever order the shards finish, and the remote rows' counts differ
// from run to run even with sharing off, so those rows write their stats
// ungated.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/server.h"
#include "partition/partitioned_pexeso.h"
#include "partition/partitioner.h"
#include "serve/index_cache.h"
#include "shard/coordinator.h"
#include "shard/part_subset.h"
#include "shard/remote.h"
#include "shard/shard_map.h"
#include "shard/virtual_node.h"

namespace pexeso::bench {
namespace {

struct ShardRow {
  std::string config;
  bool share_floor = false;
  bool gated = false;  ///< stats independent of scheduling
  SearchStats stats;
  double seconds = 0.0;
  bool identical = true;
};

/// Runs the whole kTopK workload through `engine`, accumulating into `row`
/// and checking every query against `oracles`.
void RunWorkload(const JoinSearchEngine& engine,
                 const std::vector<VectorStore>& queries,
                 const JoinQuery& prototype,
                 const std::vector<std::vector<JoinableColumn>>& oracles,
                 ShardRow* row) {
  for (size_t i = 0; i < queries.size(); ++i) {
    JoinQuery jq = prototype;
    jq.vectors = &queries[i];
    SearchStats stats;
    CollectSink sink;
    row->seconds += TimeIt([&] {
      const Status st = engine.Execute(jq, &sink, &stats);
      if (!st.ok()) std::abort();
    });
    row->stats += stats;
    row->identical = row->identical && SameResults(sink.columns(), oracles[i]);
  }
}

void AddRow(const ShardRow& r, BenchJson* json) {
  std::printf("%-22s %6s %16llu %10llu %10s\n", r.config.c_str(),
              r.share_floor ? "on" : "off",
              static_cast<unsigned long long>(r.stats.distance_computations),
              static_cast<unsigned long long>(r.stats.columns_pruned_topk),
              r.identical ? "yes" : "NO");
  json->Row(r.config + (r.share_floor ? " floor=on" : " floor=off"))
      .Stats(r.stats, r.gated)
      .Num("seconds", r.seconds)
      .Check("identical", r.identical);
}

int ShardExperiment() {
  namespace fs = std::filesystem;
  const double scale = BenchProfiles::EnvScale();
  VectorLakeOptions profile;
  profile.dim = 50;
  profile.num_columns = static_cast<uint32_t>(300 * scale);
  profile.avg_col_size = 40.0;
  profile.num_clusters = 24;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  std::printf("lake: %zu columns, %zu vectors, dim %u\n",
              catalog.num_columns(), catalog.num_vectors(), catalog.dim());

  const std::string dir =
      (fs::temp_directory_path() / "pexeso_bench_shard").string();
  fs::remove_all(dir);
  L2Metric metric;
  Partitioner::Options popts;
  popts.k = 8;
  auto assignment = Partitioner::JsdClustering(catalog, popts);
  PexesoOptions opts;
  opts.num_pivots = 5;
  opts.levels = 5;
  auto built =
      PartitionedPexeso::Build(catalog, assignment, dir, &metric, opts);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  PartitionedPexeso& parts = built.value();
  serve::IndexCache cache(
      serve::IndexCacheOptions{.budget_bytes = 512u << 20});
  parts.AttachCache(&cache);
  const size_t num_parts = parts.NumParts();
  std::printf("partitioned into %zu parts under %s\n", num_parts,
              dir.c_str());

  const size_t num_queries = std::max<size_t>(4, NumQueries(8));
  std::vector<VectorStore> queries = MakeQueries(profile, num_queries, 20);
  FractionalThresholds ft{0.05, 0.6};
  JoinQuery topk;
  topk.thresholds.tau = ft.Resolve(metric, profile.dim, 20).tau;
  topk.mode = QueryMode::kTopK;
  topk.k = 5;

  // The oracle pass: single-node answers and its work counter.
  std::vector<std::vector<JoinableColumn>> oracles(queries.size());
  ShardRow single;
  single.config = "single";
  single.gated = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    JoinQuery jq = topk;
    jq.vectors = &queries[i];
    SearchStats stats;
    CollectSink sink;
    single.seconds += TimeIt([&] {
      const Status st = parts.Execute(jq, &sink, &stats);
      if (!st.ok()) std::abort();
    });
    single.stats += stats;
    oracles[i] = std::move(sink).TakeColumns();
  }

  BenchJson json("shard", 2);
  std::printf("\nkTopK k=%zu over %zu query columns; floor sharing on/off\n",
              topk.k, queries.size());
  std::printf("%-22s %6s %16s %10s %10s\n", "config", "floor",
              "distance comps", "pruned", "identical");
  AddRow(single, &json);

  // Virtual 4-shard coordinator, floor sharing on vs off.
  shard::VirtualShardRouter vrouter(&parts, 4);
  for (bool share : {true, false}) {
    shard::ShardedOptions sopts;
    sopts.share_floor = share;
    shard::ShardedEngine sharded(&vrouter, sopts);
    ShardRow row;
    row.config = "virtual-4shard";
    row.share_floor = share;
    row.gated = !share;
    RunWorkload(sharded, queries, topk, oracles, &row);
    AddRow(row, &json);
  }

  // Remote 2-shard loopback fleet, floor sharing on vs off.
  const shard::ShardMap map = shard::ShardMap::RoundRobin(num_parts, 2);
  shard::PartSubsetEngine shard0(&parts, map.OwnedParts(0));
  shard::PartSubsetEngine shard1(&parts, map.OwnedParts(1));
  net::ServerOptions sopts0;
  sopts0.expected_dim = profile.dim;
  sopts0.shards_total = 2;
  sopts0.shard_of = 0;
  net::ServerOptions sopts1 = sopts0;
  sopts1.shard_of = 1;
  net::PexesoServer server0(&shard0, sopts0);
  net::PexesoServer server1(&shard1, sopts1);
  if (!server0.Start().ok() || !server1.Start().ok()) {
    std::fprintf(stderr, "loopback shard servers failed to start\n");
    return 1;
  }
  auto probed = shard::RemoteShardRouter::Probe(
      {{{"127.0.0.1", server0.port()}}, {{"127.0.0.1", server1.port()}}});
  if (!probed.ok()) {
    std::fprintf(stderr, "probe failed: %s\n",
                 probed.status().ToString().c_str());
    return 1;
  }
  auto router = std::move(probed).ValueOrDie();
  for (bool share : {true, false}) {
    shard::ShardedOptions sopts;
    sopts.share_floor = share;
    shard::ShardedEngine sharded(router.get(), sopts);
    ShardRow row;
    row.config = "remote-2shard";
    row.share_floor = share;
    RunWorkload(sharded, queries, topk, oracles, &row);
    AddRow(row, &json);
  }
  server0.Shutdown();
  server1.Shutdown();

  fs::remove_all(dir);
  return json.Write();
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  Banner("bench_shard: scatter-gather sharding + global top-k floor",
         "the distributed-discussion scale-out of Section VII");
  return ShardExperiment();
}
