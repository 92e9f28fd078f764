// Reproduces Table VII: search-time efficiency of CTREE, EPT, PEXESO-H and
// PEXESO for T in {20,40,60,80}% x tau in {2,4,6,8}% on the OPEN-like and
// SWDC-like profiles (in-memory) and the LWDC-like profile (out-of-core via
// disk partitions, Section IV). Baselines that blow the per-cell wall budget
// are reported as ">budget", mirroring the paper's ">7200" entries.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "baseline/cover_tree.h"
#include "baseline/ept.h"
#include "baseline/pexeso_h.h"
#include "baseline/range_engine.h"
#include "bench_common.h"
#include "partition/partitioned_pexeso.h"

namespace pexeso::bench {
namespace {

constexpr uint32_t kPivots = 5;
constexpr uint32_t kLevels = 5;

struct InMemoryDataset {
  ColumnCatalog catalog;
  std::unique_ptr<PexesoIndex> index;
  std::unique_ptr<CoverTree> ctree;
  std::unique_ptr<ExtremePivotTable> ept;
  L2Metric metric;

  explicit InMemoryDataset(const VectorLakeOptions& profile)
      : catalog(GenerateVectorLake(profile)) {
    ColumnCatalog copy = catalog;
    PexesoOptions opts;
    opts.num_pivots = kPivots;
    opts.levels = kLevels;
    index = std::make_unique<PexesoIndex>(
        PexesoIndex::Build(std::move(copy), &metric, opts));
    ctree = std::make_unique<CoverTree>(&catalog.store(), &metric);
    ctree->BuildAll();
    ept = std::make_unique<ExtremePivotTable>(&catalog.store(), &metric);
    ept->Build({});
  }
};

/// Times `fn` over the workload; returns -1 when the budget was blown (the
/// remaining cells of that method are then skipped).
double TimedOrBudget(const std::vector<VectorStore>& queries, double budget,
                     const std::function<void(const VectorStore&)>& fn) {
  Stopwatch w;
  for (const auto& q : queries) {
    fn(q);
    if (w.ElapsedSeconds() > budget) return -1.0;
  }
  return w.ElapsedSeconds() / static_cast<double>(queries.size());
}

void PrintCell(double t) {
  if (t < 0) {
    std::printf(" %10s", ">budget");
  } else {
    std::printf(" %10.4f", t);
  }
}

void RunInMemory(const char* name, const VectorLakeOptions& profile) {
  InMemoryDataset ds(profile);
  const size_t nq = NumQueries(2);
  auto queries = MakeQueries(profile, nq, 40);
  const double budget = CellBudget();

  std::printf("\n%s (in-memory): %zu columns, %zu vectors, dim %u\n", name,
              ds.catalog.num_columns(), ds.catalog.num_vectors(),
              ds.catalog.dim());
  std::printf("%4s %4s %10s %10s %10s %10s   (avg seconds/query)\n", "T%",
              "tau%", "CTREE", "EPT", "PEXESO-H", "PEXESO");

  bool ctree_dead = false, ept_dead = false;
  for (int T : {20, 40, 60, 80}) {
    for (int tau : {2, 4, 6, 8}) {
      FractionalThresholds ft{tau / 100.0, T / 100.0};
      const SearchThresholds th =
          ft.Resolve(ds.metric, profile.dim, queries[0].size());

      double t_ctree = -1.0, t_ept = -1.0;
      if (!ctree_dead) {
        JoinableRangeSearcher s(&ds.catalog, ds.ctree.get());
        t_ctree = TimedOrBudget(queries, budget, [&](const VectorStore& q) {
          MustSearch(s, q, th, nullptr);
        });
        ctree_dead = t_ctree < 0;
      }
      if (!ept_dead) {
        JoinableRangeSearcher s(&ds.catalog, ds.ept.get());
        t_ept = TimedOrBudget(queries, budget, [&](const VectorStore& q) {
          MustSearch(s, q, th, nullptr);
        });
        ept_dead = t_ept < 0;
      }
      PexesoHSearcher hsearcher(ds.index.get());
      const double t_h =
          TimedOrBudget(queries, budget, [&](const VectorStore& q) {
            JoinQuery sopts;
            sopts.thresholds = th;
            MustSearch(hsearcher, q, sopts, nullptr);
          });
      PexesoSearcher searcher(ds.index.get());
      const double t_px =
          TimedOrBudget(queries, budget, [&](const VectorStore& q) {
            JoinQuery sopts;
            sopts.thresholds = th;
            MustSearch(searcher, q, sopts, nullptr);
          });
      std::printf("%4d %4d", T, tau);
      PrintCell(t_ctree);
      PrintCell(t_ept);
      PrintCell(t_h);
      PrintCell(t_px);
      std::printf("\n");
    }
  }
}

void RunOutOfCore(const char* name, const VectorLakeOptions& profile,
                  uint32_t num_parts) {
  namespace fs = std::filesystem;
  L2Metric metric;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  const std::string dir =
      (fs::temp_directory_path() / "pexeso_t7_parts").string();
  fs::remove_all(dir);
  Partitioner::Options popts;
  popts.k = num_parts;
  auto assign = Partitioner::JsdClustering(catalog, popts);
  PexesoOptions opts;
  opts.num_pivots = kPivots;
  opts.levels = kLevels;
  auto parts = PartitionedPexeso::Build(catalog, assign, dir, &metric, opts);
  if (!parts.ok()) {
    std::printf("out-of-core build failed: %s\n",
                parts.status().ToString().c_str());
    return;
  }
  // CTREE and EPT run in-memory against the full catalog: a LOWER BOUND of
  // their true out-of-core cost (they have no partition protocol; the paper
  // reports them as ">7200" at full scale, which the budget mechanism
  // reproduces when the data is scaled up). PEXESO-H runs under the same
  // partitioned load-one-at-a-time protocol as PEXESO.
  CoverTree ctree(&catalog.store(), &metric);
  ctree.BuildAll();
  ExtremePivotTable ept(&catalog.store(), &metric);
  ept.Build({});

  const size_t nq = NumQueries(2);
  auto queries = MakeQueries(profile, nq, 40);
  const double budget = CellBudget();

  std::printf("\n%s (out-of-core, %zu partitions on disk, %.1f MB): "
              "%zu columns, %zu vectors\n",
              name, parts.value().num_partitions(),
              parts.value().DiskBytes() / 1e6, catalog.num_columns(),
              catalog.num_vectors());
  std::printf("%4s %4s %10s %10s %10s %10s   (avg seconds/query, PEXESO "
              "includes partition I/O)\n",
              "T%", "tau%", "CTREE", "EPT", "PEXESO-H", "PEXESO");

  bool ctree_dead = false, ept_dead = false, h_dead = false;
  for (int T : {20, 40, 60, 80}) {
    for (int tau : {2, 4, 6, 8}) {
      FractionalThresholds ft{tau / 100.0, T / 100.0};
      const SearchThresholds th =
          ft.Resolve(metric, profile.dim, queries[0].size());
      double t_ctree = -1.0, t_ept = -1.0, t_h = -1.0;
      if (!ctree_dead) {
        JoinableRangeSearcher s(&catalog, &ctree);
        t_ctree = TimedOrBudget(queries, budget, [&](const VectorStore& q) {
          MustSearch(s, q, th, nullptr);
        });
        ctree_dead = t_ctree < 0;
      }
      if (!ept_dead) {
        JoinableRangeSearcher s(&catalog, &ept);
        t_ept = TimedOrBudget(queries, budget, [&](const VectorStore& q) {
          MustSearch(s, q, th, nullptr);
        });
        ept_dead = t_ept < 0;
      }
      if (!h_dead) {
        parts.value().set_engine(PartitionedPexeso::Engine::kPexesoH);
        t_h = TimedOrBudget(queries, budget * 4, [&](const VectorStore& q) {
          JoinQuery sopts;
          sopts.thresholds = th;
          (void)ExecuteCollect(parts.value(), BindQuery(q, sopts));
        });
        h_dead = t_h < 0;
      }
      parts.value().set_engine(PartitionedPexeso::Engine::kPexeso);
      const double t_px =
          TimedOrBudget(queries, budget * 4, [&](const VectorStore& q) {
            JoinQuery sopts;
            sopts.thresholds = th;
            (void)ExecuteCollect(parts.value(), BindQuery(q, sopts));
          });
      std::printf("%4d %4d", T, tau);
      PrintCell(t_ctree);
      PrintCell(t_ept);
      PrintCell(t_h);
      PrintCell(t_px);
      std::printf("\n");
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_table7: search-time efficiency sweep (T x tau)",
         "Table VII of the PEXESO paper");
  const double scale = BenchProfiles::EnvScale();
  RunInMemory("OPEN-like", BenchProfiles::OpenLike(scale));
  RunInMemory("SWDC-like", BenchProfiles::SwdcLike(scale));
  RunOutOfCore("LWDC-like", BenchProfiles::LwdcLike(scale), 10);
  std::printf(
      "\nExpected shape: PEXESO fastest everywhere; PEXESO-H between PEXESO "
      "and the range-query baselines; times grow with tau and\nwith T (early "
      "termination weakens); non-blocking baselines hit the budget on the "
      "out-of-core profile first.\n");
  return 0;
}
