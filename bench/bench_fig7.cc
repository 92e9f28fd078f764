// Reproduces Figure 7: (a) PCA-based vs random pivot selection -- search CPU
// time as the number of vectors grows; (b) data partitioning strategies --
// JSD clustering vs average-k-means vs random, search time as the number of
// partitions grows (in-memory partition search so only partition quality,
// not disk speed, is measured).

#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "core/part_runner.h"
#include "partition/partitioned_pexeso.h"

namespace pexeso::bench {
namespace {

void PivotSelectionExperiment(const VectorLakeOptions& base) {
  std::printf("\n(a) pivot selection: search CPU time (s) vs #vectors\n");
  std::printf("%10s %12s %12s\n", "#vectors", "PCA-based", "Random");
  L2Metric metric;
  const size_t nq = NumQueries(4);
  for (double mult : {0.25, 0.5, 0.75, 1.0}) {
    VectorLakeOptions profile = base;
    profile.num_columns =
        std::max<uint32_t>(10, static_cast<uint32_t>(base.num_columns * mult));
    ColumnCatalog catalog = GenerateVectorLake(profile);
    auto queries = MakeQueries(profile, nq, 40);
    FractionalThresholds ft{0.06, 0.6};

    double times[2] = {0.0, 0.0};
    size_t num_vectors = catalog.num_vectors();
    for (int strategy = 0; strategy < 2; ++strategy) {
      PexesoOptions opts;
      opts.num_pivots = 5;
      opts.levels = 5;
      opts.pivot_strategy = strategy == 0
                                ? PexesoOptions::PivotStrategy::kPca
                                : PexesoOptions::PivotStrategy::kRandom;
      ColumnCatalog copy = catalog;
      PexesoIndex index = PexesoIndex::Build(std::move(copy), &metric, opts);
      PexesoSearcher searcher(&index);
      for (const auto& q : queries) {
        JoinQuery sopts;
        sopts.thresholds = ft.Resolve(metric, profile.dim, q.size());
        times[strategy] += TimeIt([&] { MustSearch(searcher, q, sopts, nullptr); });
      }
    }
    std::printf("%10zu %12.4f %12.4f\n", num_vectors, times[0], times[1]);
  }
}

void PartitioningExperiment(const VectorLakeOptions& profile) {
  namespace fs = std::filesystem;
  std::printf("\n(b) partitioning: search time (s) vs #partitions\n");
  std::printf("%12s %10s %16s %10s\n", "#partitions", "JSD", "Avg-k-means",
              "Random");
  L2Metric metric;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  const size_t nq = NumQueries(4);
  auto queries = MakeQueries(profile, nq, 40);
  FractionalThresholds ft{0.06, 0.6};
  PexesoOptions opts;
  opts.num_pivots = 5;
  opts.levels = 5;

  for (uint32_t k : {2u, 4u, 6u, 8u}) {
    double times[3] = {0, 0, 0};
    for (int strategy = 0; strategy < 3; ++strategy) {
      Partitioner::Options popts;
      popts.k = k;
      PartitionAssignment assign;
      switch (strategy) {
        case 0: assign = Partitioner::JsdClustering(catalog, popts); break;
        case 1: assign = Partitioner::AverageKMeans(catalog, popts); break;
        default: assign = Partitioner::Random(catalog, popts); break;
      }
      const std::string dir =
          (fs::temp_directory_path() / "pexeso_fig7_parts").string();
      fs::remove_all(dir);
      auto parts =
          PartitionedPexeso::Build(catalog, assign, dir, &metric, opts);
      if (!parts.ok()) continue;
      for (const auto& q : queries) {
        JoinQuery sopts;
        sopts.thresholds = ft.Resolve(metric, profile.dim, q.size());
        double io = 0.0;
        Stopwatch w;
        CollectSink sink;
        PartRunner::RunParts(parts.value(), BindQuery(q, sopts), &sink,
                             nullptr, &io);
        // Exclude disk I/O: the figure compares partition *quality* (how
        // well each part's pivots filter), not disk throughput.
        times[strategy] += w.ElapsedSeconds() - io;
      }
      fs::remove_all(dir);
    }
    std::printf("%12u %10.4f %16.4f %10.4f\n", k, times[0], times[1],
                times[2]);
  }
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_fig7: pivot selection and data partitioning",
         "Figure 7 of the PEXESO paper");
  const double scale = BenchProfiles::EnvScale();
  PivotSelectionExperiment(BenchProfiles::LwdcLike(scale * 0.5));
  PartitioningExperiment(BenchProfiles::LwdcLike(scale * 0.5));
  std::printf(
      "\nExpected shape: PCA pivots beat random, and the gap widens with "
      "more vectors; JSD partitioning beats average-k-means,\nwhich beats "
      "random, across partition counts.\n");
  return 0;
}
