// Reproduces Figure 6: (a) the number of exact distance computations per
// method and (b) the index sizes, on the OPEN-like and SWDC-like profiles at
// the default thresholds (tau = 6%, T = 60%). BENCH_fig6.json
// ("BENCH_fig6/v1") holds one row per profile x method, with its
// SearchStats and index bytes gated.

#include <cstdio>
#include <memory>
#include <string>

#include "baseline/cover_tree.h"
#include "baseline/ept.h"
#include "baseline/pexeso_h.h"
#include "baseline/range_engine.h"
#include "bench_common.h"

namespace pexeso::bench {
namespace {

void RunProfile(const char* name, const VectorLakeOptions& profile,
                BenchJson* json) {
  L2Metric metric;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  ColumnCatalog copy = catalog;
  PexesoOptions opts;
  opts.num_pivots = 5;
  opts.levels = 5;
  PexesoIndex index = PexesoIndex::Build(std::move(copy), &metric, opts);
  CoverTree ctree(&catalog.store(), &metric);
  ctree.BuildAll();
  ExtremePivotTable ept(&catalog.store(), &metric);
  ept.Build({});

  const size_t nq = NumQueries(3);
  auto queries = MakeQueries(profile, nq, 40);
  FractionalThresholds ft{0.06, 0.6};
  const SearchThresholds th = ft.Resolve(metric, profile.dim, 40);

  SearchStats s_ctree, s_ept, s_h, s_px;
  for (const auto& q : queries) {
    MustSearch(JoinableRangeSearcher(&catalog, &ctree), q, th, &s_ctree);
    MustSearch(JoinableRangeSearcher(&catalog, &ept), q, th, &s_ept);
    JoinQuery sopts;
    sopts.thresholds = th;
    MustSearch(PexesoHSearcher(&index), q, sopts, &s_h);
    MustSearch(PexesoSearcher(&index), q, sopts, &s_px);
  }

  struct Method {
    const char* label;
    const SearchStats& stats;
    size_t index_bytes;
  };
  // PEXESO-H shares PEXESO's structures minus the inverted index.
  const Method methods[] = {
      {"CTREE", s_ctree, ctree.MemoryBytes()},
      {"EPT", s_ept, ept.MemoryBytes()},
      {"PEXESO-H", s_h,
       index.IndexSizeBytes() - index.inverted_index().MemoryBytes()},
      {"PEXESO", s_px, index.IndexSizeBytes()},
  };
  std::printf("\n%s: %zu vectors, dim %u (%zu queries)\n", name,
              catalog.num_vectors(), catalog.dim(), nq);
  std::printf("  %-10s %14s %10s\n", "method", "(a) distances",
              "(b) MB");
  for (const Method& m : methods) {
    std::printf("  %-10s %14llu %10.2f\n", m.label,
                static_cast<unsigned long long>(m.stats.distance_computations),
                m.index_bytes / 1e6);
    json->Row(std::string(name) + " " + m.label)
        .Stats(m.stats)
        .Count("index_bytes", m.index_bytes);
  }
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_fig6: distance computations and index sizes",
         "Figure 6 of the PEXESO paper");
  const double scale = BenchProfiles::EnvScale();
  BenchJson json("fig6", 1);
  RunProfile("OPEN-like", BenchProfiles::OpenLike(scale), &json);
  RunProfile("SWDC-like", BenchProfiles::SwdcLike(scale), &json);
  std::printf(
      "\nExpected shape: PEXESO computes fewer distances than CTREE, EPT and "
      "PEXESO-H on both profiles. PEXESO's\nindex is within a small constant "
      "factor of the others, the price of the grid + inverted index.\n");
  return json.Write();
}
