// Reproduces Figure 9: ablation study. Removes each lemma group in turn --
// No-Lem1 (pivot filtering in verification), No-Lem2 (pivot matching in
// verification), No-Lem3&4 (cell filtering in blocking), No-Lem5&6 (cell
// matching in blocking) -- and compares search time against full PEXESO on
// the OPEN-like, SWDC-like and LWDC-like profiles (all in-memory: the
// ablation isolates CPU filtering power). Every other AblationConfig switch
// gets a variant too, so each one shows up in a gated count:
// BENCH_fig9.json ("BENCH_fig9/v1") holds one row per profile x variant with
// its SearchStats gated and its mean search time ungated.
//
// The No-Quant row also checks the int8 tier's bookkeeping: every float
// distance the tier skips is one the quant-off search computes, so
// distances(No-Quant) == distances(ALL) + quant_tile_skips(ALL). A
// mismatch fails the bench.

#include <cstdio>

#include "bench_common.h"

namespace pexeso::bench {
namespace {

void RunProfile(const char* name, const VectorLakeOptions& profile,
                BenchJson* json) {
  L2Metric metric;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  PexesoOptions opts;
  opts.num_pivots = 5;
  opts.levels = 5;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PexesoSearcher searcher(&index);

  const size_t nq = NumQueries(3);
  auto queries = MakeQueries(profile, nq, 40);
  FractionalThresholds ft{0.06, 0.6};

  struct Variant {
    const char* label;
    AblationConfig config;
  };
  // ALL runs first: the No-Quant check needs its counts.
  std::vector<Variant> variants;
  variants.push_back({"ALL (PEXESO)", {}});
  variants.push_back({"No-Lem1", {}});
  variants.back().config.use_lemma1 = false;
  variants.push_back({"No-Lem2", {}});
  variants.back().config.use_lemma2 = false;
  variants.push_back({"No-Lem3&4", {}});
  variants.back().config.use_lemma34 = false;
  variants.push_back({"No-Lem5&6", {}});
  variants.back().config.use_lemma56 = false;
  // Extra ablations beyond the paper's figure: Lemma 7's column kill, the
  // quick-browsing shortcut of Section III-C, and the int8 quant tier.
  variants.push_back({"No-Lem7", {}});
  variants.back().config.use_lemma7 = false;
  variants.push_back({"No-QuickBrowse", {}});
  variants.back().config.use_quick_browsing = false;
  variants.push_back({"No-Quant", {}});
  variants.back().config.use_quant_prefilter = false;

  std::printf("\n%s: %zu vectors, dim %u\n", name,
              index.catalog().num_vectors(), index.catalog().dim());
  std::printf("  %-14s %10s %14s\n", "variant", "mean (s)", "distances");
  SearchStats all;
  for (const auto& v : variants) {
    SearchStats stats;
    double total = 0.0;
    for (const auto& q : queries) {
      JoinQuery sopts;
      sopts.thresholds = ft.Resolve(metric, profile.dim, q.size());
      sopts.ablation = v.config;
      total += TimeIt([&] { MustSearch(searcher, q, sopts, &stats); });
    }
    const double mean = total / static_cast<double>(nq);
    std::printf("  %-14s %10.4f %14llu\n", v.label, mean,
                static_cast<unsigned long long>(stats.distance_computations));
    BenchRow& row = json->Row(std::string(name) + " " + v.label)
                        .Stats(stats)
                        .Num("mean_seconds", mean);
    if (&v == &variants.front()) all = stats;
    if (!v.config.use_quant_prefilter) {
      row.Check("distances_eq_all_plus_quant_skips",
                stats.distance_computations ==
                    all.distance_computations + all.quant_tile_skips);
    }
  }
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_fig9: lemma ablation study", "Figure 9 of the PEXESO paper");
  const double scale = BenchProfiles::EnvScale();
  BenchJson json("fig9", 1);
  RunProfile("OPEN-like", BenchProfiles::OpenLike(scale), &json);
  RunProfile("SWDC-like", BenchProfiles::SwdcLike(scale), &json);
  RunProfile("LWDC-like", BenchProfiles::LwdcLike(scale * 0.5), &json);
  std::printf(
      "\nExpected shape: removing Lemma 3&4 (cell filtering) hurts by far "
      "the most; the filtering lemmas (1, 3&4) matter more than\ntheir "
      "matching counterparts (2, 5&6); full PEXESO is fastest.\n");
  return json.Write();
}
