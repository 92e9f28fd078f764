// Reproduces Figure 9: ablation study. Removes each filtering lemma group in
// turn -- No-Lem1 (pivot filtering in verification), No-Lem3&4 (cell
// filtering in blocking) -- and compares search time against full PEXESO on
// the OPEN-like, SWDC-like and LWDC-like profiles (all in-memory: the
// ablation isolates CPU filtering power). Every other AblationConfig switch
// gets a variant too, so each one shows up in a gated count:
// BENCH_fig9.json ("BENCH_fig9/v1") holds one row per profile x variant with
// its SearchStats gated and its search time per query ungated: the median
// over interleaved rounds after a warm-up (MedianRoundSeconds), so no
// variant always runs first and cold. Each ablation row
// checks that it returns ALL's exact results (the lemmas are exact) and
// computes at least ALL's distances (a lemma only removes work). One more
// row per profile, "ALL +mappings", runs ALL with collect_mappings: it must
// return ALL's columns, and its counts and record mappings must equal the
// naive scan's byte for byte.
//
// The paper's No-Lem2 and No-Lem5&6 bars have no row: the pivot-match
// lemmas need the query and the target both within tau of one pivot, which
// the outlier pivots of Section III-D almost never allow, so they are not
// implemented (README, "Figure 9").

#include <cstdio>

#include "baseline/naive_searcher.h"
#include "bench_common.h"

namespace pexeso::bench {
namespace {

/// True when both result lists name the same columns in the same order.
bool SameColumns(const std::vector<JoinableColumn>& a,
                 const std::vector<JoinableColumn>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].column != b[i].column) return false;
  }
  return true;
}

/// SameResults plus identical record mappings.
bool SameMappings(const std::vector<JoinableColumn>& a,
                  const std::vector<JoinableColumn>& b) {
  if (!SameResults(a, b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& ma = a[i].mapping;
    const auto& mb = b[i].mapping;
    if (ma.size() != mb.size()) return false;
    for (size_t m = 0; m < ma.size(); ++m) {
      if (ma[m].query_index != mb[m].query_index ||
          ma[m].target_vec != mb[m].target_vec) {
        return false;
      }
    }
  }
  return true;
}

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
  std::vector<Variant> variants;
  variants.push_back({"ALL (PEXESO)", {}});
  variants.push_back({"No-Lem1", {}});
  variants.back().config.use_lemma1 = false;
  variants.push_back({"No-Lem3&4", {}});
  variants.back().config.use_lemma34 = false;
  // Extra ablations beyond the paper's figure: Lemma 7's column kill and
  // the quick-browsing shortcut of Section III-C.
  variants.push_back({"No-Lem7", {}});
  variants.back().config.use_lemma7 = false;
  variants.push_back({"No-QuickBrowse", {}});
  variants.back().config.use_quick_browsing = false;

  // Variant v < variants.size() runs ablation v; the last one is ALL
  // collecting record mappings. Each variant leads two of the timed rounds.
  const size_t nv = variants.size() + 1;
  std::vector<SearchStats> stats(nv);
  std::vector<std::vector<std::vector<JoinableColumn>>> results(
      nv, std::vector<std::vector<JoinableColumn>>(nq));
  const auto run = [&](size_t v, bool record) {
    for (size_t i = 0; i < nq; ++i) {
      JoinQuery sopts;
      sopts.thresholds = ft.Resolve(metric, profile.dim, queries[i].size());
      if (v < variants.size()) {
        sopts.ablation = variants[v].config;
      } else {
        sopts.collect_mappings = true;
      }
      auto got = MustSearch(searcher, queries[i], sopts,
                            record ? &stats[v] : nullptr);
      if (record) results[v][i] = std::move(got);
    }
  };
  const std::vector<double> median = MedianRoundSeconds(nv, 2 * nv, run);

  std::printf("\n%s: %zu vectors, dim %u\n", name,
              index.catalog().num_vectors(), index.catalog().dim());
  std::printf("  %-14s %10s %14s\n", "variant", "median (s)", "distances");
  const auto row = [&](size_t v, const char* label) -> BenchRow& {
    const double per_query = median[v] / static_cast<double>(nq);
    std::printf("  %-14s %10.4f %14llu\n", label, per_query,
                static_cast<unsigned long long>(
                    stats[v].distance_computations));
    return json->Row(std::string(name) + " " + label)
        .Stats(stats[v])
        .Num("median_seconds", per_query);
  };
  const auto& all_results = results[0];
  row(0, variants[0].label);
  for (size_t v = 1; v < variants.size(); ++v) {
    bool same = true;
    for (size_t i = 0; i < nq; ++i) {
      same = same && SameResults(results[v][i], all_results[i]);
    }
    row(v, variants[v].label)
        .Check("same_results_as_all", same)
        .Check("distances_at_least_all", stats[v].distance_computations >=
                                             stats[0].distance_computations);
  }

  // ALL collecting record mappings, checked against the naive scan.
  NaiveSearcher naive(&index.catalog(), &metric);
  bool same_columns = true;
  bool same_mappings = true;
  for (size_t i = 0; i < nq; ++i) {
    JoinQuery sopts;
    sopts.thresholds = ft.Resolve(metric, profile.dim, queries[i].size());
    sopts.collect_mappings = true;
    const auto& mapped = results[nv - 1][i];
    same_columns = same_columns && SameColumns(mapped, all_results[i]);
    same_mappings = same_mappings &&
                    SameMappings(mapped, MustSearch(naive, queries[i], sopts));
  }
  row(nv - 1, "ALL +mappings")
      .Check("same_columns_as_all", same_columns)
      .Check("mappings_equal_naive", same_mappings);
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
      "\nExpected shape: every ablation row returns ALL's results and "
      "computes at least ALL's distances\n(both checked). Removing Lemma 7 "
      "(column kill) adds the most distances, and removing Lemma 3&4\n(cell "
      "filtering) costs the most time on SWDC/LWDC-like. Lemma 7 counts every "
      "record that blocking\ngave no candidate in a column as a mismatch, so "
      "without Lemmas 3/4 (every record a candidate)\nit only counts verified "
      "mismatches. ALL +mappings returns ALL's columns with the naive scan's "
      "exact counts\nand mappings (both checked).\n");
  return json.Write();
}
