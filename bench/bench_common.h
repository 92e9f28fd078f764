#ifndef PEXESO_BENCH_BENCH_COMMON_H_
#define PEXESO_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "datagen/vector_lake.h"
#include "vec/kernels.h"
#include "vec/metric.h"
#include "vec/search_stats.h"

namespace pexeso::bench {

/// Executes `jq` (with its vectors field pointed at `query`) against
/// `engine` and returns the collected results, aborting on a non-OK status.
inline std::vector<JoinableColumn> MustSearch(const JoinSearchEngine& engine,
                                              const VectorStore& query,
                                              JoinQuery jq,
                                              SearchStats* stats = nullptr) {
  jq.vectors = &query;
  auto results = ExecuteCollect(engine, jq, stats);
  PEXESO_CHECK_MSG(results.ok(), results.status().ToString().c_str());
  return std::move(results).ValueOrDie();
}

/// MustSearch with a default-mode (kThreshold) query at `thresholds`.
inline std::vector<JoinableColumn> MustSearch(const JoinSearchEngine& engine,
                                              const VectorStore& query,
                                              const SearchThresholds& thresholds,
                                              SearchStats* stats = nullptr) {
  JoinQuery jq;
  jq.thresholds = thresholds;
  return MustSearch(engine, query, std::move(jq), stats);
}

/// True when both result lists name the same columns, in the same order,
/// with the same match counts and joinabilities.
inline bool SameResults(const std::vector<JoinableColumn>& a,
                        const std::vector<JoinableColumn>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].column != b[i].column || a[i].match_count != b[i].match_count ||
        a[i].joinability != b[i].joinability) {
      return false;
    }
  }
  return true;
}

/// One row of a BENCH_<name>.json file. Count() and gated Stats() values
/// go into the row's "counts" object, the only part tools/bench_gate.py
/// compares with the committed baseline: put there only work counts that
/// are identical run to run and at any CPU count. Seconds, rates, ratios
/// and scheduling-dependent counts go beside "counts" and are never gated.
class BenchRow {
 public:
  explicit BenchRow(std::string label) : label_(std::move(label)) {}

  /// A gated count.
  BenchRow& Count(const std::string& key, uint64_t value) {
    Append(&counts_, key, std::to_string(value));
    return *this;
  }
  /// An ungated integer.
  BenchRow& Int(const std::string& key, uint64_t value) {
    Append(&fields_, key, std::to_string(value));
    return *this;
  }
  /// An ungated number with `decimals` digits after the point.
  BenchRow& Num(const std::string& key, double value, int decimals = 4) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    Append(&fields_, key, buf);
    return *this;
  }
  /// The nonzero integer fields of `stats`, under their exported names from
  /// PEXESO_SEARCH_STATS_FIELDS; gated unless they depend on scheduling.
  BenchRow& Stats(const SearchStats& stats, bool gated = true) {
    stats.ForEachField([&](const StatField& f, auto value) {
      if constexpr (std::is_same_v<decltype(value), uint64_t>) {
        if (value == 0) return;
        if (gated) {
          Count(f.name, value);
        } else {
          Int(f.name, value);
        }
      }
    });
    return *this;
  }
  /// A pass/fail check, such as result parity. A false one makes
  /// BenchJson::Write fail the bench.
  BenchRow& Check(const std::string& key, bool ok) {
    Append(&fields_, key, ok ? "true" : "false");
    if (!ok) failed_checks_.push_back(key);
    return *this;
  }

 private:
  friend class BenchJson;
  static void Append(std::string* out, const std::string& key,
                     const std::string& value) {
    if (!out->empty()) out->append(", ");
    out->append("\"").append(key).append("\": ").append(value);
  }

  std::string label_;
  std::string counts_;
  std::string fields_;
  std::vector<std::string> failed_checks_;
};

/// Number of query columns per timing cell (env PEXESO_BENCH_QUERIES).
inline size_t NumQueries(size_t def = 3) {
  const char* env = std::getenv("PEXESO_BENCH_QUERIES");
  if (env == nullptr) return def;
  const long v = std::atol(env);
  return v <= 0 ? def : static_cast<size_t>(v);
}

/// \brief The one JSON writer of the benches: `BenchJson json("topk", 3)`
/// collects rows and Write() puts them in BENCH_topk.json in the working
/// directory, under a header of schema ("BENCH_topk/v3"), hw_threads,
/// simd_level, the PEXESO_BENCH_SCALE in effect and the
/// PEXESO_BENCH_QUERIES override ("queries", 0 for each bench's default).
class BenchJson {
 public:
  BenchJson(std::string name, int version)
      : name_(std::move(name)), version_(version) {}

  /// Appends a row named `label`; the reference stays valid.
  BenchRow& Row(std::string label) {
    return rows_.emplace_back(std::move(label));
  }

  /// Writes the file and returns main's exit code: non-zero when the file
  /// cannot be written or any row recorded a failed Check.
  int Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"BENCH_%s/v%d\",\n", name_.c_str(),
                 version_);
    std::fprintf(f, "  \"hw_threads\": %u,\n",
                 std::max(1u, std::thread::hardware_concurrency()));
    std::fprintf(f, "  \"simd_level\": \"%s\",\n",
                 SimdLevelName(ActiveSimdLevel()));
    std::fprintf(f, "  \"scale\": %g,\n", BenchProfiles::EnvScale());
    std::fprintf(f, "  \"queries\": %zu,\n  \"rows\": [", NumQueries(0));
    int failures = 0;
    for (size_t i = 0; i < rows_.size(); ++i) {
      const BenchRow& r = rows_[i];
      std::fprintf(f, "%s\n    {\"row\": \"%s\", \"counts\": {%s}%s%s}",
                   i == 0 ? "" : ",", r.label_.c_str(), r.counts_.c_str(),
                   r.fields_.empty() ? "" : ", ", r.fields_.c_str());
      for (const std::string& key : r.failed_checks_) {
        std::fprintf(stderr, "%s: row \"%s\": %s is false\n", path.c_str(),
                     r.label_.c_str(), key.c_str());
        ++failures;
      }
    }
    std::fprintf(f, "\n  ]\n}\n");
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return failures == 0 ? 0 : 1;
  }

 private:
  std::string name_;
  int version_;
  std::deque<BenchRow> rows_;
};

/// Wall-clock of one callable, in seconds.
inline double TimeIt(const std::function<void()>& fn) {
  Stopwatch w;
  fn();
  return w.ElapsedSeconds();
}

/// Times `n` variants of one workload so that none is favored by running
/// first: `run(v, true)` runs variant v once untimed as a warm-up round,
/// then `rounds` timed rounds run every variant once each, round r starting
/// at variant r % n. Returns each variant's median round time in seconds.
/// A caller records work counts only when the flag is true, so they come
/// from exactly one round.
inline std::vector<double> MedianRoundSeconds(
    size_t n, size_t rounds, const std::function<void(size_t, bool)>& run) {
  for (size_t v = 0; v < n; ++v) run(v, true);
  std::vector<std::vector<double>> times(n);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t j = 0; j < n; ++j) {
      const size_t v = (r + j) % n;
      times[v].push_back(TimeIt([&] { run(v, false); }));
    }
  }
  std::vector<double> medians(n);
  for (size_t v = 0; v < n; ++v) {
    std::sort(times[v].begin(), times[v].end());
    const size_t m = times[v].size();
    medians[v] = m == 0 ? 0.0
                        : (times[v][(m - 1) / 2] + times[v][m / 2]) / 2.0;
  }
  return medians;
}

/// Returns `jq` with its vectors field pointed at `query` — the one-liner
/// for APIs that take a fully-bound JoinQuery. `query` must outlive the
/// returned request.
inline JoinQuery BindQuery(const VectorStore& query, JoinQuery jq) {
  jq.vectors = &query;
  return jq;
}

/// Expands (queries, shared prototype) into the per-query JoinQuery vector
/// BatchQueryRunner::Run takes. `queries` must outlive the result.
inline std::vector<JoinQuery> BindQueries(
    const std::vector<VectorStore>& queries, const JoinQuery& prototype) {
  std::vector<JoinQuery> jqs(queries.size(), prototype);
  for (size_t i = 0; i < queries.size(); ++i) jqs[i].vectors = &queries[i];
  return jqs;
}

/// BindQueries with per-query options (positionally aligned).
inline std::vector<JoinQuery> BindQueries(
    const std::vector<VectorStore>& queries,
    const std::vector<JoinQuery>& options) {
  std::vector<JoinQuery> jqs = options;
  for (size_t i = 0; i < queries.size(); ++i) jqs[i].vectors = &queries[i];
  return jqs;
}

/// Prints a banner naming the experiment and the dataset substitution note.
inline void Banner(const char* experiment, const char* paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s  (reproduces %s)\n", experiment, paper_ref);
  std::printf("Synthetic data lake; scale via PEXESO_BENCH_SCALE "
              "(current %.2f). Shapes, not absolute numbers, are the\n"
              "comparison target -- see the committed BENCH_*.json files\n"
              "and README.md.\n",
              BenchProfiles::EnvScale());
  std::printf("==========================================================\n");
}

/// Query workload for a vector-lake profile: `n` query columns of
/// `query_size` vectors each.
inline std::vector<VectorStore> MakeQueries(const VectorLakeOptions& profile,
                                            size_t n, size_t query_size) {
  std::vector<VectorStore> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(GenerateVectorQuery(profile, query_size, 9000 + i * 71));
  }
  return out;
}

/// Per-cell wall budget for slow baselines, seconds (PEXESO_BENCH_BUDGET).
inline double CellBudget(double def = 10.0) {
  const char* env = std::getenv("PEXESO_BENCH_BUDGET");
  if (env == nullptr) return def;
  const double v = std::atof(env);
  return v <= 0 ? def : v;
}

}  // namespace pexeso::bench

#endif  // PEXESO_BENCH_BENCH_COMMON_H_
