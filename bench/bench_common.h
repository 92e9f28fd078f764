#ifndef PEXESO_BENCH_BENCH_COMMON_H_
#define PEXESO_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "datagen/vector_lake.h"
#include "vec/metric.h"

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

/// Wall-clock of one callable, in seconds.
inline double TimeIt(const std::function<void()>& fn) {
  Stopwatch w;
  fn();
  return w.ElapsedSeconds();
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

/// Number of query columns per timing cell (env PEXESO_BENCH_QUERIES).
inline size_t NumQueries(size_t def = 3) {
  const char* env = std::getenv("PEXESO_BENCH_QUERIES");
  if (env == nullptr) return def;
  const long v = std::atol(env);
  return v <= 0 ? def : static_cast<size_t>(v);
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
