#include "core/batch_runner.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/part_runner.h"

namespace pexeso {

BatchQueryRunner::BatchQueryRunner(const JoinSearchEngine* engine,
                                   BatchRunnerOptions options)
    : engine_(engine), partition_mode_(options.partition_mode) {
  PEXESO_CHECK(engine != nullptr);
  num_threads_ = options.num_threads;
  if (num_threads_ == 0) {
    num_threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

BatchResult BatchQueryRunner::Run(const std::vector<JoinQuery>& queries) const {
  BatchResult out;
  out.results.resize(queries.size());
  out.statuses.resize(queries.size());
  out.part_statuses.resize(queries.size());
  Stopwatch watch;
  // One stats scratch slot per query: workers never share a slot, and the
  // serial input-order merge below keeps the floating-point sums identical
  // at every thread count.
  std::vector<SearchStats> scratch(queries.size());

  // Intra-query composition: queries may ask for intra-query verification
  // shards (JoinQuery::intra_query_threads) without carrying a pool. The
  // runner then provisions ONE intra pool shared by every query (the
  // pipeline tracks its shards with a per-search TaskGroup) and shrinks its
  // own fan-out so batch-major workers times intra-query shards stays within
  // the requested thread budget instead of multiplying it.
  size_t max_intra = 0;
  for (const JoinQuery& jq : queries) {
    if (jq.intra_query_pool == nullptr) {
      max_intra = std::max(max_intra, jq.intra_query_threads);
    }
  }
  std::unique_ptr<ThreadPool> intra_pool;
  std::vector<JoinQuery> rewritten;
  size_t outer_threads = num_threads_;
  const std::vector<JoinQuery>* effective = &queries;
  if (max_intra > 1) {
    // The pool honors the runner's total budget (shard COUNTS stay at the
    // requested intra_query_threads — a pure function of the request — so
    // results and stats are unchanged; extra shards just queue).
    intra_pool = std::make_unique<ThreadPool>(
        std::min({max_intra, std::max<size_t>(1, num_threads_), size_t{256}}));
    outer_threads = std::max<size_t>(1, num_threads_ / max_intra);
    rewritten = queries;
    for (JoinQuery& jq : rewritten) {
      if (jq.intra_query_threads > 1 && jq.intra_query_pool == nullptr) {
        jq.intra_query_pool = intra_pool.get();
      }
    }
    effective = &rewritten;
  }

  const auto* parts = dynamic_cast<const PartitionedJoinEngine*>(engine_);
  const bool partition_major =
      parts != nullptr && !queries.empty() &&
      (partition_mode_ == BatchPartitionMode::kPartitionMajor ||
       (partition_mode_ == BatchPartitionMode::kAuto &&
        parts->NumParts() > 1 && queries.size() > 1 &&
        !parts->PartsStayResident()));

  // One request: executes and records status, degraded parts and
  // (possibly partial) results into the query's own slots. A query that is
  // dead on arrival is stopped by the engine's own entry check.
  const auto execute_one = [&](size_t i) {
    CollectSink sink;
    out.statuses[i] = engine_->Execute((*effective)[i], &sink, &scratch[i]);
    out.part_statuses[i] = sink.part_statuses();
    out.results[i] = std::move(sink).TakeColumns();
  };

  if (partition_major) {
    RunPartitionMajor(*parts, *effective, outer_threads, &scratch, &out);
  } else if (outer_threads <= 1 || queries.size() <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) execute_one(i);
  } else {
    ThreadPool pool(std::min(outer_threads, queries.size()));
    pool.ParallelFor(queries.size(), execute_one);
  }
  for (const SearchStats& s : scratch) out.stats += s;
  out.wall_seconds = watch.ElapsedSeconds();
  return out;
}

void BatchQueryRunner::RunPartitionMajor(const PartitionedJoinEngine& parts,
                                         const std::vector<JoinQuery>& queries,
                                         size_t outer_threads,
                                         std::vector<SearchStats>* scratch,
                                         BatchResult* out) const {
  const size_t n = queries.size();
  std::unique_ptr<ThreadPool> pool;
  if (outer_threads > 1 && n > 1) {
    pool = std::make_unique<ThreadPool>(std::min(outer_threads, n));
  }
  std::vector<std::unique_ptr<PartRunner>> runners;
  runners.reserve(n);
  for (const JoinQuery& jq : queries) {
    runners.push_back(std::make_unique<PartRunner>(&parts, jq));
  }
  double io = 0.0;
  for (size_t part = 0; part < parts.NumParts(); ++part) {
    // One load per partition per batch: the handle keeps the partition
    // resident while every query of the wave searches it IO-free. A failed
    // load is that part's failure for every query of the wave.
    const Result<PartHandle> held = parts.AcquirePart(part, &io);
    const auto search_one = [&](size_t i) {
      // A query that already stopped (interrupted, or failed outright)
      // stops burning the pool: its remaining parts are skipped.
      if (runners[i]->stopped()) return;
      runners[i]->RunPart(part, &(*scratch)[i], nullptr, held);
    };
    if (pool != nullptr) {
      pool->ParallelFor(n, search_one);
    } else {
      for (size_t i = 0; i < n; ++i) search_one(i);
    }
  }
  // Each runner merges its chunks in partition order, so the output is
  // byte-identical to the query-major path.
  for (size_t i = 0; i < n; ++i) {
    CollectSink sink;
    out->statuses[i] = runners[i]->Finish(&sink, &(*scratch)[i]);
    out->part_statuses[i] = sink.part_statuses();
    out->results[i] = std::move(sink).TakeColumns();
  }
  out->io_seconds = io;
}

}  // namespace pexeso
