#ifndef PEXESO_SERVE_SERVE_SESSION_H_
#define PEXESO_SERVE_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/engine.h"

namespace pexeso::serve {

/// \brief ServeSession configuration.
struct ServeSessionOptions {
  /// Worker threads of the owned pool. 0 = one per hardware thread.
  /// Ignored when an external pool is passed to the constructor.
  size_t num_threads = 0;
  /// Default intra-query parallelism applied to every submitted query that
  /// does not carry its own JoinQuery::intra_query_threads: a huge query
  /// column then parallelizes *within* one partition's verification, not
  /// just across partitions. Shards run on a dedicated session-owned intra
  /// pool (separate from the part-task pool, so a part task waiting on its
  /// shards can never starve shard execution). 0 = off.
  size_t intra_query_threads = 0;
};

/// \brief One part's worth of results for one streaming query, delivered to
/// the chunk callback as the part completes.
struct StreamChunk {
  size_t part = 0;           ///< which part produced this chunk
  size_t parts_total = 1;    ///< chunk count the query will emit
  bool last = false;         ///< true on the final chunk of the query
  /// Non-OK: this part failed, was interrupted or dropped, or answered
  /// degraded (the lake's quarantine notice; results are still valid).
  Status status;
  /// This part's joinable columns (global column ids, unmerged/unsorted).
  std::vector<JoinableColumn> results;
};

/// \brief Final outcome of one submitted query.
struct QueryOutcome {
  Status status;
  /// Merged results. For a partitioned engine these are byte-identical to
  /// the engine's serial Execute (PartRunner: concatenated in part order,
  /// then the canonical mode-aware merge — global-column order for the
  /// threshold modes, rank order for kTopK). When status is an interruption
  /// (Cancelled / DeadlineExceeded) this holds the completed parts'
  /// columns — valid partial results; on a failure it is empty.
  std::vector<JoinableColumn> results;
  /// Degraded parts in part order, exactly what the serial Execute reports
  /// through ResultSink::OnPartStatus: an OK status with entries here means
  /// "partial results, and this is what is missing".
  std::vector<std::pair<size_t, Status>> part_statuses;
  /// Counters accumulated in part order — deterministic at any thread count.
  SearchStats stats;
  /// Time spent blocked on partition IO (0 for in-memory engines).
  double io_seconds = 0.0;
};

using ChunkCallback = std::function<void(const StreamChunk&)>;

/// Fired once per query, after its last chunk callback, with the final
/// merged outcome. Runs on the pool thread that finished the last part.
using OutcomeCallback = std::function<void(QueryOutcome)>;

/// \brief Async query session over one shared read-only engine: the online
/// half of the serving layer.
///
/// Queries are accepted without blocking and fan out across a ThreadPool.
/// For an engine that also implements PartitionedJoinEngine, each query
/// becomes one PartRunner task per part, so a single query overlaps the IO
/// and search of all its partitions — and with an IndexCache attached to
/// the engine, concurrent queries share each part's single load. Other
/// engines run as one task.
///
/// Lifetime: a session keeps nothing for a finished query. A query's state
/// (its JoinQuery copy, callbacks and per-part slots) lives only while its
/// part tasks run; the task that completes the last part merges the
/// outcome, frees the state, and only then hands the outcome over.
///
/// Streaming: the chunk callback fires once per part as that part
/// completes (parts race, so chunk order is nondeterministic — consumers
/// needing the deterministic merge read the outcome). Callbacks of one
/// query are serialized; different queries' callbacks may run
/// concurrently on pool threads. A callback (or search) that throws fails
/// its query's outcome (Status::Internal) rather than leaking the exception
/// into the pool.
///
/// Determinism contract (the BatchQueryRunner contract, extended): each
/// outcome's results and stats counters are identical at any thread count
/// and any cache budget, because per-part chunks are merged in part order
/// (PartRunner::Finish) regardless of completion order. A caller that
/// keeps its futures in submission order reads the outcomes in that order.
class ServeSession {
 public:
  /// `engine` is borrowed and must outlive the session. When `shared_pool`
  /// is non-null the session runs on it (and only waits for its own tasks);
  /// otherwise it owns a pool of options.num_threads workers.
  explicit ServeSession(const JoinSearchEngine* engine,
                        ServeSessionOptions options = {},
                        ThreadPool* shared_pool = nullptr);

  /// Waits for every submitted query, outcome callbacks included, before
  /// tearing down.
  ~ServeSession();

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Submits a request. `on_chunk` (may be null) fires once per part as
  /// that part completes (local top-k candidates per part for kTopK).
  /// `on_outcome` fires on a pool thread once the query's outcome is final
  /// — strictly after the last chunk callback and after the session has
  /// released the query, never while any session or query lock is held,
  /// so it may freely submit follow-up queries.
  /// `query.vectors` is borrowed and must stay alive until the query
  /// finishes. Each part task runs through the query's PartRunner, so
  /// deadlines, cancellation, the kTopK floor and part failures follow the
  /// same policy as the engine's serial Execute: a part whose query tripped
  /// before it started is dropped (the pool never burns time on a dead
  /// query), completed parts are kept as partial results, a failed part is
  /// reported in part_statuses while the rest is served.
  void Submit(JoinQuery query, ChunkCallback on_chunk,
              OutcomeCallback on_outcome);

  /// The same submit with the outcome delivered through a future, which
  /// resolves when every part has completed.
  std::future<QueryOutcome> Submit(JoinQuery query,
                                   ChunkCallback on_chunk = nullptr);

  size_t num_threads() const { return pool_->num_threads(); }

  /// Queue-depth introspection for the serving layer's metrics endpoint.
  /// inflight = accepted but not yet finalized.
  uint64_t queries_submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  uint64_t queries_inflight() const {
    return submitted_.load(std::memory_order_relaxed) -
           finished_.load(std::memory_order_relaxed);
  }

 private:
  struct QueryState;

  /// Pool task: run one part of one query, emit its chunk, and finish the
  /// query when this was the last outstanding part.
  void RunPart(QueryState* state, size_t part) const;

  /// Finishes the query's runner (part-order merge and failure policy) into
  /// its outcome. The caller owns the state: every part task is done.
  static QueryOutcome Finalize(QueryState* state);

  const JoinSearchEngine* engine_;
  const PartitionedJoinEngine* parts_;  ///< engine_'s part view; may be null
  /// Intra-query shard pool (ServeSessionOptions::intra_query_threads > 1).
  /// Declared before the part-task pool/group so it is destroyed last —
  /// after the group's wait, when no search can still hold shard tasks.
  std::unique_ptr<ThreadPool> intra_pool_;
  size_t default_intra_threads_ = 0;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  TaskGroup group_;
  std::atomic<uint64_t> submitted_{0};
  mutable std::atomic<uint64_t> finished_{0};  ///< bumped from const RunPart
};

}  // namespace pexeso::serve

#endif  // PEXESO_SERVE_SERVE_SESSION_H_
