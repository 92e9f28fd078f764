#ifndef PEXESO_CORE_BATCH_RUNNER_H_
#define PEXESO_CORE_BATCH_RUNNER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace pexeso {

/// \brief How a batch iterates a PartitionedJoinEngine (ignored for
/// in-memory engines, which have no partition axis).
enum class BatchPartitionMode {
  /// Partition-major when the engine reports its parts will NOT stay
  /// resident across queries (no cache, or a budget too small to hold the
  /// partitions); query-major otherwise.
  kAuto,
  /// Every query searches all partitions itself (each load hits the cache
  /// or disk per query) — the pre-serving-layer behavior.
  kQueryMajor,
  /// Outer loop over partitions: each partition is loaded ONCE per batch
  /// and all queries search it while it is held resident, so batch IO is
  /// O(partitions) instead of O(queries x partitions).
  kPartitionMajor,
};

/// \brief Options for a batch run.
struct BatchRunnerOptions {
  /// Worker threads fanning the queries out. 0 = one per hardware thread.
  size_t num_threads = 1;
  BatchPartitionMode partition_mode = BatchPartitionMode::kAuto;
};

/// \brief Outcome of one batch run.
struct BatchResult {
  /// results[i] is the joinable set of queries[i] — input order, always,
  /// regardless of how many threads executed the batch.
  std::vector<std::vector<JoinableColumn>> results;
  /// statuses[i] is queries[i]'s execution status: OK for a complete
  /// search, Cancelled/DeadlineExceeded when that query's controls tripped
  /// (results[i] then holds whatever completed — valid partial results),
  /// or the final status of the part failure policy (README "Failure model
  /// & recovery").
  std::vector<Status> statuses;
  /// part_statuses[i] lists queries[i]'s degraded parts in part order (what
  /// ResultSink::OnPartStatus reports): an OK status with entries here
  /// means partial results with exactly these parts missing.
  std::vector<std::vector<std::pair<size_t, Status>>> part_statuses;
  /// Counters of every search, merged in input order: the counter fields
  /// are identical at any thread count (the *_seconds fields are wall-clock
  /// measurements and naturally vary run to run).
  SearchStats stats;
  /// Wall-clock of the fan-out (excludes engine/index construction).
  double wall_seconds = 0.0;
  /// Time blocked on partition IO across the batch. Tracked only on the
  /// partition-major path (query-major searches hide their IO inside the
  /// engine's Execute).
  double io_seconds = 0.0;
};

/// \brief Parallel batch query runner: fans M JoinQuery requests out across
/// a thread pool against one shared read-only engine.
///
/// Data-lake discovery is a batch workload — thousands of query columns
/// against one index — so the per-column latency matters less than
/// aggregate throughput. The runner exploits the embarrassing parallelism
/// across query columns: each worker executes whole requests with its own
/// SearchStats scratch slot, and the slots are merged after the barrier.
///
/// Out-of-core engines get a second axis: when the engine implements
/// PartitionedJoinEngine and its parts will not stay resident (see
/// BatchPartitionMode), the runner flips to a partition-major loop that
/// loads each partition once per batch and fans the queries out against the
/// held partition — the difference between O(partitions) and
/// O(queries x partitions) deserializations per batch.
///
/// A third axis composes with both: queries whose JoinQuery asks for
/// intra-query verification shards (intra_query_threads > 1) without a pool
/// get ONE runner-provisioned intra pool shared across the batch, and the
/// batch-major fan-out shrinks to num_threads / intra so the two axes
/// multiply to roughly the requested budget instead of oversubscribing.
/// The shrink is batch-wide (sized by the LARGEST intra request), so a
/// batch mixing one intra-parallel giant with many serial queries
/// serializes the serial ones too — submit such mixes as separate batches,
/// or hand every query an explicit shared intra_query_pool to keep the
/// fan-out untouched.
///
/// Deadline/cancellation and part failures: partition-major, every query
/// runs its parts through its own PartRunner, so its controls are checked
/// before every part and a part that fails to load degrades that part for
/// every query of the wave — the same policy as the engine's own Execute,
/// which the query-major path calls.
///
/// Determinism contract: results (and the stats counters) are identical
/// for any `num_threads` and either partition mode, because (a) engines are
/// deterministic per query, (b) every query writes only its own
/// pre-allocated slot, (c) slots are merged serially in input order, and
/// (d) partition-major chunks are concatenated in partition order before
/// the canonical mode-aware merge. (kTopK work COUNTERS vary with
/// execution order; kTopK results do not.)
class BatchQueryRunner {
 public:
  /// `engine` is borrowed and must outlive the runner. Its Execute must be
  /// safe for concurrent calls (true for every engine in the library).
  explicit BatchQueryRunner(const JoinSearchEngine* engine,
                            BatchRunnerOptions options = {});

  /// Executes every request and returns all results in input order. Each
  /// JoinQuery carries its own vectors/mode/thresholds/controls.
  BatchResult Run(const std::vector<JoinQuery>& queries) const;

  size_t num_threads() const { return num_threads_; }
  const JoinSearchEngine* engine() const { return engine_; }

 private:
  /// The partition-major loop described above. `parts` is engine_'s
  /// PartitionedJoinEngine view; `outer_threads` is the batch-major fan-out
  /// left after the intra-query composition carved out its share.
  void RunPartitionMajor(const PartitionedJoinEngine& parts,
                         const std::vector<JoinQuery>& queries,
                         size_t outer_threads,
                         std::vector<SearchStats>* scratch,
                         BatchResult* out) const;

  const JoinSearchEngine* engine_;
  size_t num_threads_;
  BatchPartitionMode partition_mode_;
};

}  // namespace pexeso

#endif  // PEXESO_CORE_BATCH_RUNNER_H_
