#ifndef PEXESO_CORE_PART_RUNNER_H_
#define PEXESO_CORE_PART_RUNNER_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace pexeso {

/// Request-class failures (InvalidArgument, NotSupported, NotFound): they
/// describe the query, not a part or a node, so retrying them elsewhere
/// returns the same answer and serving around them would mask a caller bug.
/// They fail the whole query.
bool IsFatalStatus(const Status& status);

/// \brief What a query's parts produced, as the failure policy consumes it.
/// The shard gather builds one from its shard outcomes; PartRunner builds
/// one from its per-part slots.
struct PartsOutcome {
  /// Columns of the parts that answered (unmerged; any concatenation order).
  std::vector<JoinableColumn> columns;
  /// Degraded parts: failures and notices of answered-but-incomplete parts.
  /// Any order; delivery sorts them into part order.
  std::vector<std::pair<size_t, Status>> degraded;
  /// True when at least one part answered.
  bool answered = false;
  /// First interruption in part order (OK when none).
  Status interruption;
  /// First request-class failure in part order (OK when none).
  Status fatal;
};

/// The failure policy's delivery step (the README's failure-model table):
///  - a request-class failure is the final status; nothing else is emitted;
///  - otherwise every degraded part goes to OnPartStatus in part order and
///    stats->partial_responses is counted once;
///  - the final status is the first interruption, else — when no part
///    answered — the first failure in part order, else OK;
///  - columns (merged by FinishQueryMerge) are emitted unless the final
///    status is a failure; OnDone always fires last.
Status DeliverParts(const JoinQuery& query, PartsOutcome outcome,
                    ResultSink* sink, SearchStats* stats);

/// \brief The one place a query runs over the parts of a
/// PartitionedJoinEngine (the paper's out-of-core loop: load a part, search
/// it, merge). Every partitioned entry point — PartitionedPexeso,
/// LakeManager and PartSubsetEngine Execute, ServeSession's part tasks and
/// the partition-major batch — drives one PartRunner per query.
///
/// Per part, RunPart checks liveness (a part that starts after the query's
/// deadline or cancellation is dropped and counted in deadline_expired),
/// seeds kTopK pruning from the larger of the query's cross-part TopKBound
/// and its floor_link, searches the part, Offers the part's columns to the
/// bound, and raises floor_link to the bound. Finish applies DeliverParts
/// to the slots in part order, so the answer is byte-identical however the
/// parts were scheduled.
///
/// Threading: RunPart may run concurrently for distinct parts; Finish runs
/// once, after every RunPart call returned (the caller provides the
/// happens-before edge).
class PartRunner {
 public:
  /// `engine` is borrowed and must outlive the runner; `query` is copied
  /// (its vectors stay borrowed).
  PartRunner(const PartitionedJoinEngine* engine, const JoinQuery& query);

  PartRunner(const PartRunner&) = delete;
  PartRunner& operator=(const PartRunner&) = delete;

  /// The serial loop: runs the parts in part order until the query stops
  /// (interruption or request-class failure), then delivers to `sink`.
  /// `stats` and `io_seconds` (both optional) are incremented.
  static Status RunParts(const PartitionedJoinEngine& parts,
                         const JoinQuery& query, ResultSink* sink,
                         SearchStats* stats, double* io_seconds = nullptr);

  /// Runs part `part` into its slot. `preloaded` is a handle from
  /// AcquirePart of the same part (null: the part is acquired here), or the
  /// failed AcquirePart the part then fails with. Returns the part's chunk
  /// status: its failure or interruption, else its degraded-serving notice.
  Status RunPart(size_t part, SearchStats* stats, double* io_seconds,
                 const Result<PartHandle>& preloaded = PartHandle());

  /// The columns part `part` answered (valid once its RunPart returned).
  const std::vector<JoinableColumn>& columns(size_t part) const {
    return slots_[part].columns;
  }

  /// True once an interruption or a request-class failure stopped the
  /// query: callers start no further parts.
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  /// Applies the failure policy over every slot and delivers the answer.
  Status Finish(ResultSink* sink, SearchStats* stats);

 private:
  struct Slot {
    Status status;   ///< failure / interruption; OK when answered or not run
    Status notice;   ///< degraded-serving notice of an answered part
    bool answered = false;
    std::vector<JoinableColumn> columns;
  };

  const PartitionedJoinEngine* engine_;
  JoinQuery query_;
  TopKBound bound_;
  std::vector<Slot> slots_;
  std::atomic<bool> stopped_{false};
};

}  // namespace pexeso

#endif  // PEXESO_CORE_PART_RUNNER_H_
