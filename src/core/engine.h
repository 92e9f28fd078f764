#ifndef PEXESO_CORE_ENGINE_H_
#define PEXESO_CORE_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/ablation.h"
#include "core/join_result.h"
#include "core/query.h"
#include "core/thresholds.h"
#include "vec/search_stats.h"
#include "vec/vector_store.h"

namespace pexeso {

class ThreadPool;

/// \brief The unified joinable-table-search engine interface: one JoinQuery
/// request in, one ResultSink consumer out.
///
/// Every search method in the library — PEXESO itself, PEXESO-H, the
/// exhaustive NaiveSearcher, the range-engine workflows (CTREE / EPT / PQ)
/// and the out-of-core PartitionedPexeso — implements Execute, so drivers
/// (CLI, examples, benches, BatchQueryRunner, ServeSession) can be written
/// once against the interface instead of hard-coding one engine each.
///
/// Contract:
///  - Execute is const and safe to call concurrently from multiple threads
///    (implementations keep per-call state on the stack).
///  - Results are deterministic for a given (engine, query): ascending
///    column order for the threshold modes, rank order for kTopK — at any
///    intra_query_threads setting.
///  - The sink's OnColumn fires once per result column, then OnDone fires
///    exactly once with the status Execute returns. A Cancelled /
///    DeadlineExceeded status means the query stopped at a checkpoint;
///    columns already delivered are valid partial results.
///  - `stats` may be null; when non-null the call's counters are *added*
///    to it (callers Reset() when they want a fresh reading).
class JoinSearchEngine {
 public:
  virtual ~JoinSearchEngine() = default;

  /// Short stable identifier ("pexeso", "naive", ...) for logs and CLIs.
  virtual const char* name() const = 0;

  /// Executes one request against the whole repository.
  virtual Status Execute(const JoinQuery& query, ResultSink* sink,
                         SearchStats* stats) const = 0;
};

/// Eager convenience over Execute: runs the query through a CollectSink and
/// returns the collected columns together with the execution status. An
/// interrupted query (Cancelled / DeadlineExceeded) returns its status — the
/// partial columns are dropped; callers that want them stream through their
/// own sink.
Result<std::vector<JoinableColumn>> ExecuteCollect(
    const JoinSearchEngine& engine, const JoinQuery& query,
    SearchStats* stats = nullptr);

/// \brief Opaque token that keeps one part of a partitioned engine loaded in
/// memory for as long as the token lives (a cache-held or directly-loaded
/// index behind the scenes).
using PartHandle = std::shared_ptr<const void>;

/// \brief Optional second interface for engines whose repository is split
/// into independently-searchable parts (the out-of-core PartitionedPexeso).
///
/// The serving layer builds on "search ONE part" rather than the all-parts
/// Execute above: the batch runner's partition-major loop pays each part's
/// load once per batch instead of once per query, and ServeSession streams
/// per-part result chunks as they complete. Implementations expose both
/// interfaces (`class X : public JoinSearchEngine, public
/// PartitionedJoinEngine`); drivers discover the second via dynamic_cast.
class PartitionedJoinEngine {
 public:
  virtual ~PartitionedJoinEngine() = default;

  /// Number of independently-searchable parts.
  virtual size_t NumParts() const = 0;

  /// Loads part `part` (through the attached cache when one is present) and
  /// returns a handle that keeps it resident until the handle is destroyed.
  /// `io_seconds` (optional) is *incremented* by the time this call spent
  /// blocked on disk (0 when the part was already cached).
  virtual Result<PartHandle> AcquirePart(size_t part,
                                         double* io_seconds) const = 0;

  /// Executes `query` against part `part` only. Results are keyed by
  /// *global* column ids but not sorted; callers concatenate chunks in part
  /// order and call FinishQueryMerge once. kTopK queries return the part's
  /// LOCAL top-k (with query.topk_floor seeding the prune bound), which the
  /// merge re-ranks — columns live in exactly one part, so the k best of
  /// the concatenated local top-ks are the global top-k. The query's
  /// deadline/cancel controls are honored per part (a tripped part returns
  /// Cancelled/DeadlineExceeded). When `preloaded` is a handle from
  /// AcquirePart of the same part, the call is guaranteed IO-free;
  /// otherwise the part is acquired internally and `io_seconds` (optional)
  /// is incremented by the load share — including on the error path, so IO
  /// accounting survives a failed load.
  ///
  /// `notice` receives the part's degraded-serving notice: non-OK when the
  /// part answered, but knowingly incompletely (a lake part whose base
  /// recovery quarantined). The notice describes the same snapshot the
  /// search ran against. This is the call PartRunner makes.
  virtual Result<std::vector<JoinableColumn>> SearchPartWithNotice(
      size_t part, const JoinQuery& query, SearchStats* stats,
      double* io_seconds, const PartHandle& preloaded,
      Status* notice) const = 0;

  /// SearchPartWithNotice without the notice.
  Result<std::vector<JoinableColumn>> SearchPart(
      size_t part, const JoinQuery& query, SearchStats* stats,
      double* io_seconds, const PartHandle& preloaded) const {
    Status notice;
    return SearchPartWithNotice(part, query, stats, io_seconds, preloaded,
                                &notice);
  }

  /// True when per-part working sets are expected to stay resident across
  /// queries (an attached cache whose budget holds every part), making the
  /// query-major batch loop as IO-cheap as the partition-major one.
  virtual bool PartsStayResident() const = 0;
};

/// Restores the deterministic result order of a concatenated per-part merge.
/// Each global column id lives in exactly one part, so ordering by id is a
/// total order and the outcome is byte-identical however the chunks raced.
inline void FinishPartMerge(std::vector<JoinableColumn>* merged) {
  std::sort(merged->begin(), merged->end(),
            [](const JoinableColumn& a, const JoinableColumn& b) {
              return a.column < b.column;
            });
}

/// Mode-aware variant of FinishPartMerge: kTopK chunks are per-part local
/// top-ks and need the global rank-and-truncate instead of the column-id
/// ordering. Callers holding the original JoinQuery use this one.
inline void FinishQueryMerge(const JoinQuery& query,
                             std::vector<JoinableColumn>* merged) {
  if (query.mode == QueryMode::kTopK) {
    RankTopK(merged, query.k);
  } else {
    FinishPartMerge(merged);
  }
}

}  // namespace pexeso

#endif  // PEXESO_CORE_ENGINE_H_
