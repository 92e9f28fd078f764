#ifndef PEXESO_CORE_QUERY_H_
#define PEXESO_CORE_QUERY_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/ablation.h"
#include "core/join_result.h"
#include "core/thresholds.h"
#include "vec/vector_store.h"

namespace pexeso {

class ThreadPool;

/// \brief What the caller wants back from one joinable-column search.
enum class QueryMode : uint8_t {
  /// All columns whose match count reaches T (the paper's Problem 1). A
  /// column's reported count may stop at T (the joinable-skip).
  kThreshold,
  /// Same joinable set, but every reported count is the exact joinability
  /// (the joinable-skip is disabled).
  kExactJoinability,
  /// The k columns with the highest joinability under tau, ordered by
  /// decreasing joinability with ties broken by ascending column id (the
  /// TOPJoin/FREYJA consumption mode). `JoinQuery::k` selects k;
  /// `thresholds.t_abs` is ignored — any column with >= 1 match competes.
  /// Engines push the running k-th-best bound into their verification
  /// loops, so columns that provably cannot enter the top-k are abandoned
  /// mid-verification (SearchStats::columns_pruned_topk).
  kTopK,
};

/// \brief Cooperative cancellation handle. Default-constructed tokens are
/// inert (never cancelled, Cancel is a no-op); `Create()` makes a live one.
/// Copies share the underlying flag, so a caller can hand the same token to
/// a query and later flip it from any thread.
class CancelToken {
 public:
  CancelToken() = default;

  static CancelToken Create() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  void Cancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
  }

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  /// True for tokens from Create() (the only ones that can ever fire).
  bool valid() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// \brief Absolute wall-clock budget for one query. Default-constructed:
/// no deadline. Engines poll `expired()` at checkpoint granularity (per
/// column / per partition / per verification batch), so expiry latency is
/// bounded by one checkpoint interval, not by the whole search.
class Deadline {
 public:
  Deadline() = default;

  static Deadline After(double seconds) {
    Deadline d;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline AfterMillis(double millis) { return After(millis / 1e3); }

  bool has_deadline() const {
    return at_ != std::chrono::steady_clock::time_point::max();
  }

  bool expired() const {
    return has_deadline() && std::chrono::steady_clock::now() >= at_;
  }

  /// Seconds until expiry (<= 0 once expired); +infinity without a
  /// deadline. Absolute steady_clock points do not cross process
  /// boundaries, so the wire protocol serializes a deadline as its
  /// remaining budget and the receiver re-anchors it with After().
  double remaining_seconds() const {
    if (!has_deadline()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ -
                                         std::chrono::steady_clock::now())
        .count();
  }

 private:
  std::chrono::steady_clock::time_point at_ =
      std::chrono::steady_clock::time_point::max();
};

/// \brief A shared CAS-max cell carrying the best known global "k-th best
/// match count" floor across executions that search disjoint slices of one
/// lake (partitions on one node, shards across nodes). Executions seed
/// their local TopKBound from it and publish their own full-k floors back;
/// because kTopK pruning is strict-beat, a raised floor can only remove
/// work, never change results. Relaxed ordering is sufficient: the cell is
/// a monotone hint, and a lagging read just means one extra verified
/// column.
class TopKFloorCell {
 public:
  explicit TopKFloorCell(uint32_t initial = 0) : floor_(initial) {}

  uint32_t load() const { return floor_.load(std::memory_order_relaxed); }

  /// CAS-max: returns true iff `floor` raised the cell (callers use the
  /// return to count/forward genuinely-new raises exactly once).
  bool RaiseTo(uint32_t floor) {
    uint32_t seen = floor_.load(std::memory_order_relaxed);
    while (floor > seen) {
      if (floor_.compare_exchange_weak(seen, floor,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<uint32_t> floor_;
};

/// \brief One joinable-column search request: what to search with, which
/// consumption mode, the thresholds, and the execution controls (deadline,
/// cancellation, intra-query parallelism). Every JoinSearchEngine executes
/// this one shape.
struct JoinQuery {
  /// The query column: |Q| unit-normalized vectors of the repository
  /// dimensionality. Borrowed; must stay alive for the whole execution.
  const VectorStore* vectors = nullptr;

  QueryMode mode = QueryMode::kThreshold;
  /// Result size for kTopK (ignored otherwise).
  size_t k = 0;
  SearchThresholds thresholds;
  AblationConfig ablation;
  /// When true, each returned column carries the record-level mapping
  /// (query index -> its lowest matching target vector) and an exact match
  /// count. PEXESO records each pair's witness during verification, which
  /// then runs every column exactly, as in kExactJoinability.
  bool collect_mappings = false;
  /// Intra-query parallelism: verification work of ONE search is sharded by
  /// column range across this many workers (core/verify_pipeline.h). 0 or 1
  /// keeps the search single-threaded — the right default for batch
  /// workloads, which already parallelize across queries; raise it for a
  /// huge query column searched on its own. Results and stats counters are
  /// identical at every setting (the pipeline's determinism contract).
  size_t intra_query_threads = 0;
  /// Optional shared pool the verification shards run on (borrowed; used
  /// via a TaskGroup, so several concurrent searches can share it). When
  /// null and intra_query_threads > 1, the search spins up a transient
  /// pool. Must NOT be a pool whose worker is executing this very search —
  /// the shard wait would consume the worker the shards need
  /// (PEXESO_CHECK-enforced, like nested ThreadPool::ParallelFor).
  ThreadPool* intra_query_pool = nullptr;

  /// Execution controls: a query whose deadline has passed or whose token
  /// was cancelled stops at the next checkpoint and Execute returns
  /// DeadlineExceeded/Cancelled with whatever results completed by then.
  Deadline deadline;
  CancelToken cancel;

  /// kTopK only: a lower bound on the global k-th-best match count that is
  /// already known (e.g. from partitions searched earlier). Columns that
  /// cannot strictly beat it are pruned; 0 means no prior knowledge.
  uint32_t topk_floor = 0;

  /// kTopK only: optional live link to a floor shared across concurrent
  /// executions over disjoint lake slices (scatter-gather shards, serving
  /// sessions). Execution-local like cancel/pools — it does NOT travel on
  /// the wire; each server re-creates a cell per job and the coordinator
  /// bridges raises through floor-update frames. Null: no sharing.
  std::shared_ptr<TopKFloorCell> floor_link;

  /// Modes that must report exact match counts (no joinable-skip).
  bool exact_counts() const { return mode != QueryMode::kThreshold; }

  /// The match-count threshold verification works against: T for the
  /// threshold modes, 1 for kTopK (every matching column competes).
  uint32_t EffectiveT() const {
    if (mode == QueryMode::kTopK) return 1;
    return std::max<uint32_t>(1, thresholds.t_abs);
  }

  /// The match count Lemma 7 holds a column to: EffectiveT() in the
  /// threshold modes with ablation.use_lemma7 on, 0 (rule off) otherwise.
  /// kTopK has no fixed T; its pushdown abandons a column on the same
  /// count bound against the running k-th-best bound instead.
  uint32_t Lemma7T() const {
    return mode != QueryMode::kTopK && ablation.use_lemma7 ? EffectiveT() : 0;
  }

  /// OK while the query may keep running; Cancelled/DeadlineExceeded once a
  /// control tripped. Cheap when no deadline/token is set.
  Status CheckLive() const {
    if (cancel.cancelled()) return Status::Cancelled("query cancelled");
    if (deadline.expired()) return Status::DeadlineExceeded("query deadline");
    return Status::OK();
  }
};

/// \brief Consumer of one execution's results. OnColumn is called once per
/// result column in the engine's deterministic order (ascending column id
/// for the threshold modes, rank order for kTopK); OnDone is called exactly
/// once afterwards — also on failure — with the same status Execute
/// returns. Columns delivered before a non-OK OnDone are valid partial
/// results. Engines call the sink from the Execute caller's thread.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void OnColumn(JoinableColumn&& column) = 0;
  virtual void OnDone(const Status& status) = 0;

  /// Degraded-mode serving: called (before OnDone) once per part whose
  /// contribution is missing or incomplete — its base failed to load, or it
  /// was quarantined by recovery — while the rest of the answer is still
  /// delivered. An OK OnDone after OnPartStatus calls means "partial
  /// results, and here is exactly what is missing". Default: ignore.
  virtual void OnPartStatus(size_t part, const Status& status) {
    (void)part;
    (void)status;
  }
};

/// \brief The eager sink: collects every column into a vector. Preserves
/// the convenience of the old vector-returning Search for callers that
/// don't stream.
class CollectSink final : public ResultSink {
 public:
  void OnColumn(JoinableColumn&& column) override {
    columns_.push_back(std::move(column));
  }
  void OnDone(const Status& status) override { status_ = status; }
  void OnPartStatus(size_t part, const Status& status) override {
    part_statuses_.emplace_back(part, status);
  }

  const std::vector<JoinableColumn>& columns() const { return columns_; }
  std::vector<JoinableColumn> TakeColumns() { return std::move(columns_); }
  const Status& status() const { return status_; }
  /// Parts whose contribution is missing from columns() (degraded serving).
  const std::vector<std::pair<size_t, Status>>& part_statuses() const {
    return part_statuses_;
  }

 private:
  std::vector<JoinableColumn> columns_;
  std::vector<std::pair<size_t, Status>> part_statuses_;
  Status status_;
};

/// \brief Thread-safe running "k-th best match count" bound for kTopK
/// pushdown. Verification shards Offer() each finished column's match
/// count; bound() is the count a new column must strictly beat to still
/// enter the top-k (0 until k columns are known and no floor was seeded).
/// Pruning against the bound is order-insensitive: the bound only grows,
/// and a column pruned under any bound is provably outside the final
/// top-k, so results are identical at every thread count even though the
/// prune COUNTERS legitimately vary with execution order.
class TopKBound {
 public:
  /// `k` result slots; `floor` seeds the bound with prior knowledge (e.g.
  /// the k-th best count of partitions already searched).
  TopKBound(size_t k, uint32_t floor) : k_(k), floor_(floor), bound_(floor) {}

  /// Current strict-beat threshold (relaxed read; may lag Offer by design).
  uint32_t bound() const { return bound_.load(std::memory_order_relaxed); }

  /// Reports one column's final match count (callers skip zero counts).
  void Offer(uint32_t count) {
    if (k_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.size() < k_) {
      heap_.push(count);
    } else if (count > heap_.top()) {
      heap_.pop();
      heap_.push(count);
    }
    if (heap_.size() == k_) {
      bound_.store(std::max(floor_, heap_.top()), std::memory_order_relaxed);
    }
  }

 private:
  const size_t k_;
  const uint32_t floor_;
  std::mutex mu_;
  /// Min-heap of the k largest counts offered so far.
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<uint32_t>>
      heap_;
  std::atomic<uint32_t> bound_;
};

/// Orders a candidate set the way kTopK reports it — decreasing
/// joinability, ties by ascending column id — and truncates to k.
inline void RankTopK(std::vector<JoinableColumn>* columns, size_t k) {
  std::sort(columns->begin(), columns->end(),
            [](const JoinableColumn& a, const JoinableColumn& b) {
              if (a.joinability != b.joinability) {
                return a.joinability > b.joinability;
              }
              return a.column < b.column;
            });
  if (columns->size() > k) columns->resize(k);
}

}  // namespace pexeso

#endif  // PEXESO_CORE_QUERY_H_
