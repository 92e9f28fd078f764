#ifndef PEXESO_SHARD_COORDINATOR_H_
#define PEXESO_SHARD_COORDINATOR_H_

#include <cstddef>

#include "core/engine.h"
#include "shard/router.h"

namespace pexeso::shard {

/// Coordinator knobs. Results are byte-identical at every setting — these
/// trade latency/robustness against duplicated work.
struct ShardedOptions {
  /// Straggler re-dispatch: when an attempt has not finished after this
  /// many milliseconds and the shard has an unused replica, a hedged
  /// duplicate is dispatched; the first finisher wins and the loser is
  /// cancelled. 0 = off.
  size_t hedge_after_ms = 0;
  /// Share the global top-k floor across shards (kTopK): each shard's local
  /// k-th best tightens a CAS-max cell pushed to still-running shards, so
  /// they prune against the global k-th best instead of only their own.
  /// Off exists for the bench ablation; results are identical either way.
  bool share_floor = true;
};

/// \brief The scatter-gather coordinator: a JoinSearchEngine that fans one
/// JoinQuery out to every shard of a ShardRouter, streams topk_floor raises
/// between them, and gathers the shard results through the same
/// deterministic merge every other engine uses.
///
/// Robustness: an attempt failing with a transient/environment status
/// (IoError, Corruption, Internal, ResourceExhausted) fails over to the
/// shard's next replica; when no replica is left the shard is served
/// degraded — OnPartStatus for each of its parts. The gather then applies
/// the same failure policy as every partitioned engine (DeliverParts in
/// core/part_runner.h): a request-class failure (IsFatalStatus) fails the
/// whole query, the first interrupted shard decides an interruption with
/// completed shards' columns as partial results, degraded parts are
/// reported in global part order, and the query fails with the first
/// failure only when no part answered.
///
/// Determinism: shard results are concatenated in shard order and merged
/// with one FinishQueryMerge, so the output is byte-identical to the
/// single-node partitioned engine at any shard count, replication factor,
/// and kill/straggler schedule (prune counters legitimately vary; columns
/// never do).
class ShardedEngine : public JoinSearchEngine {
 public:
  /// `router` is borrowed and must outlive the engine.
  explicit ShardedEngine(ShardRouter* router, ShardedOptions options = {});

  const char* name() const override { return "sharded"; }

  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override;

  const ShardRouter* router() const { return router_; }

 private:
  ShardRouter* router_;
  ShardedOptions options_;
};

}  // namespace pexeso::shard

#endif  // PEXESO_SHARD_COORDINATOR_H_
