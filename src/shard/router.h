#ifndef PEXESO_SHARD_ROUTER_H_
#define PEXESO_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "shard/shard_map.h"
#include "vec/search_stats.h"

namespace pexeso::shard {

/// Everything one shard attempt needs from the coordinator. Cheap to copy —
/// the token shares its flag and the raw pointers are borrowed counters
/// owned by the coordinator's per-query execution state.
struct AttemptContext {
  /// Per-attempt cancellation: the coordinator fires it to kill a hedge
  /// loser or to propagate the original query's cancellation.
  CancelToken cancel;
  /// The query's shared global top-k floor; null = floor sharing off (or a
  /// non-kTopK mode). Routers link it into the attempt so local raises
  /// propagate out and sibling raises propagate in.
  std::shared_ptr<TopKFloorCell> floor;
  /// Transport-level floor traffic (remote router: frames pushed/received;
  /// virtual router leaves them to the serve sessions' own counters).
  std::atomic<uint64_t>* floor_sent = nullptr;
  std::atomic<uint64_t>* floor_received = nullptr;
  /// Wire bytes this attempt moved (remote router only; 0 for virtual).
  std::atomic<uint64_t>* bytes_moved = nullptr;
};

/// What one attempt against one (shard, replica) produced.
struct ShardAttemptOutcome {
  /// The attempt's final status. OK / interrupted outcomes carry the
  /// shard's merged columns; any other status means the replica failed and
  /// the coordinator should fail over or degrade the shard.
  Status status;
  /// Shard-merged results in global column ids: the shard's local top-k for
  /// kTopK, its column-ordered results otherwise. Per-shard merging loses
  /// nothing — every global top-k member is in its own shard's local top-k.
  std::vector<JoinableColumn> columns;
  /// The shard's degraded parts (LOCAL indices within the shard): what its
  /// own failure policy reported through OnPartStatus.
  std::vector<std::pair<size_t, Status>> part_statuses;
  /// The shard's execution counters for this attempt.
  SearchStats stats;
};

/// \brief Where shard attempts actually run. The coordinator speaks only
/// this interface; the two implementations are in-process virtual nodes
/// (shard/virtual_node.h — one ServeSession per replica over a partition
/// subset) and remote pexeso_server executors over the wire protocol
/// (shard/remote.h).
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  /// The part-to-shard assignment every attempt works under.
  virtual const ShardMap& map() const = 0;

  /// Replicas available for `shard` (>= 1).
  virtual size_t replication(size_t shard) const = 0;

  /// Runs `query` against (shard, replica), blocking until the attempt
  /// finishes or ctx.cancel fires. Called from coordinator-owned dispatch
  /// threads; implementations must tolerate concurrent attempts on
  /// different (shard, replica) pairs.
  virtual ShardAttemptOutcome RunAttempt(size_t shard, size_t replica,
                                         const JoinQuery& query,
                                         const AttemptContext& ctx) = 0;
};

}  // namespace pexeso::shard

#endif  // PEXESO_SHARD_ROUTER_H_
