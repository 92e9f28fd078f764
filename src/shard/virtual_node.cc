#include "shard/virtual_node.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"

namespace pexeso::shard {

VirtualShardRouter::VirtualShardRouter(const JoinSearchEngine* base,
                                       size_t num_shards, Options options)
    : options_(options) {
  PEXESO_CHECK(base != nullptr);
  PEXESO_CHECK(num_shards >= 1);
  PEXESO_CHECK(options_.replication >= 1);
  const auto* parts = dynamic_cast<const PartitionedJoinEngine*>(base);
  PEXESO_CHECK(parts != nullptr);
  map_ = ShardMap::RoundRobin(parts->NumParts(), num_shards);
  nodes_.resize(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    nodes_[shard].resize(options_.replication);
    for (size_t replica = 0; replica < options_.replication; ++replica) {
      Node& node = nodes_[shard][replica];
      node.engine =
          std::make_unique<PartSubsetEngine>(base, map_.OwnedParts(shard));
      serve::ServeSessionOptions sopts;
      sopts.num_threads = std::max<size_t>(1, options_.threads_per_node);
      node.session =
          std::make_unique<serve::ServeSession>(node.engine.get(), sopts);
    }
  }
}

VirtualShardRouter::~VirtualShardRouter() = default;

ShardAttemptOutcome VirtualShardRouter::RunAttempt(size_t shard,
                                                   size_t replica,
                                                   const JoinQuery& query,
                                                   const AttemptContext& ctx) {
  PEXESO_CHECK(shard < nodes_.size());
  PEXESO_CHECK(replica < nodes_[shard].size());
  ShardAttemptOutcome out;

  // Fault-injection point standing in for the network/process boundary: a
  // kIoError here is a dead node, a kDelay is a straggling one.
  const std::string site =
      "shard:attempt:" + std::to_string(shard) + ":" + std::to_string(replica);
  const Status fp = FailpointHit(site.c_str());
  if (!fp.ok()) {
    out.status = fp;
    return out;
  }

  Node& node = nodes_[shard][replica];
  JoinQuery attempt = query;
  attempt.cancel = ctx.cancel;
  if (query.mode == QueryMode::kTopK && ctx.floor != nullptr) {
    attempt.topk_floor = std::max(attempt.topk_floor, ctx.floor->load());
    attempt.floor_link = ctx.floor;
  }

  serve::QueryOutcome outcome = node.session->Submit(attempt).get();
  out.status = outcome.status;
  out.stats = outcome.stats;
  out.part_statuses = std::move(outcome.part_statuses);
  if (out.status.ok() || out.status.interrupted()) {
    out.columns = std::move(outcome.results);
  }
  return out;
}

}  // namespace pexeso::shard
