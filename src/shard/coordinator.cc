#include "shard/coordinator.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/part_runner.h"

namespace pexeso::shard {

namespace {

/// What one shard's dispatch loop concluded.
struct ShardResult {
  ShardAttemptOutcome outcome;  ///< valid when won == true
  bool won = false;
  bool fatal = false;
  Status last_error;  ///< the error that exhausted the replicas / was fatal
  uint64_t hedges = 0;
  uint64_t failovers = 0;
  uint64_t attempts = 0;
};

/// Synchronizes one shard's racing replica attempts with its dispatch loop.
struct HedgeState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  ///< a winner committed its outcome
  ShardAttemptOutcome outcome;
  size_t outstanding = 0;
  Status last_error;
  bool fatal = false;
};

}  // namespace

ShardedEngine::ShardedEngine(ShardRouter* router, ShardedOptions options)
    : router_(router), options_(options) {
  PEXESO_CHECK(router != nullptr);
}

Status ShardedEngine::Execute(const JoinQuery& query, ResultSink* sink,
                              SearchStats* stats) const {
  PEXESO_CHECK(query.vectors != nullptr);
  PEXESO_CHECK(sink != nullptr);
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  // Same entry checkpoint as every other engine: a query that is already
  // cancelled or past its deadline must not scatter at all.
  if (const Status live = query.CheckLive(); !live.ok()) {
    ++stats->deadline_expired;
    sink->OnDone(live);
    return live;
  }
  const ShardMap& map = router_->map();
  const size_t num_shards = map.num_shards();

  // The query's shared global floor (kTopK + sharing on). Seeded with any
  // caller-provided floor; shard attempts link it in and the routers move
  // raises between nodes.
  std::shared_ptr<TopKFloorCell> floor;
  if (query.mode == QueryMode::kTopK && options_.share_floor) {
    floor = std::make_shared<TopKFloorCell>(query.topk_floor);
  }

  // Every attempt gets its own CancelToken, registered here so the main
  // thread can propagate the ORIGINAL query's cancellation/deadline to all
  // in-flight attempts (one engine-level token cannot be reused per
  // attempt — hedge losers must be cancellable individually).
  std::mutex live_mu;
  std::vector<CancelToken> live_tokens;
  std::atomic<bool> killed{false};
  auto new_attempt_token = [&]() {
    CancelToken token = CancelToken::Create();
    std::lock_guard<std::mutex> lock(live_mu);
    if (killed.load(std::memory_order_relaxed)) token.Cancel();
    live_tokens.push_back(token);
    return token;
  };

  std::atomic<uint64_t> floor_sent{0};
  std::atomic<uint64_t> floor_received{0};
  std::atomic<uint64_t> bytes_moved{0};

  std::vector<ShardResult> results(num_shards);
  std::atomic<size_t> shards_remaining{num_shards};
  std::mutex done_mu;
  std::condition_variable done_cv;

  // One dispatch loop per shard: launch replica 0, hedge/fail over through
  // the remaining replicas as the schedule demands, commit the first
  // usable outcome.
  auto run_shard = [&](size_t shard) {
    ShardResult& sr = results[shard];
    const size_t replicas = router_->replication(shard);
    size_t next_replica = 0;
    HedgeState hs;
    std::vector<std::thread> attempt_threads;
    std::vector<CancelToken> attempt_tokens;

    auto launch = [&](size_t replica) {
      CancelToken token = new_attempt_token();
      attempt_tokens.push_back(token);
      {
        std::lock_guard<std::mutex> lock(hs.mu);
        ++hs.outstanding;
      }
      ++sr.attempts;
      attempt_threads.emplace_back([&, replica, token] {
        AttemptContext ctx;
        ctx.cancel = token;
        ctx.floor = floor;
        ctx.floor_sent = &floor_sent;
        ctx.floor_received = &floor_received;
        ctx.bytes_moved = &bytes_moved;
        ShardAttemptOutcome out =
            router_->RunAttempt(shard, replica, query, ctx);
        std::lock_guard<std::mutex> lock(hs.mu);
        --hs.outstanding;
        if (!hs.done && (out.status.ok() || out.status.interrupted())) {
          // First finisher with a usable outcome wins; later finishers
          // (hedge losers) are discarded here.
          hs.done = true;
          hs.outcome = std::move(out);
        } else if (!hs.done) {
          hs.last_error = out.status;
          if (IsFatalStatus(out.status)) hs.fatal = true;
        }
        hs.cv.notify_all();
      });
    };

    launch(next_replica++);

    {
      std::unique_lock<std::mutex> lock(hs.mu);
      for (;;) {
        if (hs.done) break;
        if (hs.outstanding == 0) {
          // Every launched attempt failed. Fatal errors and exhausted
          // replica lists end the loop; otherwise fail over.
          if (hs.fatal || next_replica >= replicas) break;
          ++sr.failovers;
          lock.unlock();
          launch(next_replica++);
          lock.lock();
          continue;
        }
        const bool can_hedge = options_.hedge_after_ms > 0 &&
                               next_replica < replicas && !hs.fatal;
        if (can_hedge) {
          const bool finished = hs.cv.wait_for(
              lock, std::chrono::milliseconds(options_.hedge_after_ms),
              [&] { return hs.done || hs.outstanding == 0; });
          if (!finished) {
            // The attempt is straggling: re-dispatch on the next replica
            // and let them race.
            ++sr.hedges;
            lock.unlock();
            launch(next_replica++);
            lock.lock();
          }
        } else {
          hs.cv.wait(lock,
                     [&] { return hs.done || hs.outstanding == 0; });
        }
      }
    }
    // Cancel whatever is still running (hedge losers after a win; stale
    // attempts after a fatal error) and wait for the threads — attempts
    // borrow this frame's state, so they must not outlive it.
    for (const CancelToken& token : attempt_tokens) token.Cancel();
    for (std::thread& t : attempt_threads) t.join();

    if (hs.done) {
      sr.won = true;
      sr.outcome = std::move(hs.outcome);
    } else {
      sr.fatal = hs.fatal;
      sr.last_error = hs.last_error.ok()
                          ? Status::Internal("shard produced no outcome")
                          : hs.last_error;
    }
    if (shards_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu);
      done_cv.notify_all();
    }
  };

  std::vector<std::thread> shard_threads;
  shard_threads.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    shard_threads.emplace_back(run_shard, shard);
  }

  // The gather side: wait for every shard while propagating the original
  // query's cancellation/deadline into the live attempts at checkpoint
  // granularity (the attempts also carry the deadline themselves; this
  // loop just makes an engine-level Cancel() reach them promptly).
  {
    std::unique_lock<std::mutex> lock(done_mu);
    while (shards_remaining.load(std::memory_order_acquire) != 0) {
      done_cv.wait_for(lock, std::chrono::milliseconds(5));
      if (!killed.load(std::memory_order_relaxed) && !query.CheckLive().ok()) {
        std::lock_guard<std::mutex> live_lock(live_mu);
        killed.store(true, std::memory_order_relaxed);
        for (const CancelToken& token : live_tokens) token.Cancel();
      }
    }
  }
  for (std::thread& t : shard_threads) t.join();

  // Deterministic gather in shard order into the one failure policy:
  // request-class failures veto everything, dead shards degrade each of
  // their parts, and shard columns are concatenated for the one canonical
  // merge.
  PartsOutcome outcome;
  const uint64_t partial_before = stats->partial_responses;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    ShardResult& sr = results[shard];
    stats->scatters += sr.attempts;
    stats->hedged_requests += sr.hedges;
    stats->failovers += sr.failovers;
    if (!sr.won && sr.fatal) {
      if (outcome.fatal.ok()) outcome.fatal = sr.last_error;
      continue;
    }
    if (!sr.won) {
      // No replica healthy: the shard's whole part range is missing.
      ++stats->shards_degraded;
      for (size_t local = 0; local < map.OwnedCount(shard); ++local) {
        outcome.degraded.emplace_back(map.GlobalPart(shard, local),
                                      sr.last_error);
      }
      continue;
    }
    *stats += sr.outcome.stats;
    for (const auto& [local, st] : sr.outcome.part_statuses) {
      outcome.degraded.emplace_back(map.GlobalPart(shard, local), st);
    }
    if (sr.outcome.status.interrupted()) {
      if (outcome.interruption.ok()) outcome.interruption = sr.outcome.status;
    } else if (map.OwnedCount(shard) > 0) {
      outcome.answered = true;
    }
    outcome.columns.insert(
        outcome.columns.end(),
        std::make_move_iterator(sr.outcome.columns.begin()),
        std::make_move_iterator(sr.outcome.columns.end()));
  }
  // Shards counted their own partial answers; the query counts once.
  stats->partial_responses = partial_before;
  stats->floor_updates_sent += floor_sent.load(std::memory_order_relaxed);
  stats->floor_updates_received +=
      floor_received.load(std::memory_order_relaxed);
  stats->shard_bytes_moved += bytes_moved.load(std::memory_order_relaxed);
  return DeliverParts(query, std::move(outcome), sink, stats);
}

}  // namespace pexeso::shard
