#include "serve/serve_session.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/part_runner.h"

namespace pexeso::serve {

struct ServeSession::QueryState {
  uint64_t ticket = 0;
  JoinQuery query;
  ChunkCallback on_chunk;      ///< null for non-streaming submits
  OutcomeCallback on_outcome;  ///< null unless push-notified streaming
  bool want_future = false;
  std::promise<QueryOutcome> promise;
  /// The query's part loop, one task per part; null when the engine runs
  /// as a single Execute task (in-memory engines, zero-part shards).
  std::unique_ptr<PartRunner> runner;

  size_t parts_total = 1;
  /// Serializes chunk callbacks of this query and guards parts_done,
  /// failure and the finalize step. Per-part slots (here and in the runner)
  /// are lock-free: each part task writes only its own index, and the
  /// finalizer observes every write through the parts_done increments
  /// under this mutex.
  std::mutex mu;
  size_t parts_done = 0;
  std::vector<SearchStats> part_stats;
  std::vector<double> part_io;
  /// The single Execute task's answer; the runner delivers here at
  /// finalize.
  CollectSink sink;
  /// An exception escaped a search or a chunk callback: it fails the query
  /// outright (first one wins).
  Status failure;

  QueryOutcome outcome;  ///< valid once every part is done
};

namespace {

/// Worker count of an owned pool: 0 means one per hardware thread, and a
/// ceiling guards against bogus huge values (e.g. a negative count cast to
/// size_t) turning into a workers_.reserve() of billions.
size_t OwnedPoolThreads(size_t requested) {
  if (requested == 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min<size_t>(requested, 256);
}

}  // namespace

ServeSession::ServeSession(const JoinSearchEngine* engine,
                           ServeSessionOptions options,
                           ThreadPool* shared_pool)
    : engine_(engine),
      parts_(dynamic_cast<const PartitionedJoinEngine*>(engine)),
      intra_pool_(options.intra_query_threads > 1
                      ? std::make_unique<ThreadPool>(
                            std::min<size_t>(options.intra_query_threads, 256))
                      : nullptr),
      default_intra_threads_(options.intra_query_threads),
      owned_pool_(shared_pool != nullptr
                      ? nullptr
                      : std::make_unique<ThreadPool>(
                            OwnedPoolThreads(options.num_threads))),
      pool_(shared_pool != nullptr ? shared_pool : owned_pool_.get()),
      group_(pool_) {
  PEXESO_CHECK(engine != nullptr);
}

ServeSession::~ServeSession() { group_.Wait(); }

std::future<QueryOutcome> ServeSession::Submit(JoinQuery query) {
  std::future<QueryOutcome> future;
  Enqueue(std::move(query), nullptr, nullptr, /*want_future=*/true, &future);
  return future;
}

uint64_t ServeSession::SubmitStreaming(JoinQuery query,
                                       ChunkCallback on_chunk) {
  return Enqueue(std::move(query), std::move(on_chunk), nullptr,
                 /*want_future=*/false, nullptr);
}

uint64_t ServeSession::SubmitStreaming(JoinQuery query, ChunkCallback on_chunk,
                                       OutcomeCallback on_outcome) {
  return Enqueue(std::move(query), std::move(on_chunk),
                 std::move(on_outcome), /*want_future=*/false, nullptr);
}

uint64_t ServeSession::Enqueue(JoinQuery query, ChunkCallback on_chunk,
                               OutcomeCallback on_outcome, bool want_future,
                               std::future<QueryOutcome>* future_out) {
  PEXESO_CHECK(query.vectors != nullptr);
  auto state = std::make_unique<QueryState>();
  state->query = std::move(query);
  // Intra-query default: queries that carry no setting of their own inherit
  // the session's, and any intra-parallel query without a pool runs its
  // shards on the session's dedicated intra pool (when one exists) so part
  // tasks never spawn transient pools per search.
  if (state->query.intra_query_pool == nullptr) {
    if (state->query.intra_query_threads == 0) {
      state->query.intra_query_threads = default_intra_threads_;
    }
    if (state->query.intra_query_threads > 1 && intra_pool_ != nullptr) {
      state->query.intra_query_pool = intra_pool_.get();
    }
  }
  state->on_chunk = std::move(on_chunk);
  state->on_outcome = std::move(on_outcome);
  state->want_future = want_future;
  if (want_future) *future_out = state->promise.get_future();
  const bool by_part = parts_ != nullptr && parts_->NumParts() > 0;
  if (by_part) {
    state->runner = std::make_unique<PartRunner>(parts_, state->query);
  }
  state->parts_total = by_part ? parts_->NumParts() : 1;
  state->part_stats.resize(state->parts_total);
  state->part_io.assign(state->parts_total, 0.0);

  QueryState* raw = state.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw->ticket = queries_.size();
    queries_.push_back(std::move(state));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  for (size_t part = 0; part < raw->parts_total; ++part) {
    group_.Submit([this, raw, part] { RunPart(raw, part); });
  }
  return raw->ticket;
}

void ServeSession::RunPart(QueryState* state, size_t part) const {
  Status status;
  Status thrown;
  try {
    // Partitioned engines: the runner checks liveness, shares the kTopK
    // floor across this query's part tasks and records the part's slot.
    // A single task: the engine's Execute does all of that itself.
    status = state->runner != nullptr
                 ? state->runner->RunPart(part, &state->part_stats[part],
                                          &state->part_io[part])
                 : engine_->Execute(state->query, &state->sink,
                                    &state->part_stats[part]);
  } catch (const std::exception& e) {
    thrown = Status::Internal(std::string("search task threw: ") + e.what());
  } catch (...) {
    thrown = Status::Internal("search task threw");
  }
  if (!thrown.ok()) status = thrown;

  // Build the chunk before taking the lock: the slot is still this task's
  // private data (finalize cannot run until our parts_done increment), and
  // the copy it needs — finalize will move the slot out — should not
  // serialize other parts' callbacks.
  StreamChunk chunk;
  if (state->on_chunk != nullptr) {
    chunk.ticket = state->ticket;
    chunk.part = part;
    chunk.parts_total = state->parts_total;
    chunk.status = status;
    chunk.results = state->runner != nullptr ? state->runner->columns(part)
                                             : state->sink.columns();
  }

  bool last = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->failure.ok()) state->failure = thrown;
    last = ++state->parts_done == state->parts_total;
    if (state->on_chunk != nullptr) {
      chunk.last = last;
      // A throwing consumer must not escape into the pool's error slot (it
      // would surface from an unrelated Wait, or never): it fails the query
      // instead. Running the callback before finalize means even a
      // last-chunk throw is folded in.
      try {
        state->on_chunk(chunk);
      } catch (const std::exception& e) {
        if (state->failure.ok()) {
          state->failure = Status::Internal(
              std::string("stream callback threw: ") + e.what());
        }
      } catch (...) {
        if (state->failure.ok()) {
          state->failure = Status::Internal("stream callback threw");
        }
      }
    }
    if (last) FinalizeLocked(state);
  }
  if (!last) return;
  finished_.fetch_add(1, std::memory_order_relaxed);
  // Fired after every lock is dropped: the outcome is immutable once
  // finalized, and the callback may re-enter the session (e.g. to submit a
  // query an admission controller just promoted) without a lock cycle.
  if (state->on_outcome != nullptr) {
    try {
      state->on_outcome(state->outcome);
    } catch (...) {
      // Nothing left to attach the failure to: the outcome is already
      // final. Swallowing beats corrupting the pool's error slot.
    }
  }
}

void ServeSession::FinalizeLocked(QueryState* state) {
  QueryOutcome& out = state->outcome;
  for (size_t part = 0; part < state->parts_total; ++part) {
    out.stats += state->part_stats[part];
    out.io_seconds += state->part_io[part];
  }
  CollectSink& sink = state->sink;
  if (state->runner != nullptr) {
    state->runner->Finish(&sink, &out.stats);
    // Every part task is past its runner use; the session keeps the query
    // state until Drain, so drop the per-part slots now.
    state->runner.reset();
  }
  out.status = sink.status();
  out.part_statuses = sink.part_statuses();
  out.results = std::move(sink).TakeColumns();
  if (!state->failure.ok()) {
    out.status = state->failure;
    out.results.clear();
    out.part_statuses.clear();
  }
  if (state->want_future) state->promise.set_value(out);
}

std::vector<QueryOutcome> ServeSession::Drain() {
  // A Submit racing this Drain may have registered its QueryState but not
  // yet handed every part task to the group, in which case group_.Wait()
  // returns with that query still unfinished; loop until a Wait() lands
  // with every registered query finalized (each pass waits for real work,
  // so the loop terminates as soon as submissions stop racing).
  for (;;) {
    group_.Wait();
    std::lock_guard<std::mutex> lock(mu_);
    bool all_done = true;
    for (const auto& state : queries_) {
      std::lock_guard<std::mutex> state_lock(state->mu);
      if (state->parts_done != state->parts_total) {
        all_done = false;
        break;
      }
    }
    if (!all_done) {
      // The racing submitter holds no lock we can wait on; yield until its
      // tasks reach the group (group_.Wait() then blocks on real work).
      std::this_thread::yield();
      continue;
    }
    std::vector<QueryOutcome> out;
    out.reserve(queries_.size());
    for (const auto& state : queries_) out.push_back(state->outcome);
    return out;
  }
}

}  // namespace pexeso::serve
