#include "core/part_runner.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace pexeso {

bool IsFatalStatus(const Status& status) {
  return status.code() == Status::Code::kInvalidArgument ||
         status.code() == Status::Code::kNotSupported ||
         status.code() == Status::Code::kNotFound;
}

Status DeliverParts(const JoinQuery& query, PartsOutcome outcome,
                    ResultSink* sink, SearchStats* stats) {
  Status final_st = outcome.fatal;
  if (final_st.ok()) {
    std::stable_sort(outcome.degraded.begin(), outcome.degraded.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [part, status] : outcome.degraded) {
      sink->OnPartStatus(part, status);
    }
    if (!outcome.degraded.empty()) ++stats->partial_responses;
    final_st = outcome.interruption;
    // Nothing answered: that is a failed query, not a partial one.
    if (final_st.ok() && !outcome.answered && !outcome.degraded.empty()) {
      final_st = outcome.degraded.front().second;
    }
  }
  if (final_st.ok() || final_st.interrupted()) {
    FinishQueryMerge(query, &outcome.columns);
    for (auto& jc : outcome.columns) sink->OnColumn(std::move(jc));
  }
  sink->OnDone(final_st);
  return final_st;
}

PartRunner::PartRunner(const PartitionedJoinEngine* engine,
                       const JoinQuery& query)
    : engine_(engine),
      query_(query),
      bound_(query.k, query.topk_floor),
      slots_(engine->NumParts()) {
  PEXESO_CHECK(query_.vectors != nullptr);
}

Status PartRunner::RunParts(const PartitionedJoinEngine& parts,
                            const JoinQuery& query, ResultSink* sink,
                            SearchStats* stats, double* io_seconds) {
  PEXESO_CHECK(sink != nullptr);
  SearchStats local;
  if (stats == nullptr) stats = &local;
  PartRunner runner(&parts, query);
  for (size_t part = 0; part < parts.NumParts() && !runner.stopped(); ++part) {
    runner.RunPart(part, stats, io_seconds);
  }
  return runner.Finish(sink, stats);
}

Status PartRunner::RunPart(size_t part, SearchStats* stats,
                           double* io_seconds,
                           const Result<PartHandle>& preloaded) {
  Slot& slot = slots_[part];
  slot.status = query_.CheckLive();
  if (!slot.status.ok()) {
    // The query tripped before this part started: drop it — no engine
    // call, no part IO, just the counter.
    ++stats->deadline_expired;
    stopped_.store(true, std::memory_order_relaxed);
    return slot.status;
  }
  if (stopped()) {
    // A sibling part failed the query outright; its answer is void.
    slot.status = Status::Cancelled("query stopped by a sibling part");
    return slot.status;
  }
  if (!preloaded.ok()) {
    slot.status = preloaded.status();
    return slot.status;
  }

  const bool topk = query_.mode == QueryMode::kTopK;
  const std::shared_ptr<TopKFloorCell>& link = query_.floor_link;
  JoinQuery part_query = query_;
  if (topk) {
    // Prune against the best floor known: this query's own parts, or
    // sibling executions over disjoint slices (shards) through the link.
    const uint32_t own = bound_.bound();
    const uint32_t shared = link != nullptr ? link->load() : 0;
    if (shared > own) ++stats->floor_updates_received;
    part_query.topk_floor = std::max(own, shared);
  }
  auto chunk = engine_->SearchPartWithNotice(part, part_query, stats,
                                             io_seconds, preloaded.value(),
                                             &slot.notice);
  if (!chunk.ok()) {
    slot.status = chunk.status();
    if (slot.status.interrupted() || IsFatalStatus(slot.status)) {
      stopped_.store(true, std::memory_order_relaxed);
    }
    return slot.status;
  }
  slot.columns = std::move(chunk).ValueOrDie();
  slot.answered = true;
  if (topk) {
    // Kept columns carry exact counts of distinct surviving columns, so the
    // k-th best of them lower-bounds the global k-th best.
    for (const auto& jc : slot.columns) bound_.Offer(jc.match_count);
    if (link != nullptr && link->RaiseTo(bound_.bound())) {
      ++stats->floor_updates_sent;
    }
  }
  return slot.notice;
}

Status PartRunner::Finish(ResultSink* sink, SearchStats* stats) {
  PartsOutcome outcome;
  for (size_t part = 0; part < slots_.size(); ++part) {
    Slot& slot = slots_[part];
    if (slot.answered) {
      outcome.answered = true;
      if (!slot.notice.ok()) outcome.degraded.emplace_back(part, slot.notice);
      outcome.columns.insert(outcome.columns.end(),
                             std::make_move_iterator(slot.columns.begin()),
                             std::make_move_iterator(slot.columns.end()));
    } else if (slot.status.interrupted()) {
      if (outcome.interruption.ok()) outcome.interruption = slot.status;
    } else if (IsFatalStatus(slot.status)) {
      if (outcome.fatal.ok()) outcome.fatal = slot.status;
    } else if (!slot.status.ok()) {
      outcome.degraded.emplace_back(part, slot.status);
    }
  }
  return DeliverParts(query_, std::move(outcome), sink, stats);
}

}  // namespace pexeso
