#include "core/searcher.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/verify_pipeline.h"

namespace pexeso {

Status PexesoSearcher::Execute(const JoinQuery& jq, ResultSink* sink,
                               SearchStats* stats) const {
  PEXESO_CHECK(jq.vectors != nullptr);
  PEXESO_CHECK(sink != nullptr);
  SearchStats local_stats;
  SearchStats* out_stats = stats != nullptr ? stats : &local_stats;
  const VectorStore& query = *jq.vectors;
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  const size_t num_cols = index_->catalog().num_columns();
  const uint32_t t_abs = jq.EffectiveT();
  const bool topk_mode = jq.mode == QueryMode::kTopK;

  const auto finish = [&](const Status& st) {
    sink->OnDone(st);
    return st;
  };
  if (num_q == 0 || (topk_mode && jq.k == 0)) return finish(Status::OK());
  Status live = jq.CheckLive();
  if (!live.ok()) {
    ++out_stats->deadline_expired;
    return finish(live);
  }

  Stopwatch block_watch;
  // Map the query column into the pivot space and build HGQ (same number of
  // levels as HGRV so leaf cells align, enabling quick browsing).
  const PivotSpace& ps = index_->pivots();
  const std::vector<double> mapped_q =
      ps.MapAll(query.raw().data(), query.size());
  HierarchicalGrid hgq;
  HierarchicalGrid::Options gopts;
  gopts.levels = index_->grid().levels();
  gopts.store_leaf_items = true;
  hgq.Build(mapped_q.data(), query.size(), ps.num_pivots(), ps.AxisExtent(),
            gopts);

  GridBlocker blocker(&index_->grid());
  const BlockResult blocks = blocker.Run(hgq, mapped_q, jq.thresholds.tau,
                                         jq.ablation, out_stats);
  out_stats->block_seconds += block_watch.ElapsedSeconds();

  // The staged verification pipeline: candidate generation (stage 1),
  // column-sharded tiled verification (stage 2), deterministic reduction
  // (stage 3). Serial when jq.intra_query_threads <= 1.
  Stopwatch candidate_watch;
  VerifyPipeline pipeline(index_);
  CandidateSet cands;
  pipeline.GenerateCandidates(blocks, num_q, &cands, out_stats);
  out_stats->candidate_seconds += candidate_watch.ElapsedSeconds();

  // Checkpoint between candidate generation and the tiled stage: a query
  // that expired during blocking never dispatches a verification tile.
  live = jq.CheckLive();
  if (!live.ok()) {
    ++out_stats->deadline_expired;
    return finish(live);
  }

  Stopwatch verify_watch;
  TopKBound topk_bound(jq.k, jq.topk_floor);
  std::vector<uint8_t> pruned;
  if (topk_mode) pruned.assign(num_cols, 0);
  std::vector<uint32_t> match_map(num_cols, 0);
  const Status verify_st = pipeline.VerifyCandidates(
      cands, query, mapped_q, jq, topk_mode ? &topk_bound : nullptr,
      &match_map, topk_mode ? &pruned : nullptr, out_stats);
  out_stats->verify_seconds += verify_watch.ElapsedSeconds();
  if (!verify_st.ok()) return finish(verify_st);

  std::vector<JoinableColumn> out;
  for (ColumnId col = 0; col < num_cols; ++col) {
    if (index_->IsDeleted(col)) continue;
    if (topk_mode && pruned[col]) continue;
    if (match_map[col] >= t_abs) {
      JoinableColumn jc;
      jc.column = col;
      jc.match_count = match_map[col];
      jc.joinability =
          static_cast<double>(jc.match_count) / static_cast<double>(num_q);
      out.push_back(std::move(jc));
    }
  }
  // kTopK: counts are exact (the pushdown runs in exact-count mode), so
  // ranking the unpruned survivors reproduces the legacy verify-everything
  // wrapper's output bit for bit.
  if (topk_mode) RankTopK(&out, jq.k);
  if (jq.collect_mappings) {
    // The mapping sweep re-runs verification per result column: charge it
    // to the verify phase, interrupted or not.
    Stopwatch map_watch;
    const Status map_st =
        pipeline.CollectMappings(query, mapped_q, jq, &out, out_stats);
    out_stats->verify_seconds += map_watch.ElapsedSeconds();
    if (!map_st.ok()) return finish(map_st);
  }
  for (auto& jc : out) sink->OnColumn(std::move(jc));
  return finish(Status::OK());
}

}  // namespace pexeso
