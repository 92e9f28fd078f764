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
  // Map the query column into the pivot space and block each record
  // against HGRV.
  const std::vector<double> mapped_q =
      index_->pivots().MapAll(query.raw().data(), query.size());
  GridBlocker blocker(&index_->grid());
  const BlockResult blocks = blocker.Run(mapped_q.data(), num_q,
                                         jq.thresholds.tau, jq.ablation,
                                         out_stats);
  out_stats->block_seconds += block_watch.ElapsedSeconds();

  // The staged verification pipeline: candidate generation (stage 1),
  // column-sharded tiled verification (stage 2), deterministic reduction
  // (stage 3). Serial when jq.intra_query_threads <= 1. Stage 1 already
  // drops the columns with fewer candidate blocks than Lemma 7's T.
  Stopwatch candidate_watch;
  VerifyPipeline pipeline(index_);
  CandidateSet cands;
  pipeline.GenerateCandidates(blocks, num_q, jq.Lemma7T(), &cands, out_stats);
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
  std::vector<VecId> witness;
  if (jq.collect_mappings) {
    witness.assign(cands.blocks.size(), VerifyPipeline::kNoWitness);
  }
  const Status verify_st = pipeline.VerifyCandidates(
      cands, query, mapped_q, jq, topk_mode ? &topk_bound : nullptr,
      &match_map, topk_mode ? &pruned : nullptr,
      jq.collect_mappings ? &witness : nullptr, out_stats);
  out_stats->verify_seconds += verify_watch.ElapsedSeconds();
  if (!verify_st.ok()) return finish(verify_st);

  std::vector<JoinableColumn> out;
  for (ColumnId col = 0; col < num_cols; ++col) {
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
    // Stage 2 resolved every block of a result column, in ascending record
    // order, and each block's witness is its record's lowest matching VecId.
    for (JoinableColumn& jc : out) {
      for (size_t b = cands.block_begin[jc.column];
           b < cands.block_begin[jc.column + 1]; ++b) {
        if (witness[b] != VerifyPipeline::kNoWitness) {
          jc.mapping.push_back(RecordMatch{cands.blocks[b].query, witness[b]});
        }
      }
      PEXESO_CHECK(jc.mapping.size() == jc.match_count);
    }
  }
  for (auto& jc : out) sink->OnColumn(std::move(jc));
  return finish(Status::OK());
}

}  // namespace pexeso
