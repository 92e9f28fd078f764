#include "baseline/pexeso_h.h"

#include <algorithm>
#include <utility>

#include "baseline/scan_mapping.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "vec/kernels.h"

namespace pexeso {

Status PexesoHSearcher::Execute(const JoinQuery& jq, ResultSink* sink,
                                SearchStats* stats) const {
  PEXESO_CHECK(jq.vectors != nullptr);
  PEXESO_CHECK(sink != nullptr);
  SearchStats local;
  if (stats == nullptr) stats = &local;
  const VectorStore& query = *jq.vectors;
  const double tau = jq.thresholds.tau;
  const uint32_t t_abs = jq.EffectiveT();
  const bool topk_mode = jq.mode == QueryMode::kTopK;
  // With exact counts required the joinable-skip is disabled so match
  // counts keep accumulating past T instead of clamping there.
  const bool skip_joinable = !jq.exact_counts();
  const uint32_t num_q = static_cast<uint32_t>(query.size());

  const auto finish = [&](const Status& st) {
    sink->OnDone(st);
    return st;
  };
  if (num_q == 0 || (topk_mode && jq.k == 0)) return finish(Status::OK());
  Status live = jq.CheckLive();
  if (!live.ok()) {
    ++stats->deadline_expired;
    return finish(live);
  }

  Stopwatch block_watch;
  const PivotSpace& ps = index_->pivots();
  std::vector<double> mapped_q = ps.MapAll(query.raw().data(), query.size());
  HierarchicalGrid hgq;
  HierarchicalGrid::Options gopts;
  gopts.levels = index_->grid().levels();
  gopts.store_leaf_items = true;
  hgq.Build(mapped_q.data(), query.size(), ps.num_pivots(), ps.AxisExtent(),
            gopts);
  GridBlocker blocker(&index_->grid());
  BlockResult blocks = blocker.Run(hgq, mapped_q, tau, jq.ablation, stats);
  stats->block_seconds += block_watch.ElapsedSeconds();

  // Checkpoint between blocking and verification: an expired query does no
  // distance work at all.
  live = jq.CheckLive();
  if (!live.ok()) {
    ++stats->deadline_expired;
    return finish(live);
  }

  Stopwatch verify_watch;
  const ColumnCatalog& catalog = index_->catalog();
  const VectorStore& rstore = catalog.store();
  const uint32_t dim = rstore.dim();
  const size_t num_cols = catalog.num_columns();
  const RangePredicate pred(*index_->metric(), tau);
  const float* rnorms = pred.wants_norms() ? rstore.EnsureNorms() : nullptr;
  const float* qnorms = pred.wants_norms() ? query.EnsureNorms() : nullptr;

  // Precompute vec -> column once; the naive verification resolves columns
  // per vector rather than per postings list.
  std::vector<ColumnId> vec2col(rstore.size());
  for (ColumnId col = 0; col < num_cols; ++col) {
    const ColumnMeta& meta = catalog.column(col);
    for (VecId v = meta.first; v < meta.end(); ++v) vec2col[v] = col;
  }

  std::vector<uint32_t> match_map(num_cols, 0);
  std::vector<uint8_t> joinable(num_cols, 0);
  // kTopK: columns provably outside the top-k, skipped like tombstones.
  std::vector<uint8_t> dead(num_cols, 0);
  std::vector<uint32_t> bound_scratch;
  uint32_t bound = jq.topk_floor;
  // (q+1) stamp marking columns already resolved as matched for this q.
  std::vector<uint32_t> stamp(num_cols, 0);

  const auto& leaves = index_->grid().LeafCells();
  for (uint32_t q = 0; q < num_q; ++q) {
    // Deadline/cancellation checkpoint per query record. Record-major
    // counts are incomplete for every column mid-scan, so a trip returns
    // the status with no result columns.
    live = jq.CheckLive();
    if (!live.ok()) {
      ++stats->deadline_expired;
      stats->verify_seconds += verify_watch.ElapsedSeconds();
      return finish(live);
    }
    if (topk_mode && num_cols >= jq.k && (q & 7u) == 0) {
      // kTopK pushdown, record-major form: current counts only grow, so
      // the k-th largest of them (or the caller-seeded floor) is a valid
      // lower bound on the final k-th-best joinability. A column whose
      // count plus remaining records cannot strictly beat it is dead —
      // every distance against it from here on would be wasted. The
      // O(num_cols) recompute + dead sweep runs at checkpoint granularity
      // (every 8 records, like the deadline polls): a stale bound only
      // prunes less, never wrongly.
      bound_scratch.assign(match_map.begin(), match_map.end());
      std::nth_element(bound_scratch.begin(),
                       bound_scratch.begin() + (jq.k - 1),
                       bound_scratch.end(), std::greater<uint32_t>());
      bound = std::max({bound, jq.topk_floor, bound_scratch[jq.k - 1]});
      if (bound > 0) {
        for (ColumnId col = 0; col < num_cols; ++col) {
          if (dead[col]) continue;
          if (static_cast<uint64_t>(match_map[col]) + (num_q - q) < bound) {
            dead[col] = 1;
            ++stats->columns_pruned_topk;
          }
        }
      }
    }
    const float* qv = query.View(q);
    const double qn = qnorms != nullptr ? qnorms[q] : 1.0;
    const uint32_t mark = q + 1;
    // Matching cells first: every vector inside matches q by Lemma 5/6.
    for (uint32_t cell : blocks.match_cells[q]) {
      for (VecId v : leaves[cell].items) {
        const ColumnId col = vec2col[v];
        if (stamp[col] == mark || (joinable[col] && skip_joinable) ||
            dead[col] || index_->IsDeleted(col)) {
          continue;
        }
        stamp[col] = mark;
        if (++match_map[col] >= t_abs && !joinable[col]) {
          joinable[col] = 1;
          ++stats->early_joinable;
        }
      }
    }
    // Candidate cells: naive verification — distance to every vector in the
    // cell (no Lemma 1/2, no inverted index, no Lemma 7).
    for (uint32_t cell : blocks.cand_cells[q]) {
      for (VecId v : leaves[cell].items) {
        const ColumnId col = vec2col[v];
        if (stamp[col] == mark || (joinable[col] && skip_joinable) ||
            dead[col] || index_->IsDeleted(col)) {
          continue;
        }
        ++stats->distance_computations;
        stats->sqrt_free_comparisons += pred.sqrt_saved();
        const double rn = rnorms != nullptr ? rnorms[v] : 1.0;
        if (pred.MatchNormed(qv, rstore.View(v), dim, qn, rn)) {
          stamp[col] = mark;
          if (++match_map[col] >= t_abs && !joinable[col]) {
            joinable[col] = 1;
            ++stats->early_joinable;
          }
        }
      }
    }
  }

  const auto map_column = [&](JoinableColumn* jc) {
    ScanMapColumn(catalog, pred, query, qnorms, rnorms, jc, stats);
  };

  std::vector<JoinableColumn> out;
  for (ColumnId col = 0; col < num_cols; ++col) {
    if (index_->IsDeleted(col) || (topk_mode && dead[col])) continue;
    if (match_map[col] >= t_abs) {
      JoinableColumn jc;
      jc.column = col;
      jc.match_count = match_map[col];
      jc.joinability =
          static_cast<double>(jc.match_count) / static_cast<double>(num_q);
      if (!topk_mode && jq.collect_mappings) map_column(&jc);
      out.push_back(std::move(jc));
    }
  }
  if (topk_mode) {
    RankTopK(&out, jq.k);
    if (jq.collect_mappings) {
      for (auto& jc : out) map_column(&jc);
    }
  }
  // Charged after the mapping post-pass: it is verification work too.
  stats->verify_seconds += verify_watch.ElapsedSeconds();
  for (auto& jc : out) sink->OnColumn(std::move(jc));
  return finish(Status::OK());
}

}  // namespace pexeso
