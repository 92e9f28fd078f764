#include "core/verify_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "invindex/inverted_index.h"
#include "vec/kernels.h"

namespace pexeso {
namespace {

/// Rows per many-to-many tile: matches the 4-row blocking of the kernel
/// tiers (two blocks per tile) while keeping the packed query copy tiny.
constexpr size_t kTileRows = 8;

/// Candidate vectors per tile: bounds the wasted work when a row's match
/// sits early in a huge candidate list (rows that match in one vec-tile
/// drop out before the next), and keeps the tile output cache-resident.
constexpr size_t kTileVecs = 256;

/// SweepTile's "no matching slot" answer.
constexpr uint32_t kNoSlot = UINT32_MAX;

/// True when `b` repeats `a`'s exact range list: such consecutive pairs of
/// one column form one many-to-many tile group sharing a single gather.
bool SameRanges(const CandidateSet& cands, const CandidateBlock& a,
                const CandidateBlock& b) {
  if (a.range_count != b.range_count) return false;
  const VecIdRange* ra = cands.ranges.data() + a.range_begin;
  const VecIdRange* rb = cands.ranges.data() + b.range_begin;
  for (uint32_t i = 0; i < a.range_count; ++i) {
    if (ra[i].begin != rb[i].begin || ra[i].count != rb[i].count) return false;
  }
  return true;
}

/// Lemma 1 on one pair: true when some pivot separates the mapped query
/// record `mq` and the mapped candidate `mx` by more than tau. Every pivot
/// is tested without a branch.
bool Lemma1Separates(const double* mq, const double* mx, uint32_t np,
                     double tau) {
  bool out = false;
  for (uint32_t p = 0; p < np; ++p) out |= std::fabs(mq[p] - mx[p]) > tau;
  return out;
}

/// Algorithm 2's pairs of one query record `qv` (norm `qn`): walks the
/// candidates slots[0..n) in order, skips each one `keep(c)` rejects,
/// computes one distance for every other one, and stops at the first match.
/// Returns its slot, or kNoSlot; adds the distances computed to *pairs.
template <typename Keep>
uint32_t FirstMatchInPlace(const RangePredicate& pred,
                           const VectorStore& rstore, const float* repo_norms,
                           const float* qv, double qn, const VecId* slots,
                           size_t n, Keep keep, uint64_t* pairs) {
  for (size_t c = 0; c < n; ++c) {
    if (!keep(c)) continue;
    const VecId id = slots[c];
    const double rn =
        repo_norms != nullptr ? static_cast<double>(repo_norms[id]) : 1.0;
    ++*pairs;
    if (pred.MatchNormed(qv, rstore.View(id), rstore.dim(), qn, rn)) {
      return static_cast<uint32_t>(c);
    }
  }
  return kNoSlot;
}

/// Runs task(i, &stats_i) for i in [0, n) on the query's shared intra-query
/// pool when it names one, else on a transient pool of min(n, 64) workers
/// (extra tasks just queue, so the task layout stays a pure function of the
/// options). Each task owns a private stats slot and status; slots merge
/// into `stats` in task order and the first non-OK status in the same order
/// is returned, so counters never depend on scheduling. A task
/// exception is rethrown here on both branches: TaskGroup::Wait does not
/// rethrow (the exception lands in the pool's error slot, which nothing on
/// this path drains), so the shared-pool branch captures it itself.
Status FanOut(ThreadPool* shared, size_t n, SearchStats* stats,
              const std::function<Status(size_t, SearchStats*)>& task) {
  std::vector<SearchStats> task_stats(n);
  std::vector<Status> task_status(n);
  const auto run = [&](size_t i) { task_status[i] = task(i, &task_stats[i]); };
  if (shared != nullptr) {
    std::mutex err_mu;
    std::exception_ptr first_error;
    TaskGroup group(shared);
    for (size_t i = 0; i < n; ++i) {
      group.Submit([&run, &err_mu, &first_error, i] {
        try {
          run(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    group.Wait();
    if (first_error) std::rethrow_exception(first_error);
  } else {
    ThreadPool pool(std::min(n, size_t{64}));
    pool.ParallelFor(n, run);
  }
  for (const SearchStats& s : task_stats) *stats += s;
  for (const Status& st : task_status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

/// Reused buffers of one verification shard: gather targets, lemma masks,
/// packed tiles. Everything is cleared per group, so allocations amortize
/// across the whole shard.
struct VerifyPipeline::TileScratch {
  std::vector<VecId> ids;          ///< gathered candidate vector ids
  std::vector<uint8_t> mask;       ///< rows x nv Lemma-1 survivor mask
  std::vector<uint8_t> union_mask; ///< per-candidate any-row-survives
  std::vector<uint32_t> uni;       ///< union survivor indices (ascending)
  std::vector<uint32_t> rows;      ///< unresolved row indices (ascending)
  std::vector<uint32_t> next_rows;
  std::vector<VecId> found;        ///< per-run pair witnesses

  // One SweepTile call: its rows, slots and per-row answers.
  std::vector<TileRow> tile;
  std::vector<VecId> slots;
  std::vector<uint32_t> hits;

  // Exact float tiles.
  std::vector<float> base;         ///< packed candidate rows
  std::vector<float> base_norms;   ///< their cached norms (cosine)
  std::vector<float> qrows;        ///< packed query rows of one row-block
  std::vector<double> qnorms;      ///< their norms (cosine)
  std::vector<double> cmp;         ///< tile output (comparison space)
};

void VerifyPipeline::GenerateCandidates(const BlockResult& blocks,
                                        uint32_t num_q, uint32_t min_blocks,
                                        CandidateSet* out,
                                        SearchStats* stats) const {
  const InvertedIndex& inv = index_->inverted_index();
  const size_t ncols = index_->catalog().num_columns();
  out->blocks.clear();
  out->ranges.clear();
  out->block_begin.assign(ncols + 1, 0);
  out->weight.assign(ncols, 0);
  out->total_weight = 0;
  if (num_q == 0) return;

  // Per-column stamp of the record being walked: `seen[c] == q` once the
  // (q, c) block exists.
  std::vector<uint32_t> seen(ncols);
  // Calls on_block(q, c) once per (q, c) pair and on_range(c, posting)
  // per nonempty cand posting, in ascending q and, within a pair, in the
  // order of q's candidate cells.
  const auto walk = [&](auto&& on_block, auto&& on_range) {
    std::fill(seen.begin(), seen.end(), UINT32_MAX);
    for (uint32_t q = 0; q < num_q; ++q) {
      for (uint32_t cell : blocks.CellsOf(q)) {
        for (const InvertedIndex::Posting& p : inv.PostingsOf(cell)) {
          if (seen[p.column] != q) {
            seen[p.column] = q;
            on_block(q, p.column);
          }
          if (p.vec_count > 0) on_range(p.column, p);
        }
      }
    }
  };

  // Pass 1 counts blocks and ranges per column. A column with fewer blocks
  // than min_blocks cannot reach T (Lemma 7: a record without a block in
  // it is a mismatch), so it keeps no blocks, ranges or shard weight.
  // Prefix sums place the rest; next_range then holds each column's range
  // cursor.
  std::vector<uint32_t> next_range(ncols + 1, 0);
  walk([&](uint32_t, ColumnId c) { ++out->block_begin[c + 1]; },
       [&](ColumnId c, const InvertedIndex::Posting&) {
         ++next_range[c + 1];
       });
  for (size_t c = 1; c <= ncols; ++c) {
    const uint32_t n = out->block_begin[c];
    stats->candidate_blocks += n;
    if (n > 0 && n < min_blocks) {
      out->block_begin[c] = 0;
      next_range[c] = 0;
      ++stats->lemma7_kills;
    }
    out->block_begin[c] += out->block_begin[c - 1];
    next_range[c] += next_range[c - 1];
  }
  out->blocks.resize(out->block_begin[ncols]);
  out->ranges.resize(next_range[ncols]);
  const auto dropped = [&](ColumnId c) {
    return out->block_begin[c] == out->block_begin[c + 1];
  };

  // Pass 2 writes each kept block at its column's cursor. Records are
  // walked in ascending order, so every column's slice lands in ascending
  // query order — the order the serial state machine requires — and a
  // block's ranges are contiguous because its column's range cursor only
  // moves for it until the next record.
  std::vector<uint32_t> next_block(out->block_begin.begin(),
                                   out->block_begin.end() - 1);
  walk(
      [&](uint32_t q, ColumnId c) {
        if (dropped(c)) return;
        out->blocks[next_block[c]++] = CandidateBlock{q, next_range[c], 0};
      },
      [&](ColumnId c, const InvertedIndex::Posting& p) {
        if (dropped(c)) return;
        ++out->blocks[next_block[c] - 1].range_count;
        out->ranges[next_range[c]++] = VecIdRange{p.vec_begin, p.vec_count};
        out->weight[c] += p.vec_count;
      });
  for (uint64_t w : out->weight) out->total_weight += w;
}

Status VerifyPipeline::VerifyCandidates(const CandidateSet& cands,
                                        const VectorStore& query,
                                        const std::vector<double>& mapped_q,
                                        const JoinQuery& jq, TopKBound* topk,
                                        std::vector<uint32_t>* match_map,
                                        std::vector<uint8_t>* pruned,
                                        std::vector<VecId>* witness,
                                        SearchStats* stats) const {
  const size_t ncols = index_->catalog().num_columns();
  PEXESO_CHECK(match_map->size() == ncols);
  PEXESO_CHECK((topk != nullptr) == (jq.mode == QueryMode::kTopK));
  // The bound and the pruned flags travel together: a shard abandoning a
  // column against the bound records it in `pruned` unconditionally.
  PEXESO_CHECK((pruned != nullptr) == (topk != nullptr));
  PEXESO_CHECK(pruned == nullptr || pruned->size() == ncols);
  PEXESO_CHECK(witness == nullptr || witness->size() == cands.blocks.size());
  if (cands.empty()) return Status::OK();
  const RangePredicate pred(*index_->metric(), jq.thresholds.tau);
  const float* rnorms =
      pred.wants_norms() ? index_->catalog().store().EnsureNorms() : nullptr;
  const float* qnorms = pred.wants_norms() ? query.EnsureNorms() : nullptr;

  const size_t want = jq.intra_query_threads;
  if (want <= 1) {
    return VerifyShard(cands, 0, static_cast<ColumnId>(ncols), query, mapped_q,
                       jq, topk, qnorms, rnorms, match_map, pruned, witness,
                       stats);
  }

  // Contiguous weight-balanced shard boundaries: cut after a column once
  // the running weight reaches the shard's proportional share. Boundaries
  // depend only on the candidate set and `want`, never on scheduling.
  const size_t nshards = want;
  std::vector<ColumnId> bounds(nshards + 1, static_cast<ColumnId>(ncols));
  bounds[0] = 0;
  {
    uint64_t acc = 0;
    size_t s = 1;
    for (ColumnId c = 0; c < ncols && s < nshards; ++c) {
      acc += cands.weight[c];
      if (acc * nshards >= cands.total_weight * s) {
        bounds[s++] = c + 1;
      }
    }
  }

  // Stages 2 + 3: shards own disjoint match_map/pruned/witness slices, so the
  // fan-out is lock-free (the kTopK bound is the one shared object, and it
  // synchronizes internally); stats merge in shard (= ascending column)
  // order and the first interrupted shard in that order decides the status.
  return FanOut(jq.intra_query_pool, nshards, stats,
                [&](size_t si, SearchStats* shard_stats) {
                  return VerifyShard(cands, bounds[si], bounds[si + 1], query,
                                     mapped_q, jq, topk, qnorms, rnorms,
                                     match_map, pruned, witness, shard_stats);
                });
}

Status VerifyPipeline::VerifyShard(const CandidateSet& cands, ColumnId col_lo,
                                   ColumnId col_hi, const VectorStore& query,
                                   const std::vector<double>& mapped_q,
                                   const JoinQuery& jq, TopKBound* topk,
                                   const float* query_norms,
                                   const float* repo_norms,
                                   std::vector<uint32_t>* match_map,
                                   std::vector<uint8_t>* pruned,
                                   std::vector<VecId>* witness,
                                   SearchStats* stats) const {
  const uint32_t t_abs = jq.EffectiveT();
  const uint32_t l7_t = jq.Lemma7T();
  // A mapping needs every block of a result column resolved.
  const bool exact = jq.exact_counts() || witness != nullptr;
  TileScratch scratch;
  uint64_t shard_blocks = 0;
  Status live = Status::OK();

  // kTopK: verify this shard's columns in descending upper-bound order
  // (candidate-block count = the column's achievable match count), ties by
  // ascending id, so likely winners fill the k-th-best bound first and the
  // strict-beat prune below fires sooner for the rest. Pruning is
  // order-insensitive (a pruned column is outside the top-k under any
  // order), so results are identical to the ascending-id scan; only
  // columns_pruned_topk / distance counters improve.
  const bool by_ub = topk != nullptr;
  std::vector<ColumnId> order;
  if (by_ub) {
    order.reserve(col_hi - col_lo);
    for (ColumnId col = col_lo; col < col_hi; ++col) {
      if (cands.block_begin[col + 1] > cands.block_begin[col]) {
        order.push_back(col);
      }
    }
    std::sort(order.begin(), order.end(), [&](ColumnId a, ColumnId b) {
      const size_t ua = cands.block_begin[a + 1] - cands.block_begin[a];
      const size_t ub = cands.block_begin[b + 1] - cands.block_begin[b];
      if (ua != ub) return ua > ub;
      return a < b;
    });
  }
  const size_t iterations = by_ub ? order.size() : (col_hi - col_lo);

  for (size_t oi = 0; oi < iterations; ++oi) {
    const ColumnId col =
        by_ub ? order[oi] : static_cast<ColumnId>(col_lo + oi);
    // Deadline/cancellation checkpoint: a tripped shard abandons the rest
    // of its column range before dispatching any further tiles.
    live = jq.CheckLive();
    if (!live.ok()) {
      ++stats->deadline_expired;
      break;
    }
    const size_t bb = cands.block_begin[col];
    const size_t be = cands.block_begin[col + 1];
    if (bb == be) continue;
    shard_blocks += be - bb;

    // Lemma 7 counts every record with no block in this column as a
    // mismatch (Lemmas 3/4 are exact), so match + the unresolved pairs
    // bounds the column's count: once it falls below T the column is dead.
    // A column that starts below T dies before its first pair.
    uint32_t match = 0;
    bool joinable = false;
    bool abandoned = false;
    size_t i = bb;
    while (true) {
      const size_t reach = match + (be - i);
      if (reach < l7_t) {
        ++stats->lemma7_kills;
        break;
      }
      if (i == be || (joinable && !exact)) break;
      // Batch size limited so no skip-triggering transition can occur
      // before the batch's last pair (see the class comment): the serial
      // scan and the tiled batch then evaluate exactly the same pairs.
      size_t k = be - i;
      if (topk != nullptr) {
        // kTopK pushdown: each remaining pair is a distinct query record,
        // so `reach` bounds the column's achievable count. Once that can no
        // longer STRICTLY beat the running k-th-best bound the column is
        // out (a tie loses on final rank or leaves the bound unchanged),
        // and every further tile would be wasted work. The bound is re-read
        // per batch, so concurrent shards feed each other.
        const uint32_t bound = topk->bound();
        if (reach < bound) {
          abandoned = true;
          break;
        }
        // Each mismatch lowers reach by one; cap the batch so the prune
        // above re-fires no later than one batch after it could.
        k = std::min<size_t>(k, reach - bound + 1);
      }
      if (!exact) k = std::min<size_t>(k, t_abs - match);
      // Each mismatch lowers reach by one, so Lemma 7 can fire no earlier
      // than the (reach - l7_t + 1)-th pair (never with l7_t = 0).
      k = std::min<size_t>(k, reach - l7_t + 1);
      PEXESO_DCHECK(k >= 1);
      // A mapping query's pair outcomes are its witnesses, written in place.
      VecId* found;
      if (witness != nullptr) {
        found = witness->data() + i;
      } else {
        scratch.found.resize(k);
        found = scratch.found.data();
      }
      EvaluateRun(cands, i, k, query, mapped_q, jq, query_norms, repo_norms,
                  witness != nullptr, &scratch, found, stats);
      // Replay the serial outcome application verbatim.
      for (size_t j = 0; j < k; ++j) {
        if (found[j] == kNoWitness) continue;
        ++match;
        if (match >= t_abs && !joinable) {
          joinable = true;
          ++stats->early_joinable;
          PEXESO_DCHECK(exact || j + 1 == k);
        }
      }
      i += k;
    }
    if (abandoned) {
      ++stats->columns_pruned_topk;
      (*pruned)[col] = 1;
    } else if (topk != nullptr && match >= t_abs) {
      topk->Offer(match);
    }
    (*match_map)[col] = match;
  }
  stats->shard_max_blocks = std::max(stats->shard_max_blocks, shard_blocks);
  return live;
}

void VerifyPipeline::EvaluateRun(const CandidateSet& cands, size_t i,
                                 size_t k, const VectorStore& query,
                                 const std::vector<double>& mapped_q,
                                 const JoinQuery& jq,
                                 const float* query_norms,
                                 const float* repo_norms, bool ascending,
                                 TileScratch* scratch, VecId* found,
                                 SearchStats* stats) const {
  size_t j = 0;
  while (j < k) {
    const CandidateBlock& b = cands.blocks[i + j];
    if (b.range_count == 0) {
      found[j] = kNoWitness;
      ++j;
      continue;
    }
    // Consecutive pairs repeating the same range list (a column confined to
    // few cells probed by many query records) share one gather and become
    // the rows of one many-to-many tile group.
    size_t j2 = j + 1;
    while (j2 < k && SameRanges(cands, b, cands.blocks[i + j2])) ++j2;
    EvaluateGroup(cands, cands.blocks.data() + i + j, j2 - j, query, mapped_q,
                  jq, query_norms, repo_norms, ascending, scratch, found + j,
                  stats);
    j = j2;
  }
}

void VerifyPipeline::EvaluateGroup(const CandidateSet& cands,
                                   const CandidateBlock* group, size_t m,
                                   const VectorStore& query,
                                   const std::vector<double>& mapped_q,
                                   const JoinQuery& jq,
                                   const float* query_norms,
                                   const float* repo_norms, bool ascending,
                                   TileScratch* scratch, VecId* found,
                                   SearchStats* stats) const {
  const uint32_t np = index_->pivots().num_pivots();
  const double tau = jq.thresholds.tau;
  const bool use_l1 = jq.ablation.use_lemma1;
  const VecId* vec_ids = index_->inverted_index().vec_ids().data();

  std::fill(found, found + m, kNoWitness);

  // Gather the shared candidate list once for the whole group. In VecId
  // order, a row's first match is its lowest matching vector: the witness
  // a mapping reports.
  auto& ids = scratch->ids;
  ids.clear();
  const VecIdRange* ranges = cands.ranges.data() + group[0].range_begin;
  for (uint32_t r = 0; r < group[0].range_count; ++r) {
    for (uint32_t t = 0; t < ranges[r].count; ++t) {
      ids.push_back(vec_ids[ranges[r].begin + t]);
    }
  }
  if (ascending) std::sort(ids.begin(), ids.end());
  const size_t nv = ids.size();
  if (nv == 0) return;

  const double* mapped = index_->MappedVec(0);
  const auto mapped_of = [&](size_t c) {
    return mapped + static_cast<size_t>(ids[c]) * np;
  };
  const RangePredicate pred(*index_->metric(), tau);
  const VectorStore& rstore = index_->catalog().store();
  // Algorithm 2's pairs of record q over slots[0..n) that keep(c) accepts;
  // `pairs` sums the distances of every pair-by-pair route.
  uint64_t pairs = 0;
  const auto first_match = [&](uint32_t q, const VecId* slots, size_t n,
                               auto keep) {
    const double qn =
        query_norms != nullptr ? static_cast<double>(query_norms[q]) : 1.0;
    return FirstMatchInPlace(pred, rstore, repo_norms, query.View(q), qn,
                             slots, n, keep, &pairs);
  };
  if (pred.kernels() == nullptr || m * nv <= kTileRows * kTileRows) {
    // No more pairs than one dense block, or a metric without kernels:
    // Algorithm 2 itself, with no mask and no union. Each row walks the
    // candidates in order, tests Lemma 1 on each pair and computes a
    // distance only for a survivor, up to its first match.
    uint64_t filtered = 0;
    for (size_t r = 0; r < m; ++r) {
      const uint32_t q = group[r].query;
      const double* mq = mapped_q.data() + static_cast<size_t>(q) * np;
      const uint32_t c = first_match(q, ids.data(), nv, [&](size_t c) {
        if (!use_l1 || !Lemma1Separates(mq, mapped_of(c), np, tau)) {
          return true;
        }
        ++filtered;
        return false;
      });
      if (c != kNoSlot) found[r] = ids[c];
    }
    stats->lemma1_filtered += filtered;
  } else {
    // Pivot-space pass per row: the Lemma-1 survivor mask. A row with no
    // survivor is mismatched; every other row goes to the distance stage.
    auto& mask = scratch->mask;
    mask.assign(m * nv, 1);
    auto& rows = scratch->rows;
    rows.clear();
    for (size_t r = 0; r < m; ++r) {
      const double* mq =
          mapped_q.data() + static_cast<size_t>(group[r].query) * np;
      bool live = !use_l1;
      if (use_l1) {
        uint8_t* mrow = mask.data() + r * nv;
        for (size_t c = 0; c < nv; ++c) {
          mrow[c] = !Lemma1Separates(mq, mapped_of(c), np, tau);
          live |= mrow[c] != 0;
        }
      }
      if (live) rows.push_back(static_cast<uint32_t>(r));
    }

    // Union of the live rows' survivor sets (never empty: every live row
    // has a survivor): a dense tile evaluates every union slot for every
    // row (rows consult only their own mask afterwards), trading a few
    // wasted slots for dense many-to-many kernel calls.
    auto& uni = scratch->uni;
    uni.clear();
    if (use_l1) {
      auto& um = scratch->union_mask;
      um.assign(nv, 0);
      for (uint32_t r : rows) {
        const uint8_t* mrow = mask.data() + static_cast<size_t>(r) * nv;
        for (size_t c = 0; c < nv; ++c) um[c] |= mrow[c];
      }
      for (size_t c = 0; c < nv; ++c) {
        if (um[c]) uni.push_back(static_cast<uint32_t>(c));
      }
    } else {
      uni.resize(nv);
      for (size_t c = 0; c < nv; ++c) uni[c] = static_cast<uint32_t>(c);
    }

    // Vec-tiles over the union; rows that match in one drop out before the
    // next. A vec-tile of no more pairs than one dense block reads each
    // live row's survivors pair by pair; a larger one runs dense tiles.
    const size_t un = uni.size();
    auto& live = rows;  // unresolved rows, ascending — shrinks per vec-tile
    auto& next_live = scratch->next_rows;
    for (size_t v0 = 0; v0 < un && !live.empty(); v0 += kTileVecs) {
      const size_t vlen = std::min<size_t>(kTileVecs, un - v0);
      auto& slots = scratch->slots;
      slots.resize(vlen);
      for (size_t c = 0; c < vlen; ++c) slots[c] = ids[uni[v0 + c]];
      auto& hits = scratch->hits;
      hits.resize(live.size());
      if (live.size() * vlen <= kTileRows * kTileRows) {
        for (size_t t = 0; t < live.size(); ++t) {
          const uint8_t* mrow = mask.data() + size_t{live[t]} * nv;
          hits[t] = first_match(
              group[live[t]].query, slots.data(), vlen,
              [&](size_t c) { return mrow[uni[v0 + c]] != 0; });
        }
      } else {
        auto& tile = scratch->tile;
        tile.resize(live.size());
        for (size_t t = 0; t < live.size(); ++t) {
          tile[t] = TileRow{group[live[t]].query,
                            mask.data() + static_cast<size_t>(live[t]) * nv};
        }
        SweepTile(tile, slots, uni.data() + v0, query, jq, query_norms,
                  repo_norms, scratch, hits.data(), stats);
      }
      next_live.clear();
      for (size_t t = 0; t < live.size(); ++t) {
        if (hits[t] != kNoSlot) {
          found[live[t]] = slots[hits[t]];
        } else {
          next_live.push_back(live[t]);
        }
      }
      std::swap(live, next_live);
    }

    // Lemma 1 counts what Algorithm 2 would: the failures among the pairs
    // a row reaches before its first match, in candidate order.
    if (use_l1) {
      uint64_t filtered = 0;
      for (size_t r = 0; r < m; ++r) {
        const uint8_t* mrow = mask.data() + r * nv;
        for (size_t c = 0; c < nv && ids[c] != found[r]; ++c) {
          filtered += mrow[c] == 0;
        }
      }
      stats->lemma1_filtered += filtered;
    }
  }
  stats->distance_computations += pairs;
  stats->sqrt_free_comparisons += pairs * pred.sqrt_saved();
}

void VerifyPipeline::SweepTile(std::span<const TileRow> rows,
                               std::span<const VecId> slots,
                               const uint32_t* mask_col,
                               const VectorStore& query, const JoinQuery& jq,
                               const float* query_norms,
                               const float* repo_norms, TileScratch* scratch,
                               uint32_t* first, SearchStats* stats) const {
  const VectorStore& rstore = index_->catalog().store();
  const uint32_t dim = rstore.dim();
  const double tau = jq.thresholds.tau;
  const size_t nslots = slots.size();
  const auto survives = [&](size_t t, size_t c) {
    return rows[t].mask[mask_col[c]] != 0;
  };
  std::fill(first, first + rows.size(), kNoSlot);

  const RangePredicate pred(*index_->metric(), tau);
  const KernelSet* ks = pred.kernels();
  // One contiguous VecId run is viewed in place; other slot lists gather.
  bool contiguous = true;
  for (size_t c = 1; c < nslots && contiguous; ++c) {
    contiguous = slots[c] == slots[0] + c;
  }
  const float* base = rstore.View(slots[0]);
  const float* bnorms = repo_norms != nullptr ? repo_norms + slots[0] : nullptr;
  if (!contiguous) {
    scratch->base.resize(nslots * dim);
    scratch->base_norms.resize(repo_norms != nullptr ? nslots : 0);
    for (size_t c = 0; c < nslots; ++c) {
      std::memcpy(scratch->base.data() + c * dim, rstore.View(slots[c]),
                  dim * sizeof(float));
      if (repo_norms != nullptr) scratch->base_norms[c] = repo_norms[slots[c]];
    }
    base = scratch->base.data();
    bnorms = repo_norms != nullptr ? scratch->base_norms.data() : nullptr;
  }

  // One exact tile per 8-row block; each row takes its first surviving slot
  // within bound.
  const double bound = ks->CmpBound(tau);
  auto& qrows = scratch->qrows;
  auto& qn = scratch->qnorms;
  auto& cmp = scratch->cmp;
  for (size_t r0 = 0; r0 < rows.size(); r0 += kTileRows) {
    const size_t rlen = std::min<size_t>(kTileRows, rows.size() - r0);
    qrows.resize(rlen * dim);
    qn.resize(rlen);
    for (size_t t = 0; t < rlen; ++t) {
      const uint32_t q = rows[r0 + t].query;
      std::memcpy(qrows.data() + t * dim, query.View(q), dim * sizeof(float));
      qn[t] =
          query_norms != nullptr ? static_cast<double>(query_norms[q]) : 1.0;
    }
    cmp.resize(rlen * nslots);
    ks->CmpTileNormed(qrows.data(), qn.data(), base, bnorms, rlen, nslots, dim,
                      cmp.data());
    ++stats->tiles_evaluated;
    const uint64_t pairs = static_cast<uint64_t>(rlen) * nslots;
    stats->distance_computations += pairs;
    stats->sqrt_free_comparisons += pairs * pred.sqrt_saved();
    for (size_t t = 0; t < rlen; ++t) {
      const double* drow = cmp.data() + t * nslots;
      for (size_t c = 0; c < nslots; ++c) {
        if (survives(r0 + t, c) && drow[c] <= bound) {
          first[r0 + t] = static_cast<uint32_t>(c);
          break;
        }
      }
    }
  }
}

}  // namespace pexeso
