#include "core/verify_pipeline.h"

#include <algorithm>
#include <array>
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
#include "vec/quant.h"

namespace pexeso {
namespace {

/// Rows per many-to-many tile: matches the 4-row blocking of the kernel
/// tiers (two blocks per tile) while keeping the packed query copy tiny.
constexpr size_t kTileRows = 8;

/// Candidate vectors per tile: bounds the wasted work when a row's match
/// sits early in a huge candidate list (rows that match in one vec-tile
/// drop out before the next), and keeps the tile output cache-resident.
constexpr size_t kTileVecs = 256;

/// Per-column verification states, identical to the serial scan's.
enum : uint8_t { kActive = 0, kJoinable = 1, kDead = 2 };

/// Byte value of QuantVerdict::kMaybe as stored in TileScratch::qclass.
constexpr uint8_t kQuantMaybe = static_cast<uint8_t>(QuantVerdict::kMaybe);

/// SweepTile's "no matching slot" answer (also "no limit" for a row).
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

/// Lemma 1 over one mapped query record `mq` and n candidates, candidate c
/// mapped at mx_of(c): mrow[c] = 0 when some pivot separates the two by
/// more than tau, 1 otherwise. Every pivot is tested without a branch.
/// Returns the number filtered.
template <typename MappedOf>
uint64_t Lemma1Row(const double* mq, uint32_t np, double tau, size_t n,
                   MappedOf mx_of, uint8_t* mrow) {
  uint64_t filtered = 0;
  for (size_t c = 0; c < n; ++c) {
    const double* mx = mx_of(c);
    bool out = false;
    for (uint32_t p = 0; p < np; ++p) out |= std::fabs(mq[p] - mx[p]) > tau;
    mrow[c] = !out;
    filtered += out;
  }
  return filtered;
}

/// Runs task(i, &stats_i) for i in [0, n) on the query's shared intra-query
/// pool when it names one, else on a transient pool of min(n, max_workers,
/// 64) workers (extra tasks just queue, so the task layout stays a pure
/// function of the options). Each task owns a private stats slot and status;
/// slots merge into `stats` in task order and the first non-OK status in the
/// same order is returned, so counters never depend on scheduling. A task
/// exception is rethrown here on both branches: TaskGroup::Wait does not
/// rethrow (the exception lands in the pool's error slot, which nothing on
/// this path drains), so the shared-pool branch captures it itself.
Status FanOut(ThreadPool* shared, size_t n, size_t max_workers,
              SearchStats* stats,
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
    ThreadPool pool(std::min({n, max_workers, size_t{64}}));
    pool.ParallelFor(n, run);
  }
  for (const SearchStats& s : task_stats) *stats += s;
  for (const Status& st : task_status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

/// Reused buffers of one verification shard (or one mapping sweep): gather
/// targets, lemma masks, packed tiles. Everything is cleared per group, so
/// allocations amortize across the whole shard.
struct VerifyPipeline::TileScratch {
  std::vector<VecId> ids;          ///< gathered candidate vector ids
  std::vector<uint8_t> mask;       ///< rows x nv Lemma-1 survivor mask
  std::vector<uint8_t> union_mask; ///< per-candidate any-row-survives
  std::vector<uint32_t> uni;       ///< union survivor indices (ascending)
  std::vector<uint32_t> rows;      ///< unresolved row indices (ascending)
  std::vector<uint32_t> next_rows;
  std::vector<uint8_t> matched;    ///< per-run pair outcomes
  std::vector<uint32_t> first_match;  ///< per-query first match (mappings)

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

  // Quantized pre-filter tier (int8 tiles ahead of the exact float tiles).
  std::vector<int8_t> qcodes;    ///< packed query codes of one row-block
  std::vector<double> qeps;      ///< their quantization error norms
  std::vector<int8_t> cbase;     ///< gathered candidate code rows (vec-tile)
  std::vector<int32_t> qsum;     ///< quant tile output (integer sums)
  std::vector<uint8_t> qclass;   ///< per-slot verdicts of one row-block
  std::vector<uint32_t> need;    ///< maybe columns needing exact re-check
  std::vector<uint32_t> need_pos;  ///< tile column -> index into `need`
};

void VerifyPipeline::GenerateCandidates(const BlockResult& blocks,
                                        uint32_t num_q, CandidateSet* out,
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
  // Calls on_block(q, c) once per live (q, c) pair and on_range(c, posting)
  // per nonempty cand posting, in ascending q and, within a pair, in the
  // order of q's cand_cells. Tombstoned postings stay in place until
  // Compact(); they emit nothing, so the shard weights skip columns the
  // verifier would only skip.
  const auto walk = [&](auto&& on_block, auto&& on_range) {
    std::fill(seen.begin(), seen.end(), UINT32_MAX);
    for (uint32_t q = 0; q < num_q; ++q) {
      for (uint32_t cell : blocks.cand_cells[q]) {
        for (const InvertedIndex::Posting& p : inv.PostingsOf(cell)) {
          if (index_->IsDeleted(p.column)) continue;
          if (seen[p.column] != q) {
            seen[p.column] = q;
            on_block(q, p.column);
          }
          if (p.vec_count > 0) on_range(p.column, p);
        }
      }
    }
  };

  // Pass 1 counts blocks and ranges per column; prefix sums place them.
  // next_range then holds each column's range cursor.
  std::vector<uint32_t> next_range(ncols + 1, 0);
  walk([&](uint32_t, ColumnId c) { ++out->block_begin[c + 1]; },
       [&](ColumnId c, const InvertedIndex::Posting&) {
         ++next_range[c + 1];
       });
  for (size_t c = 1; c <= ncols; ++c) {
    out->block_begin[c] += out->block_begin[c - 1];
    next_range[c] += next_range[c - 1];
  }
  out->blocks.resize(out->block_begin[ncols]);
  out->ranges.resize(next_range[ncols]);
  stats->candidate_blocks += out->blocks.size();

  // Pass 2 writes each block at its column's cursor. Records are walked in
  // ascending order, so every column's slice lands in ascending query order
  // — the order the serial state machine requires — and a block's ranges
  // are contiguous because its column's range cursor only moves for it
  // until the next record.
  std::vector<uint32_t> next_block(out->block_begin.begin(),
                                   out->block_begin.end() - 1);
  walk(
      [&](uint32_t q, ColumnId c) {
        out->blocks[next_block[c]++] = CandidateBlock{q, next_range[c], 0};
      },
      [&](ColumnId c, const InvertedIndex::Posting& p) {
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
                                        SearchStats* stats) const {
  const size_t ncols = index_->catalog().num_columns();
  PEXESO_CHECK(match_map->size() == ncols);
  PEXESO_CHECK((topk != nullptr) == (jq.mode == QueryMode::kTopK));
  // The bound and the pruned flags travel together: a shard abandoning a
  // column against the bound records it in `pruned` unconditionally.
  PEXESO_CHECK((pruned != nullptr) == (topk != nullptr));
  PEXESO_CHECK(pruned == nullptr || pruned->size() == ncols);
  if (cands.empty()) return Status::OK();
  const RangePredicate pred(*index_->metric(), jq.thresholds.tau);
  const float* rnorms =
      pred.wants_norms() ? index_->catalog().store().EnsureNorms() : nullptr;
  const float* qnorms = pred.wants_norms() ? query.EnsureNorms() : nullptr;

  const size_t want = jq.intra_query_threads;
  if (want <= 1) {
    return VerifyShard(cands, 0, static_cast<ColumnId>(ncols), query, mapped_q,
                       jq, topk, qnorms, rnorms, match_map, pruned, stats);
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

  // Stages 2 + 3: shards own disjoint match_map/pruned slices, so the
  // fan-out is lock-free (the kTopK bound is the one shared object, and it
  // synchronizes internally); stats merge in shard (= ascending column)
  // order and the first interrupted shard in that order decides the status.
  return FanOut(jq.intra_query_pool, nshards, nshards, stats,
                [&](size_t si, SearchStats* shard_stats) {
                  return VerifyShard(cands, bounds[si], bounds[si + 1], query,
                                     mapped_q, jq, topk, qnorms, rnorms,
                                     match_map, pruned, shard_stats);
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
                                   SearchStats* stats) const {
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  const uint32_t t_abs = jq.EffectiveT();
  const bool exact = jq.exact_counts();
  const bool use_l7 = jq.ablation.use_lemma7;
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
    if (index_->IsDeleted(col)) continue;

    uint32_t match = 0;
    uint32_t mismatch = 0;
    uint8_t state = kActive;
    bool abandoned = false;
    size_t i = bb;
    while (i < be) {
      if (state == kDead || (state == kJoinable && !exact)) break;
      // Batch size limited so no skip-triggering transition can occur
      // before the batch's last pair (see the class comment): the serial
      // scan and the tiled batch then evaluate exactly the same pairs.
      size_t k = be - i;
      if (topk != nullptr) {
        // kTopK pushdown: each remaining pair is a distinct query record,
        // so match + (be - i) bounds the column's achievable count. Once
        // that can no longer STRICTLY beat the running k-th-best bound the
        // column is out (a tie loses on final rank or leaves the bound
        // unchanged), and every further tile would be wasted work. The
        // bound is re-read per batch, so concurrent shards feed each other.
        const uint32_t bound = topk->bound();
        const uint64_t max_possible = match + (be - i);
        if (max_possible < bound) {
          abandoned = true;
          break;
        }
        // Each mismatch lowers max_possible by one; cap the batch so the
        // prune above re-fires no later than one batch after it could.
        k = std::min<uint64_t>(k, max_possible - bound + 1);
      }
      if (!exact) k = std::min<size_t>(k, t_abs - match);
      if (use_l7) {
        // A kill can only fire once mismatch exceeds num_q - t_abs; with
        // t_abs > num_q (unreachable threshold) the very first mismatch
        // kills, so the headroom clamps to zero and pairs go one at a time.
        const uint32_t headroom =
            num_q - mismatch >= t_abs ? num_q - mismatch - t_abs : 0;
        k = std::min<size_t>(k, static_cast<size_t>(headroom) + 1);
      }
      PEXESO_DCHECK(k >= 1);
      scratch.matched.assign(k, 0);
      EvaluateRun(cands, col, i, k, query, mapped_q, jq, query_norms,
                  repo_norms, &scratch, scratch.matched.data(), stats);
      // Replay the serial outcome application verbatim.
      for (size_t j = 0; j < k; ++j) {
        if (scratch.matched[j]) {
          ++match;
          if (match >= t_abs && state == kActive) {
            state = kJoinable;
            ++stats->early_joinable;
            PEXESO_DCHECK(exact || j + 1 == k);
          }
        } else {
          ++mismatch;
          if (use_l7 && state == kActive && num_q - mismatch < t_abs) {
            state = kDead;
            ++stats->lemma7_kills;
            PEXESO_DCHECK(j + 1 == k);
          }
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

void VerifyPipeline::EvaluateRun(const CandidateSet& cands, ColumnId col,
                                 size_t i, size_t k, const VectorStore& query,
                                 const std::vector<double>& mapped_q,
                                 const JoinQuery& jq,
                                 const float* query_norms,
                                 const float* repo_norms, TileScratch* scratch,
                                 uint8_t* matched, SearchStats* stats) const {
  size_t j = 0;
  while (j < k) {
    const CandidateBlock& b = cands.blocks[i + j];
    if (b.range_count == 0) {
      matched[j] = 0;
      ++j;
      continue;
    }
    // Consecutive pairs repeating the same range list (a column confined to
    // few cells probed by many query records) share one gather and become
    // the rows of one many-to-many tile group.
    size_t j2 = j + 1;
    while (j2 < k && SameRanges(cands, b, cands.blocks[i + j2])) ++j2;
    EvaluateGroup(cands, col, cands.blocks.data() + i + j, j2 - j, query,
                  mapped_q, jq, query_norms, repo_norms, scratch, matched + j,
                  stats);
    j = j2;
  }
}

void VerifyPipeline::EvaluateGroup(const CandidateSet& cands, ColumnId col,
                                   const CandidateBlock* group, size_t m,
                                   const VectorStore& query,
                                   const std::vector<double>& mapped_q,
                                   const JoinQuery& jq,
                                   const float* query_norms,
                                   const float* repo_norms,
                                   TileScratch* scratch, uint8_t* matched,
                                   SearchStats* stats) const {
  const uint32_t np = index_->pivots().num_pivots();
  const double tau = jq.thresholds.tau;
  const bool use_l1 = jq.ablation.use_lemma1;
  const VecId* vec_ids = index_->inverted_index().vec_ids_data();

  // Gather the shared candidate list once for the whole group.
  auto& ids = scratch->ids;
  ids.clear();
  const VecIdRange* ranges = cands.ranges.data() + group[0].range_begin;
  for (uint32_t r = 0; r < group[0].range_count; ++r) {
    for (uint32_t t = 0; t < ranges[r].count; ++t) {
      ids.push_back(vec_ids[ranges[r].begin + t]);
    }
  }
  const size_t nv = ids.size();
  if (nv == 0) return;  // matched[] pre-zeroed by the caller

  // Pivot-space pass per row: the Lemma-1 survivor mask. A row with no
  // survivor is mismatched; every other row goes to the distance stage.
  const double* mapped = index_->MappedVec(0);
  const auto mapped_of = [&](size_t c) {
    return mapped + static_cast<size_t>(ids[c]) * np;
  };
  auto& mask = scratch->mask;
  mask.assign(m * nv, 1);
  auto& rows = scratch->rows;
  rows.clear();
  uint64_t filtered = 0;
  for (size_t r = 0; r < m; ++r) {
    const double* mq =
        mapped_q.data() + static_cast<size_t>(group[r].query) * np;
    if (use_l1) {
      const uint64_t f =
          Lemma1Row(mq, np, tau, nv, mapped_of, mask.data() + r * nv);
      filtered += f;
      if (f == nv) continue;
    }
    rows.push_back(static_cast<uint32_t>(r));
  }
  stats->lemma1_filtered += filtered;
  if (rows.empty()) return;

  // Union of the live rows' survivor sets (never empty: every live row has
  // a survivor): a dense tile evaluates every union slot for every row
  // (rows consult only their own mask afterwards), trading a few wasted
  // slots for dense many-to-many kernel calls; a sub-block sweep reads each
  // row's own survivors only.
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
  // next. Every live row takes part in every vec-tile's sweep.
  const size_t un = uni.size();
  auto& live = rows;  // unresolved rows, ascending — shrinks per vec-tile
  auto& next_live = scratch->next_rows;
  for (size_t v0 = 0; v0 < un && !live.empty(); v0 += kTileVecs) {
    const size_t vlen = std::min<size_t>(kTileVecs, un - v0);
    auto& slots = scratch->slots;
    slots.resize(vlen);
    for (size_t c = 0; c < vlen; ++c) slots[c] = ids[uni[v0 + c]];
    auto& tile = scratch->tile;
    tile.resize(live.size());
    for (size_t t = 0; t < live.size(); ++t) {
      tile[t] = TileRow{group[live[t]].query,
                        mask.data() + static_cast<size_t>(live[t]) * nv};
    }
    auto& hits = scratch->hits;
    hits.resize(live.size());
    SweepTile(tile, slots, uni.data() + v0, col, /*first_witness=*/false,
              query, jq, query_norms, repo_norms, scratch, hits.data(), stats);
    next_live.clear();
    for (size_t t = 0; t < live.size(); ++t) {
      if (hits[t] != kNoSlot) {
        matched[live[t]] = 1;
      } else {
        next_live.push_back(live[t]);
      }
    }
    std::swap(live, next_live);
  }
}

Status VerifyPipeline::CollectMappings(const VectorStore& query,
                                       const std::vector<double>& mapped_q,
                                       const JoinQuery& jq,
                                       std::vector<JoinableColumn>* out,
                                       SearchStats* stats) const {
  if (out->empty() || query.size() == 0) return Status::OK();
  const RangePredicate pred(*index_->metric(), jq.thresholds.tau);
  const float* rnorms =
      pred.wants_norms() ? index_->catalog().store().EnsureNorms() : nullptr;
  const float* qnorms = pred.wants_norms() ? query.EnsureNorms() : nullptr;

  const size_t want = jq.intra_query_threads;
  if (want <= 1 || out->size() == 1) {
    TileScratch scratch;
    for (auto& jc : *out) {
      Status live = jq.CheckLive();
      if (!live.ok()) {
        ++stats->deadline_expired;
        return live;
      }
      MapColumn(&jc, query, mapped_q, jq, qnorms, rnorms, &scratch, stats);
    }
    return Status::OK();
  }
  // One task per result column (columns are the natural independent unit).
  // Each task records its column's deadline checkpoint outcome, so the
  // first tripped column (in column order) decides the returned status.
  return FanOut(jq.intra_query_pool, out->size(), want, stats,
                [&](size_t i, SearchStats* col_stats) {
                  Status live = jq.CheckLive();
                  if (!live.ok()) {
                    ++col_stats->deadline_expired;
                    return live;
                  }
                  TileScratch scratch;
                  MapColumn(&(*out)[i], query, mapped_q, jq, qnorms, rnorms,
                            &scratch, col_stats);
                  return Status::OK();
                });
}

void VerifyPipeline::MapColumn(JoinableColumn* jc, const VectorStore& query,
                               const std::vector<double>& mapped_q,
                               const JoinQuery& jq,
                               const float* query_norms,
                               const float* repo_norms, TileScratch* scratch,
                               SearchStats* stats) const {
  const uint32_t np = index_->pivots().num_pivots();
  const double tau = jq.thresholds.tau;
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  const ColumnMeta& meta = index_->catalog().column(jc->column);
  const uint32_t nv = meta.count;

  jc->mapping.clear();
  auto& first_match = scratch->first_match;
  first_match.assign(num_q, UINT32_MAX);
  auto& live = scratch->rows;
  live.resize(num_q);
  for (uint32_t q = 0; q < num_q; ++q) live[q] = q;
  auto& next_live = scratch->next_rows;

  // The column's vectors are one contiguous VecId run, so the mapping sweep
  // is a many-to-many tile over (query records x column rows) that views
  // the store in place while a tile's Lemma-1 survivors stay contiguous.
  for (uint32_t v0 = 0; v0 < nv && !live.empty(); v0 += kTileVecs) {
    const size_t vlen = std::min<size_t>(kTileVecs, nv - v0);

    // Lemma-1 survivor masks of the live rows over this vec-tile (applied
    // unconditionally, matching the serial mapping scan).
    auto& mask = scratch->mask;
    mask.resize(live.size() * vlen);
    const double* mapped = index_->MappedVec(meta.first + v0);
    const auto mapped_of = [&](size_t c) { return mapped + c * np; };
    for (size_t t = 0; t < live.size(); ++t) {
      const double* mq =
          mapped_q.data() + static_cast<size_t>(live[t]) * np;
      stats->lemma1_filtered += Lemma1Row(mq, np, tau, vlen, mapped_of,
                                          mask.data() + t * vlen);
    }

    // Rows with at least one survivor in this tile do the work; fully
    // filtered rows skip it (the serial scan spent no distances on them
    // either) and simply stay live for the later tiles.
    auto& tile = scratch->tile;
    tile.clear();
    for (size_t t = 0; t < live.size(); ++t) {
      const uint8_t* mrow = mask.data() + t * vlen;
      if (std::find(mrow, mrow + vlen, uint8_t{1}) != mrow + vlen) {
        tile.push_back(TileRow{live[t], mrow});
      }
    }
    if (tile.empty()) continue;  // nobody survives; rows stay live

    // Union of the participating rows' survivors within the tile.
    auto& um = scratch->union_mask;
    um.assign(vlen, 0);
    for (const TileRow& row : tile) {
      for (size_t c = 0; c < vlen; ++c) um[c] |= row.mask[c];
    }
    auto& uni = scratch->uni;
    uni.clear();
    auto& slots = scratch->slots;
    slots.clear();
    for (size_t c = 0; c < vlen; ++c) {
      if (!um[c]) continue;
      uni.push_back(static_cast<uint32_t>(c));
      slots.push_back(meta.first + v0 + static_cast<VecId>(c));
    }

    auto& hits = scratch->hits;
    hits.resize(tile.size());
    SweepTile(tile, slots, uni.data(), jc->column, /*first_witness=*/true,
              query, jq, query_norms, repo_norms, scratch, hits.data(), stats);
    // Slots ascend and vec-tiles scan forward, so a row's first hit is its
    // column-global first match — the serial mapping's choice.
    for (size_t t = 0; t < tile.size(); ++t) {
      if (hits[t] != kNoSlot) first_match[tile[t].query] = slots[hits[t]];
    }
    // One ordered pass keeps next_live ascending regardless of which rows
    // took part in this tile's work.
    next_live.clear();
    for (uint32_t q : live) {
      if (first_match[q] == UINT32_MAX) next_live.push_back(q);
    }
    std::swap(live, next_live);
  }

  for (uint32_t q = 0; q < num_q; ++q) {
    if (first_match[q] != UINT32_MAX) {
      jc->mapping.push_back(RecordMatch{q, first_match[q]});
    }
  }
  // The mapping sweep resolves every query record exactly, so upgrade the
  // (possibly early-terminated) counters to the exact joinability.
  jc->match_count = static_cast<uint32_t>(jc->mapping.size());
  jc->joinability =
      static_cast<double>(jc->match_count) / static_cast<double>(num_q);
}

void VerifyPipeline::SweepTile(std::span<const TileRow> rows,
                               std::span<const VecId> slots,
                               const uint32_t* mask_col, ColumnId col,
                               bool first_witness, const VectorStore& query,
                               const JoinQuery& jq, const float* query_norms,
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
  if (ks == nullptr || rows.size() * nslots <= kTileRows * kTileRows) {
    // No more pairs than one dense block, or a metric without kernels: each
    // row reads its Lemma-1 survivors in place, in slot order, up to its
    // first match — the pairs Algorithm 2 computes, with no gather, no
    // int8 tier and no tile. Cmp1Normed equals the tile's cell bit for bit,
    // so the routing never changes a decision; it does not look at the
    // quant option, so distances + quant skips stay equal to the quant-off
    // distances.
    uint64_t pairs = 0;
    for (size_t t = 0; t < rows.size(); ++t) {
      const uint32_t q = rows[t].query;
      const float* qv = query.View(q);
      const double qn =
          query_norms != nullptr ? static_cast<double>(query_norms[q]) : 1.0;
      for (size_t c = 0; c < nslots; ++c) {
        if (!survives(t, c)) continue;
        const VecId id = slots[c];
        const double rn =
            repo_norms != nullptr ? static_cast<double>(repo_norms[id]) : 1.0;
        ++pairs;
        if (pred.MatchNormed(qv, rstore.View(id), dim, qn, rn)) {
          first[t] = static_cast<uint32_t>(c);
          break;
        }
      }
    }
    stats->distance_computations += pairs;
    stats->sqrt_free_comparisons += pairs * pred.sqrt_saved();
    return;
  }

  // One contiguous VecId run is viewed in place; other slot lists gather.
  bool contiguous = true;
  for (size_t c = 1; c < nslots && contiguous; ++c) {
    contiguous = slots[c] == slots[0] + c;
  }
  const QuantStore& quant = index_->quant();
  const float* errs = quant.err();
  const bool use_quant =
      jq.ablation.use_quant_prefilter && quant.CompatibleWith(ks->kind);
  const double bound = ks->CmpBound(tau);
  // Exact-tile operands: without the int8 tier every slot, set once per
  // vec-tile; with it, each row-block's maybe slots.
  const float* base = nullptr;
  const float* bnorms = nullptr;
  // Packs slots pick[0..n) (the first n slots when `pick` is null) into
  // the exact-tile operands.
  const auto gather_floats = [&](const uint32_t* pick, size_t n) {
    scratch->base.resize(n * dim);
    scratch->base_norms.resize(repo_norms != nullptr ? n : 0);
    for (size_t c = 0; c < n; ++c) {
      const VecId id = slots[pick != nullptr ? pick[c] : c];
      std::memcpy(scratch->base.data() + c * dim, rstore.View(id),
                  dim * sizeof(float));
      if (repo_norms != nullptr) scratch->base_norms[c] = repo_norms[id];
    }
    base = scratch->base.data();
    bnorms = repo_norms != nullptr ? scratch->base_norms.data() : nullptr;
  };
  const int8_t* codes = nullptr;
  if (use_quant) {
    codes = quant.codes() + static_cast<size_t>(slots[0]) * dim;
    if (!contiguous) {
      scratch->cbase.resize(nslots * dim);
      for (size_t c = 0; c < nslots; ++c) {
        std::memcpy(scratch->cbase.data() + c * dim,
                    quant.codes() + static_cast<size_t>(slots[c]) * dim, dim);
      }
      codes = scratch->cbase.data();
    }
  } else if (contiguous) {
    base = rstore.View(slots[0]);
    bnorms = repo_norms != nullptr ? repo_norms + slots[0] : nullptr;
  } else {
    gather_floats(nullptr, nslots);
  }

  for (size_t r0 = 0; r0 < rows.size(); r0 += kTileRows) {
    const size_t rlen = std::min<size_t>(kTileRows, rows.size() - r0);
    // Row t float-checks slots [0, limit[t]); dm[t] is its first provable
    // int8 match, its answer when no float hit comes first.
    std::array<uint32_t, kTileRows> dm;
    dm.fill(kNoSlot);
    std::array<uint32_t, kTileRows> limit;
    limit.fill(kNoSlot);
    size_t ns = nslots;  // exact-tile columns
    auto& need = scratch->need;
    auto& need_pos = scratch->need_pos;
    if (use_quant) {
      // Quantized pre-filter: an int8 tile classifies every slot as a
      // provable match, a provable miss, or too-close-to-call; only maybe
      // slots reach the exact float tile. That tile keeps ALL rlen rows of
      // the block — a tile cell equals the one-pair kernel value, whatever
      // rows and columns sit beside it — so every float comparison
      // performed is bit-identical to the quant-off run, and
      // distance_computations + quant_tile_skips equals the quant-off
      // distance count exactly (snapshot_test.cc and pipeline_test.cc
      // assert both).
      auto& qcodes = scratch->qcodes;
      qcodes.resize(rlen * dim);
      auto& qeps = scratch->qeps;
      qeps.resize(rlen);
      for (size_t t = 0; t < rlen; ++t) {
        qeps[t] = quant.QuantizeQuery(query.View(rows[r0 + t].query), col,
                                      qcodes.data() + t * dim);
      }
      auto& qsum = scratch->qsum;
      qsum.resize(rlen * nslots);
      ks->QuantTile(qcodes.data(), rlen, codes, nslots, dim, qsum.data());
      // Classify each row's surviving slots in ascending order up to its
      // first provable match; later slots are never named.
      auto& qclass = scratch->qclass;
      qclass.resize(rlen * nslots);
      for (size_t t = 0; t < rlen; ++t) {
        uint8_t* crow = qclass.data() + t * nslots;
        for (size_t c = 0; c < nslots; ++c) {
          if (!survives(r0 + t, c)) continue;
          const QuantVerdict v = quant.Classify(qsum[t * nslots + c], col,
                                                qeps[t], errs[slots[c]], tau);
          crow[c] = static_cast<uint8_t>(v);
          if (v == QuantVerdict::kMatch) {
            dm[t] = static_cast<uint32_t>(c);
            break;
          }
        }
        // The one rule that differs between the callers: existence is
        // settled by the int8 match itself, while a first witness needs
        // the maybe slots before it float-checked.
        limit[t] = first_witness || dm[t] == kNoSlot ? dm[t] : 0;
      }
      // The rows' maybe slots below their limits (deduplicated) form the
      // exact tile's column set.
      need.clear();
      need_pos.assign(nslots, kNoSlot);
      for (size_t t = 0; t < rlen; ++t) {
        const uint8_t* crow = qclass.data() + t * nslots;
        for (size_t c = 0; c < nslots && c < limit[t]; ++c) {
          if (survives(r0 + t, c) && crow[c] == kQuantMaybe &&
              need_pos[c] == kNoSlot) {
            need_pos[c] = static_cast<uint32_t>(need.size());
            need.push_back(static_cast<uint32_t>(c));
          }
        }
      }
      ns = need.size();
      stats->quant_tile_skips += static_cast<uint64_t>(rlen) * (nslots - ns);
      if (ns > 0) gather_floats(need.data(), ns);
    }

    auto& cmp = scratch->cmp;
    if (ns > 0) {
      auto& qrows = scratch->qrows;
      qrows.resize(rlen * dim);
      auto& qn = scratch->qnorms;
      qn.resize(rlen);
      for (size_t t = 0; t < rlen; ++t) {
        const uint32_t q = rows[r0 + t].query;
        std::memcpy(qrows.data() + t * dim, query.View(q),
                    dim * sizeof(float));
        qn[t] = query_norms != nullptr ? static_cast<double>(query_norms[q])
                                       : 1.0;
      }
      cmp.resize(rlen * ns);
      ks->CmpTileNormed(qrows.data(), qn.data(), base, bnorms, rlen, ns, dim,
                        cmp.data());
      ++stats->tiles_evaluated;
      stats->distance_computations += static_cast<uint64_t>(rlen) * ns;
      stats->sqrt_free_comparisons +=
          static_cast<uint64_t>(rlen) * ns * pred.sqrt_saved();
    }
    for (size_t t = 0; t < rlen; ++t) {
      first[r0 + t] = dm[t];
      const uint8_t* crow =
          use_quant ? scratch->qclass.data() + t * nslots : nullptr;
      const double* drow = cmp.data() + t * ns;
      for (size_t c = 0; c < nslots && c < limit[t]; ++c) {
        if (!survives(r0 + t, c)) continue;
        if (use_quant && crow[c] != kQuantMaybe) continue;
        if (drow[use_quant ? need_pos[c] : c] <= bound) {
          first[r0 + t] = static_cast<uint32_t>(c);
          break;
        }
      }
    }
  }
}

}  // namespace pexeso
