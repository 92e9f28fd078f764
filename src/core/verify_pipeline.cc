#include "core/verify_pipeline.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
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

/// True when `b` repeats `a`'s exact range list (and is a real candidate
/// pair, not a cell-matched one): such consecutive pairs of one column form
/// one many-to-many tile group sharing a single gather.
bool SameRanges(const CandidateSet& cands, const CandidateBlock& a,
                const CandidateBlock& b) {
  if (b.cell_matched || a.range_count != b.range_count) return false;
  const VecIdRange* ra = cands.ranges.data() + a.range_begin;
  const VecIdRange* rb = cands.ranges.data() + b.range_begin;
  for (uint32_t i = 0; i < a.range_count; ++i) {
    if (ra[i].begin != rb[i].begin || ra[i].count != rb[i].count) return false;
  }
  return true;
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
  std::vector<float> base;         ///< packed candidate rows of the union
  std::vector<float> base_norms;   ///< their cached norms (cosine)
  std::vector<uint32_t> rows;      ///< unresolved row indices (ascending)
  std::vector<uint32_t> next_rows;
  std::vector<uint32_t> tile_rows; ///< rows participating in one vec-tile
  std::vector<float> qrows;        ///< packed query rows of one tile
  std::vector<double> qnorms;      ///< their norms (cosine)
  std::vector<double> cmp;         ///< tile output (comparison space)
  std::vector<uint8_t> matched;    ///< per-run pair outcomes
  std::vector<uint32_t> first_match;  ///< per-query first match (mappings)

  // Quantized pre-filter tier (int8 tiles ahead of the exact float tiles).
  std::vector<int8_t> qcodes;    ///< packed query codes of one row-block
  std::vector<double> qeps;      ///< their quantization error norms
  std::vector<int8_t> cbase;     ///< gathered candidate code rows (vec-tile)
  std::vector<double> cerr;      ///< their stored error norms
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

  struct Cursor {
    std::span<const InvertedIndex::Posting> postings;
    size_t pos = 0;
    bool is_match = false;
  };
  // Emission-order staging; the CSR scatter below regroups by column.
  struct TmpBlock {
    ColumnId column;
    uint32_t query;
    uint32_t range_begin;
    uint32_t range_count;
    uint8_t cell_matched;
  };
  std::vector<Cursor> cursors;
  std::vector<TmpBlock> tmp;
  std::vector<VecIdRange> tmp_ranges;
  using HeapEntry = std::pair<ColumnId, uint32_t>;  // (current column, cursor)
  std::vector<HeapEntry> heap;
  std::vector<uint32_t> active;  // cursors positioned on the current column

  for (uint32_t q = 0; q < num_q; ++q) {
    cursors.clear();
    for (uint32_t cell : blocks.match_cells[q]) {
      auto span = inv.PostingsOf(cell);
      if (!span.empty()) cursors.push_back(Cursor{span, 0, true});
    }
    for (uint32_t cell : blocks.cand_cells[q]) {
      auto span = inv.PostingsOf(cell);
      if (!span.empty()) cursors.push_back(Cursor{span, 0, false});
    }
    if (cursors.empty()) continue;
    // Bulk O(k) heap construction per query record (the old loop pushed
    // entries one by one after an element-wise clear: O(k log k)).
    heap.clear();
    for (uint32_t c = 0; c < cursors.size(); ++c) {
      heap.emplace_back(cursors[c].postings[0].column, c);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    // DaaT: emit the (q, column) pairs in increasing column-id order so each
    // pair appears exactly once even when a column spans many cells.
    while (!heap.empty()) {
      const ColumnId col = heap.front().first;
      active.clear();
      while (!heap.empty() && heap.front().first == col) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        active.push_back(heap.back().second);
        heap.pop_back();
      }
      if (index_->IsDeleted(col)) {
        // Tombstoned postings stay in place until Compact(); emitting
        // blocks for them would skew the shard weights toward columns the
        // verifier is only going to skip.
        for (uint32_t c : active) {
          if (++cursors[c].pos < cursors[c].postings.size()) {
            heap.emplace_back(cursors[c].postings[cursors[c].pos].column, c);
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          }
        }
        continue;
      }
      bool cell_matched = false;
      for (uint32_t c : active) {
        if (cursors[c].is_match) {
          // Lemma 5/6 guaranteed every vector in this cell matches q, and
          // the column has at least one vector here: no ranges needed.
          cell_matched = true;
          break;
        }
      }
      const uint32_t rb = static_cast<uint32_t>(tmp_ranges.size());
      uint32_t rc = 0;
      if (!cell_matched) {
        for (uint32_t c : active) {
          const auto& p = cursors[c].postings[cursors[c].pos];
          if (p.vec_count > 0) {
            tmp_ranges.push_back(VecIdRange{p.vec_begin, p.vec_count});
            ++rc;
          }
        }
      }
      tmp.push_back(
          TmpBlock{col, q, rb, rc, static_cast<uint8_t>(cell_matched)});
      for (uint32_t c : active) {
        if (++cursors[c].pos < cursors[c].postings.size()) {
          heap.emplace_back(cursors[c].postings[cursors[c].pos].column, c);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
  }
  stats->candidate_blocks += tmp.size();

  // CSR scatter by column. Emission order is ascending q (outer loop) with
  // each column at most once per q, so every column's slice lands in
  // ascending query order — the order the serial state machine requires.
  for (const TmpBlock& b : tmp) ++out->block_begin[b.column + 1];
  for (size_t c = 1; c <= ncols; ++c) {
    out->block_begin[c] += out->block_begin[c - 1];
  }
  std::vector<uint32_t> range_begin(ncols + 1, 0);
  for (const TmpBlock& b : tmp) range_begin[b.column + 1] += b.range_count;
  for (size_t c = 1; c <= ncols; ++c) range_begin[c] += range_begin[c - 1];

  out->blocks.resize(tmp.size());
  out->ranges.resize(tmp_ranges.size());
  std::vector<uint32_t> next_block(out->block_begin.begin(),
                                   out->block_begin.end() - 1);
  std::vector<uint32_t> next_range(range_begin.begin(), range_begin.end() - 1);
  for (const TmpBlock& b : tmp) {
    const uint32_t dst = next_block[b.column]++;
    const uint32_t rdst = next_range[b.column];
    next_range[b.column] += b.range_count;
    uint64_t w = b.cell_matched ? 1 : 0;
    for (uint32_t r = 0; r < b.range_count; ++r) {
      out->ranges[rdst + r] = tmp_ranges[b.range_begin + r];
      w += tmp_ranges[b.range_begin + r].count;
    }
    out->blocks[dst] = CandidateBlock{b.query, rdst, b.range_count,
                                      b.cell_matched};
    out->weight[b.column] += w;
    out->total_weight += w;
  }
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

  // Stage 2: shards own disjoint match_map/pruned slices, private stats and
  // private status slots, so the fan-out is lock-free (the kTopK bound is
  // the one shared object, and it synchronizes internally).
  std::vector<SearchStats> shard_stats(nshards);
  std::vector<Status> shard_status(nshards);
  const auto run_shard = [&](size_t si) {
    shard_status[si] =
        VerifyShard(cands, bounds[si], bounds[si + 1], query, mapped_q, jq,
                    topk, qnorms, rnorms, match_map, pruned, &shard_stats[si]);
  };
  if (jq.intra_query_pool != nullptr) {
    // Shared pool: track completion per-search so concurrent searches can
    // interleave shards on the same workers. TaskGroup::Wait does NOT
    // rethrow task exceptions (they land in the pool's error slot, which
    // nothing on this path drains), so a throwing shard would silently
    // leave its match_map slice all-zero — capture and rethrow here
    // instead, matching the transient ParallelFor branch below.
    std::mutex err_mu;
    std::exception_ptr first_error;
    TaskGroup group(jq.intra_query_pool);
    for (size_t si = 0; si < nshards; ++si) {
      group.Submit([&run_shard, &err_mu, &first_error, si] {
        try {
          run_shard(si);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    group.Wait();
    if (first_error) std::rethrow_exception(first_error);
  } else {
    // Transient pool; worker count capped (shard count is not — extra
    // shards just queue, keeping the shard layout a pure function of the
    // options so stats stay deterministic).
    ThreadPool pool(std::min<size_t>(nshards, 64));
    pool.ParallelFor(nshards, run_shard);
  }

  // Stage 3: deterministic reduction — shard stats merge in shard
  // (= ascending column) order, and the first interrupted shard (in the
  // same order) decides the returned status.
  for (const SearchStats& s : shard_stats) *stats += s;
  for (const Status& st : shard_status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
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
    if (b.cell_matched) {
      matched[j] = 1;
      ++j;
      continue;
    }
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
  const VectorStore& rstore = index_->catalog().store();
  const uint32_t dim = rstore.dim();
  const uint32_t np = index_->pivots().num_pivots();
  const double tau = jq.thresholds.tau;
  const bool use_l1 = jq.ablation.use_lemma1;
  const bool use_l2 = jq.ablation.use_lemma2;
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

  // Pivot-space pass per row: Lemma-1 survivor mask, then Lemma-2 pivot
  // matching over the survivors. Rows Lemma-2 resolves never reach the
  // distance stage.
  auto& mask = scratch->mask;
  mask.assign(m * nv, 1);
  auto& rows = scratch->rows;
  rows.clear();
  for (size_t r = 0; r < m; ++r) {
    const double* mq =
        mapped_q.data() + static_cast<size_t>(group[r].query) * np;
    uint8_t* mrow = mask.data() + r * nv;
    size_t survivors = nv;
    if (use_l1) {
      for (size_t c = 0; c < nv; ++c) {
        const double* mx = index_->MappedVec(ids[c]);
        for (uint32_t p = 0; p < np; ++p) {
          const double diff = mq[p] - mx[p];
          if (diff > tau || diff < -tau) {
            mrow[c] = 0;
            --survivors;
            ++stats->lemma1_filtered;
            break;
          }
        }
      }
    }
    if (survivors == 0) continue;  // Lemma 1 cleared the row: mismatched
    if (use_l2) {
      bool row_matched = false;
      for (size_t c = 0; c < nv && !row_matched; ++c) {
        if (!mrow[c]) continue;
        const double* mx = index_->MappedVec(ids[c]);
        for (uint32_t p = 0; p < np; ++p) {
          if (mq[p] + mx[p] <= tau) {
            row_matched = true;
            break;
          }
        }
      }
      if (row_matched) {
        ++stats->lemma2_matched;
        matched[r] = 1;
        continue;
      }
    }
    rows.push_back(static_cast<uint32_t>(r));
  }
  if (rows.empty()) return;

  const RangePredicate pred(*index_->metric(), tau);
  const KernelSet* ks = pred.kernels();
  if (ks == nullptr) {
    // Custom metric without kernels: per-pair fallback, serial semantics.
    for (uint32_t r : rows) {
      const float* qv = query.View(group[r].query);
      const uint8_t* mrow = mask.data() + static_cast<size_t>(r) * nv;
      for (size_t c = 0; c < nv; ++c) {
        if (!mrow[c]) continue;
        ++stats->distance_computations;
        if (pred.Match(qv, rstore.View(ids[c]), dim)) {
          matched[r] = 1;
          break;
        }
      }
    }
    return;
  }

  // Union of the unresolved rows' survivor sets: the tile evaluates every
  // union slot for every row (rows consult only their own mask afterwards),
  // trading a few wasted slots for dense many-to-many kernel calls.
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
  if (uni.empty()) return;  // Lemma 1 cleared every candidate of every row

  const size_t un = uni.size();
  const bool norms = pred.wants_norms();
  const double bound = ks->CmpBound(tau);
  auto& live = rows;  // unresolved rows, ascending — shrinks per vec-tile
  auto& next_live = scratch->next_rows;

  const QuantStore& quant = index_->quant();
  if (jq.ablation.use_quant_prefilter && quant.CompatibleWith(ks->kind)) {
    // Quantized pre-filter tier: an int8 tile classifies every slot as a
    // provable match, a provable miss, or too-close-to-call; only the
    // maybe columns reach the exact float tile. That tile keeps ALL rlen
    // rows of the block — a slot's float kernel value depends only on its
    // row's position category within the block, never on which columns sit
    // beside it — so every float comparison performed is bit-identical to
    // the quant-off run and results cannot drift (the per-block counter
    // invariant distance_computations + quant_tile_skips == rows x slots
    // holds exactly; snapshot_test.cc asserts both).
    const int8_t* codes = quant.codes();
    const float* errs = quant.err();
    for (size_t v0 = 0; v0 < un && !live.empty(); v0 += kTileVecs) {
      const size_t vlen = std::min<size_t>(kTileVecs, un - v0);
      auto& cbase = scratch->cbase;
      cbase.resize(vlen * dim);
      auto& cerr = scratch->cerr;
      cerr.resize(vlen);
      for (size_t c = 0; c < vlen; ++c) {
        const VecId id = ids[uni[v0 + c]];
        std::memcpy(cbase.data() + c * dim,
                    codes + static_cast<size_t>(id) * dim, dim);
        cerr[c] = errs[id];
      }
      next_live.clear();
      for (size_t r0 = 0; r0 < live.size(); r0 += kTileRows) {
        const size_t rlen = std::min<size_t>(kTileRows, live.size() - r0);
        auto& qcodes = scratch->qcodes;
        qcodes.resize(rlen * dim);
        auto& qeps = scratch->qeps;
        qeps.resize(rlen);
        for (size_t t = 0; t < rlen; ++t) {
          const uint32_t q = group[live[r0 + t]].query;
          qeps[t] =
              quant.QuantizeQuery(query.View(q), col, qcodes.data() + t * dim);
        }
        auto& qsum = scratch->qsum;
        qsum.resize(rlen * vlen);
        ks->QuantTile(qcodes.data(), rlen, cbase.data(), vlen, dim,
                      qsum.data());
        // Classify each row's masked slots in ascending order; the first
        // provable match resolves the row outright and the rest of its
        // slots are never named.
        auto& qclass = scratch->qclass;
        qclass.resize(rlen * vlen);
        std::array<uint8_t, kTileRows> defhit{};
        for (size_t t = 0; t < rlen; ++t) {
          const uint32_t r = live[r0 + t];
          const uint8_t* mrow = mask.data() + static_cast<size_t>(r) * nv;
          uint8_t* crow = qclass.data() + t * vlen;
          for (size_t c = 0; c < vlen; ++c) {
            if (!mrow[uni[v0 + c]]) continue;
            const QuantVerdict v = quant.Classify(qsum[t * vlen + c], col,
                                                  qeps[t], cerr[c], tau);
            crow[c] = static_cast<uint8_t>(v);
            if (v == QuantVerdict::kMatch) {
              defhit[t] = 1;
              break;
            }
          }
        }
        // The unresolved rows' maybe slots (deduplicated) form the exact
        // tile's column set.
        auto& need = scratch->need;
        need.clear();
        auto& need_pos = scratch->need_pos;
        need_pos.assign(vlen, UINT32_MAX);
        for (size_t t = 0; t < rlen; ++t) {
          if (defhit[t]) continue;
          const uint32_t r = live[r0 + t];
          const uint8_t* mrow = mask.data() + static_cast<size_t>(r) * nv;
          const uint8_t* crow = qclass.data() + t * vlen;
          for (size_t c = 0; c < vlen; ++c) {
            if (!mrow[uni[v0 + c]]) continue;
            if (crow[c] == kQuantMaybe && need_pos[c] == UINT32_MAX) {
              need_pos[c] = static_cast<uint32_t>(need.size());
              need.push_back(static_cast<uint32_t>(c));
            }
          }
        }
        const size_t ns = need.size();
        if (ns > 0) {
          auto& qrows = scratch->qrows;
          qrows.resize(rlen * dim);
          auto& qn = scratch->qnorms;
          qn.resize(rlen);
          for (size_t t = 0; t < rlen; ++t) {
            const uint32_t q = group[live[r0 + t]].query;
            std::memcpy(qrows.data() + t * dim, query.View(q),
                        dim * sizeof(float));
            qn[t] = query_norms != nullptr
                        ? static_cast<double>(query_norms[q])
                        : 1.0;
          }
          auto& base = scratch->base;
          base.resize(ns * dim);
          for (size_t c = 0; c < ns; ++c) {
            std::memcpy(base.data() + c * dim,
                        rstore.View(ids[uni[v0 + need[c]]]),
                        dim * sizeof(float));
          }
          auto& bnorms = scratch->base_norms;
          if (norms) {
            bnorms.resize(ns);
            for (size_t c = 0; c < ns; ++c) {
              bnorms[c] = repo_norms[ids[uni[v0 + need[c]]]];
            }
          }
          auto& cmp = scratch->cmp;
          cmp.resize(rlen * ns);
          ks->CmpTileNormed(qrows.data(), qn.data(), base.data(),
                            norms ? bnorms.data() : nullptr, rlen, ns, dim,
                            cmp.data());
          ++stats->tiles_evaluated;
          stats->distance_computations += static_cast<uint64_t>(rlen) * ns;
          stats->sqrt_free_comparisons +=
              static_cast<uint64_t>(rlen) * ns * pred.sqrt_saved();
          stats->quant_tile_skips +=
              static_cast<uint64_t>(rlen) * (vlen - ns);
          for (size_t t = 0; t < rlen; ++t) {
            const uint32_t r = live[r0 + t];
            if (defhit[t]) {
              matched[r] = 1;
              continue;
            }
            const uint8_t* mrow = mask.data() + static_cast<size_t>(r) * nv;
            const uint8_t* crow = qclass.data() + t * vlen;
            const double* drow = cmp.data() + t * ns;
            bool hit = false;
            for (size_t c = 0; c < vlen; ++c) {
              if (!mrow[uni[v0 + c]]) continue;
              if (crow[c] != kQuantMaybe) continue;
              if (drow[need_pos[c]] <= bound) {
                hit = true;
                break;
              }
            }
            if (hit) {
              matched[r] = 1;
            } else {
              next_live.push_back(r);
            }
          }
        } else {
          stats->quant_tile_skips += static_cast<uint64_t>(rlen) * vlen;
          for (size_t t = 0; t < rlen; ++t) {
            const uint32_t r = live[r0 + t];
            if (defhit[t]) {
              matched[r] = 1;
            } else {
              next_live.push_back(r);
            }
          }
        }
      }
      std::swap(live, next_live);
    }
    return;
  }

  for (size_t v0 = 0; v0 < un && !live.empty(); v0 += kTileVecs) {
    const size_t vlen = std::min<size_t>(kTileVecs, un - v0);
    // Pack only this vec-tile's union rows (candidate ids are arbitrary,
    // so rows must be gathered out of the store either way) and their
    // cached norms — gathering lazily per tile means a group that resolves
    // in its first tile never copies the rest of a huge union.
    auto& base = scratch->base;
    base.resize(vlen * dim);
    for (size_t c = 0; c < vlen; ++c) {
      std::memcpy(base.data() + c * dim, rstore.View(ids[uni[v0 + c]]),
                  dim * sizeof(float));
    }
    auto& bnorms = scratch->base_norms;
    if (norms) {
      bnorms.resize(vlen);
      for (size_t c = 0; c < vlen; ++c) {
        bnorms[c] = repo_norms[ids[uni[v0 + c]]];
      }
    }
    next_live.clear();
    for (size_t r0 = 0; r0 < live.size(); r0 += kTileRows) {
      const size_t rlen = std::min<size_t>(kTileRows, live.size() - r0);
      auto& qrows = scratch->qrows;
      qrows.resize(rlen * dim);
      auto& qn = scratch->qnorms;
      qn.resize(rlen);
      for (size_t t = 0; t < rlen; ++t) {
        const uint32_t q = group[live[r0 + t]].query;
        std::memcpy(qrows.data() + t * dim, query.View(q),
                    dim * sizeof(float));
        qn[t] = query_norms != nullptr ? static_cast<double>(query_norms[q])
                                       : 1.0;
      }
      auto& cmp = scratch->cmp;
      cmp.resize(rlen * vlen);
      ks->CmpTileNormed(qrows.data(), qn.data(), base.data(),
                        norms ? bnorms.data() : nullptr, rlen, vlen, dim,
                        cmp.data());
      ++stats->tiles_evaluated;
      stats->distance_computations += static_cast<uint64_t>(rlen) * vlen;
      stats->sqrt_free_comparisons +=
          static_cast<uint64_t>(rlen) * vlen * pred.sqrt_saved();
      for (size_t t = 0; t < rlen; ++t) {
        const uint32_t r = live[r0 + t];
        const uint8_t* mrow = mask.data() + static_cast<size_t>(r) * nv;
        const double* crow = cmp.data() + t * vlen;
        bool hit = false;
        for (size_t c = 0; c < vlen; ++c) {
          if (!mrow[uni[v0 + c]]) continue;
          if (crow[c] <= bound) {
            hit = true;
            break;
          }
        }
        if (hit) {
          matched[r] = 1;
        } else {
          next_live.push_back(r);
        }
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
  // One task per result column (columns are the natural independent unit);
  // per-column stats slots merge in column order, so counters are identical
  // to the serial sweep at any thread count. Each slot also records its
  // column's deadline checkpoint outcome; the first tripped column (in
  // column order) decides the returned status.
  std::vector<SearchStats> col_stats(out->size());
  std::vector<Status> col_status(out->size());
  const auto map_one = [&](size_t i) {
    col_status[i] = jq.CheckLive();
    if (!col_status[i].ok()) {
      ++col_stats[i].deadline_expired;
      return;
    }
    TileScratch scratch;
    MapColumn(&(*out)[i], query, mapped_q, jq, qnorms, rnorms, &scratch,
              &col_stats[i]);
  };
  if (jq.intra_query_pool != nullptr) {
    // Same rethrow discipline as VerifyCandidates: TaskGroup::Wait alone
    // would swallow a throwing column sweep.
    std::mutex err_mu;
    std::exception_ptr first_error;
    TaskGroup group(jq.intra_query_pool);
    for (size_t i = 0; i < out->size(); ++i) {
      group.Submit([&map_one, &err_mu, &first_error, i] {
        try {
          map_one(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    group.Wait();
    if (first_error) std::rethrow_exception(first_error);
  } else {
    ThreadPool pool(std::min({want, out->size(), size_t{64}}));
    pool.ParallelFor(out->size(), map_one);
  }
  for (const SearchStats& s : col_stats) *stats += s;
  for (const Status& st : col_status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void VerifyPipeline::MapColumn(JoinableColumn* jc, const VectorStore& query,
                               const std::vector<double>& mapped_q,
                               const JoinQuery& jq,
                               const float* query_norms,
                               const float* repo_norms, TileScratch* scratch,
                               SearchStats* stats) const {
  const VectorStore& rstore = index_->catalog().store();
  const uint32_t dim = rstore.dim();
  const uint32_t np = index_->pivots().num_pivots();
  const double tau = jq.thresholds.tau;
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  const ColumnMeta& meta = index_->catalog().column(jc->column);
  const uint32_t nv = meta.count;
  const RangePredicate pred(*index_->metric(), tau);
  const KernelSet* ks = pred.kernels();
  const QuantStore& quant = index_->quant();
  const bool use_quant = ks != nullptr && jq.ablation.use_quant_prefilter &&
                         quant.CompatibleWith(ks->kind);

  jc->mapping.clear();
  auto& first_match = scratch->first_match;
  first_match.assign(num_q, UINT32_MAX);
  auto& live = scratch->rows;
  live.resize(num_q);
  for (uint32_t q = 0; q < num_q; ++q) live[q] = q;
  auto& next_live = scratch->next_rows;

  // The column's vectors are one contiguous VecId run, so the mapping sweep
  // is a pure many-to-many tile over (query records x column rows) — no
  // gather at all unless Lemma 1 thins a tile below full occupancy.
  for (uint32_t v0 = 0; v0 < nv && !live.empty(); v0 += kTileVecs) {
    const size_t vlen = std::min<size_t>(kTileVecs, nv - v0);
    const float* tile_base = rstore.View(meta.first + v0);
    next_live.clear();

    // Lemma-1 survivor masks of the live rows over this vec-tile (applied
    // unconditionally, matching the serial mapping scan).
    auto& mask = scratch->mask;
    mask.assign(live.size() * vlen, 1);
    for (size_t t = 0; t < live.size(); ++t) {
      const double* mq =
          mapped_q.data() + static_cast<size_t>(live[t]) * np;
      uint8_t* mrow = mask.data() + t * vlen;
      for (size_t c = 0; c < vlen; ++c) {
        const double* mx = index_->MappedVec(meta.first + v0 + c);
        for (uint32_t p = 0; p < np; ++p) {
          const double diff = mq[p] - mx[p];
          if (diff > tau || diff < -tau) {
            mrow[c] = 0;
            ++stats->lemma1_filtered;
            break;
          }
        }
      }
    }

    if (ks == nullptr) {
      // Custom metric fallback: per-pair scan, first match wins.
      for (size_t t = 0; t < live.size(); ++t) {
        const uint32_t q = live[t];
        const float* qv = query.View(q);
        const uint8_t* mrow = mask.data() + t * vlen;
        bool hit = false;
        for (size_t c = 0; c < vlen && !hit; ++c) {
          if (!mrow[c]) continue;
          ++stats->distance_computations;
          if (pred.Match(qv, tile_base + c * dim, dim)) {
            first_match[q] = meta.first + v0 + static_cast<uint32_t>(c);
            hit = true;
          }
        }
        if (!hit) next_live.push_back(q);
      }
      std::swap(live, next_live);
      continue;
    }

    // Rows with at least one survivor in this tile do kernel work; fully
    // filtered rows skip it (the serial scan spent no distances on them
    // either) and simply stay live for the later tiles.
    auto& tile_rows = scratch->tile_rows;  // positions into `live`
    tile_rows.clear();
    for (size_t t = 0; t < live.size(); ++t) {
      const uint8_t* mrow = mask.data() + t * vlen;
      for (size_t c = 0; c < vlen; ++c) {
        if (mrow[c]) {
          tile_rows.push_back(static_cast<uint32_t>(t));
          break;
        }
      }
    }
    if (tile_rows.empty()) continue;  // nobody survives; rows stay live

    // Union of the participating rows' survivors within the tile; full
    // unions run straight over the store, thinned ones are compacted once.
    auto& uni = scratch->uni;
    uni.clear();
    {
      auto& um = scratch->union_mask;
      um.assign(vlen, 0);
      for (uint32_t t : tile_rows) {
        const uint8_t* mrow = mask.data() + static_cast<size_t>(t) * vlen;
        for (size_t c = 0; c < vlen; ++c) um[c] |= mrow[c];
      }
      for (size_t c = 0; c < vlen; ++c) {
        if (um[c]) uni.push_back(static_cast<uint32_t>(c));
      }
    }
    if (uni.empty()) continue;  // unreachable given tile_rows; defensive
    const size_t un = uni.size();
    const bool norms = pred.wants_norms();

    if (use_quant) {
      // Quantized pre-filter over this tile. Mappings must name the FIRST
      // matching vector, so each row records the position of its first
      // provable match (dm); only maybe slots strictly before it need the
      // exact float tile — everything past dm is decided by dm itself. As
      // in EvaluateGroup, the exact tile keeps all rlen rows so every float
      // value is bit-identical to the quant-off sweep.
      const double bound = ks->CmpBound(tau);
      const int8_t* codes = quant.codes();
      const float* errs = quant.err();
      // The column's code rows are contiguous: a full union views them in
      // place, a thinned one gathers once (mirroring the float compaction).
      const int8_t* ucodes =
          codes + static_cast<size_t>(meta.first + v0) * dim;
      auto& cerr = scratch->cerr;
      if (un < vlen) {
        auto& cbase = scratch->cbase;
        cbase.resize(un * dim);
        cerr.resize(un);
        for (size_t c = 0; c < un; ++c) {
          const size_t id = static_cast<size_t>(meta.first) + v0 + uni[c];
          std::memcpy(cbase.data() + c * dim, codes + id * dim, dim);
          cerr[c] = errs[id];
        }
        ucodes = cbase.data();
      } else {
        const float* e = errs + meta.first + v0;
        cerr.assign(e, e + un);
      }
      for (size_t r0 = 0; r0 < tile_rows.size(); r0 += kTileRows) {
        const size_t rlen =
            std::min<size_t>(kTileRows, tile_rows.size() - r0);
        auto& qcodes = scratch->qcodes;
        qcodes.resize(rlen * dim);
        auto& qeps = scratch->qeps;
        qeps.resize(rlen);
        for (size_t t = 0; t < rlen; ++t) {
          const uint32_t q = live[tile_rows[r0 + t]];
          qeps[t] = quant.QuantizeQuery(query.View(q), jc->column,
                                        qcodes.data() + t * dim);
        }
        auto& qsum = scratch->qsum;
        qsum.resize(rlen * un);
        ks->QuantTile(qcodes.data(), rlen, ucodes, un, dim, qsum.data());
        auto& qclass = scratch->qclass;
        qclass.resize(rlen * un);
        std::array<uint32_t, kTileRows> dm;
        dm.fill(UINT32_MAX);
        for (size_t t = 0; t < rlen; ++t) {
          const uint32_t lt = tile_rows[r0 + t];
          const uint8_t* mrow = mask.data() + static_cast<size_t>(lt) * vlen;
          uint8_t* crow = qclass.data() + t * un;
          for (size_t c = 0; c < un; ++c) {
            if (!mrow[uni[c]]) continue;
            const QuantVerdict v = quant.Classify(qsum[t * un + c],
                                                  jc->column, qeps[t],
                                                  cerr[c], tau);
            crow[c] = static_cast<uint8_t>(v);
            if (v == QuantVerdict::kMatch) {
              dm[t] = static_cast<uint32_t>(c);
              break;
            }
          }
        }
        auto& need = scratch->need;
        need.clear();
        auto& need_pos = scratch->need_pos;
        need_pos.assign(un, UINT32_MAX);
        for (size_t t = 0; t < rlen; ++t) {
          const uint32_t lt = tile_rows[r0 + t];
          const uint8_t* mrow = mask.data() + static_cast<size_t>(lt) * vlen;
          const uint8_t* crow = qclass.data() + t * un;
          for (size_t c = 0; c < un && c < dm[t]; ++c) {
            if (!mrow[uni[c]]) continue;
            if (crow[c] == kQuantMaybe && need_pos[c] == UINT32_MAX) {
              need_pos[c] = static_cast<uint32_t>(need.size());
              need.push_back(static_cast<uint32_t>(c));
            }
          }
        }
        const size_t ns = need.size();
        auto& cmp = scratch->cmp;
        if (ns > 0) {
          auto& qrows = scratch->qrows;
          qrows.resize(rlen * dim);
          auto& qn = scratch->qnorms;
          qn.resize(rlen);
          for (size_t t = 0; t < rlen; ++t) {
            const uint32_t q = live[tile_rows[r0 + t]];
            std::memcpy(qrows.data() + t * dim, query.View(q),
                        dim * sizeof(float));
            qn[t] = query_norms != nullptr
                        ? static_cast<double>(query_norms[q])
                        : 1.0;
          }
          auto& base = scratch->base;
          base.resize(ns * dim);
          for (size_t c = 0; c < ns; ++c) {
            std::memcpy(base.data() + c * dim,
                        tile_base + static_cast<size_t>(uni[need[c]]) * dim,
                        dim * sizeof(float));
          }
          auto& bnorms = scratch->base_norms;
          if (norms) {
            bnorms.resize(ns);
            for (size_t c = 0; c < ns; ++c) {
              bnorms[c] = repo_norms[meta.first + v0 + uni[need[c]]];
            }
          }
          cmp.resize(rlen * ns);
          ks->CmpTileNormed(qrows.data(), qn.data(), base.data(),
                            norms ? bnorms.data() : nullptr, rlen, ns, dim,
                            cmp.data());
          ++stats->tiles_evaluated;
          stats->distance_computations += static_cast<uint64_t>(rlen) * ns;
          stats->sqrt_free_comparisons +=
              static_cast<uint64_t>(rlen) * ns * pred.sqrt_saved();
          stats->quant_tile_skips += static_cast<uint64_t>(rlen) * (un - ns);
        } else {
          stats->quant_tile_skips += static_cast<uint64_t>(rlen) * un;
        }
        for (size_t t = 0; t < rlen; ++t) {
          const uint32_t lt = tile_rows[r0 + t];
          const uint32_t q = live[lt];
          const uint8_t* mrow = mask.data() + static_cast<size_t>(lt) * vlen;
          const uint8_t* crow = qclass.data() + t * un;
          const double* drow = ns > 0 ? cmp.data() + t * ns : nullptr;
          for (size_t c = 0; c < un; ++c) {
            if (c == dm[t]) {
              // Everything before dm was a provable miss or an exact-
              // checked maybe that failed, so dm is the first match.
              first_match[q] = meta.first + v0 + uni[c];
              break;
            }
            if (!mrow[uni[c]]) continue;
            if (crow[c] == kQuantMaybe && drow[need_pos[c]] <= bound) {
              first_match[q] = meta.first + v0 + uni[c];
              break;
            }
          }
        }
      }
      next_live.clear();
      for (uint32_t q : live) {
        if (first_match[q] == UINT32_MAX) next_live.push_back(q);
      }
      std::swap(live, next_live);
      continue;
    }

    const float* ubase = tile_base;
    const float* ubnorms =
        norms ? repo_norms + meta.first + v0 : nullptr;
    if (un < vlen) {
      auto& base = scratch->base;
      base.resize(un * dim);
      for (size_t c = 0; c < un; ++c) {
        std::memcpy(base.data() + c * dim, tile_base + uni[c] * dim,
                    dim * sizeof(float));
      }
      ubase = base.data();
      if (norms) {
        auto& bn = scratch->base_norms;
        bn.resize(un);
        for (size_t c = 0; c < un; ++c) {
          bn[c] = repo_norms[meta.first + v0 + uni[c]];
        }
        ubnorms = bn.data();
      }
    }

    const double bound = ks->CmpBound(tau);
    for (size_t r0 = 0; r0 < tile_rows.size(); r0 += kTileRows) {
      const size_t rlen = std::min<size_t>(kTileRows, tile_rows.size() - r0);
      auto& qrows = scratch->qrows;
      qrows.resize(rlen * dim);
      auto& qn = scratch->qnorms;
      qn.resize(rlen);
      for (size_t t = 0; t < rlen; ++t) {
        const uint32_t q = live[tile_rows[r0 + t]];
        std::memcpy(qrows.data() + t * dim, query.View(q),
                    dim * sizeof(float));
        qn[t] = query_norms != nullptr ? static_cast<double>(query_norms[q])
                                       : 1.0;
      }
      auto& cmp = scratch->cmp;
      cmp.resize(rlen * un);
      ks->CmpTileNormed(qrows.data(), qn.data(), ubase, ubnorms, rlen, un,
                        dim, cmp.data());
      ++stats->tiles_evaluated;
      stats->distance_computations += static_cast<uint64_t>(rlen) * un;
      stats->sqrt_free_comparisons +=
          static_cast<uint64_t>(rlen) * un * pred.sqrt_saved();
      for (size_t t = 0; t < rlen; ++t) {
        const uint32_t lt = tile_rows[r0 + t];
        const uint32_t q = live[lt];
        const uint8_t* mrow = mask.data() + static_cast<size_t>(lt) * vlen;
        const double* crow = cmp.data() + t * un;
        for (size_t c = 0; c < un; ++c) {
          if (!mrow[uni[c]]) continue;
          if (crow[c] <= bound) {
            // uni is ascending and vec-tiles scan forward, so this is the
            // column-global first match — the serial mapping's choice.
            first_match[q] = meta.first + v0 + uni[c];
            break;
          }
        }
      }
    }
    // One ordered pass keeps next_live ascending regardless of which rows
    // took part in this tile's kernel work.
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

}  // namespace pexeso
