#ifndef PEXESO_CORE_VERIFY_PIPELINE_H_
#define PEXESO_CORE_VERIFY_PIPELINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/blocker.h"
#include "core/engine.h"
#include "core/join_result.h"
#include "core/pexeso_index.h"

namespace pexeso {

/// \brief One (query record, column) pair emitted by candidate generation:
/// the unit of work the tiled verification stage resolves. `cell_matched`
/// pairs were decided by the blocking lemmas (5/6) alone and carry no
/// ranges; the rest name the postings ranges whose vectors must be checked,
/// in the exact order the serial scan would have visited them.
struct CandidateBlock {
  uint32_t query = 0;        ///< query record index
  uint32_t range_begin = 0;  ///< first VecIdRange of this pair
  uint32_t range_count = 0;  ///< number of ranges
  uint8_t cell_matched = 0;  ///< 1: a Lemma 5/6 match cell decided the pair
};

/// Contiguous run of InvertedIndex::vec_ids() holding one cell's candidate
/// vectors of one column.
struct VecIdRange {
  uint32_t begin = 0;
  uint32_t count = 0;
};

/// \brief Stage-1 output: every (query record, column) pair of the search,
/// CSR-grouped by column with each column's pairs in ascending query order —
/// exactly the order the paper's serial document-at-a-time scan (Algorithm
/// 2) resolves them in. That ordering is what lets stage 2 replay the
/// per-column Lemma-7 / early-joinable state machine bit-for-bit under any
/// shard layout.
struct CandidateSet {
  std::vector<CandidateBlock> blocks;
  std::vector<VecIdRange> ranges;  ///< each block's ranges are contiguous
  /// Blocks of column c occupy [block_begin[c], block_begin[c+1]).
  std::vector<uint32_t> block_begin;
  /// Verification cost estimate per column (candidate vector count, 1 for a
  /// cell-matched pair); drives the weight-balanced sharding of stage 2.
  std::vector<uint64_t> weight;
  uint64_t total_weight = 0;

  bool empty() const { return blocks.empty(); }
};

/// \brief The staged online verification pipeline: Algorithm 2 restructured
/// from a monolithic per-query DaaT loop into three explicit stages.
///
///   stage 1  candidate generation — a linear two-pass counting scatter
///            of the blocking output's postings emits CandidateBlocks
///            instead of deciding pairs inline (GenerateCandidates);
///   stage 2  tiled verification — columns are sharded into contiguous,
///            weight-balanced ranges across JoinQuery::intra_query_threads
///            workers; each shard replays the serial per-column state
///            machine, batching safe runs of pairs into many-to-many
///            KernelSet tiles (VerifyCandidates);
///   stage 3  deterministic reduction — shards own disjoint match_map
///            slices and private stats, merged in shard (= column) order.
///
/// One tile sweep: verification and the record-mapping pass (CollectMappings)
/// both resolve a vec-tile through SweepTile — Lemma-1-masked rows against a
/// slot list, the int8 quant tier first when enabled, then exact float tiles
/// over the slots it cannot decide (a per-pair scan for metrics without
/// kernels). The callers differ in one rule only. Verification needs
/// existence, so a row with a provable int8 match is settled without any
/// float work; a mapping needs the first witness, so the undecided slots
/// before that match are float-checked first.
///
/// Determinism contract: because a column's pairs are always resolved by
/// one shard, in ascending query order, with Lemma-7 kills and t_abs
/// early-joinable upgrades applied between tile batches exactly where the
/// serial scan would apply them, results AND stats counters are identical
/// at every intra_query_threads setting (shard_max_blocks, the imbalance
/// diagnostic, is the one exception by design). kTopK executions keep the
/// RESULT half of the contract — a column pruned against the shared
/// running bound is provably outside the top-k under any schedule — but
/// their work counters (distance_computations, columns_pruned_topk)
/// legitimately vary with execution order.
///
/// kTopK pushdown: shards Offer() each finished column's match count into
/// the shared TopKBound and read the running k-th-best bound back as a
/// dynamic per-column early-exit threshold — a column whose remaining
/// headroom (match + unresolved pairs) can no longer strictly beat the
/// bound is abandoned mid-verification and flagged in `pruned`.
///
/// Deadline/cancellation: shards poll JoinQuery::CheckLive() between
/// columns; a tripped shard abandons its remaining range and
/// VerifyCandidates / CollectMappings return the Cancelled /
/// DeadlineExceeded status (first shard in shard order wins).
///
/// Tile-batching rule: a run of k pending pairs of one column can be
/// evaluated as one batch only when no skip-triggering state transition can
/// occur before its last pair — k <= t_abs - match (early-joinable) and
/// k <= |Q| - t_abs - mismatch + 1 (Lemma-7) — so batching never evaluates
/// a pair the serial scan would have skipped.
class VerifyPipeline {
 public:
  /// `index` is borrowed and must outlive the pipeline.
  explicit VerifyPipeline(const PexesoIndex* index) : index_(index) {}

  /// Stage 1. `blocks` is the blocking output for `num_q` query records.
  /// Two passes walk each record's match cells, then its cand cells, over
  /// the inverted index's postings: the first counts blocks and ranges per
  /// column, prefix sums place them, the second writes each (record,
  /// column) block at its column's cursor. A column in any match cell
  /// gives one cell-matched block without ranges; otherwise the block's
  /// ranges follow the order of the record's cand cells. Tombstoned
  /// columns emit nothing. Linear in the postings walked; no merge.
  void GenerateCandidates(const BlockResult& blocks, uint32_t num_q,
                          CandidateSet* out, SearchStats* stats) const;

  /// Stages 2 + 3. `match_map` must be sized to the catalog's column count
  /// and zero-initialized; on return match_map[c] holds the (possibly
  /// early-terminated, per the query mode) match count of column c. For
  /// kTopK, `topk` carries the shared running bound and `pruned` (same
  /// size, zero-initialized) flags columns abandoned against it; both must
  /// be null otherwise. Returns OK, or the interruption status when a
  /// deadline/cancel checkpoint tripped (match_map is then partial).
  Status VerifyCandidates(const CandidateSet& cands, const VectorStore& query,
                          const std::vector<double>& mapped_q,
                          const JoinQuery& jq, TopKBound* topk,
                          std::vector<uint32_t>* match_map,
                          std::vector<uint8_t>* pruned,
                          SearchStats* stats) const;

  /// Record-level mappings: each joinable column is swept with the same
  /// SweepTile routine as verification, over (query records x the column's
  /// contiguous vector range) with Lemma-1 masking, asking for each record's
  /// first witness rather than mere existence. Parallelizes across result
  /// columns under the same intra-query options, with per-column stats
  /// merged in column order. Returns OK or the interruption status (mappings
  /// are then partial; the caller discards them).
  Status CollectMappings(const VectorStore& query,
                         const std::vector<double>& mapped_q,
                         const JoinQuery& jq,
                         std::vector<JoinableColumn>* out,
                         SearchStats* stats) const;

 private:
  struct TileScratch;

  /// Stage-2 worker: verifies columns [col_lo, col_hi), writing only that
  /// slice of match_map (and `pruned`, kTopK) and its private `stats`.
  Status VerifyShard(const CandidateSet& cands, ColumnId col_lo,
                     ColumnId col_hi, const VectorStore& query,
                     const std::vector<double>& mapped_q, const JoinQuery& jq,
                     TopKBound* topk, const float* query_norms,
                     const float* repo_norms, std::vector<uint32_t>* match_map,
                     std::vector<uint8_t>* pruned, SearchStats* stats) const;

  /// Resolves pairs blocks[i..i+k) of column `col` (a safe batch: no
  /// skip-triggering transition can occur before the last pair), filling
  /// matched[0..k).
  void EvaluateRun(const CandidateSet& cands, ColumnId col, size_t i,
                   size_t k, const VectorStore& query,
                   const std::vector<double>& mapped_q, const JoinQuery& jq,
                   const float* query_norms, const float* repo_norms,
                   TileScratch* scratch, uint8_t* matched,
                   SearchStats* stats) const;

  /// Resolves one group of `m` consecutive pairs of column `col` sharing an
  /// identical range list via gather + masked many-to-many tiles.
  void EvaluateGroup(const CandidateSet& cands, ColumnId col,
                     const CandidateBlock* group, size_t m,
                     const VectorStore& query,
                     const std::vector<double>& mapped_q, const JoinQuery& jq,
                     const float* query_norms, const float* repo_norms,
                     TileScratch* scratch, uint8_t* matched,
                     SearchStats* stats) const;

  /// Mapping sweep of one result column (see CollectMappings).
  void MapColumn(JoinableColumn* jc, const VectorStore& query,
                 const std::vector<double>& mapped_q, const JoinQuery& jq,
                 const float* query_norms, const float* repo_norms,
                 TileScratch* scratch, SearchStats* stats) const;

  /// One row of a SweepTile call: a query record and its Lemma-1 mask row.
  struct TileRow {
    uint32_t query;
    const uint8_t* mask;
  };

  /// The one tile routine behind verification and mappings: checks `rows`
  /// against `slots` (VecIds of column `col`; row t checks slot c only when
  /// rows[t].mask[mask_col[c]] marks a Lemma-1 survivor) and writes each
  /// row's first matching slot, or UINT32_MAX, to first[0..rows.size()).
  /// Runs the int8 tier when the query enables it and the index's codes fit
  /// the metric, then exact CmpTileNormed tiles over the slots it cannot
  /// decide; a metric without kernels takes a per-pair Match scan instead.
  /// With `first_witness` false a provable int8 match settles its row
  /// outright; with it true the undecided slots before that match are
  /// float-checked first, so the answer is the row's first match in slot
  /// order.
  void SweepTile(std::span<const TileRow> rows, std::span<const VecId> slots,
                 const uint32_t* mask_col, ColumnId col, bool first_witness,
                 const VectorStore& query, const JoinQuery& jq,
                 const float* query_norms, const float* repo_norms,
                 TileScratch* scratch, uint32_t* first,
                 SearchStats* stats) const;

  const PexesoIndex* index_;
};

}  // namespace pexeso

#endif  // PEXESO_CORE_VERIFY_PIPELINE_H_
