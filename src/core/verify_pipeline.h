#ifndef PEXESO_CORE_VERIFY_PIPELINE_H_
#define PEXESO_CORE_VERIFY_PIPELINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/blocker.h"
#include "core/engine.h"
#include "core/pexeso_index.h"

namespace pexeso {

/// \brief One (query record, column) pair emitted by candidate generation:
/// the unit of work the tiled verification stage resolves. It names the
/// postings ranges whose vectors must be checked, in the exact order the
/// serial scan would have visited them.
struct CandidateBlock {
  uint32_t query = 0;        ///< query record index
  uint32_t range_begin = 0;  ///< first VecIdRange of this pair
  uint32_t range_count = 0;  ///< number of ranges
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
  /// Verification cost estimate per column (candidate vector count); drives
  /// the weight-balanced sharding of stage 2.
  std::vector<uint64_t> weight;
  uint64_t total_weight = 0;

  bool empty() const { return blocks.empty(); }
};

/// \brief The staged online verification pipeline: Algorithm 2 restructured
/// from a monolithic per-query DaaT loop into three explicit stages.
///
///   stage 1  candidate generation — a linear two-pass counting scatter
///            of the blocking output's postings emits CandidateBlocks
///            instead of deciding pairs inline, and drops every column
///            with fewer blocks than T (GenerateCandidates);
///   stage 2  tiled verification — columns are sharded into contiguous,
///            weight-balanced ranges across JoinQuery::intra_query_threads
///            workers; each shard replays the serial per-column state
///            machine, batching safe runs of pairs into many-to-many
///            KernelSet tiles (VerifyCandidates);
///   stage 3  deterministic reduction — shards own disjoint match_map
///            slices and private stats, merged in shard (= column) order.
///
/// One definition of Algorithm 2's pairs: a group of no more pairs than one
/// dense 8x8 block (and every group of a metric without kernels) runs
/// pair by pair in place: each row walks the candidates in order, tests
/// Lemma 1 on each pair and computes a distance for each survivor, up to
/// its first match. A larger group masks every row with Lemma 1 and sweeps
/// the union of the survivors in vec-tiles: a vec-tile under one block
/// takes the same per-row loop over each row's survivors, a larger one
/// runs exact float tiles over every slot (SweepTile). Each row takes its
/// first match in candidate order, and on every route Lemma 1 counts the
/// failures a row reaches before it, as Algorithm 2 does.
///
/// Record mappings are stage 2's witnesses: a query that collects them
/// passes VerifyCandidates a per-block witness array, and each resolved
/// block records the VecId its record matched. Lemmas 3/4 are exact, so a
/// record's matches in a column all lie in its block's candidates; the
/// searcher reads each result column's mapping off its blocks.
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
/// Lemma 7: a query record that blocking gave no candidate in a column is a
/// mismatch there (Lemmas 3/4 are exact), so a column's match count can
/// never exceed match + its unresolved pairs. Stage 1 drops a column whose
/// block count is below T; stage 2 kills one the moment match + unresolved
/// pairs falls below T, and on its own would kill a column that starts
/// below T before its first pair. Either way it counts one lemma7_kills.
///
/// kTopK pushdown: shards Offer() each finished column's match count into
/// the shared TopKBound and read the running k-th-best bound back as a
/// dynamic per-column early-exit threshold — a column whose remaining
/// headroom (match + unresolved pairs) can no longer strictly beat the
/// bound is abandoned mid-verification and flagged in `pruned`.
///
/// Deadline/cancellation: shards poll JoinQuery::CheckLive() between
/// columns; a tripped shard abandons its remaining range and
/// VerifyCandidates returns the Cancelled / DeadlineExceeded status (first
/// shard in shard order wins).
///
/// Tile-batching rule: a run of k pending pairs of one column can be
/// evaluated as one batch only when no skip-triggering state transition can
/// occur before its last pair — k <= t_abs - match (early-joinable) and
/// k <= match + unresolved - t_abs + 1 (Lemma 7, each mismatch lowering
/// match + unresolved by one) — so batching never evaluates a pair the
/// serial scan would have skipped.
class VerifyPipeline {
 public:
  /// `index` is borrowed and must outlive the pipeline.
  explicit VerifyPipeline(const PexesoIndex* index) : index_(index) {}

  /// Stage 1. `blocks` is the blocking output for `num_q` query records.
  /// Two passes walk each record's candidate cells over the inverted index's
  /// postings: the first counts blocks and ranges per column, prefix sums
  /// place them, the second writes each (record, column) block at its
  /// column's cursor. A block's ranges follow the order of the record's
  /// candidate cells. A column with fewer than `min_blocks` blocks (the
  /// searcher passes JoinQuery::Lemma7T(), 0 keeps every column) emits
  /// nothing and counts one lemma7_kills: Lemma
  /// 7 counts each record without a block in it as a mismatch, so it
  /// cannot reach T. candidate_blocks counts every block pass 1 found.
  /// Linear in the postings walked; no merge.
  void GenerateCandidates(const BlockResult& blocks, uint32_t num_q,
                          uint32_t min_blocks, CandidateSet* out,
                          SearchStats* stats) const;

  /// VecId of "no witness": the block's record matched nothing.
  static constexpr VecId kNoWitness = UINT32_MAX;

  /// Stages 2 + 3. `match_map` must be sized to the catalog's column count
  /// and zero-initialized; on return match_map[c] holds the (possibly
  /// early-terminated, per the query mode) match count of column c. For
  /// kTopK, `topk` carries the shared running bound and `pruned` (same
  /// size, zero-initialized) flags columns abandoned against it; both must
  /// be null otherwise. `witness`, when non-null, must hold one kNoWitness
  /// per block of `cands`: every column then runs exactly (no early
  /// joinable stop), each group's candidates are checked in ascending VecId
  /// order, and witness[b] becomes the lowest VecId that matches block b's
  /// record, or stays kNoWitness. A column that ends with match >= T has
  /// every block resolved. Returns OK, or the interruption status when a
  /// deadline/cancel checkpoint tripped (match_map is then partial).
  Status VerifyCandidates(const CandidateSet& cands, const VectorStore& query,
                          const std::vector<double>& mapped_q,
                          const JoinQuery& jq, TopKBound* topk,
                          std::vector<uint32_t>* match_map,
                          std::vector<uint8_t>* pruned,
                          std::vector<VecId>* witness,
                          SearchStats* stats) const;

 private:
  struct TileScratch;

  /// Stage-2 worker: verifies columns [col_lo, col_hi), writing only that
  /// slice of match_map (and `pruned`, kTopK; `witness`, mappings) and its
  /// private `stats`.
  Status VerifyShard(const CandidateSet& cands, ColumnId col_lo,
                     ColumnId col_hi, const VectorStore& query,
                     const std::vector<double>& mapped_q, const JoinQuery& jq,
                     TopKBound* topk, const float* query_norms,
                     const float* repo_norms, std::vector<uint32_t>* match_map,
                     std::vector<uint8_t>* pruned, std::vector<VecId>* witness,
                     SearchStats* stats) const;

  /// Resolves pairs blocks[i..i+k) of one column (a safe batch: no
  /// skip-triggering transition can occur before the last pair), writing
  /// each pair's matching VecId, or kNoWitness, to found[0..k). `ascending`
  /// checks each group's candidates in VecId order instead of posting order.
  void EvaluateRun(const CandidateSet& cands, size_t i, size_t k,
                   const VectorStore& query,
                   const std::vector<double>& mapped_q, const JoinQuery& jq,
                   const float* query_norms, const float* repo_norms,
                   bool ascending, TileScratch* scratch, VecId* found,
                   SearchStats* stats) const;

  /// Resolves one group of `m` consecutive pairs of one column sharing an
  /// identical range list: one gather, then, with no more than 8 x 8 pairs
  /// or no kernels, Algorithm 2 pair by pair (Lemma 1, then the distance, up
  /// to each row's first match); otherwise the Lemma-1 pivot pass per row
  /// and vec-tiles over the union of the rows' survivors, each one pair by
  /// pair when under one block and through SweepTile otherwise.
  void EvaluateGroup(const CandidateSet& cands, const CandidateBlock* group,
                     size_t m,
                     const VectorStore& query,
                     const std::vector<double>& mapped_q, const JoinQuery& jq,
                     const float* query_norms, const float* repo_norms,
                     bool ascending, TileScratch* scratch, VecId* found,
                     SearchStats* stats) const;

  /// One row of a SweepTile call: a query record and its Lemma-1 mask row.
  struct TileRow {
    uint32_t query;
    const uint8_t* mask;
  };

  /// The dense tiles of a Lemma-1-masked vec-tile (a metric with kernels):
  /// checks `rows` against `slots` (VecIds of one column; row t takes slot
  /// c only when rows[t].mask[mask_col[c]] marks a Lemma-1 survivor) and
  /// writes each row's first matching slot, or UINT32_MAX, to
  /// first[0..rows.size()). The slots are viewed in place (one contiguous
  /// VecId run) or gathered, one exact CmpTileNormed tile runs per 8-row
  /// block, and each row takes its first surviving slot within bound. A
  /// tile cell equals the one-pair kernel's value bit for bit, so the
  /// pair-by-pair routes take the same decisions.
  void SweepTile(std::span<const TileRow> rows, std::span<const VecId> slots,
                 const uint32_t* mask_col, const VectorStore& query,
                 const JoinQuery& jq,
                 const float* query_norms, const float* repo_norms,
                 TileScratch* scratch, uint32_t* first,
                 SearchStats* stats) const;

  const PexesoIndex* index_;
};

}  // namespace pexeso

#endif  // PEXESO_CORE_VERIFY_PIPELINE_H_
