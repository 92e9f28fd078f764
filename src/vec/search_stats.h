#ifndef PEXESO_VEC_SEARCH_STATS_H_
#define PEXESO_VEC_SEARCH_STATS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

namespace pexeso {

/// How a SearchStats field combines across parts, shards and queries.
enum class StatMerge : uint8_t { kSum, kMax };

/// One SearchStats table entry, as ForEachField hands it out.
struct StatField {
  uint16_t id;       ///< stable wire id: the DONE block's tag
  const char* name;  ///< stable exported name: STATS and `--stats` lines
  StatMerge merge;
};

/// \brief The one definition of every SearchStats field, as
/// X(wire id, type, member, exported name, merge rule). The members,
/// operator+=, the server's STATS lines, the CLI's `--stats` lines and the
/// tagged DONE block are all expanded from it. Ids and names are a contract
/// between builds (vec_test pins them): a new counter takes a fresh id and
/// name; never renumber, rename or reuse an entry. Every type is 8 bytes, so
/// a value travels as its 64 bits.
#define PEXESO_SEARCH_STATS_FIELDS(X)                                         \
  /* Exact d(.,.) evaluations in the original (embedding) space. The tiled    \
     verification pipeline counts every tile slot it evaluates (a tile may    \
     cover slots the per-pair scan would have skipped after an early          \
     match); the count is deterministic for a given (query, options) at       \
     any thread count, but not comparable pair-for-pair with the              \
     pre-pipeline scan. */                                                    \
  X(1, uint64_t, distance_computations, "search_distance_computations", kSum) \
  /* Of those, evaluations answered in the squared-distance comparison        \
     space (kernel shortcut): the inequality against tau^2 saved the          \
     per-pair sqrt that a full distance would have cost. */                   \
  X(2, uint64_t, sqrt_free_comparisons, "search_sqrt_free_comparisons", kSum) \
  /* Vector pairs ruled out by Lemma 1 (pivot filtering) during               \
     verification. */                                                         \
  X(3, uint64_t, lemma1_filtered, "search_lemma1_filtered", kSum)             \
  /* Vector pairs confirmed by Lemma 2 (pivot matching) without distance. */  \
  X(4, uint64_t, lemma2_matched, "search_lemma2_matched", kSum)               \
  /* Cell pairs pruned by Lemmas 3/4 during blocking. */                      \
  X(5, uint64_t, cells_filtered, "search_cells_filtered", kSum)               \
  /* Cell pairs fully matched by Lemmas 5/6 during blocking. */               \
  X(6, uint64_t, cells_matched, "search_cells_matched", kSum)                 \
  /* Candidate (query vector, leaf cell) pairs emitted by blocking. */        \
  X(7, uint64_t, candidate_pairs, "search_candidate_pairs", kSum)             \
  /* Matching (query vector, leaf cell) pairs emitted by blocking. */         \
  X(8, uint64_t, matching_pairs, "search_matching_pairs", kSum)               \
  /* Columns skipped by the Lemma 7 early-termination rule. */                \
  X(9, uint64_t, lemma7_kills, "search_lemma7_kills", kSum)                   \
  /* Columns confirmed joinable before exhausting their candidates. */        \
  X(10, uint64_t, early_joinable, "search_early_joinable", kSum)              \
  /* (query record, column) pairs emitted by stage 1 of the verification      \
     pipeline (candidate generation). */                                      \
  X(11, uint64_t, candidate_blocks, "search_candidate_blocks", kSum)          \
  /* Many-to-many kernel tiles dispatched by stage 2 (tiled verification).    \
     Tile shapes depend only on the candidate set and the search options,     \
     never on the shard layout, so the count is identical at any              \
     intra-query thread count. */                                             \
  X(12, uint64_t, tiles_evaluated, "search_tiles_evaluated", kSum)            \
  /* Exact float tile slots skipped because the int8 quantized pre-filter     \
     tier decided the pair conservatively (definite match or definite miss    \
     with calibrated slack). Each skip is a distance computation the float    \
     tier never ran; like tiles_evaluated it is independent of the shard      \
     layout and thread count. */                                              \
  X(13, uint64_t, quant_tile_skips, "search_quant_tile_skips", kSum)          \
  /* Largest number of candidate blocks any one verification shard owned —    \
     a shard-imbalance diagnostic. Unlike every other counter this merges     \
     by MAX (a sum would be meaningless across shards/queries) and it         \
     naturally varies with intra_query_threads. */                            \
  X(14, uint64_t, shard_max_blocks, "search_shard_max_blocks", kMax)          \
  /* Columns abandoned by the kTopK pushdown because they provably could      \
     not beat the running k-th-best joinability bound. The bound evolves      \
     with execution order, so unlike the pipeline counters above this one     \
     legitimately varies with the intra-query thread count (results never     \
     do — a pruned column is outside the top-k under any schedule). */        \
  X(15, uint64_t, columns_pruned_topk, "search_columns_pruned_topk", kSum)    \
  /* Checkpoints at which a search stage stopped because the query's          \
     deadline had passed or its CancelToken fired (engine entry, shard        \
     column loops, per-partition and per-part-task checks all count one       \
     each when they trip). */                                                 \
  X(16, uint64_t, deadline_expired, "search_deadline_expired", kSum)          \
  /* Columns searched in live-lake delta indexes (appended-but-unmerged       \
     data) rather than base snapshots — how much of the answer came from      \
     fresh ingest. */                                                         \
  X(17, uint64_t, delta_columns_searched,                                     \
    "search_delta_columns_searched", kSum)                                    \
  /* Result columns removed by tombstone masking (dropped columns still       \
     present in a base/delta snapshot awaiting merge). */                     \
  X(18, uint64_t, tombstones_masked, "search_tombstones_masked", kSum)        \
  /* Transient-IO retries taken while loading base snapshots for this         \
     search (each backoff-then-retry counts one; a search that needed none    \
     reads 0). */                                                             \
  X(19, uint64_t, io_retries, "search_io_retries", kSum)                      \
  /* Snapshot loads that failed with Corruption during this search — bad      \
     bytes detected by the CRC/bounds checks, not environment flakiness. */   \
  X(20, uint64_t, corruption_detected, "search_corruption_detected", kSum)    \
  /* Quarantined parts this search encountered (served from deltas only;      \
     their base was moved aside by recovery or fsck). */                      \
  X(21, uint64_t, parts_quarantined, "search_parts_quarantined", kSum)        \
  /* Degraded parts this search encountered (merge retries exhausted; the     \
     part keeps serving its base+deltas while parked). */                     \
  X(22, uint64_t, degraded_merges, "search_degraded_merges", kSum)            \
  /* Queries answered with results known to be partial: some part failed      \
     to load or was quarantined, its error was surfaced per-part, and the     \
     rest of the answer was returned anyway. */                               \
  X(23, uint64_t, partial_responses, "search_partial_responses", kSum)        \
  /* Shard attempts dispatched by a scatter-gather coordinator (initial       \
     scatters plus failover retries plus hedged duplicates all count one      \
     each) — total remote/virtual work fanned out, not queries. */            \
  X(24, uint64_t, scatters, "search_shard_scatters", kSum)                    \
  /* Cross-shard topk_floor raises published: a local k-th-best raised the    \
     shared global floor cell (on a shard: publishes into its floor link;     \
     on a coordinator's remote router: floor-update frames pushed to          \
     still-running shards). Like columns_pruned_topk this legitimately        \
     varies with scheduling; results never do. */                             \
  X(25, uint64_t, floor_updates_sent, "search_floor_updates_sent", kSum)      \
  /* Cross-shard topk_floor raises adopted: a part/attempt seeded its         \
     local bound from a global floor value above what it knew locally (on     \
     the coordinator's remote router: floor-update frames received from       \
     shards). */                                                              \
  X(26, uint64_t, floor_updates_received,                                     \
    "search_floor_updates_received", kSum)                                    \
  /* Hedged (straggler re-dispatch) attempts: a replica was dispatched as     \
     a duplicate because the primary attempt exceeded the hedge latency       \
     threshold; first finisher wins and the loser is cancelled. */            \
  X(27, uint64_t, hedged_requests, "search_hedged_requests", kSum)            \
  /* Failovers: a shard attempt failed with a transient/internal error and    \
     the coordinator retried the shard on the next replica. */                \
  X(28, uint64_t, failovers, "search_failovers", kSum)                        \
  /* Shards with no healthy replica left: their parts were surfaced as        \
     per-part errors via OnPartStatus and the answer returned degraded. */    \
  X(29, uint64_t, shards_degraded, "search_shards_degraded", kSum)            \
  /* Wire bytes the coordinator's remote attempts moved (sent + received      \
     across all shard connections of the queries summed here; 0 for           \
     virtual/in-process shards). */                                           \
  X(30, uint64_t, shard_bytes_moved, "search_shard_bytes_moved", kSum)        \
  /* Wall-clock seconds of the blocking phase. */                             \
  X(31, double, block_seconds, "search_block_seconds", kSum)                  \
  /* Wall-clock seconds of the verification phase: stages 2-3 of the         \
     pipeline plus the mapping sweep (stage 1 has its own field below). */    \
  X(32, double, verify_seconds, "search_verify_seconds", kSum)                \
  /* Wall-clock seconds of stage 1 of the verification pipeline (candidate    \
     generation over the blocking output's postings). */                      \
  X(33, double, candidate_seconds, "search_candidate_seconds", kSum)

/// \brief Instrumentation counters shared by every searcher. Figure 6a of
/// the paper compares the number of exact distance computations per method;
/// each searcher fills these in so the benchmark can reproduce that figure.
struct SearchStats {
#define PEXESO_STATS_MEMBER(id, type, member, name, merge) type member = 0;
  PEXESO_SEARCH_STATS_FIELDS(PEXESO_STATS_MEMBER)
#undef PEXESO_STATS_MEMBER

  void Reset() { *this = SearchStats{}; }

  SearchStats& operator+=(const SearchStats& o) {
#define PEXESO_STATS_MERGE(id, type, member, name, merge)                    \
  member = StatMerge::merge == StatMerge::kMax ? std::max(member, o.member) \
                                               : member + o.member;
    PEXESO_SEARCH_STATS_FIELDS(PEXESO_STATS_MERGE)
#undef PEXESO_STATS_MERGE
    return *this;
  }

  /// Calls fn(StatField, value) for every field in table order; `value` is
  /// the member itself, a uint64_t or a double.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define PEXESO_STATS_VISIT(id, type, member, name, merge) \
  fn(StatField{id, name, StatMerge::merge}, member);
    PEXESO_SEARCH_STATS_FIELDS(PEXESO_STATS_VISIT)
#undef PEXESO_STATS_VISIT
  }

  /// Sets the field with wire id `id` from its 64 value bits. Returns false,
  /// changing nothing, for an id this build does not know.
  bool SetFieldBits(uint16_t id, uint64_t bits) {
    switch (id) {
#define PEXESO_STATS_SET(id_, type, member, name, merge) \
  case id_:                                             \
    member = std::bit_cast<type>(bits);                 \
    return true;
      PEXESO_SEARCH_STATS_FIELDS(PEXESO_STATS_SET)
#undef PEXESO_STATS_SET
    }
    return false;
  }
};

/// Appends one "name value" line per SearchStats field in table order:
/// counters as integers, seconds with six decimals.
inline void AppendStatLines(const SearchStats& stats, std::string* out) {
  stats.ForEachField([out](const StatField& f, auto value) {
    out->append(f.name).append(" ").append(std::to_string(value)).append("\n");
  });
}

}  // namespace pexeso

#endif  // PEXESO_VEC_SEARCH_STATS_H_
