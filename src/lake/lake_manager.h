#ifndef PEXESO_LAKE_LAKE_MANAGER_H_
#define PEXESO_LAKE_LAKE_MANAGER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "lake/delta_index.h"
#include "lake/tombstone_set.h"
#include "partition/partitioned_pexeso.h"
#include "partition/partitioner.h"
#include "serve/index_cache.h"

namespace pexeso::lake {

/// \brief LakeManager configuration.
struct LakeOptions {
  /// Index construction parameters, shared by the initial build, every
  /// delta build and every merge — the invariant that makes a merged part
  /// bit-identical to a from-scratch build over the same columns.
  PexesoOptions index_options;
  /// THE delta-size knob: a part whose active delta reaches this many
  /// columns is frozen automatically (appends then start a new delta and
  /// the frozen one becomes mergeable). Smaller = cheaper per-append delta
  /// rebuilds and fresher bases, but more merges; larger = the opposite.
  size_t delta_freeze_columns = 64;
  /// Pool the background merges run on (borrowed; must outlive the
  /// manager). Null = no background merging: frozen deltas accumulate until
  /// an explicit MergeAll().
  ThreadPool* merge_pool = nullptr;
  /// Background-merge failure budget: after this many consecutive failed
  /// MergePart attempts (each preceded by doubling backoff, below) the part
  /// PARKS in degraded base+delta mode — it keeps answering queries, stops
  /// burning the pool, and records its error (PartHealth). MergeAll and the
  /// next successful merge un-park it.
  uint32_t merge_max_attempts = 4;
  double merge_backoff_initial_ms = 5.0;
  double merge_backoff_max_ms = 250.0;
  /// Transient-IO retry budget for base loads and merge snapshot writes
  /// (bounded exponential backoff; only IoError retries — see retry.h).
  RetryPolicy io_retry;
  /// Open(): CRC-validate every referenced snapshot before serving it, and
  /// quarantine the ones that fail. Costs one streamed read per part file.
  bool verify_on_open = true;
};

/// \brief One part's immutable published state: everything a search needs,
/// captured atomically. Mutations (append / drop / freeze / merge
/// completion) build a successor snapshot and swap the pointer; a search
/// that copied the pointer keeps a consistent {base, deltas, tombstones}
/// view for its whole execution, however the lake evolves meanwhile.
struct PartSnapshot {
  /// Base snapshot version; bumped by each merge. The IndexCache key is
  /// (base_path, generation), so a merge never needs to invalidate the
  /// cache — the stale generation just stops being requested and ages out
  /// of the LRU.
  uint64_t generation = 1;
  /// Serialized base index (part-<i>.g<generation>.pxso); empty when the
  /// part has no base (never built, everything merged away, or the base
  /// was quarantined).
  std::string base_path;
  /// Unmerged appends, oldest first: frozen deltas then the active one.
  std::vector<DeltaPtr> deltas;
  /// Global drop mask applied to base and delta results (see TombstoneSet).
  std::shared_ptr<const TombstoneSet> tombstones;
  /// Recovery/fsck moved this part's base aside (bad bytes): searches see
  /// deltas only and the part's results are knowingly partial until a merge
  /// writes a fresh base.
  bool quarantined = false;
  /// Background merges for this part exhausted their failure budget and
  /// parked; base+deltas keep serving, `health` says why.
  bool degraded = false;
  /// OK for a healthy part; the quarantine reason or last merge error
  /// otherwise.
  Status health;
};

/// \brief Lake-level robustness counters (complement SearchStats, which
/// counts per-query encounters).
struct LakeHealth {
  size_t degraded_parts = 0;     ///< parts parked after merge failures
  size_t quarantined_parts = 0;  ///< parts serving without their base
  uint64_t merge_retries = 0;    ///< failed background merge attempts retried
  uint64_t io_retries = 0;       ///< transient-IO retries in merge writes
  uint64_t recovered_orphans = 0;  ///< files discarded by Open's recovery
};

/// \brief The live lake: a generation-versioned partitioned PEXESO
/// repository that keeps serving queries while tables arrive and disappear.
///
/// Lifecycle (LSM-flavored): `AppendColumns` routes new columns to a
/// per-part in-memory DeltaIndex (rebuilt per batch — the memtable);
/// `DropColumns` adds global ids to the shared TombstoneSet (no index is
/// touched); `Freeze` seals active deltas, making them mergeable; a
/// background merge folds a part's frozen deltas + tombstones into a new
/// `part-<i>.g<gen+1>.pxso` base and atomically publishes the bumped
/// generation. Durability is the merge: deltas and tombstones live in
/// memory only (no WAL), so unmerged state is lost on restart — the
/// MANIFEST records just {dim, parts, next_id, per-part generation}.
///
/// Crash safety: snapshots and the MANIFEST are published via write-tmp →
/// fsync(file) → rename → fsync(dir), in that order (snapshot first, then
/// the MANIFEST that references it), so at every kill point the on-disk
/// state is one of the two adjacent committed states — never a torn mix.
/// Open() runs an fsck-with-repair recovery pass: orphaned *.tmp and
/// uncommitted/superseded generations are discarded, every referenced
/// snapshot is CRC-validated, and corrupt ones are QUARANTINED (moved to
/// quarantine/, part flagged) instead of failing the whole open.
///
/// Degraded serving: a part whose background merges keep failing parks in
/// base+delta mode (no hot retry loop) and keeps answering; a part whose
/// base cannot be loaded at query time contributes nothing but the query
/// still succeeds with the other parts' results, the gap reported through
/// ResultSink::OnPartStatus and SearchStats::partial_responses.
///
/// Query equivalence contract: a column lives in exactly one physical place
/// (one part's base or one delta), PEXESO is exact (results depend on the
/// data, not the index layout), and chunks reduce through the same
/// deterministic part-order merge as PartitionedPexeso — so results at ANY
/// interleaving of appends/drops/merges with queries are byte-identical to
/// a from-scratch build over the same logical content, at any thread
/// count. For kTopK, parts are searched with k' = k + |tombstones| so the
/// mask can never evict a legitimate top-k column before the final
/// rank-and-truncate.
///
/// Both engine interfaces are implemented, so BatchQueryRunner and
/// ServeSession drive a live lake exactly like a static PartitionedPexeso.
class LakeManager : public JoinSearchEngine, public PartitionedJoinEngine {
 public:
  /// Builds the initial bases (generation 1) from `catalog` split by
  /// `assignment` and writes them under `dir` with a MANIFEST. Empty source
  /// partitions stay as baseless parts that can still receive appends.
  /// `metric` and `options.merge_pool` are borrowed and must outlive the
  /// manager.
  static Result<std::unique_ptr<LakeManager>> Create(
      const ColumnCatalog& catalog, const PartitionAssignment& assignment,
      const std::string& dir, const Metric* metric,
      const LakeOptions& options);

  /// Opens an existing lake directory from its MANIFEST, running the
  /// recovery pass described above first. Unmerged state (deltas,
  /// tombstones) does not survive restarts — only merged bases.
  static Result<std::unique_ptr<LakeManager>> Open(const std::string& dir,
                                                   const Metric* metric,
                                                   const LakeOptions& options);

  /// Drains background merges before tearing down.
  ~LakeManager() override;

  LakeManager(const LakeManager&) = delete;
  LakeManager& operator=(const LakeManager&) = delete;

  // ------------------------------------------------------------ ingest API

  /// Appends every column of `batch` (vectors should be unit-normalized;
  /// dimensionality must match the lake). Columns are assigned fresh global
  /// ids (returned, in batch order), routed to parts by id % NumParts(),
  /// and become searchable atomically per part when the call returns. A
  /// part whose active delta reaches LakeOptions::delta_freeze_columns is
  /// frozen (and scheduled for merge) automatically.
  std::vector<uint32_t> AppendColumns(const ColumnCatalog& batch);

  /// Drops columns by GLOBAL id, effective immediately for every later
  /// search (masking); the space is reclaimed by the next merge of each
  /// column's part. Unknown ids are tolerated (masked until some merge
  /// proves them gone).
  void DropColumns(const std::vector<uint32_t>& global_ids);

  /// Seals every part's active delta into its frozen list (mergeable) and,
  /// when a merge pool is attached, schedules the merges.
  void Freeze();

  /// Blocks until scheduled background merges finish (a part that keeps
  /// failing stops after its failure budget — the wait always returns);
  /// returns the first parked part's error, if any.
  Status WaitForMerges();

  /// Freeze + merge EVERYTHING, synchronously: on return every part is a
  /// single base at its newest generation with no deltas, and fully-merged
  /// tombstones have been subtracted. Parts parked in degraded mode are
  /// retried here (and un-parked on success). The post-merge state a
  /// from-scratch rebuild is compared against.
  Status MergeAll();

  /// Deletes snapshot files of superseded generations. Only safe when no
  /// search still holds a pre-merge PartSnapshot that might yet LOAD its
  /// old base from disk (searches already holding the in-memory index are
  /// unaffected) — call from a quiesced maintenance window.
  Status Vacuum();

  // ------------------------------------------------------------- inspection

  /// The part's current published snapshot (cheap pointer copy).
  std::shared_ptr<const PartSnapshot> Snapshot(size_t part) const;

  uint64_t generation(size_t part) const;

  /// OK for a healthy part; the quarantine reason or the part's last merge
  /// error otherwise.
  Status PartHealth(size_t part) const;

  /// Lake-level robustness counters (degraded/quarantined part counts,
  /// retry totals, recovery actions).
  LakeHealth Health() const;

  /// Path of part `part`'s serialized base at `generation`.
  std::string PartPath(size_t part, uint64_t generation) const;

  /// Total bytes of the current-generation base files.
  size_t DiskBytes() const;

  /// Routes base loads through `cache` (borrowed; must outlive this
  /// object). Call before concurrent searches start. Cache keys carry the
  /// generation, so merged-away snapshots age out of the LRU on their own.
  void AttachCache(serve::IndexCache* cache) { cache_ = cache; }
  serve::IndexCache* cache() const { return cache_; }

  /// Which in-memory searcher runs against loaded BASE snapshots (deltas
  /// always use plain PEXESO — they are small, the hierarchical variant's
  /// advantage is large repositories).
  void set_engine(PartitionedPexeso::Engine engine) { engine_ = engine; }

  // ------------------------------------------------------ JoinSearchEngine
  const char* name() const override { return "lake"; }

  /// Searches every part's base + deltas serially in part order
  /// (PartRunner::RunParts) with tombstone masking, then the canonical
  /// mode-aware merge. A part whose base cannot be loaded, or was
  /// quarantined, does not fail the query: its Status goes to
  /// sink->OnPartStatus and the other parts' results are delivered. The
  /// query fails outright only when no part answered.
  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override;

  // -------------------------------------------------- PartitionedJoinEngine
  size_t NumParts() const override;

  /// The handle captures the part's PartSnapshot AND its loaded base, so a
  /// later SearchPart with it is both IO-free and consistent — it searches
  /// the state of the lake as of acquisition even if merges land meanwhile.
  Result<PartHandle> AcquirePart(size_t part,
                                 double* io_seconds) const override;
  /// The notice is non-OK when the searched snapshot's base is quarantined.
  Result<std::vector<JoinableColumn>> SearchPartWithNotice(
      size_t part, const JoinQuery& query, SearchStats* stats,
      double* io_seconds, const PartHandle& preloaded,
      Status* notice) const override;
  bool PartsStayResident() const override;

 private:
  /// What AcquirePart hands out behind the opaque PartHandle.
  struct LoadedPart {
    std::shared_ptr<const PartSnapshot> snapshot;
    serve::IndexCache::IndexPtr base;  ///< null when snapshot has no base
  };

  /// One part's mutable state, guarded by mu_. `snapshot` is what searches
  /// copy; the rest is the ingest side's working state.
  struct PartState {
    std::shared_ptr<const PartSnapshot> snapshot;
    uint64_t generation = 1;
    std::string base_path;
    ColumnCatalog active;          ///< unfrozen appends
    DeltaPtr active_built;         ///< index over `active`; null when empty
    std::vector<DeltaPtr> frozen;  ///< sealed deltas awaiting merge
    bool merge_scheduled = false;
    uint32_t merge_failures = 0;   ///< consecutive failed merge attempts
    bool degraded = false;         ///< parked: failure budget exhausted
    bool quarantined = false;      ///< base moved aside by recovery/fsck
    Status health;                 ///< quarantine reason / last merge error
  };

  LakeManager(std::string dir, const Metric* metric, LakeOptions options,
              uint32_t dim);

  /// Rebuilds and publishes `part`'s snapshot from its state + the global
  /// tombstone set. Caller holds mu_.
  void PublishLocked(size_t part);

  /// Seals `part`'s active delta. Caller holds mu_; caller publishes.
  void FreezeLocked(size_t part);

  /// Schedules a background merge of `part` if a pool is attached, one is
  /// not already scheduled, there is frozen work, and the part is not
  /// parked. Caller holds mu_.
  void ScheduleMergeLocked(size_t part);

  /// The background-merge task body: backoff for retries, one MergePart
  /// attempt, then re-chain (more work / bounded retry) or park.
  void RunScheduledMerge(size_t part);

  /// Folds `part`'s currently-frozen deltas + tombstones into a new base
  /// generation and publishes it. Runs on the merge pool or inline
  /// (MergeAll); safe against concurrent appends/drops/freezes of the same
  /// part (it folds the state captured at entry; later arrivals survive).
  /// Success clears the part's degraded/quarantined flags (the fresh base
  /// IS the recovery).
  Status MergePart(size_t part);

  /// Loads `snap`'s base through the cache (keyed by generation) or disk,
  /// with bounded transient-IO retries counted into `stats`.
  Result<serve::IndexCache::IndexPtr> LoadBase(const PartSnapshot& snap,
                                               SearchStats* stats,
                                               double* io_seconds) const;

  /// Searches base + deltas of one snapshot (base preloaded or loaded
  /// here), masks tombstones, returns the unsorted chunk. Applies the
  /// kTopK k' = k + |tombstones| widening internally and counts
  /// quarantined/degraded encounters into `stats`.
  Result<std::vector<JoinableColumn>> SearchSnapshot(
      const PartSnapshot& snap, const serve::IndexCache::IndexPtr& base,
      const JoinQuery& query, SearchStats* stats, double* io_seconds) const;

  Status WriteManifestLocked() const;

  std::string dir_;
  const Metric* metric_;
  LakeOptions options_;
  uint32_t dim_;
  PartitionedPexeso::Engine engine_ = PartitionedPexeso::Engine::kPexeso;
  serve::IndexCache* cache_ = nullptr;

  mutable std::mutex mu_;  ///< guards parts_, tombstones_, next_id_, health
  std::vector<PartState> parts_;
  std::shared_ptr<const TombstoneSet> tombstones_;
  uint32_t next_id_ = 0;
  uint64_t merge_retries_ = 0;     ///< failed merge attempts retried
  uint64_t merge_io_retries_ = 0;  ///< transient-IO retries in merge writes
  uint64_t recovered_orphans_ = 0;

  /// Declared last: destroyed first, so the destructor's implicit wait
  /// drains merge tasks while every member they touch is still alive.
  std::unique_ptr<TaskGroup> merges_;
};

}  // namespace pexeso::lake

#endif  // PEXESO_LAKE_LAKE_MANAGER_H_
