#ifndef PEXESO_PARTITION_PARTITIONED_PEXESO_H_
#define PEXESO_PARTITION_PARTITIONED_PEXESO_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "partition/partitioner.h"

namespace pexeso::serve {
class IndexCache;
}  // namespace pexeso::serve

namespace pexeso {

/// \brief Out-of-core PEXESO (Section IV): the repository is split into
/// partitions, each indexed by its own PexesoIndex and serialized to disk.
/// A search loads one partition into memory at a time, runs the in-memory
/// search, and merges results (reported in the global column-id space via
/// ColumnMeta::source_id).
///
/// Serving: AttachCache() routes every partition load through a shared
/// serve::IndexCache, so a batch of queries deserializes each partition file
/// once instead of once per query. Without a cache, loads go straight to
/// disk (the original Section IV one-partition-resident protocol). The
/// PartitionedJoinEngine side exposes per-partition search for the
/// partition-major batch loop and ServeSession streaming.
class PartitionedPexeso : public JoinSearchEngine,
                          public PartitionedJoinEngine {
 public:
  /// Splits `catalog` by `assignment`, builds one index per partition and
  /// writes them under `dir` as part-<i>.pxso. Returns the handle.
  static Result<PartitionedPexeso> Build(const ColumnCatalog& catalog,
                                         const PartitionAssignment& assignment,
                                         const std::string& dir,
                                         const Metric* metric,
                                         const PexesoOptions& options);

  /// Opens an existing partition directory (counts part-*.pxso files).
  static Result<PartitionedPexeso> Open(const std::string& dir,
                                        const Metric* metric);

  /// Which in-memory searcher runs against each loaded partition. The
  /// PEXESO-H variant exists so the Table VII out-of-core comparison can run
  /// both methods under the identical load-one-partition-at-a-time protocol.
  enum class Engine { kPexeso, kPexesoH };

  const char* name() const override {
    return engine_ == Engine::kPexeso ? "pexeso-part" : "pexeso-h-part";
  }

  /// Engine-interface entry point: searches every partition with the
  /// per-partition engine selected by set_engine() (PEXESO by default),
  /// serially in part order through PartRunner::RunParts — so kTopK
  /// requests prune each part against the bound the previous parts
  /// established, and deadlines, cancellation and part failures follow the
  /// one failure policy (README "Failure model & recovery").
  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override;

  // ------------------------------------------- PartitionedJoinEngine side
  size_t NumParts() const override { return num_parts_; }
  Result<PartHandle> AcquirePart(size_t part,
                                 double* io_seconds) const override;
  /// The notice is always OK: a partition either loads whole or fails.
  Result<std::vector<JoinableColumn>> SearchPartWithNotice(
      size_t part, const JoinQuery& query, SearchStats* stats,
      double* io_seconds, const PartHandle& preloaded,
      Status* notice) const override;
  bool PartsStayResident() const override;

  /// Routes partition loads through `cache` (borrowed; must outlive this
  /// object; thread-safe itself). Call before concurrent searches start —
  /// the pointer is read unsynchronized on the search paths. Pass nullptr
  /// to detach and fall back to direct disk loads.
  void AttachCache(serve::IndexCache* cache) { cache_ = cache; }
  serve::IndexCache* cache() const { return cache_; }

  /// Path of partition `i`'s snapshot file (cache key / warm-up pinning).
  std::string PartPath(size_t i) const;

  /// Which in-memory searcher runs against each loaded partition. SearchPart
  /// ranks kTopK by part-LOCAL column ids, but the partitioner appends
  /// columns to each part in ascending global id, so local order == global
  /// order and the remap keeps the ranking's tie-breaks.
  void set_engine(Engine engine) { engine_ = engine; }

  size_t num_partitions() const { return num_parts_; }

  /// Total bytes of the serialized partition files.
  size_t DiskBytes() const;

 private:
  PartitionedPexeso(std::string dir, const Metric* metric, size_t parts)
      : dir_(std::move(dir)), metric_(metric), num_parts_(parts) {}

  std::string dir_;
  const Metric* metric_;
  size_t num_parts_;
  Engine engine_ = Engine::kPexeso;
  serve::IndexCache* cache_ = nullptr;
};

/// Searches one in-memory index snapshot with the selected per-part searcher
/// (PEXESO or PEXESO-H) and remaps result ids to the global column-id space
/// (ColumnMeta::source_id). The shared primitive under PartitionedPexeso's
/// per-part search and the lake layer's base/delta snapshot searches.
Result<std::vector<JoinableColumn>> SearchIndexSnapshot(
    const PexesoIndex& index, const JoinQuery& query,
    PartitionedPexeso::Engine engine, SearchStats* stats);

}  // namespace pexeso

#endif  // PEXESO_PARTITION_PARTITIONED_PEXESO_H_
