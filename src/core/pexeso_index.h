#ifndef PEXESO_CORE_PEXESO_INDEX_H_
#define PEXESO_CORE_PEXESO_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "common/status.h"
#include "grid/hierarchical_grid.h"
#include "invindex/inverted_index.h"
#include "pivot/pivot_space.h"
#include "vec/column_catalog.h"
#include "vec/metric.h"
#include "vec/quant.h"

namespace pexeso {

/// \brief Index construction options.
struct PexesoOptions {
  /// |P|: number of pivots. Paper tunes 1..9; defaults to the OPEN optimum.
  uint32_t num_pivots = 5;
  /// m: number of hierarchical-grid levels. 0 = pick via the cost model.
  uint32_t levels = 6;
  /// Pivot selection strategy: PCA-based [22] (paper choice) or random.
  enum class PivotStrategy { kPca, kRandom } pivot_strategy = PivotStrategy::kPca;
  /// Seed for pivot selection sampling.
  uint64_t seed = 17;
};

/// \brief The offline side of PEXESO: the embedded repository plus every
/// search structure of Section III (pivot space, mapped vectors, HGRV, and
/// the inverted index). Owns the catalog it was built over.
class PexesoIndex {
 public:
  PexesoIndex() = default;
  PexesoIndex(PexesoIndex&&) = default;
  PexesoIndex& operator=(PexesoIndex&&) = default;

  /// Builds the index over `catalog` (moved in; vectors should already be
  /// unit-normalized). `metric` is borrowed and must outlive the index.
  static PexesoIndex Build(ColumnCatalog catalog, const Metric* metric,
                           const PexesoOptions& options);

  /// Appends a new column (Section III-E): pivot-maps its vectors, inserts
  /// them into the grid chain and the postings lists. Returns the ColumnId.
  ColumnId AppendColumn(ColumnMeta meta, const float* packed, size_t count);

  /// Logically deletes a column: it is tombstoned and skipped by every
  /// searcher. Postings stay in place until Compact().
  void DeleteColumn(ColumnId column);

  /// Rebuilds the index without tombstoned columns, reclaiming their space.
  /// Column ids are compacted (survivors keep their relative order and their
  /// ColumnMeta::source_id, which callers should use for stable identity).
  /// Returns the number of columns dropped.
  size_t Compact();

  bool IsDeleted(ColumnId column) const {
    return column < tombstones_.size() && tombstones_[column] != 0;
  }

  const ColumnCatalog& catalog() const { return catalog_; }
  const PivotSpace& pivots() const { return pivots_; }
  const HierarchicalGrid& grid() const { return grid_; }
  const InvertedIndex& inverted_index() const { return inv_; }
  const QuantStore& quant() const { return quant_; }
  const Metric* metric() const { return metric_; }
  const PexesoOptions& options() const { return options_; }

  /// Mapped repository vector v (|P| doubles).
  const double* MappedVec(VecId v) const {
    const double* base = mapped_ext_ != nullptr ? mapped_ext_ : mapped_.data();
    return base + static_cast<size_t>(v) * pivots_.num_pivots();
  }
  /// Owned pivot-space coordinates; only meaningful for built indexes
  /// (mapped snapshots serve MappedVec from the mapping instead).
  const std::vector<double>& mapped() const {
    PEXESO_DCHECK(mapped_ext_ == nullptr);
    return mapped_;
  }

  /// True when this index serves reads zero-copy out of an mmapped
  /// snapshot.
  bool is_mapped() const { return mapping_ != nullptr; }

  /// Bytes of the backing snapshot mapping (0 for heap indexes). This is
  /// the budget IndexCache charges for a mapped snapshot instead of heap
  /// bytes it never allocated.
  size_t MappedBytes() const {
    return mapping_ != nullptr ? mapping_->size() : 0;
  }

  /// Copies every mapped section onto the heap and releases the mapping;
  /// no-op for heap indexes. Mutators call this, so a mapped snapshot is
  /// copy-on-write as a whole.
  void Materialize();

  /// Index footprint (pivots + mapped vectors + grid + inverted index),
  /// excluding the raw repository vectors; reproduces Figure 6b/10b sizing.
  size_t IndexSizeBytes() const;

  /// Serializes index + catalog to `path` in the flat, mmap-friendly
  /// snapshot format: 64-byte-aligned sections behind a section table,
  /// CRC-32 footer last. Used by partition files and the lake merge path.
  Status Save(const std::string& path) const;

  /// Loads an index previously written by Save. `metric` must match the one
  /// used at build time. A regular file is mmapped and served zero-copy; a
  /// FIFO is read once into a buffer and materialized onto the heap. A
  /// snapshot of any other disk version (the streamed pre-flat formats
  /// included) is NotSupported; bad bytes are Corruption.
  static Result<PexesoIndex> Load(const std::string& path,
                                  const Metric* metric);

  /// Reads just the snapshot header and returns the repository
  /// dimensionality — a cheap sanity check against an embedding model that
  /// avoids deserializing (and then discarding) a whole partition.
  static Result<uint32_t> PeekDim(const std::string& path);

  /// Validates a snapshot file without deserializing it: header magic +
  /// version, then a streamed CRC-32 pass over the payload against the
  /// mandatory footer. Corruption/NotSupported mean the BYTES are bad (quarantine
  /// material); IoError means the environment failed (retry material).
  /// This is the integrity pass lake recovery and fsck run per snapshot.
  static Status VerifySnapshot(const std::string& path);

 private:
  /// The one snapshot parser: header magic + version, CRC pass over the
  /// buffer, section-table and cross-section validation, then zero-copy
  /// view binding into `data`. The caller keeps `data` alive (Load attaches
  /// the mapping, or materializes before a FIFO's buffer dies).
  static Result<PexesoIndex> LoadFlat(const uint8_t* data, uint64_t size,
                                      const Metric* metric);
  /// (Re)builds the quantized pre-filter tier from the float vectors.
  void RebuildQuant();

  ColumnCatalog catalog_;
  PivotSpace pivots_;
  std::vector<double> mapped_;  ///< |RV| x |P| pivot-space coordinates
  const double* mapped_ext_ = nullptr;  ///< non-null => mapped-snapshot view
  HierarchicalGrid grid_;
  InvertedIndex inv_;
  QuantStore quant_;
  std::vector<uint8_t> tombstones_;
  const Metric* metric_ = nullptr;
  PexesoOptions options_;
  std::shared_ptr<MappedFile> mapping_;  ///< keeps viewed sections alive
};

}  // namespace pexeso

#endif  // PEXESO_CORE_PEXESO_INDEX_H_
