#ifndef PEXESO_SHARD_PART_SUBSET_H_
#define PEXESO_SHARD_PART_SUBSET_H_

#include <cstddef>
#include <vector>

#include "core/engine.h"

namespace pexeso::shard {

/// \brief One shard's view of a partitioned lake: the same engine pair
/// (JoinSearchEngine + PartitionedJoinEngine) every driver already speaks,
/// restricted to an owned subset of the base engine's parts.
///
/// Part indices on this engine are LOCAL (0..owned-1); they delegate to the
/// base engine's global part ids, and results keep their global column ids,
/// so concatenating shard results and running the canonical merge yields
/// exactly what the unsharded engine produces. A shard server wraps its
/// PartitionedPexeso in this and serves it through the ordinary
/// ServeSession / pexeso_server stack — sharding needs no serving-layer
/// changes at all.
class PartSubsetEngine : public JoinSearchEngine, public PartitionedJoinEngine {
 public:
  /// `base` is borrowed and must outlive this engine; it must also
  /// implement PartitionedJoinEngine (PEXESO_CHECK-enforced). `owned` lists
  /// the base engine's global part ids this shard serves, ascending.
  PartSubsetEngine(const JoinSearchEngine* base, std::vector<size_t> owned);

  const char* name() const override { return "part-subset"; }

  /// The serial owned-part loop, PartRunner::RunParts — the same loop,
  /// floor rule and failure policy as the unsharded engine. Part ids in
  /// OnPartStatus are LOCAL; the coordinator maps them to global ids.
  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override;

  // ------------------------------------------- PartitionedJoinEngine side
  size_t NumParts() const override { return owned_.size(); }
  Result<PartHandle> AcquirePart(size_t part,
                                 double* io_seconds) const override;
  Result<std::vector<JoinableColumn>> SearchPart(
      size_t part, const JoinQuery& query, SearchStats* stats,
      double* io_seconds, const PartHandle& preloaded) const override;
  Result<std::vector<JoinableColumn>> SearchPartWithNotice(
      size_t part, const JoinQuery& query, SearchStats* stats,
      double* io_seconds, const PartHandle& preloaded,
      Status* notice) const override;
  bool PartsStayResident() const override;

  const std::vector<size_t>& owned_parts() const { return owned_; }

 private:
  const JoinSearchEngine* base_;
  const PartitionedJoinEngine* base_parts_;
  std::vector<size_t> owned_;
};

}  // namespace pexeso::shard

#endif  // PEXESO_SHARD_PART_SUBSET_H_
