#include "shard/part_subset.h"

#include <utility>

#include "common/check.h"
#include "core/part_runner.h"

namespace pexeso::shard {

PartSubsetEngine::PartSubsetEngine(const JoinSearchEngine* base,
                                   std::vector<size_t> owned)
    : base_(base),
      base_parts_(dynamic_cast<const PartitionedJoinEngine*>(base)),
      owned_(std::move(owned)) {
  PEXESO_CHECK(base_ != nullptr);
  PEXESO_CHECK(base_parts_ != nullptr);
  for (size_t part : owned_) PEXESO_CHECK(part < base_parts_->NumParts());
}

Result<PartHandle> PartSubsetEngine::AcquirePart(size_t part,
                                                 double* io_seconds) const {
  PEXESO_CHECK(part < owned_.size());
  return base_parts_->AcquirePart(owned_[part], io_seconds);
}

Result<std::vector<JoinableColumn>> PartSubsetEngine::SearchPartWithNotice(
    size_t part, const JoinQuery& query, SearchStats* stats,
    double* io_seconds, const PartHandle& preloaded, Status* notice) const {
  PEXESO_CHECK(part < owned_.size());
  return base_parts_->SearchPartWithNotice(owned_[part], query, stats,
                                           io_seconds, preloaded, notice);
}

bool PartSubsetEngine::PartsStayResident() const {
  return base_parts_->PartsStayResident();
}

Status PartSubsetEngine::Execute(const JoinQuery& jq, ResultSink* sink,
                                 SearchStats* stats) const {
  return PartRunner::RunParts(*this, jq, sink, stats);
}

}  // namespace pexeso::shard
