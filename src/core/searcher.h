#ifndef PEXESO_CORE_SEARCHER_H_
#define PEXESO_CORE_SEARCHER_H_

#include <cstdint>
#include <vector>

#include "core/blocker.h"
#include "core/engine.h"
#include "core/pexeso_index.h"

namespace pexeso {

/// \brief The online side of PEXESO (Algorithm 3): maps the query column
/// into the pivot space, blocks each record against HGRV (Algorithm 1 with
/// quick browsing, core/blocker.h), and verifies through the staged VerifyPipeline (candidate generation ->
/// column-sharded tiled verification -> deterministic reduction; see
/// core/verify_pipeline.h). JoinQuery::intra_query_threads parallelizes
/// the verification of a single huge query column.
///
/// kTopK requests push the ranking into the verifier: a shared running
/// k-th-best bound (TopKBound) feeds back into every verification shard as
/// a dynamic early-exit threshold, so columns that provably cannot enter
/// the top-k are abandoned mid-verification instead of exact-verified.
/// Deadline/cancellation checkpoints run before blocking, before the
/// verification tiles, and inside every shard's column loop.
class PexesoSearcher : public JoinSearchEngine {
 public:
  /// `index` is borrowed and must outlive the searcher.
  explicit PexesoSearcher(const PexesoIndex* index) : index_(index) {}

  const char* name() const override { return "pexeso"; }

  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override;

 private:
  const PexesoIndex* index_;
};

}  // namespace pexeso

#endif  // PEXESO_CORE_SEARCHER_H_
