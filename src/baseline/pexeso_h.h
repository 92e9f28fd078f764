#ifndef PEXESO_BASELINE_PEXESO_H_H_
#define PEXESO_BASELINE_PEXESO_H_H_

#include <vector>

#include "core/join_result.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"

namespace pexeso {

/// \brief PEXESO-H (Section VI-A competitor 2): identical hierarchical-grid
/// blocking to PEXESO, but verification is naive — for each candidate
/// (query vector, leaf cell) pair it computes the distance from the query
/// vector to every vector in the cell. No inverted index, no DaaT order, no
/// Lemma 1 per-vector filter, no Lemma 7. The joinable-skip early
/// termination is kept (every competitor in the paper has it).
///
/// Verification here is query-record-major, so the kTopK pushdown works
/// per record: before each record the running k-th-best bound (recomputed
/// from the live match counts) marks every column that can no longer
/// strictly beat it dead, and dead columns skip all further distance work.
class PexesoHSearcher : public JoinSearchEngine {
 public:
  explicit PexesoHSearcher(const PexesoIndex* index) : index_(index) {}

  const char* name() const override { return "pexeso-h"; }

  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override;

 private:
  const PexesoIndex* index_;
};

}  // namespace pexeso

#endif  // PEXESO_BASELINE_PEXESO_H_H_
