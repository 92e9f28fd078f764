#ifndef PEXESO_BASELINE_SCAN_MAPPING_H_
#define PEXESO_BASELINE_SCAN_MAPPING_H_

#include "core/join_result.h"
#include "vec/column_catalog.h"
#include "vec/kernels.h"
#include "vec/search_stats.h"
#include "vec/vector_store.h"

namespace pexeso {

/// Shared mapping post-pass of the scan-style engines (naive, PEXESO-H),
/// reporting what PEXESO's verification records as witnesses: one target
/// vector (the first in store order) per matching query record, with the column's counters
/// upgraded to the exact joinability the full scan resolves as a side
/// effect. `qnorms`/`rnorms` are the cached norms when the predicate wants
/// them, null otherwise.
inline void ScanMapColumn(const ColumnCatalog& catalog,
                          const RangePredicate& pred,
                          const VectorStore& query, const float* qnorms,
                          const float* rnorms, JoinableColumn* jc,
                          SearchStats* stats) {
  const VectorStore& rstore = catalog.store();
  const uint32_t dim = rstore.dim();
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  const ColumnMeta& meta = catalog.column(jc->column);
  jc->mapping.clear();
  for (uint32_t q = 0; q < num_q; ++q) {
    const float* qv = query.View(q);
    const double qn = qnorms != nullptr ? qnorms[q] : 1.0;
    for (VecId v = meta.first; v < meta.end(); ++v) {
      ++stats->distance_computations;
      stats->sqrt_free_comparisons += pred.sqrt_saved();
      const double rn = rnorms != nullptr ? rnorms[v] : 1.0;
      if (pred.MatchNormed(qv, rstore.View(v), dim, qn, rn)) {
        jc->mapping.push_back({q, v});
        break;
      }
    }
  }
  jc->match_count = static_cast<uint32_t>(jc->mapping.size());
  jc->joinability =
      static_cast<double>(jc->match_count) / static_cast<double>(num_q);
}

}  // namespace pexeso

#endif  // PEXESO_BASELINE_SCAN_MAPPING_H_
