#ifndef PEXESO_CORE_ABLATION_H_
#define PEXESO_CORE_ABLATION_H_

namespace pexeso {

/// \brief Switches for the Figure 9 ablation study. Every switch defaults to
/// on; turning one off removes the corresponding filtering rule but never
/// changes the result set (the algorithm stays exact, only slower). The
/// paper's pivot-match lemmas (2, 5, 6) have no switch: they need the query
/// and the target both within tau of one pivot, which the outlier pivots of
/// Section III-D almost never allow, so their code is gone (README, Fig. 9).
struct AblationConfig {
  bool use_lemma1 = true;    ///< pivot filtering of single vectors (verify)
  bool use_lemma34 = true;   ///< vector-cell & cell-cell filtering (block)
  /// Column kill by mismatch counting, a record without a candidate block
  /// counted as a mismatch: stage 1 drops a column with fewer blocks than
  /// T, stage 2 stops one whose matches + unresolved blocks fall below T.
  bool use_lemma7 = true;
  bool use_quick_browsing = true;  ///< probe co-located leaf cells up front
};

}  // namespace pexeso

#endif  // PEXESO_CORE_ABLATION_H_
