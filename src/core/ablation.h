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
  bool use_lemma7 = true;    ///< column kill by mismatch counting (verify)
  bool use_quick_browsing = true;  ///< probe co-located leaf cells up front
  /// int8 quantized tile tier ahead of the exact float tiles (verify). The
  /// quantized bound only ever decides pairs it provably decides correctly,
  /// so — like every other switch — results are identical on or off.
  bool use_quant_prefilter = true;
};

}  // namespace pexeso

#endif  // PEXESO_CORE_ABLATION_H_
