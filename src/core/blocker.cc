#include "core/blocker.h"

namespace pexeso {

struct GridBlocker::RunState {
  const HierarchicalGrid* hgq = nullptr;
  const std::vector<double>* mapped_q = nullptr;
  double tau = 0.0;
  const AblationConfig* ablation = nullptr;
  SearchStats* stats = nullptr;
  BlockResult* result = nullptr;
};

BlockResult GridBlocker::Run(const HierarchicalGrid& hgq,
                             const std::vector<double>& mapped_q, double tau,
                             const AblationConfig& ablation,
                             SearchStats* stats) const {
  PEXESO_CHECK(hgq.levels() == rgrid_->levels());
  PEXESO_CHECK(hgq.num_pivots() == rgrid_->num_pivots());
  BlockResult result;
  result.cand_cells.assign(hgq.num_vectors(), {});

  RunState rs;
  rs.hgq = &hgq;
  rs.mapped_q = &mapped_q;
  rs.tau = tau;
  rs.ablation = &ablation;
  rs.stats = stats;
  rs.result = &result;

  if (ablation.use_quick_browsing) {
    QuickBrowse(&rs);
  }
  const auto& q_level1 = hgq.CellsAtLevel(1);
  const auto& r_level1 = rgrid_->CellsAtLevel(1);
  for (uint32_t cq = 0; cq < q_level1.size(); ++cq) {
    for (uint32_t cr = 0; cr < r_level1.size(); ++cr) {
      Block(&rs, 1, cq, cr);
    }
  }
  return result;
}

void GridBlocker::QuickBrowse(RunState* rs) const {
  // Leaf cells of HGQ and HGRV with identical coordinates cover the same
  // space region, so they can never be separated by Lemma 3/4: feed them to
  // verification as candidates without any blocking work.
  for (const auto& lq : rs->hgq->LeafCells()) {
    const int64_t rcell = rgrid_->FindLeaf(lq.coords);
    if (rcell < 0) continue;
    for (VecId q : lq.items) {
      rs->result->cand_cells[q].push_back(static_cast<uint32_t>(rcell));
      ++rs->stats->candidate_pairs;
    }
  }
}

void GridBlocker::BlockLeafPair(RunState* rs, uint32_t cq, uint32_t cr) const {
  const uint32_t level = rgrid_->levels();
  const auto& qcell = rs->hgq->CellsAtLevel(level)[cq];
  const auto& rcell = rgrid_->CellsAtLevel(level)[cr];
  if (rs->ablation->use_quick_browsing && qcell.coords == rcell.coords) {
    return;  // already emitted by quick browsing
  }
  const uint32_t np = rs->hgq->num_pivots();
  const double tau = rs->tau;
  for (VecId q : qcell.items) {
    const double* mq = rs->mapped_q->data() + static_cast<size_t>(q) * np;
    if (rs->ablation->use_lemma34) {
      // Lemma 3: the cell does not intersect SQR(q', tau).
      bool separated = false;
      for (uint32_t i = 0; i < np; ++i) {
        if (rgrid_->CellLower(level, rcell, i) > mq[i] + tau ||
            rgrid_->CellUpper(level, rcell, i) < mq[i] - tau) {
          separated = true;
          break;
        }
      }
      if (separated) {
        ++rs->stats->cells_filtered;
        continue;
      }
    }
    rs->result->cand_cells[q].push_back(cr);
    ++rs->stats->candidate_pairs;
  }
}

void GridBlocker::Block(RunState* rs, uint32_t level, uint32_t cq,
                        uint32_t cr) const {
  if (level == rgrid_->levels()) {
    BlockLeafPair(rs, cq, cr);
    return;
  }
  const auto& qcell = rs->hgq->CellsAtLevel(level)[cq];
  const auto& rcell = rgrid_->CellsAtLevel(level)[cr];
  const uint32_t np = rs->hgq->num_pivots();
  const double tau = rs->tau;

  if (rs->ablation->use_lemma34) {
    // Lemma 4: boxes further than tau apart in Chebyshev distance over the
    // pivot space cannot contain matching pairs. This is the box-box form of
    // SQR(cq.center, tau + cq.length/2) not intersecting cr.
    for (uint32_t i = 0; i < np; ++i) {
      if (rgrid_->CellLower(level, rcell, i) >
              rs->hgq->CellUpper(level, qcell, i) + tau ||
          rgrid_->CellUpper(level, rcell, i) <
              rs->hgq->CellLower(level, qcell, i) - tau) {
        ++rs->stats->cells_filtered;
        return;
      }
    }
  }
  for (uint32_t qchild : qcell.children) {
    for (uint32_t rchild : rcell.children) {
      Block(rs, level + 1, qchild, rchild);
    }
  }
}

}  // namespace pexeso
