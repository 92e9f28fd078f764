#include "grid/hierarchical_grid.h"

#include <cmath>
#include <cstring>
#include <utility>

namespace pexeso {

CellCoord HierarchicalGrid::CoordsOf(const double* mapped_vec,
                                     uint32_t l) const {
  CellCoord k;
  k.ndims = static_cast<uint8_t>(num_pivots_);
  const double side = CellSide(l);
  const uint32_t max_coord = (1u << l) - 1;
  for (uint32_t j = 0; j < num_pivots_; ++j) {
    double x = mapped_vec[j];
    if (x < 0.0) x = 0.0;
    uint32_t c = static_cast<uint32_t>(x / side);
    if (c > max_coord) c = max_coord;  // boundary value x == extent
    k.c[j] = static_cast<uint16_t>(c);
  }
  return k;
}

void HierarchicalGrid::Build(const double* mapped, size_t n,
                             uint32_t num_pivots, double extent,
                             const Options& options) {
  PEXESO_CHECK(num_pivots >= 1 && num_pivots <= kMaxPivots);
  PEXESO_CHECK(options.levels >= 1 && options.levels <= kMaxLevels);
  PEXESO_CHECK(extent > 0.0);
  levels_ = options.levels;
  num_pivots_ = num_pivots;
  extent_ = extent;
  num_vectors_ = 0;
  levels_cells_.assign(levels_, {});
  {
    std::vector<CellLookup> lookups(levels_);
    for (size_t i = 0; i < n; ++i) {
      Insert(mapped + i * num_pivots_, static_cast<VecId>(i), &lookups);
    }
    // Only FindLeaf looks cells up by coordinates once the grid is built.
    leaf_lookup_ = std::move(lookups.back());
  }
  BuildView();
}

void HierarchicalGrid::Insert(const double* mapped_vec, VecId id,
                              std::vector<CellLookup>* lookups) {
  uint32_t child_idx = 0;
  bool child_created = false;
  for (uint32_t l = levels_; l >= 1; --l) {
    CellCoord k = CoordsOf(mapped_vec, l);
    auto& lk = (*lookups)[l - 1];
    auto it = lk.find(k);
    uint32_t idx;
    bool created = false;
    if (it == lk.end()) {
      idx = static_cast<uint32_t>(levels_cells_[l - 1].size());
      levels_cells_[l - 1].push_back(Cell{k, {}, {}});
      lk.emplace(k, idx);
      created = true;
    } else {
      idx = it->second;
    }
    if (l == levels_) {
      levels_cells_[l - 1][idx].items.push_back(id);
    } else if (child_created) {
      // Link the freshly created child into this (possibly existing) parent.
      levels_cells_[l - 1][idx].children.push_back(child_idx);
    }
    if (!created && l != levels_) {
      // This ancestor already existed: the new child (if any) is linked and
      // every higher ancestor is already present and linked.
      break;
    }
    child_idx = idx;
    child_created = created;
    if (l == 1) break;
  }
  ++num_vectors_;
}

void HierarchicalGrid::BuildView() {
  view_.assign(levels_, {});
  // order[i] is the CellsAtLevel(l) index of view cell i.
  std::vector<uint32_t> order(levels_cells_[0].size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<uint32_t> next;
  for (uint32_t l = 1; l <= levels_; ++l) {
    const auto& cells = levels_cells_[l - 1];
    ViewLevel& view = view_[l - 1];
    view.coords.resize(order.size() * num_pivots_ + kMaxPivots -
                       num_pivots_);
    for (size_t i = 0; i < order.size(); ++i) {
      std::memcpy(view.coords.data() + i * num_pivots_,
                  cells[order[i]].coords.c.data(),
                  sizeof(uint16_t) * num_pivots_);
    }
    if (l == levels_) break;
    next.clear();
    next.reserve(levels_cells_[l].size());
    view.child_begin.reserve(order.size() + 1);
    view.child_begin.push_back(0);
    for (uint32_t idx : order) {
      next.insert(next.end(), cells[idx].children.begin(),
                  cells[idx].children.end());
      view.child_begin.push_back(static_cast<uint32_t>(next.size()));
    }
    order.swap(next);
  }
  view_leaf_to_leaf_ = std::move(order);
  leaf_to_view_leaf_.assign(view_leaf_to_leaf_.size(), 0);
  for (uint32_t i = 0; i < view_leaf_to_leaf_.size(); ++i) {
    leaf_to_view_leaf_[view_leaf_to_leaf_[i]] = i;
  }
}

void HierarchicalGrid::AxisCellRange(uint32_t l, double lower, double upper,
                                     int32_t* lo, int32_t* hi) const {
  const double side = CellSide(l);
  const int32_t last = static_cast<int32_t>((1u << l) - 1);
  // The same products CellLower/CellUpper compute. Both are nondecreasing
  // in c, so each bound is a floor-division guess plus an exact fix-up
  // that decides with the double comparisons of Lemma 3 itself.
  const auto below = [&](int32_t c) {  // CellLower(c) <= upper
    return !(static_cast<double>(c) * side > upper);
  };
  const auto above = [&](int32_t c) {  // CellUpper(c) >= lower
    return !(static_cast<double>(c + 1) * side < lower);
  };
  const double h_guess = std::floor(upper / side);
  int32_t h = !(h_guess < last) ? last
              : h_guess < 0.0   ? -1
                                : static_cast<int32_t>(h_guess);
  while (h >= 0 && !below(h)) --h;
  while (h < last && below(h + 1)) ++h;
  const double l_guess = std::ceil(lower / side) - 1.0;
  int32_t o = !(l_guess > 0.0)  ? 0
              : l_guess > last  ? last + 1
                                : static_cast<int32_t>(l_guess);
  while (o > 0 && above(o - 1)) --o;
  while (o <= last && !above(o)) ++o;
  *lo = o;
  *hi = h;
}

int64_t HierarchicalGrid::FindLeaf(const CellCoord& coords) const {
  auto it = leaf_lookup_.find(coords);
  if (it == leaf_lookup_.end()) return -1;
  return static_cast<int64_t>(it->second);
}

size_t HierarchicalGrid::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& level : levels_cells_) {
    bytes += level.capacity() * sizeof(Cell);
    for (const auto& c : level) {
      bytes += c.children.capacity() * sizeof(uint32_t);
      bytes += c.items.capacity() * sizeof(VecId);
    }
  }
  bytes += leaf_lookup_.size() * (sizeof(CellCoord) + sizeof(uint32_t) + 16);
  for (const ViewLevel& view : view_) {
    bytes += view.coords.capacity() * sizeof(uint16_t);
    bytes += view.child_begin.capacity() * sizeof(uint32_t);
  }
  bytes += view_leaf_to_leaf_.capacity() * sizeof(uint32_t);
  bytes += leaf_to_view_leaf_.capacity() * sizeof(uint32_t);
  return bytes;
}

void HierarchicalGrid::Serialize(BinaryWriter* w) const {
  w->Write<uint32_t>(levels_);
  w->Write<uint32_t>(num_pivots_);
  w->Write<double>(extent_);
  w->Write<uint64_t>(num_vectors_);
  // Leaf cells always carry their items. The byte was a flag for leaves
  // without them; it is written 1, and ignored on read.
  w->Write<uint8_t>(1);
  for (uint32_t l = 1; l <= levels_; ++l) {
    const auto& cells = levels_cells_[l - 1];
    w->Write<uint64_t>(cells.size());
    for (const auto& c : cells) {
      w->Write<CellCoord>(c.coords);
      w->WriteVector(c.children);
      w->WriteVector(c.items);
    }
  }
  // The per-vector leaf map, kept in the format though search never reads
  // it: every vector sits in exactly one leaf.
  const auto& leaves = LeafCells();
  std::vector<uint32_t> leaf_of(num_vectors_, 0);
  for (uint32_t leaf = 0; leaf < leaves.size(); ++leaf) {
    for (VecId v : leaves[leaf].items) leaf_of[v] = leaf;
  }
  w->WriteVector(leaf_of);
}

Status HierarchicalGrid::Deserialize(BinaryReader* r) {
  PEXESO_RETURN_NOT_OK(r->Read(&levels_));
  PEXESO_RETURN_NOT_OK(r->Read(&num_pivots_));
  PEXESO_RETURN_NOT_OK(r->Read(&extent_));
  uint64_t nv = 0;
  PEXESO_RETURN_NOT_OK(r->Read(&nv));
  num_vectors_ = nv;
  uint8_t leaf_items = 0;  // the retired leaf-items flag; ignored
  PEXESO_RETURN_NOT_OK(r->Read(&leaf_items));
  if (levels_ < 1 || levels_ > kMaxLevels || num_pivots_ < 1 ||
      num_pivots_ > kMaxPivots || !std::isfinite(extent_) || extent_ <= 0.0) {
    return Status::Corruption("grid header implausible");
  }
  // Every cell image holds at least its coords and two length prefixes, so
  // a cell count is bounded by the bytes left before anything is sized.
  constexpr uint64_t kMinCellBytes = sizeof(CellCoord) + 2 * sizeof(uint64_t);
  levels_cells_.assign(levels_, {});
  for (uint32_t l = 1; l <= levels_; ++l) {
    uint64_t ncells = 0;
    PEXESO_RETURN_NOT_OK(r->Read(&ncells));
    if (ncells > r->remaining() / kMinCellBytes) {
      return Status::Corruption("grid cell count implausible");
    }
    auto& cells = levels_cells_[l - 1];
    cells.resize(ncells);
    for (auto& c : cells) {
      PEXESO_RETURN_NOT_OK(r->Read(&c.coords));
      PEXESO_RETURN_NOT_OK(r->ReadVector(&c.children));
      PEXESO_RETURN_NOT_OK(r->ReadVector(&c.items));
      if (c.coords.ndims != num_pivots_) {
        return Status::Corruption("grid cell arity mismatch");
      }
      if (l < levels_ && !c.items.empty()) {
        return Status::Corruption("grid interior cell carries items");
      }
      for (uint32_t j = 0; j < num_pivots_; ++j) {
        if (c.coords.c[j] >= (1u << l)) {
          return Status::Corruption("grid cell coordinate out of range");
        }
      }
    }
  }
  std::vector<uint32_t> leaf_of;
  PEXESO_RETURN_NOT_OK(r->ReadVector(&leaf_of));
  // The cells must form a tree for the descent view to number each one
  // once: every cell below level 1 is listed by exactly one parent, and
  // that parent holds its coordinates' Parent().
  std::vector<uint8_t> listed;
  for (uint32_t l = 1; l < levels_; ++l) {
    const auto& next = levels_cells_[l];
    listed.assign(next.size(), 0);
    for (const Cell& c : levels_cells_[l - 1]) {
      for (uint32_t child : c.children) {
        if (child >= next.size()) {
          return Status::Corruption("grid child out of range");
        }
        if (listed[child]++ != 0) {
          return Status::Corruption("grid cell listed more than once");
        }
        if (!(next[child].coords.Parent() == c.coords)) {
          return Status::Corruption("grid child outside its parent");
        }
      }
    }
    for (uint8_t once : listed) {
      if (once == 0) return Status::Corruption("grid cell without a parent");
    }
  }
  // The leaf map must say what the leaf items say: each vector in exactly
  // one leaf.
  const auto& leaves = levels_cells_.back();
  if (leaf_of.size() != num_vectors_) {
    return Status::Corruption("grid leaf map size mismatch");
  }
  std::vector<uint8_t> placed(num_vectors_, 0);
  for (uint32_t leaf = 0; leaf < leaves.size(); ++leaf) {
    for (VecId v : leaves[leaf].items) {
      if (v >= num_vectors_) {
        return Status::Corruption("grid item out of range");
      }
      if (placed[v]++ != 0 || leaf_of[v] != leaf) {
        return Status::Corruption("grid leaf map disagrees with the leaves");
      }
    }
  }
  for (uint8_t once : placed) {
    if (once == 0) {
      return Status::Corruption("grid leaf map disagrees with the leaves");
    }
  }
  leaf_lookup_.clear();
  leaf_lookup_.reserve(leaves.size());
  for (uint32_t i = 0; i < leaves.size(); ++i) {
    if (!leaf_lookup_.emplace(leaves[i].coords, i).second) {
      return Status::Corruption("grid leaf listed twice");
    }
  }
  BuildView();
  return Status::OK();
}

}  // namespace pexeso
