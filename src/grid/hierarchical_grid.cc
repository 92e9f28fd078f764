#include "grid/hierarchical_grid.h"

#include <algorithm>
#include <cmath>

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
  PEXESO_CHECK(options.levels >= 1 && options.levels <= 14);
  PEXESO_CHECK(extent > 0.0);
  levels_ = options.levels;
  num_pivots_ = num_pivots;
  extent_ = extent;
  num_vectors_ = 0;
  store_leaf_items_ = options.store_leaf_items;
  levels_cells_.assign(levels_, {});
  lookups_.assign(levels_, {});
  leaf_of_.clear();
  leaf_of_.reserve(n);

  for (size_t i = 0; i < n; ++i) {
    Insert(mapped + i * num_pivots_, static_cast<VecId>(i),
           options.store_leaf_items);
  }
}

uint32_t HierarchicalGrid::Insert(const double* mapped_vec, VecId id,
                                  bool store_item) {
  PEXESO_CHECK(levels_ >= 1);
  uint32_t leaf_idx = 0;
  uint32_t child_idx = 0;
  bool child_created = false;
  for (uint32_t l = levels_; l >= 1; --l) {
    CellCoord k = CoordsOf(mapped_vec, l);
    auto& lk = lookups_[l - 1];
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
      leaf_idx = idx;
      if (store_item) levels_cells_[l - 1][idx].items.push_back(id);
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
  PEXESO_DCHECK(id == leaf_of_.size());
  leaf_of_.push_back(leaf_idx);
  ++num_vectors_;
  return leaf_idx;
}

std::vector<uint32_t> HierarchicalGrid::RootChildren() const {
  std::vector<uint32_t> out(levels_cells_[0].size());
  for (uint32_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

int64_t HierarchicalGrid::FindLeaf(const CellCoord& coords) const {
  const auto& lk = lookups_[levels_ - 1];
  auto it = lk.find(coords);
  if (it == lk.end()) return -1;
  return static_cast<int64_t>(it->second);
}

void HierarchicalGrid::CollectLeaves(uint32_t l, uint32_t idx,
                                     std::vector<uint32_t>* out) const {
  if (l == levels_) {
    out->push_back(idx);
    return;
  }
  for (uint32_t child : levels_cells_[l - 1][idx].children) {
    CollectLeaves(l + 1, child, out);
  }
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
  for (const auto& lk : lookups_) {
    bytes += lk.size() * (sizeof(CellCoord) + sizeof(uint32_t) + 16);
  }
  bytes += leaf_of_.capacity() * sizeof(uint32_t);
  return bytes;
}

void HierarchicalGrid::Serialize(BinaryWriter* w) const {
  w->Write<uint32_t>(levels_);
  w->Write<uint32_t>(num_pivots_);
  w->Write<double>(extent_);
  w->Write<uint64_t>(num_vectors_);
  w->Write<uint8_t>(store_leaf_items_ ? 1 : 0);
  for (uint32_t l = 1; l <= levels_; ++l) {
    const auto& cells = levels_cells_[l - 1];
    w->Write<uint64_t>(cells.size());
    for (const auto& c : cells) {
      w->Write<CellCoord>(c.coords);
      w->WriteVector(c.children);
      w->WriteVector(c.items);
    }
  }
  w->WriteVector(leaf_of_);
}

Status HierarchicalGrid::Deserialize(BinaryReader* r) {
  PEXESO_RETURN_NOT_OK(r->Read(&levels_));
  PEXESO_RETURN_NOT_OK(r->Read(&num_pivots_));
  PEXESO_RETURN_NOT_OK(r->Read(&extent_));
  uint64_t nv = 0;
  PEXESO_RETURN_NOT_OK(r->Read(&nv));
  num_vectors_ = nv;
  uint8_t sli = 0;
  PEXESO_RETURN_NOT_OK(r->Read(&sli));
  store_leaf_items_ = (sli != 0);
  if (levels_ < 1 || levels_ > 14 || num_pivots_ < 1 ||
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
    }
  }
  PEXESO_RETURN_NOT_OK(r->ReadVector(&leaf_of_));
  // Range-check every cross reference: children index the next level,
  // items and leaf_of_ entries index the vectors and the leaves.
  const size_t nleaves = levels_cells_.back().size();
  for (uint32_t l = 1; l <= levels_; ++l) {
    const size_t next = l < levels_ ? levels_cells_[l].size() : 0;
    for (const Cell& c : levels_cells_[l - 1]) {
      for (uint32_t child : c.children) {
        if (child >= next) return Status::Corruption("grid child out of range");
      }
      for (VecId v : c.items) {
        if (v >= num_vectors_) {
          return Status::Corruption("grid item out of range");
        }
      }
    }
  }
  if (leaf_of_.size() != num_vectors_) {
    return Status::Corruption("grid leaf map size mismatch");
  }
  for (uint32_t leaf : leaf_of_) {
    if (leaf >= nleaves) return Status::Corruption("grid leaf out of range");
  }
  lookups_.assign(levels_, {});
  for (uint32_t l = 1; l <= levels_; ++l) {
    const auto& cells = levels_cells_[l - 1];
    for (uint32_t i = 0; i < cells.size(); ++i) {
      lookups_[l - 1].emplace(cells[i].coords, i);
    }
  }
  return Status::OK();
}

}  // namespace pexeso
