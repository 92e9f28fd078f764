#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <type_traits>

#include "invindex/inverted_index.h"
#include "test_util.h"

namespace pexeso {
namespace {

using testing::MakeClusteredCatalog;

struct BuiltIndex {
  ColumnCatalog catalog;
  std::vector<double> mapped;
  HierarchicalGrid grid;
  InvertedIndex inv;
};

BuiltIndex MakeIndex(uint64_t seed, uint32_t np = 2, uint32_t levels = 3) {
  BuiltIndex b{MakeClusteredCatalog(seed, 6, 12, 10), {}, {}, {}};
  Rng rng(seed);
  // Synthetic mapped coordinates (any values in [0,2] work for the index).
  b.mapped.resize(b.catalog.num_vectors() * np);
  for (auto& x : b.mapped) x = rng.UniformDouble() * 2.0;
  HierarchicalGrid::Options opts;
  opts.levels = levels;
  b.grid.Build(b.mapped.data(), b.catalog.num_vectors(), np, 2.0, opts);
  b.inv.Build(b.grid, b.catalog);
  return b;
}

TEST(InvertedIndexTest, CoversEveryVectorExactlyOnce) {
  auto b = MakeIndex(1000);
  std::set<VecId> seen;
  for (uint32_t cell = 0; cell < b.inv.num_cells(); ++cell) {
    for (const auto& p : b.inv.PostingsOf(cell)) {
      for (uint32_t k = 0; k < p.vec_count; ++k) {
        const VecId v = b.inv.vec_ids()[p.vec_begin + k];
        EXPECT_TRUE(seen.insert(v).second) << "vector listed twice";
        EXPECT_EQ(b.catalog.ColumnOf(v), p.column);
        // The vector must actually live in this grid cell.
        const auto& items = b.grid.LeafCells()[cell].items;
        EXPECT_NE(std::find(items.begin(), items.end(), v), items.end());
      }
    }
  }
  EXPECT_EQ(seen.size(), b.catalog.num_vectors());
}

TEST(InvertedIndexTest, PostingsSortedByColumn) {
  auto b = MakeIndex(1001);
  for (uint32_t cell = 0; cell < b.inv.num_cells(); ++cell) {
    const auto postings = b.inv.PostingsOf(cell);
    for (size_t i = 1; i < postings.size(); ++i) {
      EXPECT_LT(postings[i - 1].column, postings[i].column);
    }
  }
}

// An owned index's spans point at its own arrays, so a copy would read the
// original's storage: there is none. A move keeps the spans valid.
static_assert(!std::is_copy_constructible_v<InvertedIndex>);
static_assert(!std::is_copy_assignable_v<InvertedIndex>);

TEST(InvertedIndexTest, MovedIndexKeepsItsArrays) {
  auto b = MakeIndex(1003);
  const std::vector<uint64_t> offsets(b.inv.cell_offsets().begin(),
                                      b.inv.cell_offsets().end());
  const std::vector<VecId> vec_ids(b.inv.vec_ids().begin(),
                                   b.inv.vec_ids().end());
  InvertedIndex moved(std::move(b.inv));
  InvertedIndex assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.num_cells(), offsets.size() - 1);
  EXPECT_TRUE(std::equal(offsets.begin(), offsets.end(),
                         assigned.cell_offsets().begin(),
                         assigned.cell_offsets().end()));
  EXPECT_TRUE(std::equal(vec_ids.begin(), vec_ids.end(),
                         assigned.vec_ids().begin(), assigned.vec_ids().end()));
  EXPECT_EQ(assigned.postings().size(), offsets.back());
}

TEST(InvertedIndexTest, MemoryBytesTracksContent) {
  auto small = MakeIndex(1004);
  InvertedIndex empty;
  EXPECT_GT(small.inv.MemoryBytes(), empty.MemoryBytes());
}

}  // namespace
}  // namespace pexeso
