#include <gtest/gtest.h>

#include <cstdio>
#include <set>

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
        const VecId v = b.inv.vec_ids_data()[p.vec_begin + k];
        EXPECT_TRUE(seen.insert(v).second) << "vector listed twice";
        EXPECT_EQ(b.catalog.ColumnOf(v), p.column);
        // The vector must actually live in this grid cell.
        EXPECT_EQ(b.grid.LeafOf(v), cell);
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

TEST(InvertedIndexTest, AppendKeepsSortedInvariant) {
  auto b = MakeIndex(1002);
  const uint32_t cell = 0;
  const size_t before = b.inv.PostingsOf(cell).size();
  // Append a new highest column id into an existing cell.
  const ColumnId new_col = static_cast<ColumnId>(b.catalog.num_columns());
  const VecId vecs[2] = {900, 901};
  b.inv.Append(cell, new_col, vecs);
  const auto postings = b.inv.PostingsOf(cell);
  ASSERT_EQ(postings.size(), before + 1);
  EXPECT_EQ(postings.back().column, new_col);
  EXPECT_EQ(postings.back().vec_count, 2u);
  for (size_t i = 1; i < postings.size(); ++i) {
    EXPECT_LE(postings[i - 1].column, postings[i].column);
  }
}

TEST(InvertedIndexTest, AppendSameColumnCoalesces) {
  InvertedIndex inv;
  inv.EnsureCells(1);
  const VecId first[2] = {1, 2};
  const VecId second[1] = {3};
  inv.Append(0, 7, first);
  inv.Append(0, 7, second);  // contiguous ids: must merge into one posting
  const auto postings = inv.PostingsOf(0);
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(postings[0].vec_count, 3u);
}

TEST(InvertedIndexTest, EnsureCellsGrowsOnly) {
  InvertedIndex inv;
  inv.EnsureCells(5);
  EXPECT_EQ(inv.num_cells(), 5u);
  inv.EnsureCells(3);
  EXPECT_EQ(inv.num_cells(), 5u);
  EXPECT_TRUE(inv.PostingsOf(4).empty());
}

TEST(InvertedIndexTest, MemoryBytesTracksContent) {
  auto small = MakeIndex(1004);
  InvertedIndex empty;
  EXPECT_GT(small.inv.MemoryBytes(), empty.MemoryBytes());
}

}  // namespace
}  // namespace pexeso
