#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "test_util.h"
#include "vec/column_catalog.h"
#include "vec/search_stats.h"
#include "vec/metric.h"
#include "vec/vector_store.h"

namespace pexeso {
namespace {

TEST(VectorStoreTest, AddAndView) {
  VectorStore store(3);
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{4, 5, 6};
  EXPECT_EQ(store.Add(a), 0u);
  EXPECT_EQ(store.Add(b), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.View(1)[2], 6.0f);
}

TEST(VectorStoreTest, AddBatch) {
  VectorStore store(2);
  const float packed[] = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(store.AddBatch(packed, 3), 0u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.View(2)[1], 6.0f);
}

TEST(VectorStoreTest, NormalizeAllProducesUnitNorms) {
  Rng rng(5);
  VectorStore store(8);
  std::vector<float> v(8);
  for (int i = 0; i < 20; ++i) {
    for (auto& x : v) x = static_cast<float>(rng.Normal() * 3);
    store.Add(v);
  }
  store.NormalizeAll();
  for (VecId id = 0; id < store.size(); ++id) {
    double n2 = 0;
    for (uint32_t j = 0; j < 8; ++j) {
      n2 += static_cast<double>(store.View(id)[j]) * store.View(id)[j];
    }
    EXPECT_NEAR(n2, 1.0, 1e-5);
  }
}

TEST(VectorStoreTest, NormalizeZeroVectorFallsBackToBasis) {
  float v[4] = {0, 0, 0, 0};
  VectorStore::NormalizeInPlace(v, 4);
  EXPECT_EQ(v[0], 1.0f);
  EXPECT_EQ(v[1], 0.0f);
}

class MetricTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MetricTest, IdentityAndSymmetry) {
  auto metric = MakeMetric(GetParam());
  ASSERT_NE(metric, nullptr);
  Rng rng(42);
  std::vector<float> a, b;
  for (int iter = 0; iter < 20; ++iter) {
    testing::RandomUnitVector(&rng, 16, &a);
    testing::RandomUnitVector(&rng, 16, &b);
    EXPECT_NEAR(metric->Dist(a.data(), a.data(), 16), 0.0, 1e-6);
    EXPECT_NEAR(metric->Dist(a.data(), b.data(), 16),
                metric->Dist(b.data(), a.data(), 16), 1e-9);
  }
}

TEST_P(MetricTest, TriangleInequalityHolds) {
  // The filtering lemmas are only sound for true metrics; sample-check it.
  auto metric = MakeMetric(GetParam());
  Rng rng(43);
  std::vector<float> a, b, c;
  for (int iter = 0; iter < 200; ++iter) {
    testing::RandomUnitVector(&rng, 12, &a);
    testing::RandomUnitVector(&rng, 12, &b);
    testing::RandomUnitVector(&rng, 12, &c);
    const double ab = metric->Dist(a.data(), b.data(), 12);
    const double bc = metric->Dist(b.data(), c.data(), 12);
    const double ac = metric->Dist(a.data(), c.data(), 12);
    EXPECT_LE(ac, ab + bc + 1e-9);
  }
}

TEST_P(MetricTest, MaxUnitDistanceIsAnUpperBound) {
  auto metric = MakeMetric(GetParam());
  Rng rng(44);
  std::vector<float> a, b;
  double maxd = metric->MaxUnitDistance(12);
  for (int iter = 0; iter < 200; ++iter) {
    testing::RandomUnitVector(&rng, 12, &a);
    testing::RandomUnitVector(&rng, 12, &b);
    EXPECT_LE(metric->Dist(a.data(), b.data(), 12), maxd + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricTest,
                         ::testing::Values("l2", "cosine", "l1"));

TEST(MetricFactoryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeMetric("hamming"), nullptr);
}

TEST(MetricTest, L2MatchesManualComputation) {
  L2Metric m;
  const float a[2] = {0, 0};
  const float b[2] = {3, 4};
  EXPECT_NEAR(m.Dist(a, b, 2), 5.0, 1e-9);
}

TEST(MetricTest, CosineEqualsL2OnUnitVectors) {
  CosineMetric cm;
  L2Metric l2;
  Rng rng(45);
  std::vector<float> a, b;
  for (int iter = 0; iter < 50; ++iter) {
    testing::RandomUnitVector(&rng, 10, &a);
    testing::RandomUnitVector(&rng, 10, &b);
    EXPECT_NEAR(cm.Dist(a.data(), b.data(), 10), l2.Dist(a.data(), b.data(), 10),
                1e-5);
  }
}

TEST(ColumnCatalogTest, ColumnOfFindsOwningColumn) {
  ColumnCatalog catalog(2);
  const float v[] = {1, 0, 0, 1, 1, 1};
  ColumnMeta m1;
  m1.table_name = "a";
  catalog.AddColumn(m1, v, 2);
  ColumnMeta m2;
  m2.table_name = "b";
  catalog.AddColumn(m2, v, 3);
  ColumnMeta m3;
  m3.table_name = "c";
  catalog.AddColumn(m3, v, 1);
  EXPECT_EQ(catalog.num_columns(), 3u);
  EXPECT_EQ(catalog.num_vectors(), 6u);
  EXPECT_EQ(catalog.ColumnOf(0), 0u);
  EXPECT_EQ(catalog.ColumnOf(1), 0u);
  EXPECT_EQ(catalog.ColumnOf(2), 1u);
  EXPECT_EQ(catalog.ColumnOf(4), 1u);
  EXPECT_EQ(catalog.ColumnOf(5), 2u);
}

TEST(ColumnCatalogTest, MetaRoundTrip) {
  ColumnCatalog catalog = testing::MakeClusteredCatalog(9, 6, 5, 4);
  std::string image;
  {
    BinaryWriter bw = BinaryWriter::ToBuffer(&image);
    catalog.SerializeMeta(&bw);
  }
  BinaryReader br = BinaryReader::FromBuffer(image.data(), image.size());
  ColumnCatalog loaded;
  ASSERT_TRUE(loaded.DeserializeMeta(&br).ok());
  ASSERT_EQ(loaded.num_columns(), catalog.num_columns());
  for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
    EXPECT_EQ(loaded.column(c).table_name, catalog.column(c).table_name);
    EXPECT_EQ(loaded.column(c).first, catalog.column(c).first);
    EXPECT_EQ(loaded.column(c).count, catalog.column(c).count);
  }
}

TEST(ColumnCatalogTest, MetaRejectsImplausibleColumnCount) {
  // A count no remaining byte budget could hold must fail before anything
  // is sized by it.
  std::string image;
  {
    BinaryWriter bw = BinaryWriter::ToBuffer(&image);
    bw.Write<uint64_t>(uint64_t{1} << 62);
    bw.Write<uint64_t>(0);
  }
  BinaryReader br = BinaryReader::FromBuffer(image.data(), image.size());
  ColumnCatalog loaded;
  EXPECT_EQ(loaded.DeserializeMeta(&br).code(), Status::Code::kCorruption);
}

/// One SearchStats table entry as the table-driven tests see it.
struct StatEntry {
  uint16_t id;
  std::string name;
  StatMerge merge;
  bool is_double;
};

std::vector<StatEntry> StatTable() {
  std::vector<StatEntry> table;
  SearchStats{}.ForEachField([&](const StatField& f, auto v) {
    table.push_back(
        {f.id, f.name, f.merge, std::is_same_v<decltype(v), double>});
  });
  return table;
}

/// A SearchStats whose i-th table field holds value(i).
template <typename ValueFn>
SearchStats FillStats(const std::vector<StatEntry>& table, ValueFn value) {
  SearchStats s;
  for (size_t i = 0; i < table.size(); ++i) {
    const uint64_t bits =
        table[i].is_double ? std::bit_cast<uint64_t>(double(value(i)))
                           : static_cast<uint64_t>(value(i));
    EXPECT_TRUE(s.SetFieldBits(table[i].id, bits)) << table[i].name;
  }
  return s;
}

TEST(SearchStatsTest, AccumulateAndReset) {
  // The wire ids and exported names are a contract between builds (DONE
  // tags, STATS lines): reordering, renumbering or renaming an entry must
  // fail here. Append new entries at the end with fresh ids.
  const std::vector<std::pair<uint16_t, std::string>> golden = {
      {1, "search_distance_computations"},
      {2, "search_sqrt_free_comparisons"},
      {3, "search_lemma1_filtered"},
      {4, "search_lemma2_matched"},
      {5, "search_cells_filtered"},
      {6, "search_cells_matched"},
      {7, "search_candidate_pairs"},
      {8, "search_matching_pairs"},
      {9, "search_lemma7_kills"},
      {10, "search_early_joinable"},
      {11, "search_candidate_blocks"},
      {12, "search_tiles_evaluated"},
      {13, "search_quant_tile_skips"},
      {14, "search_shard_max_blocks"},
      {15, "search_columns_pruned_topk"},
      {16, "search_deadline_expired"},
      {17, "search_delta_columns_searched"},
      {18, "search_tombstones_masked"},
      {19, "search_io_retries"},
      {20, "search_corruption_detected"},
      {21, "search_parts_quarantined"},
      {22, "search_degraded_merges"},
      {23, "search_partial_responses"},
      {24, "search_shard_scatters"},
      {25, "search_floor_updates_sent"},
      {26, "search_floor_updates_received"},
      {27, "search_hedged_requests"},
      {28, "search_failovers"},
      {29, "search_shards_degraded"},
      {30, "search_shard_bytes_moved"},
      {31, "search_block_seconds"},
      {32, "search_verify_seconds"},
      {33, "search_candidate_seconds"},
  };
  const std::vector<StatEntry> table = StatTable();
  std::vector<std::pair<uint16_t, std::string>> listed;
  std::set<uint16_t> ids;
  std::set<std::string> names;
  for (const StatEntry& e : table) {
    listed.emplace_back(e.id, e.name);
    EXPECT_TRUE(ids.insert(e.id).second) << "duplicate id " << e.id;
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate name " << e.name;
    // The shard-imbalance diagnostic is the one MAX-merged field: a sum
    // across shards/queries would be meaningless.
    EXPECT_EQ(e.merge == StatMerge::kMax, e.name == "search_shard_max_blocks")
        << e.name;
  }
  EXPECT_EQ(listed, golden);

  // All 64 values distinct; merging both ways round checks a MAX field
  // against either operand winning.
  const auto value_a = [](size_t i) { return 1 + i; };
  const auto value_b = [](size_t i) { return 1000 - 7 * i; };
  const SearchStats a = FillStats(table, value_a);
  const SearchStats b = FillStats(table, value_b);
  EXPECT_EQ(a.distance_computations, 1u);
  EXPECT_EQ(a.scatters, 24u);
  EXPECT_EQ(b.verify_seconds, 1000.0 - 7 * 31);
  const auto expect_merged = [&](const SearchStats& merged) {
    size_t i = 0;
    merged.ForEachField([&](const StatField& f, auto v) {
      const double x = value_a(i), y = value_b(i);
      EXPECT_EQ(static_cast<double>(v),
                f.merge == StatMerge::kMax ? std::max(x, y) : x + y)
          << f.name;
      ++i;
    });
  };
  SearchStats ab = a;
  ab += b;
  expect_merged(ab);
  SearchStats ba = b;
  ba += a;
  expect_merged(ba);

  ab.Reset();
  ab.ForEachField([](const StatField& f, auto v) {
    EXPECT_EQ(static_cast<double>(v), 0.0) << f.name;
  });
  EXPECT_FALSE(ab.SetFieldBits(0xFFFF, 1));  // an id this build lacks
}

}  // namespace
}  // namespace pexeso
