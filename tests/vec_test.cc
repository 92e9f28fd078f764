#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

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

TEST(SearchStatsTest, AccumulateAndReset) {
  SearchStats a, b;
  a.distance_computations = 5;
  b.distance_computations = 7;
  b.lemma7_kills = 2;
  // Pipeline counters: sums for blocks/tiles, MAX for the shard-imbalance
  // diagnostic (a sum across shards/queries would be meaningless).
  a.candidate_blocks = 3;
  b.candidate_blocks = 4;
  a.tiles_evaluated = 10;
  b.tiles_evaluated = 1;
  a.shard_max_blocks = 9;
  b.shard_max_blocks = 6;
  a += b;
  EXPECT_EQ(a.distance_computations, 12u);
  EXPECT_EQ(a.lemma7_kills, 2u);
  EXPECT_EQ(a.candidate_blocks, 7u);
  EXPECT_EQ(a.tiles_evaluated, 11u);
  EXPECT_EQ(a.shard_max_blocks, 9u);  // max-merge, not sum
  a.Reset();
  EXPECT_EQ(a.distance_computations, 0u);
  EXPECT_EQ(a.shard_max_blocks, 0u);
}

}  // namespace
}  // namespace pexeso
