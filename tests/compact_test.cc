// A built PexesoIndex never changes, so compaction lives in the live lake:
// DropColumns masks columns at once and the next merge of each part
// rebuilds its base without them. These cases pin what compaction must
// keep (every surviving result, unchanged) and what it must give back
// (the dropped columns' bytes on disk).

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/searcher.h"
#include "lake/lake_manager.h"
#include "test_util.h"

namespace pexeso {
namespace {

using lake::LakeManager;
using lake::LakeOptions;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::MustSearch;
using testing::ResultColumns;

namespace fs = std::filesystem;

constexpr uint32_t kDim = 8;
constexpr uint32_t kParts = 2;

class CompactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/compact_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  void CreateLake(uint64_t seed, uint32_t columns, uint32_t col_size) {
    ColumnCatalog catalog =
        MakeClusteredCatalog(seed, kDim, columns, col_size);
    PartitionAssignment assignment(columns);
    for (uint32_t c = 0; c < columns; ++c) assignment[c] = c % kParts;
    LakeOptions opts;
    opts.index_options.num_pivots = 3;
    opts.index_options.levels = 3;
    auto created =
        LakeManager::Create(catalog, assignment, dir_, &metric_, opts);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    lake_ = std::move(created).ValueOrDie();
  }

  JoinQuery MakeQuery(const VectorStore& query) const {
    FractionalThresholds ft{0.08, 0.3};
    JoinQuery jq;
    jq.thresholds = ft.Resolve(metric_, kDim, query.size());
    return jq;
  }

  std::string dir_;
  L2Metric metric_;
  std::unique_ptr<LakeManager> lake_;
};

TEST_F(CompactTest, CompactPreservesSurvivingResults) {
  CreateLake(980, 20, 12);
  VectorStore query = MakeClusteredQuery(980, kDim, 15);
  const JoinQuery jq = MakeQuery(query);
  const std::vector<ColumnId> before =
      ResultColumns(MustSearch(*lake_, query, jq));
  ASSERT_GE(before.size(), 2u);

  // Drop the first found column and merge it away; global ids survive a
  // merge, so the survivors must come back under the same ids.
  const ColumnId victim = before[0];
  const std::vector<ColumnId> expected(before.begin() + 1, before.end());
  lake_->DropColumns({victim});
  ASSERT_TRUE(lake_->MergeAll().ok());

  EXPECT_EQ(ResultColumns(MustSearch(*lake_, query, jq)), expected);
  const uint32_t victim_part = victim % kParts;
  EXPECT_EQ(lake_->generation(victim_part), 2u);
  EXPECT_TRUE(lake_->Snapshot(victim_part)->tombstones->empty());
}

TEST_F(CompactTest, CompactWithoutTombstonesIsNoop) {
  CreateLake(981, 10, 8);
  VectorStore query = MakeClusteredQuery(981, kDim, 10);
  const JoinQuery jq = MakeQuery(query);
  const std::vector<ColumnId> before =
      ResultColumns(MustSearch(*lake_, query, jq));
  const size_t bytes = lake_->DiskBytes();

  // Nothing appended, nothing dropped: no part has work to fold.
  ASSERT_TRUE(lake_->MergeAll().ok());
  for (uint32_t part = 0; part < kParts; ++part) {
    EXPECT_EQ(lake_->generation(part), 1u) << part;
  }
  EXPECT_EQ(lake_->DiskBytes(), bytes);
  EXPECT_EQ(ResultColumns(MustSearch(*lake_, query, jq)), before);
}

TEST_F(CompactTest, CompactShrinksIndexFootprint) {
  CreateLake(982, 30, 15);
  const size_t before_bytes = lake_->DiskBytes();
  std::vector<uint32_t> dropped;
  for (uint32_t c = 0; c < 15; ++c) dropped.push_back(c);
  lake_->DropColumns(dropped);
  // Masking alone reclaims nothing; the merge does.
  EXPECT_EQ(lake_->DiskBytes(), before_bytes);
  ASSERT_TRUE(lake_->MergeAll().ok());
  EXPECT_LT(lake_->DiskBytes(), before_bytes);

  size_t live = 0;
  for (uint32_t part = 0; part < kParts; ++part) {
    auto snap = lake_->Snapshot(part);
    EXPECT_TRUE(snap->tombstones->empty()) << part;
    EXPECT_TRUE(snap->deltas.empty()) << part;
    auto base = PexesoIndex::Load(snap->base_path, &metric_);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    live += base.value().catalog().num_columns();
  }
  EXPECT_EQ(live, 15u);
}

}  // namespace
}  // namespace pexeso
