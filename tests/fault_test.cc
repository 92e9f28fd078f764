// The robustness contract: whatever the environment does — torn writes,
// power cuts at any point of the merge/manifest/vacuum lifecycle, bit rot
// in snapshot files, transient IO failures — the lake must (a) never crash
// or hot-loop, (b) recover on Open to a state byte-identical to a
// from-scratch build over exactly the content the crash provably
// committed, and (c) keep serving what it still can, reporting the gaps
// per part instead of failing whole queries.
//
// The kill-point matrix is the heart of it: a forked child arms a crash
// failpoint at one lifecycle site, runs open → append → merge-all →
// vacuum, and dies mid-operation with std::_Exit (no flush — a power
// cut). The parent reopens the directory and checks both WHICH parts'
// merges committed (each site pins the expected generation vector) and
// that search results over the recovered lake equal a from-scratch
// rebuild over that exact composition.

#include <gtest/gtest.h>

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "lake/fsck.h"
#include "lake/lake_manager.h"
#include "lake/manifest.h"
#include "partition/partitioned_pexeso.h"
#include "serve/index_cache.h"
#include "test_util.h"

namespace pexeso {
namespace {

using lake::FsckLake;
using lake::FsckOptions;
using lake::LakeManager;
using lake::LakeOptions;
using serve::IndexCache;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::MustSearch;
using testing::ResultColumns;

namespace fs = std::filesystem;

constexpr uint32_t kDim = 8;
constexpr uint32_t kParts = 3;
constexpr uint32_t kColSize = 12;
constexpr uint32_t kInitialCols = 9;
constexpr uint32_t kAppendCols = 6;
constexpr uint64_t kSeed = 7000;

LakeOptions SmallLakeOptions() {
  LakeOptions opts;
  opts.index_options.num_pivots = 4;
  opts.index_options.levels = 4;
  opts.delta_freeze_columns = 1000;  // only explicit freezes
  return opts;
}

/// One logical column with the global id the lake assigns it.
struct LogicalColumn {
  uint32_t global_id = 0;
  std::vector<float> packed;
  uint32_t count = kColSize;
};

std::vector<LogicalColumn> ExtractColumns(const ColumnCatalog& catalog,
                                          uint32_t first_id) {
  std::vector<LogicalColumn> out;
  for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
    LogicalColumn col;
    col.global_id = first_id + c;
    const ColumnMeta& meta = catalog.column(c);
    const float* v = catalog.store().View(meta.first);
    col.packed.assign(v, v + size_t{meta.count} * kDim);
    out.push_back(std::move(col));
  }
  return out;
}

/// Initial lake content: ids 0..kInitialCols-1, routed id % kParts.
std::vector<LogicalColumn> InitialColumns() {
  return ExtractColumns(MakeClusteredCatalog(kSeed, kDim, kInitialCols,
                                             kColSize),
                        0);
}

/// The one append batch the crash child replays: ids continue the
/// watermark.
std::vector<LogicalColumn> AppendedColumns() {
  return ExtractColumns(MakeClusteredCatalog(kSeed + 1, kDim, kAppendCols,
                                             kColSize),
                        kInitialCols);
}

ColumnCatalog CatalogSlice(const std::vector<LogicalColumn>& cols) {
  ColumnCatalog catalog(kDim);
  for (const LogicalColumn& col : cols) {
    ColumnMeta meta;
    meta.table_id = col.global_id;
    meta.source_id = col.global_id;
    meta.table_name = "t" + std::to_string(col.global_id);
    meta.column_name = "c0";
    catalog.AddColumn(meta, col.packed.data(), col.count);
  }
  return catalog;
}

/// From-scratch reference over `live`: per-part indexes (id % kParts
/// routing, arrival = ascending-id order, which matches how the lake folds
/// base-then-delta), searched serially and merged canonically.
std::vector<JoinableColumn> ReferenceSearch(
    const std::vector<LogicalColumn>& live, const VectorStore& query,
    const JoinQuery& proto, const Metric& metric) {
  JoinQuery jq = proto;
  jq.vectors = &query;
  const LakeOptions opts = SmallLakeOptions();
  std::vector<JoinableColumn> merged;
  for (uint32_t part = 0; part < kParts; ++part) {
    std::vector<LogicalColumn> part_cols;
    for (const LogicalColumn& col : live) {
      if (col.global_id % kParts == part) part_cols.push_back(col);
    }
    if (part_cols.empty()) continue;
    PexesoIndex index = PexesoIndex::Build(CatalogSlice(part_cols), &metric,
                                           opts.index_options);
    auto chunk = SearchIndexSnapshot(index, jq,
                                     PartitionedPexeso::Engine::kPexeso,
                                     nullptr);
    EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
    auto results = std::move(chunk).ValueOrDie();
    merged.insert(merged.end(), results.begin(), results.end());
  }
  FinishQueryMerge(jq, &merged);
  return merged;
}

void ExpectByteIdentical(const std::vector<JoinableColumn>& got,
                         const std::vector<JoinableColumn>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].column, want[i].column) << label << " rank " << i;
    EXPECT_EQ(got[i].match_count, want[i].match_count)
        << label << " column " << got[i].column;
    EXPECT_DOUBLE_EQ(got[i].joinability, want[i].joinability)
        << label << " column " << got[i].column;
  }
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fault_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    opts_ = SmallLakeOptions();
    query_ = MakeClusteredQuery(kSeed, kDim, 14);
    jq_.thresholds =
        FractionalThresholds{0.10, 0.4}.Resolve(metric_, kDim, query_.size());
  }

  void TearDown() override {
#ifndef PEXESO_NO_FAILPOINTS
    FailpointRegistry::Instance().DisarmAll();
#endif
    fs::remove_all(dir_);
  }

  /// Builds the initial lake (generation 1 everywhere) under dir_.
  std::unique_ptr<LakeManager> CreateLake() {
    ColumnCatalog seed = MakeClusteredCatalog(kSeed, kDim, kInitialCols,
                                              kColSize);
    PartitionAssignment assignment(kInitialCols);
    for (uint32_t c = 0; c < kInitialCols; ++c) assignment[c] = c % kParts;
    auto created =
        LakeManager::Create(seed, assignment, dir_, &metric_, opts_);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return std::move(created).ValueOrDie();
  }

  JoinQuery ExactQuery() const {
    JoinQuery jq = jq_;
    jq.mode = QueryMode::kExactJoinability;
    return jq;
  }

  std::string dir_;
  L2Metric metric_;
  LakeOptions opts_;
  VectorStore query_{kDim};
  JoinQuery jq_;
};

#ifndef PEXESO_NO_FAILPOINTS

// ---------------------------------------------------------------------------
// Kill-point matrix
// ---------------------------------------------------------------------------

#ifndef _WIN32

/// The crash child's whole life: arm the spec, reopen the lake, append one
/// batch, merge everything, vacuum. The armed kCrash failpoint is expected
/// to _Exit(kFailpointCrashExitCode) somewhere inside; reaching the end
/// means it never fired (distinct exit code so the parent can tell).
int RunCrashChild(const std::string& dir, const std::string& spec) {
  if (!FailpointRegistry::Instance().ArmFromString(spec).ok()) return 3;
  L2Metric metric;
  auto opened = LakeManager::Open(dir, &metric, SmallLakeOptions());
  if (!opened.ok()) return 4;
  auto lake = std::move(opened).ValueOrDie();
  lake->AppendColumns(MakeClusteredCatalog(kSeed + 1, kDim, kAppendCols,
                                           kColSize));
  (void)lake->MergeAll();
  (void)lake->Vacuum();
  return 5;
}

struct KillPoint {
  const char* spec;
  /// Parts whose merge provably COMMITTED before the crash (their appended
  /// columns survive); everything else must recover to generation 1 with
  /// initial content only.
  std::vector<size_t> advanced;
};

TEST_F(FaultTest, KillPointMatrixRecoversToRebuildEquivalentState) {
  // MergeAll merges parts in order 0,1,2; each merge publishes its
  // snapshot durably, then the manifest. The commit point is the manifest
  // rename — everything after a site's crash is decided by whether that
  // rename had happened for each part.
  const KillPoint kMatrix[] = {
      {"lake:merge:before-save=crash", {}},
      {"lake:merge:before-publish=crash", {}},
      // Snapshot durable under its committed name, manifest not yet
      // rewritten: an uncommitted generation recovery must discard.
      {"lake:merge:after-publish=crash", {}},
      // Same site, second hit: part 0 fully committed, part 1's new
      // generation is the orphan — MIXED generations after recovery.
      {"lake:merge:after-publish=crash:1", {0}},
      // MANIFEST.tmp written and fsynced, rename pending: old manifest
      // still rules.
      {"lake:manifest:before-publish=crash", {}},
      // Manifest rename durable: part 0's merge is committed.
      {"lake:manifest:after-publish=crash", {0}},
      // All merges committed; the crash interrupts stale-file deletion,
      // leaving half the superseded generation on disk.
      {"lake:vacuum:mid=crash", {0, 1, 2}},
  };

  const std::vector<LogicalColumn> initial = InitialColumns();
  const std::vector<LogicalColumn> appended = AppendedColumns();

  for (const KillPoint& kp : kMatrix) {
    SCOPED_TRACE(kp.spec);
    fs::remove_all(dir_);
    { auto pristine = CreateLake(); }  // destroyed: gen-1 state durable

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) _exit(RunCrashChild(dir_, kp.spec));
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << kp.spec;
    ASSERT_EQ(WEXITSTATUS(status), kFailpointCrashExitCode) << kp.spec;

    // Reopen = recovery. It must succeed with nothing quarantined: every
    // kill point leaves valid committed files plus discardable debris,
    // never a torn committed file.
    auto reopened = LakeManager::Open(dir_, &metric_, opts_);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto lake = std::move(reopened).ValueOrDie();
    EXPECT_EQ(lake->Health().quarantined_parts, 0u);

    // The committed composition is exactly what the kill point pinned.
    std::vector<LogicalColumn> live = initial;
    for (size_t part = 0; part < kParts; ++part) {
      const bool advanced = std::find(kp.advanced.begin(), kp.advanced.end(),
                                      part) != kp.advanced.end();
      EXPECT_EQ(lake->generation(part), advanced ? 2u : 1u) << "part " << part;
      if (!advanced) continue;
      for (const LogicalColumn& col : appended) {
        if (col.global_id % kParts == part) live.push_back(col);
      }
    }
    std::sort(live.begin(), live.end(),
              [](const LogicalColumn& a, const LogicalColumn& b) {
                return a.global_id < b.global_id;
              });

    // Byte-identical to a from-scratch rebuild over that composition.
    const JoinQuery exact = ExactQuery();
    ExpectByteIdentical(MustSearch(*lake, query_, exact),
                        ReferenceSearch(live, query_, exact, metric_),
                        kp.spec);

    // Recovery left no debris: a report-only fsck of the recovered
    // directory finds nothing.
    auto recheck = FsckLake(dir_, FsckOptions{});
    ASSERT_TRUE(recheck.ok()) << recheck.status().ToString();
    EXPECT_TRUE(recheck.value().clean()) << kp.spec;
  }
}

#endif  // !_WIN32

// ---------------------------------------------------------------------------
// Degraded-mode serving
// ---------------------------------------------------------------------------

TEST_F(FaultTest, FailingMergesParkDegradedInsteadOfHotLooping) {
  ThreadPool pool(2);
  opts_.merge_pool = &pool;
  opts_.delta_freeze_columns = 2;  // the append below trips every part
  opts_.merge_max_attempts = 3;
  opts_.merge_backoff_initial_ms = 1.0;
  opts_.merge_backoff_max_ms = 4.0;
  auto lake = CreateLake();

  // Every merge's snapshot write fails at open, forever (until disarmed).
  FailpointRegistry::Instance().Arm("serde:writer:open",
                                    {FailAction::kIoError, 0, -1, 0});
  lake->AppendColumns(MakeClusteredCatalog(kSeed + 1, kDim, kAppendCols,
                                           kColSize));

  // Parking is what makes this wait RETURN: each part burns its failure
  // budget and stops rescheduling itself. The first parked error surfaces.
  const Status parked = lake->WaitForMerges();
  EXPECT_FALSE(parked.ok());
  EXPECT_EQ(parked.code(), Status::Code::kIoError);

  const auto health = lake->Health();
  EXPECT_EQ(health.degraded_parts, size_t{kParts});
  EXPECT_EQ(health.merge_retries, uint64_t{kParts} * opts_.merge_max_attempts);
  // Bounded, not hot: each merge attempt retries the snapshot write under
  // the transient-IO policy, so total writer-open failures are exactly
  // parts x merge attempts x IO attempts — and then the lake goes quiet.
  EXPECT_EQ(FailpointRegistry::Instance().fire_count("serde:writer:open"),
            uint64_t{kParts} * opts_.merge_max_attempts *
                opts_.io_retry.max_attempts);
  for (size_t part = 0; part < kParts; ++part) {
    EXPECT_FALSE(lake->PartHealth(part).ok()) << part;
  }

  // Parked parts still serve base + unmerged deltas, correctly and
  // completely — degraded is about compaction, not visibility.
  std::vector<LogicalColumn> live = InitialColumns();
  for (LogicalColumn& col : AppendedColumns()) live.push_back(std::move(col));
  SearchStats stats;
  const JoinQuery exact = ExactQuery();
  ExpectByteIdentical(MustSearch(*lake, query_, exact, &stats),
                      ReferenceSearch(live, query_, exact, metric_),
                      "parked");
  EXPECT_EQ(stats.degraded_merges, uint64_t{kParts});
  EXPECT_EQ(stats.partial_responses, 0u);  // complete answer, just unmerged

  // Heal: with the fault gone, MergeAll retries the parked parts inline.
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(lake->MergeAll().ok());
  EXPECT_EQ(lake->Health().degraded_parts, 0u);
  for (size_t part = 0; part < kParts; ++part) {
    EXPECT_TRUE(lake->PartHealth(part).ok()) << part;
    EXPECT_EQ(lake->generation(part), 2u) << part;
  }
  ExpectByteIdentical(MustSearch(*lake, query_, exact),
                      ReferenceSearch(live, query_, exact, metric_),
                      "healed");
}

TEST_F(FaultTest, TransientLoadFaultsRetryThenSucceed) {
  IndexCache cache({.budget_bytes = size_t{1} << 30});
  auto lake = CreateLake();
  lake->AttachCache(&cache);

  // Two injected failures, then the real load: within the default
  // 3-attempt budget, so the query succeeds and counts its retries.
  FailpointRegistry::Instance().Arm("cache:load",
                                    {FailAction::kIoError, 0, 2, 0});
  SearchStats stats;
  const JoinQuery exact = ExactQuery();
  ExpectByteIdentical(MustSearch(*lake, query_, exact, &stats),
                      ReferenceSearch(InitialColumns(), query_, exact,
                                      metric_),
                      "retried through cache");
  EXPECT_EQ(stats.io_retries, 2u);
  EXPECT_EQ(stats.partial_responses, 0u);
  FailpointRegistry::Instance().DisarmAll();

  // Same shape on the cache-less direct-load path (reader open fails).
  auto direct = LakeManager::Open(dir_, &metric_, opts_);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  FailpointRegistry::Instance().Arm("serde:reader:open",
                                    {FailAction::kIoError, 0, 2, 0});
  SearchStats direct_stats;
  ExpectByteIdentical(MustSearch(*direct.value(), query_, exact,
                                 &direct_stats),
                      ReferenceSearch(InitialColumns(), query_, exact,
                                      metric_),
                      "retried direct");
  EXPECT_EQ(direct_stats.io_retries, 2u);
}

TEST_F(FaultTest, ExhaustedRetriesYieldPartialResultsNotFailure) {
  IndexCache cache({.budget_bytes = size_t{1} << 30});
  auto lake = CreateLake();
  lake->AttachCache(&cache);

  // Part 0 is searched first; its 3 load attempts all fail (limit = the
  // full retry budget), then the failpoint is spent and parts 1, 2 load
  // fine. The query must NOT fail: it reports part 0's gap and returns
  // the rest.
  FailpointRegistry::Instance().Arm("cache:load",
                                    {FailAction::kIoError, 0, 3, 0});
  SearchStats stats;
  CollectSink sink;
  JoinQuery jq = ExactQuery();
  jq.vectors = &query_;
  const Status st = lake->Execute(jq, &sink, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(sink.part_statuses().size(), 1u);
  EXPECT_EQ(sink.part_statuses()[0].first, 0u);
  EXPECT_EQ(sink.part_statuses()[0].second.code(), Status::Code::kIoError);
  EXPECT_EQ(stats.partial_responses, 1u);
  EXPECT_EQ(stats.io_retries, 2u);

  // Exactly the other parts' columns came back.
  std::vector<LogicalColumn> others;
  for (LogicalColumn& col : InitialColumns()) {
    if (col.global_id % kParts != 0) others.push_back(std::move(col));
  }
  ExpectByteIdentical(sink.columns(),
                      ReferenceSearch(others, query_, jq, metric_),
                      "partial");

  // When EVERY part is unloadable there is nothing partial about it: the
  // query fails with the per-part error.
  cache.Clear();
  FailpointRegistry::Instance().Arm("cache:load",
                                    {FailAction::kIoError, 0, -1, 0});
  CollectSink empty_sink;
  SearchStats empty_stats;
  const Status all_failed = lake->Execute(jq, &empty_sink, &empty_stats);
  EXPECT_FALSE(all_failed.ok());
  EXPECT_EQ(empty_sink.part_statuses().size(), size_t{kParts});
  EXPECT_TRUE(empty_sink.columns().empty());
}

TEST_F(FaultTest, WriterBitRotIsCaughtByChecksumOnRead) {
  ColumnCatalog catalog = MakeClusteredCatalog(kSeed, kDim, 4, kColSize);
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric_,
                                         SmallLakeOptions().index_options);
  fs::create_directories(dir_);
  const std::string path = dir_ + "/rot.pxso";

  // One mid-stream write lands with a flipped bit while the running CRC
  // keeps the intended bytes — Save succeeds, the READER must catch it.
  FailpointRegistry::Instance().Arm("serde:writer:corrupt",
                                    {FailAction::kCorruption, 10, 1, 0});
  ASSERT_TRUE(index.Save(path).ok());
  FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(PexesoIndex::VerifySnapshot(path).code(),
            Status::Code::kCorruption);
  EXPECT_FALSE(PexesoIndex::Load(path, &metric_).ok());
}

// ---------------------------------------------------------------------------
// Failpoint framework
// ---------------------------------------------------------------------------

TEST(FailpointTest, ArmFromStringGrammarSkipAndLimit) {
  auto& reg = FailpointRegistry::Instance();
  reg.DisarmAll();
  ASSERT_TRUE(reg.ArmFromString("ft:a=ioerror:1:2;ft:b=corrupt,ft:c=delay:0:1:20")
                  .ok());
  EXPECT_TRUE(FailpointsArmed());

  // skip=1: the first hit passes; limit=2: exactly two fire, then done.
  EXPECT_TRUE(FailpointHit("ft:a").ok());
  EXPECT_EQ(FailpointHit("ft:a").code(), Status::Code::kIoError);
  EXPECT_EQ(FailpointHit("ft:a").code(), Status::Code::kIoError);
  EXPECT_TRUE(FailpointHit("ft:a").ok());
  EXPECT_EQ(reg.fire_count("ft:a"), 2u);

  // Reader sites see a Corruption status; writer sites ask CorruptFires.
  EXPECT_EQ(FailpointHit("ft:b").code(), Status::Code::kCorruption);
  EXPECT_TRUE(FailpointCorruptFires("ft:b"));

  // delay returns OK after sleeping at least its budget.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(FailpointHit("ft:c").ok());
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count(),
            15);

  // Unarmed sites and disarmed registries are no-ops.
  EXPECT_TRUE(FailpointHit("ft:never-armed").ok());
  reg.DisarmAll();
  EXPECT_FALSE(FailpointsArmed());
  EXPECT_TRUE(FailpointHit("ft:b").ok());

  // Malformed specs are rejected (the env path ignores the error; the
  // programmatic path surfaces it).
  EXPECT_FALSE(reg.ArmFromString("nonsense").ok());
  EXPECT_FALSE(reg.ArmFromString("ft:d=explode").ok());
  EXPECT_FALSE(reg.ArmFromString("ft:d=ioerror:x").ok());
  EXPECT_FALSE(reg.ArmFromString("=ioerror").ok());
  reg.DisarmAll();
}

#endif  // !PEXESO_NO_FAILPOINTS

// ---------------------------------------------------------------------------
// Corrupted-inputs corpus (no failpoints needed: real bad bytes)
// ---------------------------------------------------------------------------

/// kOldVersion rewrites the version word to 2 (a streamed pre-flat
/// snapshot) and recomputes the footer: CRC-valid bytes of a format the
/// loader no longer reads.
enum class Mangle { kTruncate, kBitFlip, kZeroLength, kOldVersion };

void MangleFile(const std::string& path, Mangle mode) {
  const auto size = fs::file_size(path);
  ASSERT_GT(size, 16u);
  switch (mode) {
    case Mangle::kTruncate:
      fs::resize_file(path, size / 2);
      break;
    case Mangle::kZeroLength:
      fs::resize_file(path, 0);
      break;
    case Mangle::kBitFlip: {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekg(static_cast<std::streamoff>(size / 2));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x10);
      f.seekp(static_cast<std::streamoff>(size / 2));
      f.write(&byte, 1);
      break;
    }
    case Mangle::kOldVersion:
      testing::RewriteFooted<uint32_t>(path, 4, 2);
      break;
  }
}

class FaultCorpusTest : public FaultTest,
                        public ::testing::WithParamInterface<Mangle> {};

TEST_P(FaultCorpusTest, BadSnapshotBytesQuarantineNeverCrash) {
  std::string part0;
  {
    auto lake = CreateLake();
    part0 = lake->PartPath(0, 1);
  }
  ASSERT_TRUE(fs::exists(part0));
  MangleFile(part0, GetParam());

  // Every deserialization entry point reports, none crash (the suite runs
  // under ASan/UBSan in CI — an over-read would trip there).
  EXPECT_FALSE(PexesoIndex::Load(part0, &metric_).ok());
  const Status verify = PexesoIndex::VerifySnapshot(part0);
  EXPECT_TRUE(verify.code() == Status::Code::kCorruption ||
              verify.code() == Status::Code::kNotSupported)
      << verify.ToString();
  IndexCache cache({.budget_bytes = size_t{1} << 30});
  EXPECT_FALSE(cache.Get(part0, &metric_, 1).ok());
  if (GetParam() == Mangle::kOldVersion) {
    EXPECT_EQ(verify.code(), Status::Code::kNotSupported);
    EXPECT_EQ(PexesoIndex::Load(part0, &metric_).status().code(),
              Status::Code::kNotSupported);
  }

  // Report-only fsck finds it and touches nothing.
  auto report = FsckLake(dir_, FsckOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().clean());
  ASSERT_EQ(report.value().corrupt.size(), 1u);
  EXPECT_FALSE(report.value().repaired);
  EXPECT_TRUE(fs::exists(part0));

  // Open quarantines the bad base and serves the rest, flagged partial.
  auto opened = LakeManager::Open(dir_, &metric_, opts_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto lake = std::move(opened).ValueOrDie();
  EXPECT_EQ(lake->Health().quarantined_parts, 1u);
  EXPECT_FALSE(lake->PartHealth(0).ok());
  EXPECT_FALSE(fs::exists(part0));
  EXPECT_TRUE(fs::exists(dir_ + "/" + lake::kQuarantineDir + "/" +
                         fs::path(part0).filename().string()));

  SearchStats stats;
  CollectSink sink;
  JoinQuery jq = ExactQuery();
  jq.vectors = &query_;
  ASSERT_TRUE(lake->Execute(jq, &sink, &stats).ok());
  ASSERT_EQ(sink.part_statuses().size(), 1u);
  EXPECT_EQ(sink.part_statuses()[0].first, 0u);
  EXPECT_EQ(stats.partial_responses, 1u);
  EXPECT_EQ(stats.parts_quarantined, 1u);
  std::vector<LogicalColumn> others;
  for (LogicalColumn& col : InitialColumns()) {
    if (col.global_id % kParts != 0) others.push_back(std::move(col));
  }
  ExpectByteIdentical(sink.columns(),
                      ReferenceSearch(others, query_, jq, metric_),
                      "quarantined partial");

  // The quarantine is recorded: a second open (or fsck) finds a CLEAN
  // directory — no re-discovery, no double-quarantine.
  auto again = FsckLake(dir_, FsckOptions{});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().clean());
  EXPECT_EQ(again.value().quarantined_parts, std::vector<size_t>{0});

  // A merge heals the part: fresh appends give it a new base and clear
  // the flag (the quarantined file stays aside for offline salvage).
  lake->AppendColumns(MakeClusteredCatalog(kSeed + 1, kDim, kParts,
                                           kColSize));
  ASSERT_TRUE(lake->MergeAll().ok());
  EXPECT_EQ(lake->Health().quarantined_parts, 0u);
  EXPECT_TRUE(lake->PartHealth(0).ok());
  SearchStats healed_stats;
  CollectSink healed_sink;
  ASSERT_TRUE(lake->Execute(jq, &healed_sink, &healed_stats).ok());
  EXPECT_TRUE(healed_sink.part_statuses().empty());
  EXPECT_EQ(healed_stats.partial_responses, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMangles, FaultCorpusTest,
                         ::testing::Values(Mangle::kTruncate,
                                           Mangle::kBitFlip,
                                           Mangle::kZeroLength,
                                           Mangle::kOldVersion));

TEST_F(FaultTest, MangledManifestFailsOpenGracefully) {
  { auto lake = CreateLake(); }
  const std::string manifest = dir_ + "/" + lake::kManifestFile;

  // Truncated and garbage manifests: a clean Corruption error, no crash —
  // the manifest is the root of trust, there is nothing to serve without
  // it (snapshot files are still intact for manual recovery).
  fs::resize_file(manifest, fs::file_size(manifest) / 2);
  EXPECT_FALSE(LakeManager::Open(dir_, &metric_, opts_).ok());

  std::ofstream(manifest, std::ios::trunc) << "not a manifest at all\n";
  auto garbage = LakeManager::Open(dir_, &metric_, opts_);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), Status::Code::kCorruption);

  fs::remove(manifest);
  auto missing = LakeManager::Open(dir_, &metric_, opts_);
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace pexeso
