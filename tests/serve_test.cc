// Serving-layer tests: IndexCache budget/LRU/pinning/single-flight
// semantics, ServeSession streaming-vs-batch equivalence, and the
// determinism acceptance contract — ServeSession and the partition-major
// batch loop must be byte-identical to the serial Execute at any thread
// count and any cache budget, degraded parts included.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/batch_runner.h"
#include "core/part_runner.h"
#include "partition/partitioned_pexeso.h"
#include "partition/partitioner.h"
#include "serve/index_cache.h"
#include "serve/serve_session.h"
#include "test_util.h"

namespace pexeso {
namespace {

using serve::IndexCache;
using serve::IndexCacheOptions;
using serve::QueryOutcome;
using serve::ServeSession;
using serve::StreamChunk;
using testing::BindQueries;
using testing::BindQuery;
using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;

/// Field-by-field equality of two result sets, mapping included — the
/// "byte-identical" serving contract.
void ExpectIdenticalResults(const std::vector<JoinableColumn>& a,
                            const std::vector<JoinableColumn>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].column, b[j].column);
    EXPECT_EQ(a[j].match_count, b[j].match_count);
    EXPECT_EQ(a[j].joinability, b[j].joinability);
    ASSERT_EQ(a[j].mapping.size(), b[j].mapping.size());
    for (size_t m = 0; m < a[j].mapping.size(); ++m) {
      EXPECT_EQ(a[j].mapping[m].query_index, b[j].mapping[m].query_index);
      EXPECT_EQ(a[j].mapping[m].target_vec, b[j].mapping[m].target_vec);
    }
  }
}

/// Builds one partitioned lake under a temp dir, shared by every test of
/// the fixture (read-only from then on).
class ServeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;
  static constexpr size_t kParts = 4;

  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    dir_ = new std::string(::testing::TempDir() + "/serve_parts");
    fs::remove_all(*dir_);
    metric_ = new L2Metric();
    ColumnCatalog catalog = MakeClusteredCatalog(9100, kDim, 48, 12);
    Partitioner::Options popts;
    popts.k = kParts;
    auto assign = Partitioner::Random(catalog, popts);
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    auto built =
        PartitionedPexeso::Build(catalog, assign, *dir_, metric_, opts);
    ASSERT_TRUE(built.ok());
    ASSERT_EQ(built.value().num_partitions(), kParts);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete metric_;
    dir_ = nullptr;
    metric_ = nullptr;
  }

  static PartitionedPexeso OpenParts() {
    auto opened = PartitionedPexeso::Open(*dir_, metric_);
    EXPECT_TRUE(opened.ok());
    return std::move(opened).ValueOrDie();
  }

  static JoinQuery MakeJoinQuery(size_t query_size) {
    FractionalThresholds ft{0.07, 0.4};
    JoinQuery sopts;
    sopts.thresholds = ft.Resolve(*metric_, kDim, query_size);
    sopts.collect_mappings = true;  // exercise the full result payload
    return sopts;
  }

  /// Bytes partition `part` charges the cache when loaded.
  static size_t OnePartBytes(size_t part = 0) {
    auto loaded = PexesoIndex::Load(
        *dir_ + "/part-" + std::to_string(part) + ".pxso", metric_);
    EXPECT_TRUE(loaded.ok());
    return IndexCache::ResidentBytes(loaded.value());
  }

  static std::string* dir_;
  static L2Metric* metric_;
};

std::string* ServeTest::dir_ = nullptr;
L2Metric* ServeTest::metric_ = nullptr;

// ------------------------------------------------------------- IndexCache

TEST_F(ServeTest, CacheEvictsLruUnderTightBudget) {
  PartitionedPexeso parts = OpenParts();
  // A budget that holds any two of the first three partitions but not all
  // three; single shard so the LRU order is global and deterministic.
  const size_t budget =
      OnePartBytes(0) + OnePartBytes(1) + OnePartBytes(2) - 1;
  IndexCache cache({.budget_bytes = budget, .shard_bits = 0});

  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  ASSERT_TRUE(cache.Get(parts.PartPath(1), metric_).ok());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch part 0 so part 1 is the LRU victim, then overflow with part 2.
  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  ASSERT_TRUE(cache.Get(parts.PartPath(2), metric_).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_LE(cache.stats().bytes_resident, cache.budget_bytes());

  // Part 0 survived (hit, no new load); part 1 was the victim (miss).
  const uint64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  EXPECT_EQ(cache.stats().misses, misses_before);
  ASSERT_TRUE(cache.Get(parts.PartPath(1), metric_).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST_F(ServeTest, CacheBudgetTooSmallForOneEntryStillServes) {
  PartitionedPexeso parts = OpenParts();
  IndexCache cache({.budget_bytes = 0, .shard_bits = 0});
  auto got = cache.Get(parts.PartPath(0), metric_);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got.value()->catalog().num_columns(), 0u);  // usable index
  // Nothing stays resident: the entry was evicted on insert.
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_resident, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(ServeTest, CacheSingleFlightLoadsOncePerColdKey) {
  PartitionedPexeso parts = OpenParts();
  IndexCache cache({.budget_bytes = size_t{1} << 30, .shard_bits = 0});
  constexpr size_t kThreads = 8;
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  std::vector<IndexCache::IndexPtr> got(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();  // barrier
      auto r = cache.Get(parts.PartPath(0), metric_);
      ASSERT_TRUE(r.ok());
      got[t] = std::move(r).ValueOrDie();
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // exactly one disk read
  EXPECT_EQ(stats.hits, kThreads - 1);
  // Everyone shares the one loaded instance.
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);
}

TEST_F(ServeTest, BudgetIsGlobalNotPerShardSlice) {
  // An entry larger than budget/num_shards but smaller than the budget must
  // stay resident: the budget is one global number, not per-shard slices
  // (which would make moderate budgets cache nothing at high shard counts).
  PartitionedPexeso parts = OpenParts();
  const size_t one = OnePartBytes(0);
  IndexCache cache({.budget_bytes = one + one / 2, .shard_bits = 4});
  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ServeTest, EvictionReachesAcrossShards) {
  // An older resident must be evicted to make room for a new one even when
  // the two keys hash to DIFFERENT shards: the budget is enforced by a
  // cross-shard sweep, not only against the inserting shard's own LRU
  // (which would let an idle shard pin the cache over budget forever and
  // force the hot shard to self-evict every insert). With same-shard
  // hashing this degenerates to plain LRU eviction, so it holds either way.
  PartitionedPexeso parts = OpenParts();
  const size_t b0 = OnePartBytes(0), b1 = OnePartBytes(1);
  IndexCache cache(
      {.budget_bytes = std::max(b0, b1) + std::min(b0, b1) / 2,
       .shard_bits = 4});
  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  ASSERT_TRUE(cache.Get(parts.PartPath(1), metric_).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  // Part 1 (the fresh insert) survived; part 0 was swept.
  const uint64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(cache.Get(parts.PartPath(1), metric_).ok());
  EXPECT_EQ(cache.stats().misses, misses_before);
  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST_F(ServeTest, SingleFlightHoldsEvenWithZeroBudget) {
  // The flight result must reach concurrent waiters even though the loaded
  // entry is evicted before they wake: still exactly one disk read. The
  // load is made observably in-flight by serving the partition bytes
  // through a FIFO — the loader blocks until this thread writes, which it
  // only does after every waiter is provably parked on the flight.
  namespace fs = std::filesystem;
  const std::string fifo = ::testing::TempDir() + "/serve_flight.fifo";
  fs::remove(fifo);
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);

  IndexCache cache({.budget_bytes = 0, .shard_bits = 0});
  constexpr size_t kWaiters = 7;
  std::vector<IndexCache::IndexPtr> got(kWaiters + 1);
  std::thread loader([&] {
    auto r = cache.Get(fifo, metric_);  // blocks opening the FIFO
    ASSERT_TRUE(r.ok());
    got[0] = std::move(r).ValueOrDie();
  });
  // The loader has registered its miss (and is blocked on the FIFO).
  while (cache.stats().misses < 1) std::this_thread::yield();

  std::vector<std::thread> waiters;
  for (size_t t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&, t] {
      auto r = cache.Get(fifo, metric_);
      ASSERT_TRUE(r.ok());
      got[t + 1] = std::move(r).ValueOrDie();
    });
  }
  // Every waiter is parked on the loader's flight; only now feed the bytes.
  while (cache.stats().single_flight_waits < kWaiters) {
    std::this_thread::yield();
  }
  {
    std::ifstream src(*dir_ + "/part-0.pxso", std::ios::binary);
    std::ofstream sink(fifo, std::ios::binary);
    sink << src.rdbuf();
  }
  loader.join();
  for (auto& th : waiters) th.join();

  EXPECT_EQ(cache.stats().misses, 1u);  // exactly one read of the bytes
  EXPECT_EQ(cache.stats().hits, kWaiters);
  EXPECT_EQ(cache.stats().entries, 0u);  // nothing stayed resident
  for (size_t t = 0; t <= kWaiters; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t], got[0]);  // one shared instance
  }
  fs::remove(fifo);
}

TEST_F(ServeTest, PinnedEntryRefusesEviction) {
  PartitionedPexeso parts = OpenParts();
  // Holds part 0 plus half of part 1: any further load overflows.
  IndexCache cache(
      {.budget_bytes = OnePartBytes(0) + OnePartBytes(1) / 2,
       .shard_bits = 0});

  ASSERT_TRUE(cache.Pin(parts.PartPath(0), metric_).ok());
  EXPECT_EQ(cache.stats().pinned, 1u);
  // Overflow the budget: the pinned entry must survive, the others churn.
  ASSERT_TRUE(cache.Get(parts.PartPath(1), metric_).ok());
  ASSERT_TRUE(cache.Get(parts.PartPath(2), metric_).ok());
  const uint64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  EXPECT_EQ(cache.stats().misses, misses_before);  // still resident: a hit

  // Unpinning makes it evictable again.
  cache.Unpin(parts.PartPath(0));
  EXPECT_EQ(cache.stats().pinned, 0u);
  ASSERT_TRUE(cache.Get(parts.PartPath(1), metric_).ok());
  ASSERT_TRUE(cache.Get(parts.PartPath(2), metric_).ok());
  ASSERT_TRUE(cache.Get(parts.PartPath(0), metric_).ok());
  EXPECT_GT(cache.stats().misses, misses_before);
}

TEST_F(ServeTest, CacheDoesNotCacheFailedLoads) {
  IndexCache cache({.budget_bytes = size_t{1} << 30, .shard_bits = 0});
  L2Metric metric;
  auto r1 = cache.Get("/nonexistent/part-0.pxso", &metric);
  EXPECT_FALSE(r1.ok());
  auto r2 = cache.Get("/nonexistent/part-0.pxso", &metric);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(cache.stats().misses, 2u);  // retried, not served from cache
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(ServeTest, CorruptPartitionFileIsRejectedByChecksum) {
  namespace fs = std::filesystem;
  PartitionedPexeso parts = OpenParts();
  const std::string victim = ::testing::TempDir() + "/serve_corrupt.pxso";
  fs::copy_file(parts.PartPath(0), victim,
                fs::copy_options::overwrite_existing);
  // Flip one byte near the middle of the payload: lengths stay plausible,
  // only the CRC footer can catch it.
  const auto size = fs::file_size(victim);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff pos = static_cast<std::streamoff>(size / 2);
    char b = 0;
    f.seekg(pos);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(pos);
    f.write(&b, 1);
  }
  L2Metric metric;
  auto loaded = PexesoIndex::Load(victim, &metric);
  EXPECT_FALSE(loaded.ok());

  // Dropping the footer must be fatal, not a downgrade to an unchecked
  // read.
  const std::string clipped3 = ::testing::TempDir() + "/serve_clipped3.pxso";
  fs::copy_file(parts.PartPath(0), clipped3,
                fs::copy_options::overwrite_existing);
  fs::resize_file(clipped3, fs::file_size(clipped3) - 8);
  EXPECT_FALSE(PexesoIndex::Load(clipped3, &metric).ok());
  fs::remove(victim);
  fs::remove(clipped3);
}

TEST_F(ServeTest, FailedPartitionLoadStillReportsIoSeconds) {
  namespace fs = std::filesystem;
  // A partition dir whose part-1 is truncated mid-payload: the query is
  // served degraded (part 1 reported, part 0 answered), and the io
  // accounting covers both the good load and the failed attempt.
  const std::string dir = ::testing::TempDir() + "/serve_broken";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(*dir_ + "/part-0.pxso", dir + "/part-0.pxso");
  fs::copy_file(*dir_ + "/part-1.pxso", dir + "/part-1.pxso");
  fs::resize_file(dir + "/part-1.pxso", 64);

  auto opened = PartitionedPexeso::Open(dir, metric_);
  ASSERT_TRUE(opened.ok());
  VectorStore query = MakeClusteredQuery(9200, kDim, 12);
  double io = 0.0;
  SearchStats stats;
  CollectSink sink;
  const Status st =
      PartRunner::RunParts(opened.value(), BindQuery(query, MakeJoinQuery(query.size())),
                           &sink, &stats, &io);
  EXPECT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(sink.part_statuses().size(), 1u);
  EXPECT_EQ(sink.part_statuses()[0].first, 1u);
  EXPECT_EQ(stats.partial_responses, 1u);
  EXPECT_GT(io, 0.0);  // part-0's load plus the failed part-1 attempt
  fs::remove_all(dir);
}

// ------------------------------------------------------------ ServeSession

TEST_F(ServeTest, StreamingChunksEqualBatchCollectedResults) {
  PartitionedPexeso parts = OpenParts();
  IndexCache cache({.budget_bytes = size_t{1} << 30});
  parts.AttachCache(&cache);
  VectorStore query = MakeClusteredQuery(9300, kDim, 14);
  const JoinQuery sopts = MakeJoinQuery(query.size());

  SearchStats serial_stats;
  auto serial = ExecuteCollect(parts, BindQuery(query, sopts), &serial_stats);
  ASSERT_TRUE(serial.ok());

  for (size_t threads : {size_t{1}, size_t{8}}) {
    ServeSession session(&parts, {.num_threads = threads});
    std::mutex mu;
    std::vector<StreamChunk> chunks;
    size_t last_count = 0;
    session.SubmitStreaming(BindQuery(query, sopts), [&](const StreamChunk& chunk) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.push_back(chunk);
      if (chunk.last) ++last_count;
    });
    auto outcomes = session.Drain();

    // One chunk per partition, exactly one marked last, all OK.
    ASSERT_EQ(chunks.size(), kParts) << threads << " threads";
    EXPECT_EQ(last_count, 1u);
    std::vector<JoinableColumn> collected;
    for (const auto& chunk : chunks) {
      EXPECT_TRUE(chunk.status.ok());
      collected.insert(collected.end(), chunk.results.begin(),
                       chunk.results.end());
    }
    FinishPartMerge(&collected);
    ExpectIdenticalResults(collected, serial.value());

    // The drained outcome is the same merge, with deterministic stats.
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].status.ok());
    ExpectIdenticalResults(outcomes[0].results, serial.value());
    EXPECT_EQ(outcomes[0].stats.distance_computations,
              serial_stats.distance_computations);
    EXPECT_EQ(outcomes[0].stats.candidate_pairs,
              serial_stats.candidate_pairs);
  }
}

// The acceptance contract: ServeSession output byte-identical to the serial
// Execute at any thread count and any cache budget — including a
// budget too small to hold a single partition, and no cache at all.
TEST_F(ServeTest, DeterministicAtAnyThreadCountAndBudget) {
  PartitionedPexeso oracle = OpenParts();
  std::vector<VectorStore> queries;
  for (size_t i = 0; i < 6; ++i) {
    queries.push_back(MakeClusteredQuery(9400 + i, kDim, 10 + i));
  }
  std::vector<JoinQuery> sopts;
  std::vector<std::vector<JoinableColumn>> expected;
  std::vector<SearchStats> expected_stats(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    sopts.push_back(MakeJoinQuery(queries[i].size()));
    auto serial = ExecuteCollect(oracle, BindQuery(queries[i], sopts[i]),
                                 &expected_stats[i]);
    ASSERT_TRUE(serial.ok());
    expected.push_back(std::move(serial).ValueOrDie());
  }

  const size_t one = OnePartBytes();
  // Budgets: none (no cache), smaller than one partition, and plenty.
  const std::vector<long long> budgets = {-1, static_cast<long long>(one / 2),
                                          1LL << 30};
  for (long long budget : budgets) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      PartitionedPexeso parts = OpenParts();
      std::unique_ptr<IndexCache> cache;
      if (budget >= 0) {
        cache = std::make_unique<IndexCache>(IndexCacheOptions{
            .budget_bytes = static_cast<size_t>(budget), .shard_bits = 1});
        parts.AttachCache(cache.get());
      }
      ServeSession session(&parts, {.num_threads = threads});
      std::vector<std::future<QueryOutcome>> futures;
      for (size_t i = 0; i < queries.size(); ++i) {
        futures.push_back(session.Submit(BindQuery(queries[i], sopts[i])));
      }
      auto outcomes = session.Drain();
      ASSERT_EQ(outcomes.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("budget=" + std::to_string(budget) +
                     " threads=" + std::to_string(threads) +
                     " query=" + std::to_string(i));
        ASSERT_TRUE(outcomes[i].status.ok());
        ExpectIdenticalResults(outcomes[i].results, expected[i]);
        EXPECT_EQ(outcomes[i].stats.distance_computations,
                  expected_stats[i].distance_computations);
        // The future resolves to the identical outcome.
        QueryOutcome via_future = futures[i].get();
        ExpectIdenticalResults(via_future.results, expected[i]);
      }
    }
  }
}

TEST_F(ServeTest, IntraQueryShardsStayByteIdenticalInSessions) {
  // The ROADMAP serving gap this closes: a huge query column used to get at
  // most one thread per partition. With intra_query_threads the session
  // shards the verification WITHIN each partition's search — and the
  // outcome (results and stats counters) must stay byte-identical to the
  // serial Execute oracle.
  PartitionedPexeso oracle = OpenParts();
  VectorStore query = MakeClusteredQuery(9700, kDim, 48);
  const JoinQuery sopts = MakeJoinQuery(query.size());
  SearchStats serial_stats;
  auto serial = ExecuteCollect(oracle, BindQuery(query, sopts), &serial_stats);
  ASSERT_TRUE(serial.ok());

  for (size_t intra : {size_t{2}, size_t{4}}) {
    PartitionedPexeso parts = OpenParts();
    IndexCache cache({.budget_bytes = size_t{1} << 30});
    parts.AttachCache(&cache);
    ServeSession session(&parts, {.num_threads = 2,
                                  .intra_query_threads = intra});
    auto future = session.Submit(BindQuery(query, sopts));
    auto outcome = future.get();
    SCOPED_TRACE("intra=" + std::to_string(intra));
    ASSERT_TRUE(outcome.status.ok());
    ExpectIdenticalResults(outcome.results, serial.value());
    EXPECT_EQ(outcome.stats.distance_computations,
              serial_stats.distance_computations);
    EXPECT_EQ(outcome.stats.lemma1_filtered, serial_stats.lemma1_filtered);
    EXPECT_EQ(outcome.stats.tiles_evaluated, serial_stats.tiles_evaluated);
  }
}

TEST_F(ServeTest, ExpiredQueryDropsEveryQueuedPart) {
  // Deadline-aware part scheduling: a query that is already expired at
  // submit time must not burn pool time on any part — every part task is
  // dropped at its pre-flight check, counted in deadline_expired, and no
  // verification work (distance computations) ever runs.
  PartitionedPexeso parts = OpenParts();
  VectorStore query = MakeClusteredQuery(9600, kDim, 12);
  JoinQuery sopts = MakeJoinQuery(query.size());
  sopts.deadline = Deadline::After(-1.0);  // expired before submission

  ServeSession session(&parts, {.num_threads = 2});
  auto future = session.Submit(BindQuery(query, sopts));
  QueryOutcome outcome = future.get();
  EXPECT_EQ(outcome.status.code(), Status::Code::kDeadlineExceeded)
      << outcome.status.ToString();
  EXPECT_TRUE(outcome.results.empty());
  EXPECT_EQ(outcome.stats.deadline_expired, kParts);
  EXPECT_EQ(outcome.stats.distance_computations, 0u);
  EXPECT_EQ(outcome.stats.tiles_evaluated, 0u);
}

TEST_F(ServeTest, CancelledQueryDropsStillQueuedParts) {
  // Same pre-flight drop for cancellation: with the token tripped before
  // the pool picks the tasks up, no part runs verification.
  PartitionedPexeso parts = OpenParts();
  VectorStore query = MakeClusteredQuery(9601, kDim, 12);
  JoinQuery sopts = MakeJoinQuery(query.size());
  sopts.cancel = CancelToken::Create();
  sopts.cancel.Cancel();

  ServeSession session(&parts, {.num_threads = 2});
  auto future = session.Submit(BindQuery(query, sopts));
  QueryOutcome outcome = future.get();
  EXPECT_EQ(outcome.status.code(), Status::Code::kCancelled)
      << outcome.status.ToString();
  EXPECT_EQ(outcome.stats.deadline_expired, kParts);
  EXPECT_EQ(outcome.stats.distance_computations, 0u);
}

TEST_F(ServeTest, SessionOverInMemoryEngineMatchesDirectSearch) {
  // The generic (non-partitioned) path: one task per query, no merge step.
  ColumnCatalog catalog = MakeClusteredCatalog(9100, kDim, 48, 12);
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), metric_, opts);
  PexesoSearcher searcher(&index);
  VectorStore query = MakeClusteredQuery(9500, kDim, 12);
  const JoinQuery sopts = MakeJoinQuery(query.size());
  auto direct = MustSearch(searcher, query, sopts, nullptr);

  ServeSession session(&searcher, {.num_threads = 4});
  auto future = session.Submit(BindQuery(query, sopts));
  QueryOutcome outcome = future.get();
  ASSERT_TRUE(outcome.status.ok());
  ExpectIdenticalResults(outcome.results, direct);
  EXPECT_EQ(outcome.io_seconds, 0.0);
}

TEST_F(ServeTest, SessionsShareOnePoolViaTaskGroups) {
  PartitionedPexeso parts = OpenParts();
  IndexCache cache({.budget_bytes = size_t{1} << 30});
  parts.AttachCache(&cache);
  VectorStore query = MakeClusteredQuery(9600, kDim, 12);
  const JoinQuery sopts = MakeJoinQuery(query.size());
  auto serial = ExecuteCollect(parts, BindQuery(query, sopts));
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(4);
  ServeSession a(&parts, {}, &pool);
  ServeSession b(&parts, {}, &pool);
  auto fa = a.Submit(BindQuery(query, sopts));
  auto fb = b.Submit(BindQuery(query, sopts));
  ExpectIdenticalResults(fa.get().results, serial.value());
  ExpectIdenticalResults(fb.get().results, serial.value());
}

TEST_F(ServeTest, SessionReportsPartFailuresAsStatus) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/serve_broken_session";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(*dir_ + "/part-0.pxso", dir + "/part-0.pxso");
  fs::copy_file(*dir_ + "/part-1.pxso", dir + "/part-1.pxso");
  fs::resize_file(dir + "/part-1.pxso", 64);

  auto opened = PartitionedPexeso::Open(dir, metric_);
  ASSERT_TRUE(opened.ok());
  VectorStore query = MakeClusteredQuery(9700, kDim, 12);
  const JoinQuery sopts = MakeJoinQuery(query.size());
  // The degraded shape is the serial Execute's: part 1 reported, part 0's
  // columns served, OK final status.
  CollectSink serial;
  ASSERT_TRUE(opened.value().Execute(BindQuery(query, sopts), &serial,
                                     nullptr).ok());
  ASSERT_EQ(serial.part_statuses().size(), 1u);
  ServeSession session(&opened.value(), {.num_threads = 2});
  std::mutex mu;
  size_t failed_chunks = 0;
  session.SubmitStreaming(BindQuery(query, sopts), [&](const StreamChunk& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    if (!chunk.status.ok()) ++failed_chunks;
  });
  auto outcomes = session.Drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  ExpectIdenticalResults(outcomes[0].results, serial.columns());
  ASSERT_EQ(outcomes[0].part_statuses.size(), 1u);
  EXPECT_EQ(outcomes[0].part_statuses[0].first, 1u);
  EXPECT_EQ(outcomes[0].part_statuses[0].second.code(),
            serial.part_statuses()[0].second.code());
  EXPECT_EQ(outcomes[0].stats.partial_responses, 1u);
  EXPECT_EQ(failed_chunks, 1u);
  EXPECT_GT(outcomes[0].io_seconds, 0.0);  // io accounted despite the error
  fs::remove_all(dir);
}

TEST_F(ServeTest, ThrowingStreamCallbackFailsTheQuery) {
  // A consumer that explodes mid-stream must surface on the query outcome,
  // not vanish into (or wedge) the thread pool.
  PartitionedPexeso parts = OpenParts();
  VectorStore query = MakeClusteredQuery(9750, kDim, 12);
  ServeSession session(&parts, {.num_threads = 2});
  session.SubmitStreaming(BindQuery(query, MakeJoinQuery(query.size())), [](const StreamChunk& chunk) {
                            if (chunk.part == 1) {
                              throw std::runtime_error("consumer exploded");
                            }
                          });
  auto outcomes = session.Drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].status.ok());
  EXPECT_NE(outcomes[0].status.message().find("stream callback threw"),
            std::string::npos);
}

TEST_F(ServeTest, PeekDimReadsHeaderOnly) {
  auto dim = PexesoIndex::PeekDim(*dir_ + "/part-0.pxso");
  ASSERT_TRUE(dim.ok());
  EXPECT_EQ(dim.value(), kDim);
  EXPECT_FALSE(PexesoIndex::PeekDim("/nonexistent/part.pxso").ok());
}

// ------------------------------------------------- partition-major batches

TEST_F(ServeTest, PartitionMajorBatchMatchesQueryMajorAndSerial) {
  PartitionedPexeso parts = OpenParts();
  std::vector<VectorStore> queries;
  std::vector<JoinQuery> sopts;
  for (size_t i = 0; i < 12; ++i) {
    queries.push_back(MakeClusteredQuery(9800 + i, kDim, 9 + i % 5));
    sopts.push_back(MakeJoinQuery(queries.back().size()));
  }
  std::vector<std::vector<JoinableColumn>> serial;
  SearchStats serial_stats;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = ExecuteCollect(parts, BindQuery(queries[i], sopts[i]),
                            &serial_stats);
    ASSERT_TRUE(r.ok());
    serial.push_back(std::move(r).ValueOrDie());
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (auto mode : {BatchPartitionMode::kQueryMajor,
                      BatchPartitionMode::kPartitionMajor,
                      BatchPartitionMode::kAuto}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " mode=" + std::to_string(static_cast<int>(mode)));
      BatchQueryRunner runner(
          &parts, {.num_threads = threads, .partition_mode = mode});
      BatchResult batch = runner.Run(BindQueries(queries, sopts));
      ASSERT_EQ(batch.results.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectIdenticalResults(batch.results[i], serial[i]);
      }
      EXPECT_EQ(batch.stats.distance_computations,
                serial_stats.distance_computations);
      EXPECT_EQ(batch.stats.candidate_pairs, serial_stats.candidate_pairs);
      if (mode == BatchPartitionMode::kPartitionMajor) {
        EXPECT_GT(batch.io_seconds, 0.0);
      }
    }
  }
}

TEST_F(ServeTest, PartitionMajorWithCacheLoadsEachPartitionOncePerBatch) {
  PartitionedPexeso parts = OpenParts();
  IndexCache cache({.budget_bytes = 0, .shard_bits = 0});  // holds nothing
  parts.AttachCache(&cache);
  std::vector<VectorStore> queries;
  for (size_t i = 0; i < 8; ++i) {
    queries.push_back(MakeClusteredQuery(9900 + i, kDim, 10));
  }
  // kAuto must flip to partition-major (budget cannot hold the parts), so
  // the batch performs exactly one load per partition — not one per
  // (query, partition) pair.
  BatchQueryRunner runner(&parts, {.num_threads = 4});
  BatchResult batch = runner.Run(BindQueries(queries, MakeJoinQuery(10)));
  ASSERT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(cache.stats().misses, kParts);
}

#ifndef PEXESO_NO_FAILPOINTS
TEST_F(ServeTest, PartitionMajorLoadFailureDegradesEveryQueryOfTheWave) {
  // Part 0's one shared load fails: every query of the wave must record
  // part 0 as degraded and still get parts 1..3 — the serial Execute's
  // answer under the same fault — instead of aborting the process.
  PartitionedPexeso parts = OpenParts();
  IndexCache cache({.budget_bytes = 0, .shard_bits = 0});
  parts.AttachCache(&cache);
  std::vector<VectorStore> queries;
  std::vector<JoinQuery> jqs;
  for (size_t i = 0; i < 6; ++i) {
    queries.push_back(MakeClusteredQuery(9950 + i, kDim, 10));
    JoinQuery jq = MakeJoinQuery(10);
    if (i % 2 == 1) {
      jq.mode = QueryMode::kTopK;
      jq.k = 5;
    }
    jqs.push_back(jq);
  }
  std::vector<CollectSink> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    FailpointRegistry::Instance().Arm("cache:load",
                                      {FailAction::kIoError, 0, 1, 0});
    ASSERT_TRUE(
        parts.Execute(BindQuery(queries[i], jqs[i]), &serial[i], nullptr)
            .ok());
  }

  FailpointRegistry::Instance().Arm("cache:load",
                                    {FailAction::kIoError, 0, 1, 0});
  BatchQueryRunner runner(
      &parts, {.num_threads = 4,
               .partition_mode = BatchPartitionMode::kPartitionMajor});
  BatchResult batch = runner.Run(BindQueries(queries, jqs));
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query=" + std::to_string(i));
    EXPECT_TRUE(batch.statuses[i].ok()) << batch.statuses[i].ToString();
    ASSERT_EQ(batch.part_statuses[i].size(), 1u);
    EXPECT_EQ(batch.part_statuses[i][0].first, 0u);
    EXPECT_EQ(batch.part_statuses[i][0].second.code(),
              Status::Code::kIoError);
    ExpectIdenticalResults(batch.results[i], serial[i].columns());
  }
  EXPECT_EQ(batch.stats.partial_responses, queries.size());
}
#endif  // !PEXESO_NO_FAILPOINTS

}  // namespace
}  // namespace pexeso
