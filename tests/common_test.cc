#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"

namespace pexeso {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIoError);
  EXPECT_EQ(s.ToString(), "IoError: disk gone");
}

TEST(StatusTest, ResultHoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(StatusTest, ResultHoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NormalHasReasonableMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, SampleIndicesDistinctAndComplete) {
  Rng rng(13);
  auto s = rng.SampleIndices(100, 30);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t i : s) EXPECT_LT(i, 100u);
  // Dense sample path.
  auto all = rng.SampleIndices(10, 10);
  std::set<size_t> uniq2(all.begin(), all.end());
  EXPECT_EQ(uniq2.size(), 10u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(StrUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StrUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StrUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StrUtilTest, ToLowerAscii) { EXPECT_EQ(ToLower("AbC123"), "abc123"); }

TEST(StrUtilTest, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, LooksNumericAcceptsFormats) {
  EXPECT_TRUE(LooksNumeric("42"));
  EXPECT_TRUE(LooksNumeric("-3.14"));
  EXPECT_TRUE(LooksNumeric("234,370,202"));
  EXPECT_TRUE(LooksNumeric("  7 "));
  EXPECT_FALSE(LooksNumeric("abc"));
  EXPECT_FALSE(LooksNumeric("1.2.3"));
  EXPECT_FALSE(LooksNumeric(""));
  EXPECT_FALSE(LooksNumeric("-"));
}

TEST(StrUtilTest, WordTokensLowercasesAndSplits) {
  auto t = WordTokens("Mario Party (1998)!");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "mario");
  EXPECT_EQ(t[1], "party");
  EXPECT_EQ(t[2], "1998");
}

TEST(StrUtilTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("abc", ""), 3);
}

TEST(StrUtilTest, EditDistanceBoundEarlyExit) {
  // True distance 3 exceeds bound 1 -> reports bound+1.
  EXPECT_EQ(EditDistance("kitten", "sitting", 1), 2);
  EXPECT_EQ(EditDistance("kitten", "sitting", 3), 3);
  // Length difference alone exceeds the bound.
  EXPECT_EQ(EditDistance("a", "abcdef", 2), 3);
}

TEST(SerdeTest, RoundTripPodStringVector) {
  const std::string path = ::testing::TempDir() + "/serde_roundtrip.bin";
  {
    auto wr = BinaryWriter::Open(path);
    ASSERT_TRUE(wr.ok());
    BinaryWriter w = std::move(wr).ValueOrDie();
    w.Write<uint32_t>(0xDEADBEEF);
    w.WriteString("hello pexeso");
    w.WriteVector(std::vector<double>{1.5, 2.5, -3.0});
    ASSERT_TRUE(w.Close().ok());
  }
  auto rd = BinaryReader::Open(path);
  ASSERT_TRUE(rd.ok());
  BinaryReader r = std::move(rd).ValueOrDie();
  uint32_t magic = 0;
  ASSERT_TRUE(r.Read(&magic).ok());
  EXPECT_EQ(magic, 0xDEADBEEFu);
  std::string s;
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(s, "hello pexeso");
  std::vector<double> v;
  ASSERT_TRUE(r.ReadVector(&v).ok());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 2.5);
  std::remove(path.c_str());
}

TEST(SerdeTest, TruncatedReadReportsCorruption) {
  const std::string path = ::testing::TempDir() + "/serde_trunc.bin";
  {
    auto wr = BinaryWriter::Open(path);
    ASSERT_TRUE(wr.ok());
    BinaryWriter w = std::move(wr).ValueOrDie();
    w.Write<uint16_t>(7);
    ASSERT_TRUE(w.Close().ok());
  }
  auto rd = BinaryReader::Open(path);
  ASSERT_TRUE(rd.ok());
  BinaryReader r = std::move(rd).ValueOrDie();
  uint64_t big = 0;
  EXPECT_FALSE(r.Read(&big).ok());
  std::remove(path.c_str());
}

TEST(SerdeTest, MissingFileIsIoError) {
  auto rd = BinaryReader::Open("/nonexistent/dir/file.bin");
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.status().code(), Status::Code::kIoError);
}

TEST(SerdeTest, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32Update(0, "123456789", 9), 0xCBF43926u);
  // Incremental updates equal one-shot.
  uint32_t crc = Crc32Update(0, "12345", 5);
  crc = Crc32Update(crc, "6789", 4);
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(SerdeTest, Crc32LargeBuffersMatchByteSerialReference) {
  // Buffers >= 64 bytes take the carry-less-multiply fast path on x86;
  // every size (including the awkward 16-byte-remainder and sub-64 tails)
  // must equal the byte-serial definition of the same polynomial.
  auto reference = [](const uint8_t* p, size_t n) {
    uint32_t crc = ~0u;
    for (size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int b = 0; b < 8; ++b) {
        crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    return ~crc;
  };
  Rng rng(4417);
  std::vector<uint8_t> buf(4096 + 17);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{63},
                         size_t{64}, size_t{65}, size_t{79}, size_t{80},
                         size_t{127}, size_t{128}, size_t{1000},
                         size_t{4096}, buf.size()}) {
    EXPECT_EQ(Crc32Update(0, buf.data(), n), reference(buf.data(), n))
        << "n=" << n;
    // Split updates must also agree (the fast path only sees full chunks).
    if (n >= 2) {
      const uint32_t head = Crc32Update(0, buf.data(), n / 2);
      EXPECT_EQ(Crc32Update(head, buf.data() + n / 2, n - n / 2),
                reference(buf.data(), n))
          << "split n=" << n;
    }
  }
}

/// Writes `payload` u32 words to `path`, footed unless `footer` is false.
void WriteWords(const std::string& path, std::vector<uint32_t> payload,
                bool footer = true) {
  auto wr = BinaryWriter::Open(path);
  ASSERT_TRUE(wr.ok());
  BinaryWriter w = std::move(wr).ValueOrDie();
  for (uint32_t word : payload) w.Write<uint32_t>(word);
  if (footer) w.WriteChecksumFooter();
  ASSERT_TRUE(w.Close().ok());
}

TEST(SerdeTest, ChecksumFooterRoundTrip) {
  const std::string path = ::testing::TempDir() + "/serde_crc.bin";
  WriteWords(path, {42, 7, 0xDEADBEEF});
  EXPECT_TRUE(VerifyFileChecksum(path).ok());
  std::remove(path.c_str());
}

TEST(SerdeTest, ChecksumCatchesFlippedPayloadByte) {
  const std::string path = ::testing::TempDir() + "/serde_crc_flip.bin";
  WriteWords(path, {1, 2, 3, 4});
  // Flip one payload byte: only the checksum can notice.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char b = 0;
    f.seekg(10);
    f.read(&b, 1);
    b ^= 0x40;
    f.seekp(10);
    f.write(&b, 1);
  }
  EXPECT_EQ(VerifyFileChecksum(path).code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(SerdeTest, TrailingBytesAfterFooterAreCorruption) {
  const std::string path = ::testing::TempDir() + "/serde_trailing.bin";
  WriteWords(path, {7});
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "junk";
  }
  EXPECT_EQ(VerifyFileChecksum(path).code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(SerdeTest, MissingFooterIsCorruption) {
  const std::string path = ::testing::TempDir() + "/serde_nofooter.bin";
  // Shorter than a footer, and long enough to hold one that is not there.
  for (const std::vector<uint32_t>& payload :
       {std::vector<uint32_t>{7}, std::vector<uint32_t>{7, 8, 9, 10}}) {
    WriteWords(path, payload, /*footer=*/false);
    EXPECT_EQ(VerifyFileChecksum(path).code(), Status::Code::kCorruption);
  }
  std::remove(path.c_str());
  EXPECT_EQ(VerifyFileChecksum(path).code(), Status::Code::kIoError);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotDeadlockWait) {
  // Regression: in_flight_ used to be decremented only after a normal task
  // return, so one throwing task wedged Wait() forever. The decrement is now
  // exception-safe and the first exception is rethrown by Wait().
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  pool.Submit([] { throw std::runtime_error("task exploded"); });
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&survivors] { survivors.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(survivors.load(), 8);

  // The pool stays usable after the failed batch.
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](size_t i) {
                                  if (i == 13) {
                                    throw std::runtime_error("mid-loop");
                                  }
                                }),
               std::runtime_error);
  // And again: a poisoned loop must not poison the pool.
  std::atomic<int> count{0};
  pool.ParallelFor(16, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolDeathTest, NestedParallelForFromWorkerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.ParallelFor(4, [&pool](size_t) {
          pool.ParallelFor(2, [](size_t) {});  // self-deadlock without guard
        });
      },
      "nested ParallelFor");
}

TEST(TaskGroupTest, WaitsOnlyForOwnTasks) {
  // Two groups sharing one pool: each group's Wait() returns when ITS tasks
  // are done, even while the other group still has work in flight.
  ThreadPool pool(4);
  TaskGroup fast(&pool);
  TaskGroup slow(&pool);
  std::atomic<int> fast_done{0};
  std::atomic<bool> release{false};
  slow.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 8; ++i) {
    fast.Submit([&fast_done] { fast_done.fetch_add(1); });
  }
  fast.Wait();  // must not block on the slow group's task
  EXPECT_EQ(fast_done.load(), 8);
  release.store(true);
  slow.Wait();
}

TEST(TaskGroupTest, ThrowingTaskStillCompletesGroup) {
  ThreadPool pool(2);
  {
    TaskGroup group(&pool);
    group.Submit([] { throw std::runtime_error("task exploded"); });
    group.Wait();  // the group must not wedge on the throw
  }
  // The exception still reached the pool's first-error slot.
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(TaskGroupDeathTest, WaitFromOwnPoolWorkerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        TaskGroup outer(&pool);
        outer.Submit([&pool] {
          TaskGroup inner(&pool);
          inner.Wait();  // worker waiting on its own pool self-deadlocks
        });
        outer.Wait();
      },
      "TaskGroup::Wait from a worker");
}

TEST(TaskGroupTest, DestructorDrains) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 16; ++i) {
      group.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        count.fetch_add(1);
      });
    }
  }  // ~TaskGroup waits
  EXPECT_EQ(count.load(), 16);
}

TEST(Fnv1aTest, StableAndSensitive) {
  EXPECT_EQ(Fnv1a64("abc", 3), Fnv1a64("abc", 3));
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abd", 3));
  EXPECT_NE(Fnv1a64("abc", 3, 1), Fnv1a64("abc", 3, 2));
}

}  // namespace
}  // namespace pexeso
