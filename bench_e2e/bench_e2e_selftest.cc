// bench_e2e_selftest: pins down the benchmark's own machinery before any
// number it reports is trusted -- the percentile helper, the seeded draws,
// the open-loop scheduler's latency clock, the answer comparator and the
// histogram buckets. run_e2e.sh runs it before every benchmark run.

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "e2e_common.h"

namespace pexeso::bench::e2e {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

/// Brute force: the smallest sample value v with at least q*n samples <= v.
double BruteForcePercentile(const std::vector<double>& v, double q) {
  double best = 0.0;
  bool found = false;
  for (double cand : v) {
    size_t at_most = 0;
    for (double x : v) at_most += x <= cand ? 1 : 0;
    if (static_cast<double>(at_most) >= q * static_cast<double>(v.size()) &&
        (!found || cand < best)) {
      best = cand;
      found = true;
    }
  }
  return best;
}

void TestPercentile() {
  Rng rng(7);
  for (size_t n : {1, 2, 3, 10, 99, 100, 101, 1000}) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) {
      // Ties on purpose: latencies repeat at microsecond resolution.
      v.push_back(std::floor(rng.UniformDouble() * 50.0));
    }
    const std::vector<double> sorted = Sorted(v);
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      Check(Percentile(sorted, q) == BruteForcePercentile(v, q),
            "Percentile matches the brute-force definition");
    }
  }
  Check(Percentile({}, 0.5) == 0.0, "Percentile of an empty sample is 0");
  Check(Median({3, 1, 2}) == 2.0 && Median({4, 1, 3, 2}) == 2.5,
        "Median averages the middle pair of an even sample");

  // Four 1-second windows of 1000 samples at 1..10 ms; a stall makes 20
  // samples of the third window 500 ms. The run-wide p99 moves, the
  // median of the window p99s does not.
  std::vector<TimedSample> timed;
  std::vector<double> flat;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 1000; ++i) {
      const double ms = (w == 2 && i < 20) ? 500.0 : 1.0 + (i % 10);
      timed.push_back({w + i / 1000.0, ms});
      flat.push_back(ms);
    }
  }
  Check(Percentile(Sorted(flat), 0.99) == 10.0 &&
            Percentile(Sorted(flat), 0.999) == 500.0,
        "the stall reaches the run-wide tail");
  Check(WindowedPercentile(timed, 4.0, 4, 0.99) == 10.0,
        "a stall in one window leaves the windowed p99 alone");
  Check(WindowedPercentile(timed, 4.0, 1, 0.999) == 500.0,
        "one window is the plain percentile");
  Check(PercentileWindows(4000, 4.0, 0.99) == 4 &&
            PercentileWindows(200, 10.0, 0.90) == 2 &&
            PercentileWindows(3000, 20.0, 0.99) == 3,
        "percentile windows keep ten samples beyond each percentile");
  Check(PercentileWindows(100000, 20.0, 0.50) == 20 &&
            PercentileWindows(50, 20.0, 0.99) == 1,
        "percentile windows are at least a second long, and at least one");

  // 100 completions per second for 5 s, none in second 2, and stragglers
  // after the span that must not count.
  std::vector<double> done;
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < 100 && s != 2; ++i) done.push_back(s + i / 100.0);
  }
  done.push_back(5.5);
  Check(WindowedRate(done, 5.0, 5) == 100.0,
        "a stalled second leaves the windowed rate alone");
  Check(WindowedRate(done, 5.0, 1) == 80.0, "one window is the plain rate");
}

void TestDraws() {
  ZipfSampler zipf(256, 1.1);
  auto zipf_draws = [&](uint64_t seed) {
    Rng rng(SeedFor(seed, Stream::kClient, 0));
    std::vector<size_t> out;
    for (int i = 0; i < 200; ++i) out.push_back(zipf.Draw(&rng));
    return out;
  };
  Check(zipf_draws(1) == zipf_draws(1), "Zipf draws repeat for a seed");
  Check(zipf_draws(1) != zipf_draws(2), "Zipf draws differ across seeds");
  size_t rank0 = 0;
  for (size_t d : zipf_draws(3)) rank0 += d == 0 ? 1 : 0;
  Check(rank0 > 20, "Zipf(1.1) favours rank 0");

  const auto a = PoissonSchedule(SeedFor(1, Stream::kArrivals), 500.0, 2.0);
  const auto b = PoissonSchedule(SeedFor(1, Stream::kArrivals), 500.0, 2.0);
  const auto c = PoissonSchedule(SeedFor(2, Stream::kArrivals), 500.0, 2.0);
  Check(a == b, "Poisson schedule repeats for a seed");
  Check(a != c, "Poisson schedule differs across seeds");
  Check(a.size() > 850 && a.size() < 1150, "Poisson count near rate x time");
  Check(std::is_sorted(a.begin(), a.end()), "Poisson offsets ascend");

  auto picks = [](uint64_t seed) {
    std::vector<double> out;
    for (const WriterBatch& wb :
         WriterPlan(SeedFor(seed, Stream::kWriter), 10, 32, 4)) {
      out.insert(out.end(), wb.drop_picks.begin(), wb.drop_picks.end());
    }
    return out;
  };
  Check(picks(1) == picks(1), "writer batches repeat for a seed");
  Check(picks(1) != picks(2), "writer batches differ across seeds");
  Check(picks(1).size() == 40, "writer plan has drops per batch");

  Check(PoolSizes(64, 50, 0.5, 8, 200) == PoolSizes(64, 50, 0.5, 8, 200),
        "pool size profile is fixed");
  for (size_t s : PoolSizes(256, 50, 0.5, 8, 200)) {
    Check(s >= 8 && s <= 200, "pool sizes are clamped");
  }
}

/// Completes every request the moment it is sent, except that sending
/// request `stall_at` blocks for 50 ms -- a generator or server hiccup.
class StallTransport final : public OpenLoopTransport {
 public:
  explicit StallTransport(size_t stall_at) : stall_at_(stall_at) {}

  bool Send(size_t i) override {
    if (i == stall_at_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ready_.emplace_back(i, Clock::now());
    return true;
  }

  void Wait(Clock::time_point until,
            std::vector<std::pair<size_t, Clock::time_point>>* done) override {
    if (ready_.empty()) {
      std::this_thread::sleep_until(until);
      return;
    }
    done->insert(done->end(), ready_.begin(), ready_.end());
    ready_.clear();
  }

  size_t outstanding() const override { return ready_.size(); }

 private:
  size_t stall_at_;
  std::vector<std::pair<size_t, Clock::time_point>> ready_;
};

void TestOpenLoopStall() {
  // 40 requests due every 5 ms; sending #10 (due at 50 ms) stalls 50 ms.
  std::vector<double> due;
  for (int i = 0; i < 40; ++i) due.push_back(i * 0.005);
  StallTransport transport(10);
  const OpenLoopResult r =
      RunOpenLoop(due, Clock::now() + std::chrono::milliseconds(2),
                  &transport, 1.0);
  Check(r.latency_ms[10] >= 45.0, "the stalled request waits out the stall");
  // #11 was due 5 ms after #10 and could not be sent until the stall
  // ended: timed from its due time it waited ~45 ms, although its own
  // send-to-done interval was ~0.
  Check(r.latency_ms[11] >= 40.0, "a request behind the stall is charged");
  Check(r.late_ms[11] >= 40.0, "the generator reports its lateness");
  Check(r.latency_ms[15] >= 20.0 && r.latency_ms[15] < r.latency_ms[11],
        "the charge shrinks with distance behind the stall");
  Check(r.latency_ms[5] < 20.0, "requests before the stall are unaffected");
  Check(r.latency_ms[35] < 20.0, "the schedule recovers after the stall");
}

/// The bench compares every answer with its reference by digest.
void TestComparator() {
  std::vector<JoinableColumn> want(3);
  for (uint32_t i = 0; i < 3; ++i) {
    want[i].column = 10 + i;
    want[i].match_count = 5;
    want[i].joinability = 0.5;
  }
  Check(AnswerDigest(want) == AnswerDigest(want), "digest is deterministic");
  std::vector<JoinableColumn> got = want;
  got[1].column = 99;
  Check(AnswerDigest(got) != AnswerDigest(want), "one wrong column is flagged");
  got = want;
  got[2].match_count = 4;
  Check(AnswerDigest(got) != AnswerDigest(want), "a wrong count is flagged");
  got = want;
  got[0].joinability = 0.4;
  Check(AnswerDigest(got) != AnswerDigest(want), "joinability is compared");
  got = want;
  got[0].mapping.resize(1);
  Check(AnswerDigest(got) != AnswerDigest(want), "mapping size is compared");
  got = want;
  got.pop_back();
  Check(AnswerDigest(got) != AnswerDigest(want), "a missing column is flagged");
  got = want;
  std::swap(got[0], got[1]);
  Check(AnswerDigest(got) != AnswerDigest(want), "result order is compared");
}

void TestHistogram() {
  for (uint64_t us : {0ull, 1ull, 15ull, 16ull, 17ull, 31ull, 32ull, 1000ull,
                      123456ull, 60000000ull}) {
    const size_t b = LatencyHistogram::Bucket(us);
    Check(us <= LatencyHistogram::UpperBound(b), "value within its bucket");
    Check(b == 0 || us > LatencyHistogram::UpperBound(b - 1),
          "value above the previous bucket");
  }
  LatencyHistogram h;
  h.Add(1.5);
  h.Add(1.5);
  Check(h.ToJson().find("\"n\": 2") != std::string::npos,
        "histogram counts repeated values");
}

}  // namespace
}  // namespace pexeso::bench::e2e

int main() {
  using namespace pexeso::bench::e2e;
  TestPercentile();
  TestDraws();
  TestOpenLoopStall();
  TestComparator();
  TestHistogram();
  if (failures > 0) {
    std::fprintf(stderr, "bench_e2e_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "bench_e2e_selftest: ok\n");
  return 0;
}
