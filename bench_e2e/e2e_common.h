// Shared pieces of bench_e2e and its self-test: seeded input draws, exact
// latency percentiles, windowed medians and a log-linear histogram, the
// open-loop scheduler core, the answer digest, span buffers for the traced
// run, and the one result-JSON writer every run goes through.
//
// Everything here is deterministic given its seed and free of sockets, so
// bench_e2e_selftest can pin each piece down in isolation.

#ifndef PEXESO_BENCH_E2E_E2E_COMMON_H_
#define PEXESO_BENCH_E2E_E2E_COMMON_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/join_result.h"

namespace pexeso::bench::e2e {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ seeded draws

/// Independent random streams derived from one seed (the fixed data seed
/// for the lake, pool and partitioning; --seed for the traffic): each
/// consumer names its stream, so adding one never shifts another's draws.
enum class Stream : uint64_t {
  kLake = 1,
  kPool = 2,
  kClient = 3,
  kArrivals = 4,
  kWriter = 5,
  kReplay = 6,
  kPartition = 7,
};

inline uint64_t SeedFor(uint64_t seed, Stream stream, uint64_t index = 0) {
  // splitmix64 finalizer over (seed, stream, index).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(stream) * 0xBF58476D1CE4E5B9ULL +
               index * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Zipf(s) over ranks [0, n): rank r is drawn with weight (r+1)^-s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Draw(Rng* rng) const {
    const double u = rng->UniformDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival offsets (seconds from the start) at `rate` per second
/// over [0, seconds): exponential gaps from one seeded stream.
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                           double seconds) {
  Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

/// The live-lake writer's plan for one batch: how many stream columns to
/// append and, for each drop, a uniform draw in [0, 1) that picks an index
/// into the writer's list of live column ids at that moment. Expressing
/// drops as fractions keeps the plan independent of the ids the lake hands
/// out, while the choice stays deterministic for a seed.
struct WriterBatch {
  size_t appends = 0;
  std::vector<double> drop_picks;
};

inline std::vector<WriterBatch> WriterPlan(uint64_t seed, size_t batches,
                                           size_t appends, size_t drops) {
  Rng rng(seed);
  std::vector<WriterBatch> plan(batches);
  for (WriterBatch& b : plan) {
    b.appends = appends;
    for (size_t d = 0; d < drops; ++d) b.drop_picks.push_back(rng.UniformDouble());
  }
  return plan;
}

/// Query-size profile of a pool: one size per pool rank, log-normal around
/// `median` and clamped to [lo, hi], drawn from a fixed stream -- part of
/// the workload's definition, like the rest of its data.
inline std::vector<size_t> PoolSizes(size_t n, double median, double sigma,
                                     size_t lo, size_t hi) {
  Rng rng(0x51AE5);
  std::vector<size_t> sizes(n);
  for (size_t& s : sizes) {
    const double v = median * std::exp(sigma * rng.Normal());
    s = std::clamp<size_t>(static_cast<size_t>(std::lround(v)), lo, hi);
  }
  return sizes;
}

// --------------------------------------------------------- latency helpers

/// Exact nearest-rank percentile of an ascending-sorted sample: the
/// smallest value v such that at least q*n samples are <= v. 0 for an
/// empty sample.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// The conventional median (mean of the two middle values for an even
/// count); 0 for an empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One latency sample: when the request finished (seconds from the start
/// of the measured window) and how long it took.
struct TimedSample {
  double done_s = 0.0;
  double latency_ms = 0.0;
};

/// Splits [0, span_s) into `windows` equal stretches by completion time,
/// takes the q-percentile inside each, and returns the median of those.
/// One stall burst then moves one window's percentile, not the run's.
/// Samples finishing at or after span_s fall into the last window.
inline double WindowedPercentile(const std::vector<TimedSample>& samples,
                                 double span_s, size_t windows, double q) {
  windows = std::max<size_t>(1, windows);
  std::vector<std::vector<double>> per(windows);
  for (const TimedSample& s : samples) {
    const double f = span_s > 0.0 ? s.done_s / span_s : 0.0;
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(std::max(0.0, f) * windows));
    per[w].push_back(s.latency_ms);
  }
  std::vector<double> pct;
  for (std::vector<double>& v : per) {
    if (!v.empty()) pct.push_back(Percentile(Sorted(std::move(v)), q));
  }
  return pct.empty() ? 0.0 : Median(std::move(pct));
}

/// How many windows WindowedPercentile should split `samples` requests over
/// `span_s` seconds into for the q-percentile: as many as leave at least
/// ten samples past each window's percentile, but none shorter than a
/// second. At least one.
inline size_t PercentileWindows(size_t samples, double span_s, double q) {
  constexpr double kBeyond = 10.0;
  const double past = static_cast<double>(samples) * (1.0 - q);
  // The epsilon absorbs rounding in 1 - q (1 - 0.9 is just below 0.1).
  const size_t by_samples = static_cast<size_t>(past / kBeyond + 1e-9);
  const size_t by_time = std::max<size_t>(1, static_cast<size_t>(span_s));
  return std::clamp<size_t>(by_samples, 1, by_time);
}

/// Completions per second in each of `windows` equal stretches of
/// [0, span_s), and the median of those rates.
inline double WindowedRate(const std::vector<double>& done_s, double span_s,
                           size_t windows) {
  windows = std::max<size_t>(1, windows);
  std::vector<double> counts(windows, 0.0);
  for (double t : done_s) {
    if (t < 0.0 || t >= span_s) continue;
    counts[std::min(windows - 1, static_cast<size_t>(t / span_s * windows))] +=
        1.0;
  }
  for (double& c : counts) c /= span_s / static_cast<double>(windows);
  return Median(std::move(counts));
}

/// Log-linear latency histogram (HdrHistogram-style): each power-of-two
/// range of microseconds is split into kSub linear buckets, so relative
/// resolution stays ~1/kSub from 1 us to minutes in a few hundred buckets.
class LatencyHistogram {
 public:
  static constexpr uint64_t kSub = 16;

  void Add(double ms) {
    const uint64_t us =
        ms <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(ms * 1e3));
    const size_t b = Bucket(us);
    if (b >= counts_.size()) counts_.resize(b + 1, 0);
    ++counts_[b];
  }

  /// [{"le_us": upper bound, "n": count}, ...] over non-empty buckets.
  std::string ToJson() const {
    std::string out = "[";
    bool first = true;
    for (size_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] == 0) continue;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s{\"le_us\": %llu, \"n\": %llu}",
                    first ? "" : ", ",
                    static_cast<unsigned long long>(UpperBound(b)),
                    static_cast<unsigned long long>(counts_[b]));
      out += buf;
      first = false;
    }
    return out + "]";
  }

  /// Bucket index of a microsecond value (exposed for the self-test).
  static size_t Bucket(uint64_t us) {
    if (us < kSub) return static_cast<size_t>(us);
    const uint64_t msb = 63 - __builtin_clzll(us);  // >= log2(kSub)
    const uint64_t shift = msb - 4;                 // log2(kSub) == 4
    return static_cast<size_t>((shift + 1) * kSub + ((us >> shift) - kSub));
  }

  /// Largest microsecond value that lands in bucket `b`.
  static uint64_t UpperBound(size_t b) {
    if (b < kSub) return b;
    const uint64_t shift = b / kSub - 1;
    const uint64_t sub = b % kSub;
    return ((kSub + sub + 1) << shift) - 1;
  }

 private:
  std::vector<uint64_t> counts_;
};

// ----------------------------------------------------------- answer digest

/// Everything an answer is compared on: per column its id, match count,
/// joinability and mapping size, in result order.
inline uint64_t AnswerDigest(const std::vector<JoinableColumn>& columns) {
  uint64_t h = Fnv1a64("answer", 6);
  auto mix = [&h](const void* p, size_t n) { h = Fnv1a64(p, n, h); };
  const uint64_t n = columns.size();
  mix(&n, sizeof(n));
  for (const JoinableColumn& c : columns) {
    const uint64_t mapping = c.mapping.size();
    mix(&c.column, sizeof(c.column));
    mix(&c.match_count, sizeof(c.match_count));
    mix(&c.joinability, sizeof(c.joinability));
    mix(&mapping, sizeof(mapping));
  }
  return h;
}

// ---------------------------------------------------- open-loop scheduler

/// What the open-loop scheduler drives. Send() issues request i (false =
/// the send failed; the request counts as failed). Wait() blocks until
/// `until` or until at least one request completes, appending completed
/// request indices (with their completion times) to `done`.
class OpenLoopTransport {
 public:
  virtual ~OpenLoopTransport() = default;
  virtual bool Send(size_t i) = 0;
  virtual void Wait(Clock::time_point until,
                    std::vector<std::pair<size_t, Clock::time_point>>* done) = 0;
  virtual size_t outstanding() const = 0;
};

struct OpenLoopResult {
  /// Per request: due time -> completion (ms); NaN when it never completed.
  std::vector<double> latency_ms;
  /// Per request: due time -> actual send (ms); the generator's lateness.
  std::vector<double> late_ms;
  std::vector<bool> send_failed;
  double wall_seconds = 0.0;  ///< start -> last completion (or drain end)
};

/// Sends request i at t0 + due[i] whatever the state of earlier requests,
/// and times each from its DUE time — so a stall in the generator or the
/// server is charged to every request queued behind it (no coordinated
/// omission). After the last send it waits up to `drain_seconds` for
/// stragglers.
inline OpenLoopResult RunOpenLoop(const std::vector<double>& due,
                                  Clock::time_point t0,
                                  OpenLoopTransport* transport,
                                  double drain_seconds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  OpenLoopResult r;
  r.latency_ms.assign(due.size(), nan);
  r.late_ms.assign(due.size(), 0.0);
  r.send_failed.assign(due.size(), false);
  auto due_at = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i]));
  };
  std::vector<std::pair<size_t, Clock::time_point>> done;
  Clock::time_point last = t0;
  auto collect = [&] {
    for (const auto& [i, at] : done) {
      r.latency_ms[i] = MillisBetween(due_at(i), at);
      last = std::max(last, at);
    }
    done.clear();
  };
  size_t next = 0;
  while (next < due.size()) {
    Clock::time_point now = Clock::now();
    while (next < due.size() && due_at(next) <= now) {
      r.late_ms[next] = MillisBetween(due_at(next), now);
      if (!transport->Send(next)) r.send_failed[next] = true;
      ++next;
      now = Clock::now();
    }
    if (next < due.size()) transport->Wait(due_at(next), &done);
    collect();
  }
  const Clock::time_point drain_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(drain_seconds));
  while (transport->outstanding() > 0 && Clock::now() < drain_end) {
    transport->Wait(drain_end, &done);
    collect();
  }
  r.wall_seconds = std::chrono::duration<double>(last - t0).count();
  return r;
}

// ------------------------------------------------------------------ spans

/// One recorded interval. `query` ties the spans of one request together;
/// `parent` is the enclosing span's id (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  const char* layer = "";
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t query = -1;
};

/// Collects spans from per-thread buffers: each thread records into its own
/// vector without locking and hands it over once, at the end of its work.
/// A null Tracer* means tracing is off, and SpanScope then records nothing.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  int64_t NowUs() const { return Us(Clock::now()); }

  /// Microseconds from the tracer's origin to `t`.
  int64_t Us(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
        .count();
  }

  void Collect(std::vector<Span>&& buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), buffer.begin(), buffer.end());
    buffer.clear();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  bool WriteJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"schema\": \"bench_e2e_trace/v1\", \"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                   "\"layer\": \"%s\", \"start_us\": %lld, \"end_us\": %lld, "
                   "\"query\": %lld}",
                   i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name, s.layer,
                   static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us),
                   static_cast<long long>(s.query));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span into a thread's own buffer; a no-op when `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::vector<Span>* buffer, const char* name,
            const char* layer, uint64_t parent, int64_t query)
      : tracer_(tracer), buffer_(buffer) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->NextId();
    span_.parent = parent;
    span_.name = name;
    span_.layer = layer;
    span_.query = query;
    span_.start_us = tracer_->NowUs();
  }
  ~SpanScope() {
    if (tracer_ == nullptr) return;
    span_.end_us = tracer_->NowUs();
    buffer_->push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  std::vector<Span>* buffer_;
  Span span_;
};

// ------------------------------------------------------------ result JSON

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's report: the identity of the run, its sample counts, and every
/// metric it measured with its unit.
struct RunReport {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Run-validity flags that are not answer errors (e.g. a late generator).
  std::vector<std::string> invalid;
  std::vector<std::pair<std::string, uint64_t>> samples;
  std::vector<MetricValue> metrics;
  std::string latency_histogram_json = "[]";

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  const MetricValue* Find(const std::string& name) const {
    for (const MetricValue& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

/// Number formatting that keeps every digit and never emits NaN/inf
/// (neither is JSON); a non-finite value is a bench bug and reads as -1.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline unsigned HwThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// CPUs this process may run on (what `nproc` prints).
inline unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return HwThreads();
  return std::max(1, CPU_COUNT(&set));
}

inline bool WriteReportJson(const std::string& path, const RunReport& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"bench_e2e/v1\",\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n", r.workload.c_str());
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(r.seed));
  std::fprintf(f, "  \"seconds\": %s,\n", JsonNumber(r.seconds).c_str());
  std::fprintf(f, "  \"trace\": %s,\n", r.trace ? "true" : "false");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", r.git_sha.c_str());
  std::fprintf(f, "  \"hw_threads\": %u,\n  \"nproc\": %u,\n", HwThreads(),
               Nproc());
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n"
               "  \"failed\": %llu,\n",
               r.correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fprintf(f, "  \"invalid\": [");
  for (size_t i = 0; i < r.invalid.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", r.invalid[i].c_str());
  }
  std::fprintf(f, "],\n  \"samples\": {");
  for (size_t i = 0; i < r.samples.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %llu", i == 0 ? "" : ", ",
                 r.samples[i].first.c_str(),
                 static_cast<unsigned long long>(r.samples[i].second));
  }
  std::fprintf(f, "},\n  \"latency_histogram\": %s,\n",
               r.latency_histogram_json.c_str());
  std::fprintf(f, "  \"metrics\": {");
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const MetricValue& m = r.metrics[i];
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", m.name.c_str(),
                 JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

/// The one-line result the benchmark command ends with: correctness,
/// attempt counts and the metrics named in `names`, in that order.
inline std::string ResultLine(const RunReport& r,
                              const std::vector<std::string>& names) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const MetricValue* m = r.Find(name);
    if (m == nullptr) continue;
    out += (first ? "\"" : ", \"") + m->name + "\": {\"value\": " +
           JsonNumber(m->value) + ", \"unit\": \"" + m->unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace pexeso::bench::e2e

#endif  // PEXESO_BENCH_E2E_E2E_COMMON_H_
