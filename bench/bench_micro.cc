// Google-benchmark micro-benchmarks of the kernels everything else is built
// from: distance computation, pivot mapping, grid construction, inverted-
// index verification, embedding, and full index build/search at small scale.
// These are regression guards, not paper figures.
//
// In addition to the Google-Benchmark timing loops, main() always measures
// the distance-kernel throughput trajectory (scalar virtual Metric::Dist vs
// the dispatched KernelSet, per metric x dim) and writes it as
// BENCH_kernels.json so successive PRs can track it; run with
// --benchmark_filter='^$' to emit only the JSON.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "datagen/vector_lake.h"
#include "embed/char_gram_model.h"
#include "pivot/pivot_selector.h"
#include "vec/kernels.h"
#include "vec/metric.h"

namespace pexeso {
namespace {

void BM_L2Distance(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(dim), b(dim);
  for (auto& x : a) x = static_cast<float>(rng.Normal());
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  L2Metric metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric.Dist(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2Distance)->Arg(50)->Arg(300);

// ------------------------------------------------------ distance kernels
//
// One-to-many throughput (pairs/sec) per metric x dim, three variants:
// the per-pair virtual Metric::Dist baseline, the scalar KernelSet tier,
// and the runtime-dispatched tier (AVX2/NEON when the CPU has it).

constexpr size_t kKernelBenchRows = 2048;

std::vector<float> RandomPacked(uint64_t seed, size_t n, uint32_t dim) {
  Rng rng(seed);
  std::vector<float> out(n * dim);
  for (auto& x : out) x = static_cast<float>(rng.Normal());
  return out;
}

void BM_DistManyVirtual(benchmark::State& state, const std::string& name) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  auto metric = MakeMetric(name);
  const auto base = RandomPacked(2, kKernelBenchRows, dim);
  const auto q = RandomPacked(3, 1, dim);
  std::vector<double> out(kKernelBenchRows);
  for (auto _ : state) {
    for (size_t r = 0; r < kKernelBenchRows; ++r) {
      out[r] = metric->Dist(q.data(), base.data() + r * dim, dim);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kKernelBenchRows);
}

void BM_DistManyKernel(benchmark::State& state, const std::string& name,
                       SimdLevel level) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  auto metric = MakeMetric(name);
  const KernelSet* ks = GetKernels(metric->kernels()->kind, level);
  if (ks == nullptr) {
    state.SkipWithError("SIMD level unavailable on this CPU");
    return;
  }
  const auto base = RandomPacked(2, kKernelBenchRows, dim);
  const auto q = RandomPacked(3, 1, dim);
  std::vector<double> out(kKernelBenchRows);
  for (auto _ : state) {
    ks->DistMany(q.data(), base.data(), kKernelBenchRows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kKernelBenchRows);
}

void RegisterKernelBenches() {
  for (const char* name : {"l2", "cosine", "l1"}) {
    for (int64_t dim : {50, 100, 300}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_DistMany/") + name + "/virtual").c_str(),
          [name](benchmark::State& s) { BM_DistManyVirtual(s, name); })
          ->Arg(dim);
      benchmark::RegisterBenchmark(
          (std::string("BM_DistMany/") + name + "/scalar").c_str(),
          [name](benchmark::State& s) {
            BM_DistManyKernel(s, name, SimdLevel::kScalar);
          })
          ->Arg(dim);
      const SimdLevel active = ActiveSimdLevel();
      if (active != SimdLevel::kScalar) {
        benchmark::RegisterBenchmark(
            (std::string("BM_DistMany/") + name + "/" + SimdLevelName(active))
                .c_str(),
            [name, active](benchmark::State& s) {
              BM_DistManyKernel(s, name, active);
            })
            ->Arg(dim);
      }
    }
  }
}

// --------------------------------------------- BENCH_kernels.json writer

/// Pairs/sec of `fn` measured over enough repetitions to fill ~80ms.
template <typename Fn>
double MeasurePairsPerSec(size_t pairs_per_call, Fn&& fn) {
  fn();  // warm up caches and the dispatch table
  size_t reps = 1;
  double elapsed = 0.0;
  for (;;) {
    Stopwatch watch;
    for (size_t i = 0; i < reps; ++i) fn();
    elapsed = watch.ElapsedSeconds();
    if (elapsed >= 0.08) break;
    reps *= 4;
  }
  return static_cast<double>(pairs_per_call) * static_cast<double>(reps) /
         elapsed;
}

/// Writes the kernel-throughput record, BENCH_kernels.json
/// ("BENCH_kernels/v2"): one row per metric x dim with pairs/sec for the
/// virtual baseline, the scalar kernel tier and the dispatched tier, and
/// speedup = dispatched / virtual. Every field is a rate, so none is gated.
int WriteKernelBenchJson() {
  bench::BenchJson json("kernels", 2);
  for (const char* name : {"l2", "cosine", "l1"}) {
    auto metric = MakeMetric(name);
    for (uint32_t dim : {50u, 100u, 300u}) {
      const auto base = RandomPacked(2, kKernelBenchRows, dim);
      const auto q = RandomPacked(3, 1, dim);
      std::vector<double> out(kKernelBenchRows);
      const double virt =
          MeasurePairsPerSec(kKernelBenchRows, [&] {
            for (size_t r = 0; r < kKernelBenchRows; ++r) {
              out[r] = metric->Dist(q.data(), base.data() + r * dim, dim);
            }
            benchmark::DoNotOptimize(out.data());
          });
      const KernelSet* scalar_ks =
          GetKernels(metric->kernels()->kind, SimdLevel::kScalar);
      const double scalar =
          MeasurePairsPerSec(kKernelBenchRows, [&] {
            scalar_ks->DistMany(q.data(), base.data(), kKernelBenchRows, dim,
                                out.data());
            benchmark::DoNotOptimize(out.data());
          });
      const KernelSet* active_ks = metric->kernels();
      const double dispatched =
          MeasurePairsPerSec(kKernelBenchRows, [&] {
            active_ks->DistMany(q.data(), base.data(), kKernelBenchRows, dim,
                                out.data());
            benchmark::DoNotOptimize(out.data());
          });
      json.Row(std::string(name) + " dim=" + std::to_string(dim))
          .Num("virtual_pairs_per_sec", virt, 0)
          .Num("scalar_kernel_pairs_per_sec", scalar, 0)
          .Num("dispatched_pairs_per_sec", dispatched, 0)
          .Num("speedup_vs_virtual", dispatched / virt, 2);
    }
  }
  return json.Write();
}

void BM_PivotMapping(benchmark::State& state) {
  const uint32_t dim = 50, np = 5;
  VectorLakeOptions opts;
  opts.dim = dim;
  opts.num_columns = 50;
  ColumnCatalog catalog = GenerateVectorLake(opts);
  L2Metric metric;
  auto pivots = PivotSelector::SelectRandom(catalog.store().raw().data(),
                                            catalog.num_vectors(), dim, np, 3);
  PivotSpace ps(pivots.data(), np, dim, &metric);
  double out[np];
  size_t i = 0;
  for (auto _ : state) {
    ps.Map(catalog.store().View(i % catalog.num_vectors()), out);
    benchmark::DoNotOptimize(out[0]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PivotMapping);

void BM_GridBuild(benchmark::State& state) {
  const uint32_t np = 5;
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> mapped(n * np);
  for (auto& x : mapped) x = rng.UniformDouble() * 2.0;
  for (auto _ : state) {
    HierarchicalGrid grid;
    HierarchicalGrid::Options gopts;
    gopts.levels = 5;
    grid.Build(mapped.data(), n, np, 2.0, gopts);
    benchmark::DoNotOptimize(grid.LeafCells().size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GridBuild)->Arg(1000)->Arg(10000);

void BM_CharGramEmbed(benchmark::State& state) {
  CharGramModel model;
  const std::string text = "mario party superstars deluxe";
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.EmbedRecord(text));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CharGramEmbed);

void BM_IndexBuild(benchmark::State& state) {
  VectorLakeOptions opts;
  opts.dim = 50;
  opts.num_columns = static_cast<uint32_t>(state.range(0));
  ColumnCatalog catalog = GenerateVectorLake(opts);
  L2Metric metric;
  for (auto _ : state) {
    ColumnCatalog copy = catalog;
    PexesoOptions popts;
    popts.num_pivots = 5;
    popts.levels = 5;
    PexesoIndex index = PexesoIndex::Build(std::move(copy), &metric, popts);
    benchmark::DoNotOptimize(index.IndexSizeBytes());
  }
  state.SetItemsProcessed(state.iterations() * catalog.num_vectors());
}
BENCHMARK(BM_IndexBuild)->Arg(200)->Arg(1000);

void BM_PexesoSearch(benchmark::State& state) {
  VectorLakeOptions opts;
  opts.dim = 50;
  opts.num_columns = static_cast<uint32_t>(state.range(0));
  ColumnCatalog catalog = GenerateVectorLake(opts);
  L2Metric metric;
  PexesoOptions popts;
  popts.num_pivots = 5;
  popts.levels = 5;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  VectorStore query = GenerateVectorQuery(opts, 40, 99);
  FractionalThresholds ft{0.06, 0.6};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, opts.dim, query.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::MustSearch(searcher, query, sopts, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PexesoSearch)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace pexeso

int main(int argc, char** argv) {
  pexeso::RegisterKernelBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (pexeso::WriteKernelBenchJson() != 0) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
