// Kernel-vs-scalar equivalence suite for src/vec/kernels.{h,cc}: every
// SIMD tier available on this machine must agree with the double-
// accumulating Metric::Dist oracle on dims that exercise the remainder
// lanes, on zero vectors (cosine), and — end to end — PexesoSearcher must
// return results identical to a scalar-oracle join on a seeded lake at any
// thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/batch_runner.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "test_util.h"
#include "vec/kernels.h"
#include "vec/metric.h"

namespace pexeso {
namespace {

using testing::BindQueries;
using testing::MustSearch;

// Dims chosen to hit every SIMD remainder case: below one lane, odd tails,
// exact 8/16 multiples (AVX2 main loops), 4-lane NEON boundaries, and the
// realistic embedding sizes.
const uint32_t kDims[] = {1, 3, 7, 8, 15, 16, 17, 64, 100};

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> out{SimdLevel::kScalar};
  for (SimdLevel lv : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (SimdLevelAvailable(lv)) out.push_back(lv);
  }
  return out;
}

/// Random vector with entries in [-2, 2] (not normalized: the kernels must
/// agree with the oracle off the unit sphere too).
std::vector<float> RandomVec(Rng* rng, uint32_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->UniformDouble() * 4.0 - 2.0);
  return v;
}

/// Distance comparison with the right error model per metric. The angular
/// cosine distance sqrt(2 - 2c) amplifies float rounding near c = 1 (the
/// derivative blows up: near-collinear vectors at true distance 0 measure
/// ~sqrt(float eps)), so cosine is compared in squared space, where the
/// error is linear in the accumulation error again.
void ExpectDistNear(MetricKind kind, double got, double expect,
                    const std::string& label) {
  if (kind == MetricKind::kCosine) {
    EXPECT_NEAR(got * got, expect * expect, 1e-4 * (1.0 + expect * expect))
        << label;
  } else {
    EXPECT_NEAR(got, expect, 1e-4 * (1.0 + expect)) << label;
  }
}

class KernelMetricTest : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelMetricTest, Dist1MatchesOracleAcrossLevelsAndDims) {
  auto metric = MakeMetric(GetParam());
  ASSERT_NE(metric, nullptr);
  const MetricKind kind = metric->kernels()->kind;
  Rng rng(7);
  for (SimdLevel lv : AvailableLevels()) {
    const KernelSet* ks = GetKernels(kind, lv);
    ASSERT_NE(ks, nullptr) << SimdLevelName(lv);
    for (uint32_t dim : kDims) {
      for (int iter = 0; iter < 10; ++iter) {
        const auto a = RandomVec(&rng, dim);
        const auto b = RandomVec(&rng, dim);
        const double oracle = metric->Dist(a.data(), b.data(), dim);
        const double got = ks->Dist1(a.data(), b.data(), dim);
        ExpectDistNear(kind, got, oracle,
                       std::string(SimdLevelName(lv)) + " dim=" +
                           std::to_string(dim));
      }
    }
  }
}

TEST_P(KernelMetricTest, DistManyMatchesDist1) {
  auto metric = MakeMetric(GetParam());
  const MetricKind kind = metric->kernels()->kind;
  Rng rng(11);
  for (SimdLevel lv : AvailableLevels()) {
    const KernelSet* ks = GetKernels(kind, lv);
    for (uint32_t dim : kDims) {
      const size_t n = 13;
      std::vector<float> base;
      for (size_t r = 0; r < n; ++r) {
        const auto v = RandomVec(&rng, dim);
        base.insert(base.end(), v.begin(), v.end());
      }
      const auto q = RandomVec(&rng, dim);
      std::vector<double> out(n);
      ks->DistMany(q.data(), base.data(), n, dim, out.data());
      for (size_t r = 0; r < n; ++r) {
        const double one = ks->Dist1(q.data(), base.data() + r * dim, dim);
        EXPECT_NEAR(out[r], one, 1e-9 * (1.0 + one))
            << SimdLevelName(lv) << " dim=" << dim << " row=" << r;
      }
    }
  }
}

TEST_P(KernelMetricTest, NormedPathMatchesUnnormed) {
  auto metric = MakeMetric(GetParam());
  const MetricKind kind = metric->kernels()->kind;
  Rng rng(13);
  for (SimdLevel lv : AvailableLevels()) {
    const KernelSet* ks = GetKernels(kind, lv);
    for (uint32_t dim : kDims) {
      const size_t n = 9;
      std::vector<float> base;
      for (size_t r = 0; r < n; ++r) {
        const auto v = RandomVec(&rng, dim);
        base.insert(base.end(), v.begin(), v.end());
      }
      std::vector<float> norms(n);
      ks->ops->norms(base.data(), n, dim, norms.data());
      const auto q = RandomVec(&rng, dim);
      const double qn = ks->QueryNorm(q.data(), dim);

      std::vector<double> plain(n), normed(n);
      ks->DistMany(q.data(), base.data(), n, dim, plain.data());
      ks->DistManyNormed(q.data(), qn, base.data(), norms.data(), n, dim,
                         normed.data());
      for (size_t r = 0; r < n; ++r) {
        ExpectDistNear(kind, normed[r], plain[r],
                       std::string(SimdLevelName(lv)) + " dim=" +
                           std::to_string(dim));
        const double cn = ks->Cmp1Normed(q.data(), base.data() + r * dim, dim,
                                         qn, norms[r]);
        const double c = ks->Cmp1(q.data(), base.data() + r * dim, dim);
        EXPECT_NEAR(cn, c, 1e-4 * (1.0 + c));
      }
    }
  }
}

TEST_P(KernelMetricTest, DistTileMatchesDist1OverAllRemainderDims) {
  // The many-to-many tile entry points drive the staged verification
  // pipeline; every cell of a tile must agree with the one-pair kernel on
  // EVERY dim from 1 to 100 (the 4-row blocking adds a second remainder
  // axis — query rows — on top of the SIMD lane remainders).
  auto metric = MakeMetric(GetParam());
  const MetricKind kind = metric->kernels()->kind;
  Rng rng(29);
  for (SimdLevel lv : AvailableLevels()) {
    const KernelSet* ks = GetKernels(kind, lv);
    ASSERT_NE(ks, nullptr) << SimdLevelName(lv);
    for (uint32_t dim = 1; dim <= 100; ++dim) {
      const size_t nq = 6;  // not a multiple of the 4-row blocking
      const size_t nv = 5;
      std::vector<float> qs, base;
      for (size_t r = 0; r < nq; ++r) {
        const auto v = RandomVec(&rng, dim);
        qs.insert(qs.end(), v.begin(), v.end());
      }
      for (size_t c = 0; c < nv; ++c) {
        const auto v = RandomVec(&rng, dim);
        base.insert(base.end(), v.begin(), v.end());
      }
      std::vector<double> tile(nq * nv);
      ks->DistTile(qs.data(), nq, base.data(), nv, dim, tile.data());
      for (size_t r = 0; r < nq; ++r) {
        for (size_t c = 0; c < nv; ++c) {
          const double one =
              ks->Dist1(qs.data() + r * dim, base.data() + c * dim, dim);
          ExpectDistNear(kind, tile[r * nv + c], one,
                         std::string(SimdLevelName(lv)) + " dim=" +
                             std::to_string(dim) + " r=" + std::to_string(r) +
                             " c=" + std::to_string(c));
        }
      }
    }
  }
}

TEST_P(KernelMetricTest, CmpTileNormedEqualsCmp1NormedExactly) {
  // Verification resolves a small sweep pair by pair (Cmp1Normed) and a
  // dense one as a tile (CmpTileNormed), and a tile row's position decides
  // whether a 4-row group or the one-to-many kernel computes it. A pair on
  // the threshold must get one decision on every path, so each tile cell
  // must equal the one-pair value bit for bit: every row count up to two
  // full 4-row groups plus one, and dims astride every lane boundary.
  auto metric = MakeMetric(GetParam());
  const MetricKind kind = metric->kernels()->kind;
  Rng rng(31);
  for (SimdLevel lv : AvailableLevels()) {
    const KernelSet* ks = GetKernels(kind, lv);
    ASSERT_NE(ks, nullptr) << SimdLevelName(lv);
    for (uint32_t dim : {7u, 8u, 15u, 16u, 17u, 50u, 300u}) {
      for (size_t nq = 1; nq <= 9; ++nq) {
        const size_t nv = 5;
        std::vector<float> qs, base;
        for (size_t r = 0; r < nq; ++r) {
          const auto v = RandomVec(&rng, dim);
          qs.insert(qs.end(), v.begin(), v.end());
        }
        for (size_t c = 0; c < nv; ++c) {
          const auto v = RandomVec(&rng, dim);
          base.insert(base.end(), v.begin(), v.end());
        }
        std::vector<float> bnorms(nv);
        ks->ops->norms(base.data(), nv, dim, bnorms.data());
        std::vector<double> qnorms(nq);
        for (size_t r = 0; r < nq; ++r) {
          qnorms[r] = ks->QueryNorm(qs.data() + r * dim, dim);
        }
        std::vector<double> cmp(nq * nv);
        ks->CmpTileNormed(qs.data(), qnorms.data(), base.data(),
                          bnorms.data(), nq, nv, dim, cmp.data());
        for (size_t r = 0; r < nq; ++r) {
          for (size_t c = 0; c < nv; ++c) {
            const double one =
                ks->Cmp1Normed(qs.data() + r * dim, base.data() + c * dim,
                               dim, qnorms[r], bnorms[c]);
            EXPECT_EQ(cmp[r * nv + c], one)
                << SimdLevelName(lv) << " dim=" << dim << " nq=" << nq
                << " r=" << r << " c=" << c;
          }
        }
      }
    }
  }
}

TEST_P(KernelMetricTest, CmpSpaceIsEquivalentToDistanceThreshold) {
  auto metric = MakeMetric(GetParam());
  const MetricKind kind = metric->kernels()->kind;
  Rng rng(17);
  for (SimdLevel lv : AvailableLevels()) {
    const KernelSet* ks = GetKernels(kind, lv);
    for (uint32_t dim : kDims) {
      for (int iter = 0; iter < 10; ++iter) {
        const auto a = RandomVec(&rng, dim);
        const auto b = RandomVec(&rng, dim);
        const double d = ks->Dist1(a.data(), b.data(), dim);
        const double c = ks->Cmp1(a.data(), b.data(), dim);
        // Thresholds strictly astride the actual distance must classify
        // identically in both spaces.
        for (double tau : {d * 0.9, d * 1.1, d + 0.25}) {
          EXPECT_EQ(c <= ks->CmpBound(tau), d <= tau * (1 + 1e-12))
              << SimdLevelName(lv) << " dim=" << dim << " tau=" << tau;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, KernelMetricTest,
                         ::testing::Values("l2", "cosine", "l1"));

TEST(KernelCosineTest, ZeroVectorsMatchOracleSemantics) {
  CosineMetric metric;
  const uint32_t dim = 16;
  std::vector<float> zero(dim, 0.0f);
  std::vector<float> unit(dim, 0.0f);
  unit[0] = 1.0f;
  for (SimdLevel lv : AvailableLevels()) {
    const KernelSet* ks = GetKernels(MetricKind::kCosine, lv);
    // Oracle: zero vectors are at distance sqrt(2) from everything.
    const double expect = std::sqrt(2.0);
    EXPECT_NEAR(ks->Dist1(zero.data(), unit.data(), dim), expect, 1e-9);
    EXPECT_NEAR(ks->Dist1(zero.data(), zero.data(), dim), expect, 1e-9);
    EXPECT_NEAR(ks->Cmp1(zero.data(), unit.data(), dim), 2.0, 1e-9);
    // Normed path with a true zero norm.
    EXPECT_NEAR(ks->Cmp1Normed(zero.data(), unit.data(), dim, 0.0, 1.0), 2.0,
                1e-9);
    EXPECT_NEAR(metric.Dist(zero.data(), unit.data(), dim), expect, 1e-12);
  }
}

TEST(KernelDispatchTest, ActiveLevelIsAvailableAndNamed) {
  const SimdLevel lv = ActiveSimdLevel();
  EXPECT_TRUE(SimdLevelAvailable(lv));
  EXPECT_NE(std::string(SimdLevelName(lv)), "unknown");
  for (MetricKind kind :
       {MetricKind::kL2, MetricKind::kCosine, MetricKind::kL1}) {
    const KernelSet* ks = GetKernels(kind);
    ASSERT_NE(ks, nullptr);
    EXPECT_EQ(ks->level(), lv);
    EXPECT_EQ(ks->kind, kind);
  }
}

TEST(KernelDispatchTest, MetricsExposeTheirKernels) {
  EXPECT_EQ(L2Metric().kernels()->kind, MetricKind::kL2);
  EXPECT_EQ(CosineMetric().kernels()->kind, MetricKind::kCosine);
  EXPECT_EQ(L1Metric().kernels()->kind, MetricKind::kL1);
}

TEST(VectorStoreNormsTest, EnsureNormsMatchesAndTracksMutation) {
  Rng rng(23);
  VectorStore store(10);
  std::vector<float> v;
  for (int i = 0; i < 30; ++i) {
    testing::RandomUnitVector(&rng, 10, &v);
    for (auto& x : v) x *= 3.0f;  // non-unit so norms are informative
    store.Add(v);
  }
  const float* norms = store.EnsureNorms();
  ASSERT_NE(norms, nullptr);
  L2Metric l2;
  std::vector<float> zero(10, 0.0f);
  for (VecId id = 0; id < store.size(); ++id) {
    const double expect = l2.Dist(store.View(id), zero.data(), 10);
    EXPECT_NEAR(norms[id], expect, 1e-4);
  }
  // Mutation through MutableView invalidates the tail from that id on.
  float* mut = store.MutableView(7);
  for (uint32_t i = 0; i < 10; ++i) mut[i] = 0.0f;
  mut[0] = 5.0f;
  norms = store.EnsureNorms();
  EXPECT_NEAR(norms[7], 5.0f, 1e-5);
  // NormalizeAll invalidates everything.
  store.NormalizeAll();
  norms = store.EnsureNorms();
  for (VecId id = 0; id < store.size(); ++id) {
    EXPECT_NEAR(norms[id], 1.0f, 1e-5);
  }
}

/// Scalar-oracle join: the pre-kernel semantics, spelled out with virtual
/// Metric::Dist calls and double accumulation, with exact joinability.
std::vector<JoinableColumn> OracleJoin(const ColumnCatalog& catalog,
                                       const Metric& metric,
                                       const VectorStore& query,
                                       const SearchThresholds& t) {
  const VectorStore& rstore = catalog.store();
  const uint32_t dim = rstore.dim();
  std::vector<JoinableColumn> out;
  for (ColumnId col = 0; col < catalog.num_columns(); ++col) {
    const ColumnMeta& meta = catalog.column(col);
    uint32_t matches = 0;
    for (uint32_t q = 0; q < query.size(); ++q) {
      for (VecId v = meta.first; v < meta.end(); ++v) {
        if (metric.Dist(query.View(q), rstore.View(v), dim) <= t.tau) {
          ++matches;
          break;
        }
      }
    }
    if (matches >= std::max<uint32_t>(1, t.t_abs)) {
      JoinableColumn jc;
      jc.column = col;
      jc.match_count = matches;
      jc.joinability = static_cast<double>(matches) /
                       static_cast<double>(query.size());
      out.push_back(jc);
    }
  }
  return out;
}

void ExpectSameResults(const std::vector<JoinableColumn>& a,
                       const std::vector<JoinableColumn>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].column, b[i].column) << label;
    EXPECT_EQ(a[i].match_count, b[i].match_count) << label;
    // joinability is a ratio of the two integers above: bit-identical.
    EXPECT_EQ(a[i].joinability, b[i].joinability) << label;
  }
}

class KernelSearchDeterminismTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelSearchDeterminismTest, PexesoMatchesScalarOracleAtAnyThreadCount) {
  auto metric = MakeMetric(GetParam());
  ASSERT_NE(metric, nullptr);
  const uint32_t dim = 17;  // odd: exercises SIMD remainder lanes end to end
  ColumnCatalog catalog = testing::MakeClusteredCatalog(31, dim, 24, 12);
  VectorStore query = testing::MakeClusteredQuery(31, dim, 16);

  FractionalThresholds ft{0.08, 0.5};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(*metric, dim, query.size());
  sopts.mode = QueryMode::kExactJoinability;  // oracle reports exact counts

  const auto oracle =
      OracleJoin(catalog, *metric, query, sopts.thresholds);

  PexesoOptions popts;
  popts.num_pivots = 4;
  popts.levels = 4;
  PexesoIndex index =
      PexesoIndex::Build(std::move(catalog), metric.get(), popts);
  PexesoSearcher searcher(&index);

  const auto serial = MustSearch(searcher, query, sopts, nullptr);
  ExpectSameResults(serial, oracle, "kernel path vs scalar oracle");

  // The kernels keep per-call state on the stack and the norm cache is
  // computed once, so results must be identical at any thread count.
  const size_t copies = 6;
  std::vector<VectorStore> queries(copies, query);
  for (size_t threads : {1, 4}) {
    BatchQueryRunner runner(&searcher, {.num_threads = threads});
    BatchResult batch = runner.Run(BindQueries(queries, sopts));
    for (size_t i = 0; i < copies; ++i) {
      ExpectSameResults(batch.results[i], oracle,
                        "threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, KernelSearchDeterminismTest,
                         ::testing::Values("l2", "cosine", "l1"));

}  // namespace
}  // namespace pexeso
