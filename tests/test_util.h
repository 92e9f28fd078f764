#ifndef PEXESO_TESTS_TEST_UTIL_H_
#define PEXESO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/engine.h"
#include "core/join_result.h"
#include "vec/column_catalog.h"
#include "vec/metric.h"
#include "vec/vector_store.h"

namespace pexeso::testing {

/// L2 distance with no kernels: kernels() stays nullptr, so every search
/// loop takes its per-pair virtual-Dist fallback. set_dist_delay_us() makes
/// each Dist call sleep at least that long, so a test can bound a phase's
/// wall time from below by its distance count.
class KernelFreeL2Metric final : public Metric {
 public:
  double Dist(const float* a, const float* b, uint32_t dim) const override {
    const int delay = delay_us_.load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    return l2_.Dist(a, b, dim);
  }
  double MaxUnitDistance(uint32_t dim) const override {
    return l2_.MaxUnitDistance(dim);
  }
  std::string Name() const override { return "l2-kernel-free"; }

  void set_dist_delay_us(int us) {
    delay_us_.store(us, std::memory_order_relaxed);
  }

 private:
  L2Metric l2_;
  std::atomic<int> delay_us_{0};
};

/// Executes `jq` (with its vectors field pointed at `query`) against
/// `engine` and returns the collected results, aborting on a non-OK status.
/// The eager everything-went-fine path most tests want.
inline std::vector<JoinableColumn> MustSearch(const JoinSearchEngine& engine,
                                              const VectorStore& query,
                                              JoinQuery jq,
                                              SearchStats* stats = nullptr) {
  jq.vectors = &query;
  auto results = ExecuteCollect(engine, jq, stats);
  PEXESO_CHECK_MSG(results.ok(), results.status().ToString().c_str());
  return std::move(results).ValueOrDie();
}

/// MustSearch with a default-mode (kThreshold) query at `thresholds`.
inline std::vector<JoinableColumn> MustSearch(const JoinSearchEngine& engine,
                                              const VectorStore& query,
                                              const SearchThresholds& thresholds,
                                              SearchStats* stats = nullptr) {
  JoinQuery jq;
  jq.thresholds = thresholds;
  return MustSearch(engine, query, std::move(jq), stats);
}

/// Returns `jq` with its vectors field pointed at `query` — the one-liner
/// for APIs that take a fully-bound JoinQuery (PartRunner::RunParts,
/// ServeSession::Submit). `query` must outlive the returned request.
inline JoinQuery BindQuery(const VectorStore& query, JoinQuery jq) {
  jq.vectors = &query;
  return jq;
}

/// Expands (queries, shared prototype) into the per-query JoinQuery vector
/// BatchQueryRunner::Run takes. `queries` must outlive the result.
inline std::vector<JoinQuery> BindQueries(
    const std::vector<VectorStore>& queries, const JoinQuery& prototype) {
  std::vector<JoinQuery> jqs(queries.size(), prototype);
  for (size_t i = 0; i < queries.size(); ++i) jqs[i].vectors = &queries[i];
  return jqs;
}

/// BindQueries with per-query options (positionally aligned).
inline std::vector<JoinQuery> BindQueries(
    const std::vector<VectorStore>& queries,
    const std::vector<JoinQuery>& options) {
  std::vector<JoinQuery> jqs = options;
  for (size_t i = 0; i < queries.size(); ++i) jqs[i].vectors = &queries[i];
  return jqs;
}

/// Fills `out` with a random unit vector.
inline void RandomUnitVector(Rng* rng, uint32_t dim, std::vector<float>* out) {
  out->resize(dim);
  for (uint32_t i = 0; i < dim; ++i) {
    (*out)[i] = static_cast<float>(rng->Normal());
  }
  VectorStore::NormalizeInPlace(out->data(), dim);
}

/// Adds Gaussian noise of scale `sigma` to `base` and renormalizes.
inline std::vector<float> Perturb(Rng* rng, const std::vector<float>& base,
                                  double sigma) {
  std::vector<float> v = base;
  for (auto& x : v) x += static_cast<float>(rng->Normal() * sigma);
  VectorStore::NormalizeInPlace(v.data(), static_cast<uint32_t>(v.size()));
  return v;
}

/// Builds a clustered random repository: `num_columns` columns, each with
/// `col_size` vectors drawn near one of `num_clusters` cluster centers.
/// Clustered data makes matches actually occur at small tau.
inline ColumnCatalog MakeClusteredCatalog(uint64_t seed, uint32_t dim,
                                          uint32_t num_columns,
                                          uint32_t col_size,
                                          uint32_t num_clusters = 8,
                                          double sigma = 0.05) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(num_clusters);
  for (auto& c : centers) RandomUnitVector(&rng, dim, &c);
  ColumnCatalog catalog(dim);
  std::vector<float> packed;
  for (uint32_t col = 0; col < num_columns; ++col) {
    packed.clear();
    for (uint32_t r = 0; r < col_size; ++r) {
      const auto& center = centers[rng.Uniform(num_clusters)];
      auto v = Perturb(&rng, center, sigma);
      packed.insert(packed.end(), v.begin(), v.end());
    }
    ColumnMeta meta;
    meta.table_id = col;
    meta.source_id = col;
    meta.table_name = "t" + std::to_string(col);
    meta.column_name = "c0";
    catalog.AddColumn(meta, packed.data(), col_size);
  }
  return catalog;
}

/// Builds a query column near the same clusters as MakeClusteredCatalog.
inline VectorStore MakeClusteredQuery(uint64_t seed, uint32_t dim,
                                      uint32_t size,
                                      uint32_t num_clusters = 8,
                                      double sigma = 0.05) {
  Rng rng(seed);  // same seed logic -> same centers
  std::vector<std::vector<float>> centers(num_clusters);
  for (auto& c : centers) RandomUnitVector(&rng, dim, &c);
  VectorStore store(dim);
  for (uint32_t r = 0; r < size; ++r) {
    const auto& center = centers[rng.Uniform(num_clusters)];
    auto v = Perturb(&rng, center, sigma);
    store.Add(v);
  }
  return store;
}

/// Sorted column ids of a result set (for equality assertions).
inline std::vector<ColumnId> ResultColumns(
    const std::vector<JoinableColumn>& results) {
  std::vector<ColumnId> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(r.column);
  std::sort(out.begin(), out.end());
  return out;
}

/// Whole-file read/write for byte-level snapshot surgery.
inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}
inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the trailing CRC-32 footer of a footed file image in place,
/// so an edited payload stays checksum-valid.
inline void RefreshChecksumFooter(std::string* bytes) {
  PEXESO_CHECK(bytes->size() >= 8);
  const size_t payload = bytes->size() - 8;
  const uint32_t crc = Crc32Update(0, bytes->data(), payload);
  std::memcpy(bytes->data() + payload, &kChecksumFooterMagic, 4);
  std::memcpy(bytes->data() + payload + 4, &crc, 4);
}

/// Overwrites the trivially-copyable `value` at byte `offset` of the file at
/// `path` and recomputes its checksum footer: the result is a CRC-valid
/// file whose contents are whatever the edit made them.
template <typename T>
void RewriteFooted(const std::string& path, uint64_t offset, const T& value) {
  std::string bytes = ReadFileBytes(path);
  PEXESO_CHECK(offset + sizeof(T) + 8 <= bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  RefreshChecksumFooter(&bytes);
  WriteFileBytes(path, bytes);
}

}  // namespace pexeso::testing

#endif  // PEXESO_TESTS_TEST_UTIL_H_
