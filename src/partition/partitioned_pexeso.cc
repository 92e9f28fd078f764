#include "partition/partitioned_pexeso.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "baseline/pexeso_h.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/part_runner.h"
#include "serve/index_cache.h"

namespace pexeso {

std::string PartitionedPexeso::PartPath(size_t i) const {
  return dir_ + "/part-" + std::to_string(i) + ".pxso";
}

Result<PartitionedPexeso> PartitionedPexeso::Build(
    const ColumnCatalog& catalog, const PartitionAssignment& assignment,
    const std::string& dir, const Metric* metric,
    const PexesoOptions& options) {
  PEXESO_CHECK(assignment.size() == catalog.num_columns());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create dir: " + dir);

  uint32_t k = 0;
  for (uint32_t a : assignment) k = std::max(k, a + 1);

  // Dense output numbering: empty source partitions are skipped.
  size_t out_idx = 0;
  for (uint32_t part = 0; part < k; ++part) {
    ColumnCatalog part_catalog(catalog.dim());
    for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
      if (assignment[c] != part) continue;
      ColumnMeta meta = catalog.column(c);
      meta.source_id = c;  // remember the global id for result merging
      part_catalog.AddColumn(meta, catalog.store().View(meta.first),
                             meta.count);
    }
    if (part_catalog.num_columns() == 0) continue;
    PexesoIndex index =
        PexesoIndex::Build(std::move(part_catalog), metric, options);
    PEXESO_RETURN_NOT_OK(index.Save(dir + "/part-" + std::to_string(out_idx) +
                                    ".pxso"));
    ++out_idx;
  }
  if (out_idx == 0) return Status::InvalidArgument("all partitions empty");
  return PartitionedPexeso(dir, metric, out_idx);
}

Result<PartitionedPexeso> PartitionedPexeso::Open(const std::string& dir,
                                                  const Metric* metric) {
  size_t parts = 0;
  while (std::filesystem::exists(dir + "/part-" + std::to_string(parts) +
                                 ".pxso")) {
    ++parts;
  }
  if (parts == 0) return Status::NotFound("no partitions under " + dir);
  return PartitionedPexeso(dir, metric, parts);
}

Status PartitionedPexeso::Execute(const JoinQuery& jq, ResultSink* sink,
                                  SearchStats* stats) const {
  return PartRunner::RunParts(*this, jq, sink, stats);
}

Result<PartHandle> PartitionedPexeso::AcquirePart(size_t part,
                                                  double* io_seconds) const {
  PEXESO_CHECK(part < num_parts_);
  Stopwatch watch;
  if (cache_ != nullptr) {
    auto got = cache_->Get(PartPath(part), metric_);
    if (io_seconds != nullptr) *io_seconds += watch.ElapsedSeconds();
    if (!got.ok()) return got.status();
    return std::static_pointer_cast<const void>(std::move(got).ValueOrDie());
  }
  auto loaded = PexesoIndex::Load(PartPath(part), metric_);
  if (io_seconds != nullptr) *io_seconds += watch.ElapsedSeconds();
  if (!loaded.ok()) return loaded.status();
  return std::static_pointer_cast<const void>(
      std::make_shared<const PexesoIndex>(std::move(loaded).ValueOrDie()));
}

Result<std::vector<JoinableColumn>> SearchIndexSnapshot(
    const PexesoIndex& index, const JoinQuery& query,
    PartitionedPexeso::Engine engine, SearchStats* stats) {
  CollectSink sink;
  Status st;
  if (engine == PartitionedPexeso::Engine::kPexeso) {
    st = PexesoSearcher(&index).Execute(query, &sink, stats);
  } else {
    st = PexesoHSearcher(&index).Execute(query, &sink, stats);
  }
  if (!st.ok()) return st;  // incl. Cancelled/DeadlineExceeded mid-part
  std::vector<JoinableColumn> results = std::move(sink).TakeColumns();
  for (auto& r : results) {
    r.column = index.catalog().column(r.column).source_id;
  }
  return results;
}

Result<std::vector<JoinableColumn>> PartitionedPexeso::SearchPartWithNotice(
    size_t part, const JoinQuery& query, SearchStats* stats,
    double* io_seconds, const PartHandle& preloaded, Status* notice) const {
  *notice = Status::OK();
  PartHandle held = preloaded;
  if (held == nullptr) {
    auto handle = AcquirePart(part, io_seconds);
    if (!handle.ok()) return handle.status();
    held = std::move(handle).ValueOrDie();
  }
  // When uncached, the partition index dies with `held` at return: only one
  // partition is ever resident, which is the Section IV memory contract.
  // With a cache attached, residency is the cache's budgeted decision.
  return SearchIndexSnapshot(*static_cast<const PexesoIndex*>(held.get()),
                             query, engine_, stats);
}

bool PartitionedPexeso::PartsStayResident() const {
  // Conservative resident-size estimate: the in-memory structures mirror
  // the serialized ones byte-for-byte plus container slack, so twice the
  // disk footprint bounds what the cache will be charged.
  return cache_ != nullptr && cache_->budget_bytes() >= DiskBytes() * 2;
}

size_t PartitionedPexeso::DiskBytes() const {
  size_t total = 0;
  for (size_t part = 0; part < num_parts_; ++part) {
    std::error_code ec;
    const auto sz = std::filesystem::file_size(PartPath(part), ec);
    if (!ec) total += sz;
  }
  return total;
}

}  // namespace pexeso
