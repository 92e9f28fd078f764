#include "lake/lake_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/stopwatch.h"
#include "core/part_runner.h"
#include "lake/fsck.h"
#include "lake/manifest.h"

namespace pexeso::lake {

namespace {

/// Appends every non-tombstoned column of `from` to `to` (vectors copied,
/// global source_id preserved) and records the ids it dropped.
void FoldSurvivors(const ColumnCatalog& from, const TombstoneSet& tombstones,
                   ColumnCatalog* to, std::vector<uint32_t>* removed) {
  for (ColumnId c = 0; c < from.num_columns(); ++c) {
    const ColumnMeta& meta = from.column(c);
    if (tombstones.Contains(meta.source_id)) {
      removed->push_back(meta.source_id);
      continue;
    }
    to->AddColumn(meta, from.store().View(meta.first), meta.count);
  }
}

}  // namespace

LakeManager::LakeManager(std::string dir, const Metric* metric,
                         LakeOptions options, uint32_t dim)
    : dir_(std::move(dir)),
      metric_(metric),
      options_(options),
      dim_(dim),
      tombstones_(std::make_shared<const TombstoneSet>()) {
  if (options_.merge_pool != nullptr) {
    merges_ = std::make_unique<TaskGroup>(options_.merge_pool);
  }
}

LakeManager::~LakeManager() {
  // merges_ is the last-declared member, so its destructor (which waits for
  // outstanding merge tasks) runs before anything those tasks touch dies;
  // this explicit wait just surfaces the drain before member teardown
  // begins at all.
  if (merges_ != nullptr) merges_->Wait();
}

std::string LakeManager::PartPath(size_t part, uint64_t generation) const {
  return dir_ + "/" + PartFileName(part, generation);
}

Result<std::unique_ptr<LakeManager>> LakeManager::Create(
    const ColumnCatalog& catalog, const PartitionAssignment& assignment,
    const std::string& dir, const Metric* metric, const LakeOptions& options) {
  PEXESO_CHECK(assignment.size() == catalog.num_columns());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create dir: " + dir);

  uint32_t k = 1;
  for (uint32_t a : assignment) k = std::max(k, a + 1);

  auto lake = std::unique_ptr<LakeManager>(
      new LakeManager(dir, metric, options, catalog.dim()));
  lake->parts_.resize(k);
  lake->next_id_ = static_cast<uint32_t>(catalog.num_columns());

  for (uint32_t part = 0; part < k; ++part) {
    ColumnCatalog part_catalog(catalog.dim());
    for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
      if (assignment[c] != part) continue;
      ColumnMeta meta = catalog.column(c);
      meta.source_id = c;  // global id for cross-part result merging
      part_catalog.AddColumn(meta, catalog.store().View(meta.first),
                             meta.count);
    }
    PartState& state = lake->parts_[part];
    state.active = ColumnCatalog(catalog.dim());
    if (part_catalog.num_columns() > 0) {
      PexesoIndex index = PexesoIndex::Build(std::move(part_catalog), metric,
                                             options.index_options);
      state.base_path = lake->PartPath(part, state.generation);
      const std::string tmp = state.base_path + kTmpSuffix;
      PEXESO_RETURN_NOT_OK(index.Save(tmp));
      PEXESO_RETURN_NOT_OK(PublishFileDurable(tmp, state.base_path));
    }
  }
  {
    std::lock_guard<std::mutex> lock(lake->mu_);
    for (size_t part = 0; part < lake->parts_.size(); ++part) {
      lake->PublishLocked(part);
    }
    PEXESO_RETURN_NOT_OK(lake->WriteManifestLocked());
  }
  return lake;
}

Result<std::unique_ptr<LakeManager>> LakeManager::Open(
    const std::string& dir, const Metric* metric, const LakeOptions& options) {
  // Recovery IS an fsck-with-repair pass: discard *.tmp orphans and
  // uncommitted/superseded generations, CRC-validate every referenced
  // snapshot, quarantine corrupt or missing ones (flagged in a rewritten
  // MANIFEST) instead of refusing to open.
  FsckOptions fsck_options;
  fsck_options.repair = true;
  fsck_options.verify_crc = options.verify_on_open;
  auto checked = FsckLake(dir, fsck_options);
  if (!checked.ok()) return checked.status();
  const FsckReport& report = checked.value();
  const LakeManifest& m = report.manifest;

  auto lake = std::unique_ptr<LakeManager>(
      new LakeManager(dir, metric, options, m.dim));
  lake->parts_.resize(m.parts.size());
  lake->next_id_ = m.next_id;
  lake->recovered_orphans_ = report.orphans.size();
  for (size_t i = 0; i < m.parts.size(); ++i) {
    PartState& state = lake->parts_[i];
    state.generation = m.parts[i].generation;
    state.active = ColumnCatalog(m.dim);
    if (m.parts[i].quarantined) {
      state.quarantined = true;
      state.health = Status::Corruption(
          "part " + std::to_string(i) + " base quarantined (see " + dir +
          "/" + kQuarantineDir + ")");
    } else if (m.parts[i].has_base) {
      state.base_path = lake->PartPath(i, state.generation);
    }
  }
  std::lock_guard<std::mutex> lock(lake->mu_);
  for (size_t part = 0; part < m.parts.size(); ++part) {
    lake->PublishLocked(part);
  }
  return lake;
}

Status LakeManager::WriteManifestLocked() const {
  LakeManifest m;
  m.dim = dim_;
  m.next_id = next_id_;
  m.parts.resize(parts_.size());
  for (size_t i = 0; i < parts_.size(); ++i) {
    m.parts[i].generation = parts_[i].generation;
    m.parts[i].has_base = !parts_[i].base_path.empty();
    m.parts[i].quarantined = parts_[i].quarantined;
  }
  return WriteManifest(dir_, m);
}

void LakeManager::PublishLocked(size_t part) {
  PartState& state = parts_[part];
  auto snap = std::make_shared<PartSnapshot>();
  snap->generation = state.generation;
  snap->base_path = state.base_path;
  snap->deltas = state.frozen;
  if (state.active_built != nullptr) snap->deltas.push_back(state.active_built);
  snap->tombstones = tombstones_;
  snap->quarantined = state.quarantined;
  snap->degraded = state.degraded;
  snap->health = state.health;
  state.snapshot = std::move(snap);
}

std::vector<uint32_t> LakeManager::AppendColumns(const ColumnCatalog& batch) {
  PEXESO_CHECK(batch.dim() == dim_);
  std::vector<uint32_t> ids;
  ids.reserve(batch.num_columns());
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint8_t> touched(parts_.size(), 0);
  for (ColumnId c = 0; c < batch.num_columns(); ++c) {
    const uint32_t id = next_id_++;
    const size_t part = id % parts_.size();
    ColumnMeta meta = batch.column(c);
    meta.source_id = id;
    parts_[part].active.AddColumn(meta, batch.store().View(meta.first),
                                  meta.count);
    touched[part] = 1;
    ids.push_back(id);
  }
  for (size_t part = 0; part < parts_.size(); ++part) {
    if (!touched[part]) continue;
    PartState& state = parts_[part];
    // The delta is rebuilt whole per batch: it stays small by construction
    // (the freeze knob), and an immutable rebuilt index needs no
    // synchronization with the searches holding the previous one.
    ColumnCatalog copy = state.active;
    state.active_built = std::make_shared<const DeltaIndex>(
        std::move(copy), metric_, options_.index_options);
    if (state.active.num_columns() >= options_.delta_freeze_columns) {
      FreezeLocked(part);
      ScheduleMergeLocked(part);
    }
    PublishLocked(part);
  }
  return ids;
}

void LakeManager::DropColumns(const std::vector<uint32_t>& global_ids) {
  if (global_ids.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  tombstones_ =
      std::make_shared<const TombstoneSet>(tombstones_->WithAdded(global_ids));
  // Every part's snapshot must see the new mask immediately.
  for (size_t part = 0; part < parts_.size(); ++part) PublishLocked(part);
}

void LakeManager::FreezeLocked(size_t part) {
  PartState& state = parts_[part];
  if (state.active_built == nullptr) return;
  state.frozen.push_back(std::move(state.active_built));
  state.active_built = nullptr;
  state.active = ColumnCatalog(dim_);
}

void LakeManager::Freeze() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t part = 0; part < parts_.size(); ++part) {
    FreezeLocked(part);
    ScheduleMergeLocked(part);
    PublishLocked(part);
  }
}

void LakeManager::ScheduleMergeLocked(size_t part) {
  PartState& state = parts_[part];
  if (merges_ == nullptr || state.merge_scheduled || state.frozen.empty() ||
      state.degraded) {
    // A parked (degraded) part never self-reschedules — that is the whole
    // fix for the hot retry loop. MergeAll un-parks it explicitly.
    return;
  }
  state.merge_scheduled = true;
  merges_->Submit([this, part] { RunScheduledMerge(part); });
}

void LakeManager::RunScheduledMerge(size_t part) {
  uint32_t failures;
  {
    std::lock_guard<std::mutex> lock(mu_);
    failures = parts_[part].merge_failures;
  }
  if (failures > 0) {
    // Doubling backoff before each retry attempt (this blocks one pool
    // worker; merge pools are sized for that, and the cap keeps it short).
    const double backoff = std::min(
        options_.merge_backoff_initial_ms *
            static_cast<double>(1u << std::min(failures - 1, 20u)),
        options_.merge_backoff_max_ms);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff));
  }
  const Status st = MergePart(part);
  std::lock_guard<std::mutex> lock(mu_);
  PartState& state = parts_[part];
  state.merge_scheduled = false;
  if (st.ok()) {
    // Freezes that landed while this merge ran left new frozen deltas
    // behind; chain the next merge rather than leaving them stranded.
    ScheduleMergeLocked(part);
    return;
  }
  ++state.merge_failures;
  ++merge_retries_;
  state.health = st;
  if (state.merge_failures >= options_.merge_max_attempts) {
    // Park: the part keeps serving base + deltas (results stay correct,
    // just unmerged) and stops burning the pool. PartHealth reports why;
    // MergeAll or an operator retries later.
    state.degraded = true;
    PublishLocked(part);
    return;
  }
  ScheduleMergeLocked(part);
}

Status LakeManager::WaitForMerges() {
  if (merges_ != nullptr) merges_->Wait();
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartState& state : parts_) {
    if (state.degraded && !state.health.ok()) return state.health;
  }
  return Status::OK();
}

Status LakeManager::MergeAll() {
  Freeze();
  // Drain scheduled background merges first so the inline pass below never
  // double-folds a part a pool task is mid-way through. Failures are not
  // returned here — the inline pass retries every part with work left,
  // parked ones included.
  if (merges_ != nullptr) merges_->Wait();
  for (size_t part = 0; part < parts_.size(); ++part) {
    bool pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      PartState& state = parts_[part];
      // Frozen deltas always need folding; a non-empty tombstone set may
      // mask columns of this part's base, which only a merge reclaims (and
      // proves gone, shrinking the set). A parked or quarantined part is
      // always retried: a successful merge is what heals it.
      pending = !state.frozen.empty() ||
                (!tombstones_->empty() && !state.base_path.empty()) ||
                state.degraded || state.quarantined;
    }
    if (pending) PEXESO_RETURN_NOT_OK(MergePart(part));
  }
  return Status::OK();
}

Status LakeManager::MergePart(size_t part) {
  PEXESO_RETURN_NOT_OK(FailpointHit("lake:merge:before-save"));
  // Capture the state to fold. Appends/drops/freezes landing after this
  // point are untouched: they survive into the post-merge snapshot.
  uint64_t old_gen;
  std::string old_base;
  std::vector<DeltaPtr> frozen;
  std::shared_ptr<const TombstoneSet> tombstones;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PartState& state = parts_[part];
    old_gen = state.generation;
    old_base = state.base_path;
    frozen = state.frozen;
    tombstones = tombstones_;
  }

  // Fold: survivors of the base, then of each frozen delta, in global-id
  // arrival order. The result catalog — and therefore the Build over it —
  // is exactly what a from-scratch build over the same logical content
  // produces, which is what makes post-merge search counters comparable to
  // a static index.
  ColumnCatalog survivors(dim_);
  std::vector<uint32_t> removed;
  if (!old_base.empty()) {
    PartSnapshot captured;
    captured.generation = old_gen;
    captured.base_path = old_base;
    uint64_t retries = 0;
    auto base = RetryTransient(options_.io_retry, &retries, [&] {
      return LoadBase(captured, nullptr, nullptr);
    });
    {
      std::lock_guard<std::mutex> lock(mu_);
      merge_io_retries_ += retries;
    }
    if (!base.ok()) return base.status();
    FoldSurvivors(base.value()->catalog(), *tombstones, &survivors, &removed);
  }
  for (const DeltaPtr& delta : frozen) {
    FoldSurvivors(delta->index().catalog(), *tombstones, &survivors, &removed);
  }

  const uint64_t new_gen = old_gen + 1;
  std::string new_base;
  if (survivors.num_columns() > 0) {
    PexesoIndex merged = PexesoIndex::Build(std::move(survivors), metric_,
                                            options_.index_options);
    new_base = PartPath(part, new_gen);
    const std::string tmp = new_base + kTmpSuffix;
    uint64_t retries = 0;
    const Status saved = RetryTransient(options_.io_retry, &retries,
                                        [&] { return merged.Save(tmp); });
    {
      std::lock_guard<std::mutex> lock(mu_);
      merge_io_retries_ += retries;
    }
    PEXESO_RETURN_NOT_OK(saved);
    PEXESO_RETURN_NOT_OK(FailpointHit("lake:merge:before-publish"));
    // Snapshot becomes durable under its committed name BEFORE the manifest
    // that references it; a crash in between leaves an orphan that recovery
    // deletes, never a manifest pointing at nothing.
    PEXESO_RETURN_NOT_OK(PublishFileDurable(tmp, new_base));
    PEXESO_RETURN_NOT_OK(FailpointHit("lake:merge:after-publish"));
  }

  std::lock_guard<std::mutex> lock(mu_);
  PartState& state = parts_[part];
  state.generation = new_gen;
  state.base_path = new_base;
  // Only the captured prefix was folded; later freezes stay pending.
  state.frozen.erase(state.frozen.begin(), state.frozen.begin() + frozen.size());
  // A fresh base IS the recovery: the part is healthy again, whatever got
  // it parked or quarantined before (a quarantined base's columns stay in
  // quarantine/ for offline salvage — the merge preserved everything that
  // was still reachable).
  state.merge_failures = 0;
  state.degraded = false;
  state.quarantined = false;
  state.health = Status::OK();
  // Subtract the tombstones this merge physically removed. Ids dropped from
  // OTHER locations stay masked until their own part merges; snapshots
  // still holding the bigger set just mask ids that no longer exist — a
  // no-op.
  tombstones_ =
      std::make_shared<const TombstoneSet>(tombstones_->WithRemoved(removed));
  for (size_t p = 0; p < parts_.size(); ++p) PublishLocked(p);
  return WriteManifestLocked();
}

Status LakeManager::Vacuum() {
  std::vector<std::pair<size_t, uint64_t>> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t part = 0; part < parts_.size(); ++part) {
      current.emplace_back(part, parts_[part].generation);
    }
  }
  bool first = true;
  for (const auto& [part, gen] : current) {
    for (uint64_t g = 1; g < gen; ++g) {
      const std::string stale = PartPath(part, g);
      std::error_code ec;
      if (std::filesystem::exists(stale, ec) &&
          !std::filesystem::remove(stale, ec)) {
        return Status::IoError("cannot vacuum " + stale);
      }
      if (first) {
        // Kill point with the deletion half-done: recovery must finish the
        // sweep (the remaining stale generations are orphans).
        PEXESO_RETURN_NOT_OK(FailpointHit("lake:vacuum:mid"));
        first = false;
      }
    }
  }
  return Status::OK();
}

std::shared_ptr<const PartSnapshot> LakeManager::Snapshot(size_t part) const {
  PEXESO_CHECK(part < parts_.size());
  std::lock_guard<std::mutex> lock(mu_);
  return parts_[part].snapshot;
}

uint64_t LakeManager::generation(size_t part) const {
  PEXESO_CHECK(part < parts_.size());
  std::lock_guard<std::mutex> lock(mu_);
  return parts_[part].generation;
}

Status LakeManager::PartHealth(size_t part) const {
  PEXESO_CHECK(part < parts_.size());
  std::lock_guard<std::mutex> lock(mu_);
  return parts_[part].health;
}

LakeHealth LakeManager::Health() const {
  LakeHealth out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartState& state : parts_) {
    if (state.degraded) ++out.degraded_parts;
    if (state.quarantined) ++out.quarantined_parts;
  }
  out.merge_retries = merge_retries_;
  out.io_retries = merge_io_retries_;
  out.recovered_orphans = recovered_orphans_;
  return out;
}

size_t LakeManager::DiskBytes() const {
  size_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartState& state : parts_) {
    if (state.base_path.empty()) continue;
    std::error_code ec;
    const auto sz = std::filesystem::file_size(state.base_path, ec);
    if (!ec) total += sz;
  }
  return total;
}

size_t LakeManager::NumParts() const { return parts_.size(); }

Result<serve::IndexCache::IndexPtr> LakeManager::LoadBase(
    const PartSnapshot& snap, SearchStats* stats, double* io_seconds) const {
  PEXESO_CHECK(!snap.base_path.empty());
  Stopwatch watch;
  uint64_t retries = 0;
  // The cache never caches failures, so a retried Get is a fresh load; the
  // single-flight lets concurrent retries share one disk read.
  auto got = RetryTransient(
      options_.io_retry, &retries,
      [&]() -> Result<serve::IndexCache::IndexPtr> {
        if (cache_ != nullptr) {
          return cache_->Get(snap.base_path, metric_, snap.generation);
        }
        auto loaded = PexesoIndex::Load(snap.base_path, metric_);
        if (!loaded.ok()) return loaded.status();
        return std::make_shared<const PexesoIndex>(
            std::move(loaded).ValueOrDie());
      });
  if (io_seconds != nullptr) *io_seconds += watch.ElapsedSeconds();
  if (stats != nullptr) {
    stats->io_retries += retries;
    if (!got.ok() && got.status().code() == Status::Code::kCorruption) {
      ++stats->corruption_detected;
    }
  }
  return got;
}

Result<PartHandle> LakeManager::AcquirePart(size_t part,
                                            double* io_seconds) const {
  auto handle = std::make_shared<LoadedPart>();
  handle->snapshot = Snapshot(part);
  if (!handle->snapshot->base_path.empty()) {
    auto base = LoadBase(*handle->snapshot, nullptr, io_seconds);
    if (!base.ok()) return base.status();
    handle->base = std::move(base).ValueOrDie();
  }
  return std::static_pointer_cast<const void>(
      std::shared_ptr<const LoadedPart>(std::move(handle)));
}

Result<std::vector<JoinableColumn>> LakeManager::SearchSnapshot(
    const PartSnapshot& snap, const serve::IndexCache::IndexPtr& base,
    const JoinQuery& query, SearchStats* stats, double* io_seconds) const {
  if (stats != nullptr) {
    if (snap.quarantined) ++stats->parts_quarantined;
    if (snap.degraded) ++stats->degraded_merges;
  }
  // kTopK widening: a part's local top-k list could otherwise be crowded
  // out by columns the mask removes afterwards. With k' = k + |tombstones|
  // the (k'+1)-th local column provably has >= k surviving columns above
  // it, so masking then truncating to k loses nothing.
  JoinQuery jq = query;
  if (jq.mode == QueryMode::kTopK) jq.k += snap.tombstones->size();

  std::vector<JoinableColumn> merged;
  if (!snap.base_path.empty()) {
    serve::IndexCache::IndexPtr held = base;
    if (held == nullptr) {
      auto loaded = LoadBase(snap, stats, io_seconds);
      if (!loaded.ok()) return loaded.status();
      held = std::move(loaded).ValueOrDie();
    }
    auto chunk = SearchIndexSnapshot(*held, jq, engine_, stats);
    if (!chunk.ok()) return chunk.status();
    merged = std::move(chunk).ValueOrDie();
  }
  for (const DeltaPtr& delta : snap.deltas) {
    auto chunk = SearchIndexSnapshot(
        delta->index(), jq, PartitionedPexeso::Engine::kPexeso, stats);
    if (!chunk.ok()) return chunk.status();
    if (stats != nullptr) stats->delta_columns_searched += delta->num_columns();
    auto results = std::move(chunk).ValueOrDie();
    merged.insert(merged.end(), std::make_move_iterator(results.begin()),
                  std::make_move_iterator(results.end()));
  }
  MaskTombstones(*snap.tombstones, &merged, stats);
  return merged;
}

Result<std::vector<JoinableColumn>> LakeManager::SearchPartWithNotice(
    size_t part, const JoinQuery& query, SearchStats* stats,
    double* io_seconds, const PartHandle& preloaded, Status* notice) const {
  const auto* held = static_cast<const LoadedPart*>(preloaded.get());
  const std::shared_ptr<const PartSnapshot> snap =
      held != nullptr ? held->snapshot : Snapshot(part);
  *notice = Status::OK();
  if (snap->quarantined) {
    // The part answers only from its deltas: its base was moved aside by
    // recovery, so the answer is knowingly incomplete.
    *notice = snap->health.ok() ? Status::Corruption("part base quarantined")
                                : snap->health;
  }
  return SearchSnapshot(*snap, held != nullptr ? held->base : nullptr, query,
                        stats, io_seconds);
}

Status LakeManager::Execute(const JoinQuery& jq, ResultSink* sink,
                            SearchStats* stats) const {
  return PartRunner::RunParts(*this, jq, sink, stats);
}

bool LakeManager::PartsStayResident() const {
  return cache_ != nullptr && cache_->budget_bytes() >= DiskBytes() * 2;
}

}  // namespace pexeso::lake
