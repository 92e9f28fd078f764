#include "serve/index_cache.h"

#include <functional>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"

namespace pexeso::serve {

IndexCache::IndexCache(IndexCacheOptions options)
    : budget_bytes_(options.budget_bytes),
      shards_(size_t{1} << options.shard_bits) {
  PEXESO_CHECK(options.shard_bits <= 8);
}

IndexCache::Shard& IndexCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) & (shards_.size() - 1)];
}

std::string IndexCache::MakeKey(const std::string& path,
                                uint64_t generation) {
  if (generation == 0) return path;
  return path + "@g" + std::to_string(generation);
}

size_t IndexCache::ResidentBytes(const PexesoIndex& index) {
  // Mapped snapshots are charged by bytes mapped (the file pages a search
  // can touch) plus their small heap-side structures; legacy heap snapshots
  // by their full in-memory footprint. Either way one number answers "how
  // much does keeping this entry cost" against the global budget.
  return index.IndexSizeBytes() + index.catalog().MemoryBytes() +
         index.MappedBytes();
}

Result<IndexCache::IndexPtr> IndexCache::Get(const std::string& path,
                                             const Metric* metric,
                                             uint64_t generation) {
  return GetOrPin(MakeKey(path, generation), path, metric, /*pin=*/false);
}

Status IndexCache::Pin(const std::string& path, const Metric* metric,
                       uint64_t generation) {
  return GetOrPin(MakeKey(path, generation), path, metric, /*pin=*/true)
      .status();
}

Result<IndexCache::IndexPtr> IndexCache::GetOrPin(const std::string& key,
                                                  const std::string& path,
                                                  const Metric* metric,
                                                  bool pin) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    auto it = shard.map.find(key);
    if (it == shard.map.end()) break;  // cold: this thread loads
    Entry& entry = it->second;
    if (entry.loading()) {
      // Single-flight: another thread owns the disk read. Hold the flight
      // so its result reaches us even if the entry is evicted (tiny
      // budget) or erased (failed load) before we wake.
      ++shard.single_flight_waits;
      std::shared_ptr<Flight> flight = entry.flight;
      shard.load_done.wait(lock, [&flight] { return flight->done; });
      if (!pin) {
        if (!flight->status.ok()) return flight->status;
        ++shard.hits;
        return flight->index;
      }
      // Pinning needs the map entry itself; re-check the world. If the
      // entry survived, the loop counts a hit and pins it; if it was
      // evicted this degenerates to one extra load, which warm-up can
      // afford.
      continue;
    }
    ++shard.hits;
    if (pin) {
      if (entry.pins++ == 0 && entry.in_lru) {
        shard.lru.erase(entry.lru_it);
        entry.in_lru = false;
      }
    } else if (entry.in_lru) {
      shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
    }
    return entry.index;
  }

  ++shard.misses;
  auto flight = std::make_shared<Flight>();
  shard.map[key].flight = flight;
  lock.unlock();
  // Failure injection for the serve path ("cache:load"): a fault here takes
  // the same miss-cleanup route as a real unreadable file, and because
  // failures are never cached the caller's retry is a genuine fresh load.
  Result<PexesoIndex> loaded = FailpointHit("cache:load");
  if (loaded.ok()) loaded = PexesoIndex::Load(path, metric);
  lock.lock();
  auto it = shard.map.find(key);
  PEXESO_CHECK(it != shard.map.end());  // only the loader removes its marker
  if (!loaded.ok()) {
    flight->done = true;
    flight->status = loaded.status();
    shard.map.erase(it);  // failures are not cached; the next Get retries
    shard.load_done.notify_all();
    return loaded.status();
  }
  auto ptr = std::make_shared<const PexesoIndex>(std::move(loaded).ValueOrDie());
  flight->done = true;
  flight->index = ptr;
  Entry& entry = it->second;
  entry.index = ptr;
  entry.flight = nullptr;
  entry.bytes = ResidentBytes(*ptr);
  entry.mapped = ptr->MappedBytes();
  shard.bytes += entry.bytes;
  shard.mapped_bytes += entry.mapped;
  bytes_total_.fetch_add(entry.bytes, std::memory_order_relaxed);
  if (pin) {
    entry.pins = 1;
  } else {
    shard.lru.push_front(key);
    entry.lru_it = shard.lru.begin();
    entry.in_lru = true;
  }
  shard.load_done.notify_all();
  lock.unlock();
  EnforceBudget(&shard, &key);
  return ptr;
}

void IndexCache::EvictTailLocked(Shard* shard, const std::string* spare) {
  // Concurrent enforcement on other shards may observe the same overshoot
  // and evict in parallel; the total can transiently undershoot, which a
  // cache can afford — the invariant that matters is progress toward the
  // budget without nested cross-shard locking.
  while (bytes_total_.load(std::memory_order_relaxed) > budget_bytes_ &&
         !shard->lru.empty()) {
    const std::string& victim = shard->lru.back();
    if (spare != nullptr && victim == *spare) break;
    auto it = shard->map.find(victim);
    PEXESO_CHECK(it != shard->map.end());
    shard->bytes -= it->second.bytes;
    shard->mapped_bytes -= it->second.mapped;
    bytes_total_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    shard->map.erase(it);  // callers holding the shared_ptr keep it alive
    shard->lru.pop_back();
    ++shard->evictions;
  }
}

void IndexCache::EnforceBudget(Shard* home, const std::string* fresh) {
  {
    std::unique_lock<std::mutex> lock(home->mu);
    EvictTailLocked(home, fresh);
  }
  if (bytes_total_.load(std::memory_order_relaxed) <= budget_bytes_) return;
  // The home shard alone could not shed enough: sweep the others so an
  // idle shard's residents cannot pin the cache over budget forever.
  for (Shard& other : shards_) {
    if (&other == home) continue;
    std::unique_lock<std::mutex> lock(other.mu);
    EvictTailLocked(&other, nullptr);
    if (bytes_total_.load(std::memory_order_relaxed) <= budget_bytes_) {
      return;
    }
  }
  // Still over budget: nothing else is evictable (pins, or the fresh entry
  // simply does not fit) — the fresh entry goes too.
  if (fresh == nullptr) return;
  std::unique_lock<std::mutex> lock(home->mu);
  auto it = home->map.find(*fresh);
  if (it == home->map.end() || !it->second.in_lru) return;
  if (bytes_total_.load(std::memory_order_relaxed) <= budget_bytes_) return;
  home->bytes -= it->second.bytes;
  home->mapped_bytes -= it->second.mapped;
  bytes_total_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  home->lru.erase(it->second.lru_it);
  home->map.erase(it);
  ++home->evictions;
}

void IndexCache::Unpin(const std::string& path, uint64_t generation) {
  const std::string key = MakeKey(path, generation);
  Shard& shard = ShardFor(key);
  bool relinked = false;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second.pins == 0) return;
    Entry& entry = it->second;
    if (--entry.pins == 0) {
      shard.lru.push_front(key);
      entry.lru_it = shard.lru.begin();
      entry.in_lru = true;
      relinked = true;
    }
  }
  // Re-enforce the budget now that the entry is evictable again; pinning
  // may have pushed the total over.
  if (relinked) EnforceBudget(&shard, nullptr);
}

void IndexCache::Erase(const std::string& path, uint64_t generation) {
  const std::string key = MakeKey(path, generation);
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.loading() || it->second.pins > 0) {
    return;
  }
  if (it->second.in_lru) shard.lru.erase(it->second.lru_it);
  shard.bytes -= it->second.bytes;
  shard.mapped_bytes -= it->second.mapped;
  bytes_total_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  shard.map.erase(it);
}

void IndexCache::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.mu);
    for (const std::string& key : shard.lru) {
      auto it = shard.map.find(key);
      shard.bytes -= it->second.bytes;
      shard.mapped_bytes -= it->second.mapped;
      bytes_total_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
      shard.map.erase(it);
    }
    shard.lru.clear();
  }
}

IndexCacheStats IndexCache::stats() const {
  IndexCacheStats out;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.single_flight_waits += shard.single_flight_waits;
    out.bytes_resident += shard.bytes;
    out.bytes_mapped += shard.mapped_bytes;
    for (const auto& [key, entry] : shard.map) {
      if (entry.loading()) continue;
      ++out.entries;
      if (entry.pins > 0) ++out.pinned;
    }
  }
  return out;
}

}  // namespace pexeso::serve
