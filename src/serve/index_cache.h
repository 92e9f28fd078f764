#ifndef PEXESO_SERVE_INDEX_CACHE_H_
#define PEXESO_SERVE_INDEX_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/pexeso_index.h"

namespace pexeso::serve {

/// \brief IndexCache configuration.
struct IndexCacheOptions {
  /// Total resident budget. Entries are charged their full in-memory
  /// footprint (index structures + raw vectors) against this one global
  /// number, whatever shard they hash to. A budget of 0 caches nothing but
  /// still deduplicates concurrent loads (single-flight).
  size_t budget_bytes = 256ull << 20;
  /// log2 of the shard count. Sharding spreads lock contention across
  /// independent mutexes/LRU lists (LevelDB-style); 0 gives one global LRU,
  /// which tests use for deterministic eviction order. Partition snapshots
  /// are few and large, so a handful of shards suffices.
  uint32_t shard_bits = 2;
};

/// \brief Aggregated counters across all shards (a racy-but-consistent
/// snapshot: each shard is read under its own lock).
struct IndexCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Get/Pin calls that piggybacked on another thread's in-progress load of
  /// the same key instead of issuing their own disk read.
  uint64_t single_flight_waits = 0;
  size_t bytes_resident = 0;
  /// Portion of bytes_resident that is mmapped file pages (reclaimable by
  /// the kernel) rather than private heap.
  size_t bytes_mapped = 0;
  size_t entries = 0;
  size_t pinned = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// \brief Thread-safe, memory-budgeted LRU cache of deserialized
/// PexesoIndex partition snapshots, keyed by (file path, generation).
///
/// The generation is the live-lake snapshot version: a background merge
/// writes a NEW snapshot file and publishes it under a bumped generation, so
/// the stale generation's entry simply stops being requested and ages out of
/// the LRU — no explicit invalidation, and in-flight searches keep their
/// shared_ptr until they finish. Static deployments pass generation 0
/// everywhere and get the plain path-keyed cache.
///
/// This is the amortization layer of the serving stack: one lake index
/// answers many query columns, so partition files must be deserialized once
/// per *batch*, not once per query. Properties:
///
///  - Sharded locking: keys hash to 2^shard_bits shards, each with its own
///    mutex and LRU list, so hot-path hits on different partitions never
///    contend.
///  - Memory budget: entries are charged ResidentBytes() against ONE global
///    budget (an atomic total across shards). When an insert pushes the
///    total over budget, enforcement evicts least-recently-used unpinned
///    entries — first from the inserting shard (sparing the fresh entry),
///    then sweeping the other shards one lock at a time, and only as a last
///    resort the fresh entry itself — so an idle shard's residents cannot
///    pin the cache over budget forever. Entries are handed out as
///    shared_ptr, so eviction never invalidates an index a search is still
///    reading — memory is reclaimed when the last reader drops its
///    reference.
///  - Single-flight loading: concurrent Gets of the same cold key perform
///    exactly one disk read; the others block on the loader and share its
///    result through the flight object — even when the budget is too small
///    to keep the loaded entry resident, and even when the load fails (the
///    waiters share the failure; the NEXT Get retries, since failures are
///    never cached).
///  - Pinning: Pin() loads an entry and exempts it from eviction (warm-up /
///    keep-resident semantics). Pinned bytes still count toward the budget,
///    which may therefore be exceeded by pins — stats expose the overshoot.
class IndexCache {
 public:
  using IndexPtr = std::shared_ptr<const PexesoIndex>;

  explicit IndexCache(IndexCacheOptions options = {});

  /// Returns the index stored at `path`, loading and caching it on miss.
  /// `metric` is borrowed by the loaded index (must outlive it) and must be
  /// the metric the index was built with. `generation` distinguishes
  /// successive snapshot versions of the same path (see class comment).
  Result<IndexPtr> Get(const std::string& path, const Metric* metric,
                       uint64_t generation = 0);

  /// Loads (if needed) and pins: a pinned entry is never evicted until the
  /// matching Unpin. Pins nest (N pins need N unpins).
  Status Pin(const std::string& path, const Metric* metric,
             uint64_t generation = 0);

  /// Drops one pin; at zero pins the entry becomes evictable again (and the
  /// budget is re-enforced immediately). No-op for unknown keys.
  void Unpin(const std::string& path, uint64_t generation = 0);

  /// Drops an unpinned resident entry, if present.
  void Erase(const std::string& path, uint64_t generation = 0);

  /// Drops every unpinned resident entry.
  void Clear();

  IndexCacheStats stats() const;
  size_t budget_bytes() const { return budget_bytes_; }

  /// The in-memory footprint an entry is charged for: index structures plus
  /// the raw repository vectors of its catalog.
  static size_t ResidentBytes(const PexesoIndex& index);

 private:
  /// One in-flight load, shared between the loading thread and any
  /// single-flight waiters. Waiters hold the flight by shared_ptr, so the
  /// result reaches them even if the map entry is evicted (or erased on
  /// failure) before they wake.
  struct Flight {
    bool done = false;  ///< guarded by the shard mutex
    Status status;
    IndexPtr index;  ///< null when status is non-OK
  };

  struct Entry {
    IndexPtr index;  ///< null while a load is in flight
    std::shared_ptr<Flight> flight;  ///< non-null only while loading
    size_t bytes = 0;
    size_t mapped = 0;  ///< mmapped portion of `bytes`
    uint32_t pins = 0;
    bool in_lru = false;
    std::list<std::string>::iterator lru_it;  ///< valid iff in_lru

    bool loading() const { return flight != nullptr; }
  };

  struct Shard {
    mutable std::mutex mu;
    /// Signaled when an in-flight load finishes (either way) so
    /// single-flight waiters can collect the flight result.
    std::condition_variable load_done;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> lru;  ///< front = most recent; unpinned residents
    size_t bytes = 0;            ///< resident bytes charged to this shard
    size_t mapped_bytes = 0;     ///< mmapped portion of `bytes`
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t single_flight_waits = 0;
  };

  /// Composed map key: the path for generation 0 (the static-deployment
  /// fast path and the pre-lake key format), "path@g<N>" otherwise.
  static std::string MakeKey(const std::string& path, uint64_t generation);

  Shard& ShardFor(const std::string& key);

  /// The shared hit/miss/single-flight state machine behind Get and Pin.
  /// `key` is the composed cache key; `path` is the file to load on miss.
  Result<IndexPtr> GetOrPin(const std::string& key, const std::string& path,
                            const Metric* metric, bool pin);

  /// Drops `shard`'s LRU-tail entries while the global byte total exceeds
  /// the budget, stopping at `spare` (the freshly inserted key, evicted
  /// only as a last resort) or when the shard runs out of unpinned
  /// entries. Pinned entries are not in the LRU list and never touched.
  /// Caller holds shard->mu.
  void EvictTailLocked(Shard* shard, const std::string* spare);

  /// Budget enforcement after an insert (or unpin) on `home`: home's tail
  /// first (sparing `fresh`), then the other shards one lock at a time,
  /// then — only if nothing else is left to shed — the fresh entry itself.
  /// Takes each shard mutex in turn without nesting, so concurrent
  /// enforcement cannot deadlock. Caller must NOT hold any shard mutex.
  void EnforceBudget(Shard* home, const std::string* fresh);

  size_t budget_bytes_;
  /// Resident bytes across all shards; the budget check reads this so the
  /// budget is global (not a per-shard slice that a large partition could
  /// never fit).
  std::atomic<size_t> bytes_total_{0};
  std::vector<Shard> shards_;
};

}  // namespace pexeso::serve

#endif  // PEXESO_SERVE_INDEX_CACHE_H_
