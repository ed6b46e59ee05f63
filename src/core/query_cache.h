#ifndef FORESIGHT_CORE_QUERY_CACHE_H_
#define FORESIGHT_CORE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/query.h"
#include "util/sync.h"

namespace foresight {

/// Sizing knobs for the QuerySession cache.
struct QueryCacheOptions {
  /// Number of independently locked shards. Striping keeps concurrent
  /// carousel / batch lookups from serializing on one mutex; keys spread
  /// across shards by a platform-stable FNV-1a hash.
  size_t num_shards = 8;
  /// Total byte budget across all shards (approximate, counting key bytes
  /// plus the deep size of each cached result or encoded body). Each shard
  /// owns an equal slice and evicts least-recently-used entries when its
  /// slice overflows.
  size_t max_bytes = 64u << 20;
};

/// Aggregate counters across all shards (point-in-time snapshot).
struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      ///< Entries dropped for capacity.
  uint64_t invalidations = 0;  ///< Entries dropped for a stale epoch.
  size_t entries = 0;
  size_t bytes = 0;
};

/// Approximate deep size of a cached result, for the byte budget.
size_t ApproxResultBytes(const InsightQueryResult& result);

/// What one cache entry holds: an immutable query result (keyed by
/// InsightQuery::CacheKey) or an immutable, fully encoded overview response
/// body (keyed by QuerySession's "overview|..." keys, which cannot collide
/// with query keys). Payloads are shared, never copied under a shard lock: a
/// hit hands out another reference and the caller copies what it must
/// outside the lock.
using CachedPayload = std::variant<std::shared_ptr<const InsightQueryResult>,
                                   std::shared_ptr<const std::string>>;

/// A sharded, mutex-striped, byte-bounded LRU cache of query results and
/// encoded overview bodies. Entries carry the engine serving epoch they were
/// computed under; a lookup presenting a newer epoch drops the entry
/// (counted as an invalidation) instead of serving stale data. Both payload
/// kinds share one LRU, byte budget and set of counters. All methods are
/// thread-safe.
class QueryCache {
 public:
  explicit QueryCache(QueryCacheOptions options = {});

  /// The shard `key` maps to (deterministic across platforms).
  size_t ShardOf(const std::string& key) const;

  /// Returns the cached result for `key`, refreshing its LRU position — or
  /// nullptr on miss. An entry stored under an older epoch is erased and
  /// reported as a miss.
  std::shared_ptr<const InsightQueryResult> Lookup(const std::string& key,
                                                   uint64_t epoch);

  /// Lookup for an encoded overview body; same LRU, epoch and counter rules.
  std::shared_ptr<const std::string> LookupBody(const std::string& key,
                                                uint64_t epoch);

  /// Stores `payload` under `key` at `epoch`, replacing any existing entry
  /// and evicting LRU entries until the shard fits its byte slice. A payload
  /// larger than the whole shard slice is not cached.
  void Insert(const std::string& key, uint64_t epoch, CachedPayload payload);

  QueryCacheStats stats() const;

  /// Recomputes the byte footprint of every live entry from its actual stored
  /// contents (not the cached per-entry size) and returns the total. A test
  /// hook: stats().bytes must equal this at any quiescent point, or the
  /// maintained accounting has drifted from reality.
  size_t RecomputeBytes() const;

  /// Drops every entry (counters are preserved).
  void Clear();

 private:
  struct Entry {
    std::string key;
    uint64_t epoch = 0;
    size_t bytes = 0;
    CachedPayload payload;
  };
  /// One independently locked stripe. The shard mutex sits directly below
  /// the metrics-registry lock in the hierarchy (util/sync.h): the
  /// QuerySession's cache-stats callback metrics call stats() during export,
  /// while the registry lock is held. Nothing is acquired under it.
  struct Shard {
    mutable Mutex mutex;
    std::list<Entry> lru FORESIGHT_GUARDED_BY(mutex);  ///< Front = MRU.
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        FORESIGHT_GUARDED_BY(mutex);
    size_t bytes FORESIGHT_GUARDED_BY(mutex) = 0;
    uint64_t hits FORESIGHT_GUARDED_BY(mutex) = 0;
    uint64_t misses FORESIGHT_GUARDED_BY(mutex) = 0;
    uint64_t evictions FORESIGHT_GUARDED_BY(mutex) = 0;
    uint64_t invalidations FORESIGHT_GUARDED_BY(mutex) = 0;
  };

  /// Byte charge of a stored entry: its key copy, the node and the payload.
  static size_t EntryBytes(const Entry& entry);

  /// Removes `it` from `shard`.
  static void EraseEntry(Shard& shard, std::list<Entry>::iterator it)
      FORESIGHT_REQUIRES(shard.mutex);

  /// The shared Lookup/LookupBody path. An entry holding the other payload
  /// kind counts as a miss (the key prefixes make that unreachable).
  template <typename T>
  std::shared_ptr<const T> LookupAs(const std::string& key, uint64_t epoch);

  size_t per_shard_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_QUERY_CACHE_H_
