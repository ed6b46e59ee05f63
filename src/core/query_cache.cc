#include "core/query_cache.h"

#include <algorithm>

#include "util/string_util.h"

namespace foresight {

namespace {

size_t ApproxInsightBytes(const Insight& insight) {
  size_t bytes = sizeof(Insight);
  bytes += insight.class_name.capacity();
  bytes += insight.metric_name.capacity();
  bytes += insight.description.capacity();
  bytes += insight.attributes.indices.capacity() * sizeof(size_t);
  bytes += insight.attribute_names.capacity() * sizeof(std::string);
  for (const std::string& name : insight.attribute_names) {
    bytes += name.capacity();
  }
  return bytes;
}

}  // namespace

size_t ApproxResultBytes(const InsightQueryResult& result) {
  size_t bytes = sizeof(InsightQueryResult);
  bytes += result.insights.capacity() * sizeof(Insight);
  for (const Insight& insight : result.insights) {
    bytes += ApproxInsightBytes(insight) - sizeof(Insight);
  }
  return bytes;
}

namespace {

size_t PayloadBytes(const std::shared_ptr<const InsightQueryResult>& result) {
  return ApproxResultBytes(*result);
}

size_t PayloadBytes(const std::shared_ptr<const std::string>& body) {
  return sizeof(std::string) + body->capacity();
}

}  // namespace

QueryCache::QueryCache(QueryCacheOptions options) {
  size_t num_shards = std::max<size_t>(1, options.num_shards);
  per_shard_bytes_ = std::max<size_t>(1, options.max_bytes / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t QueryCache::ShardOf(const std::string& key) const {
  return Fnv1a64(key) % shards_.size();
}

size_t QueryCache::EntryBytes(const Entry& entry) {
  return entry.key.capacity() + sizeof(Entry) +
         std::visit([](const auto& payload) { return PayloadBytes(payload); },
                    entry.payload);
}

void QueryCache::EraseEntry(Shard& shard, std::list<Entry>::iterator it) {
  shard.bytes -= it->bytes;
  shard.index.erase(it->key);
  shard.lru.erase(it);
}

template <typename T>
std::shared_ptr<const T> QueryCache::LookupAs(const std::string& key,
                                              uint64_t epoch) {
  Shard& shard = *shards_[ShardOf(key)];
  MutexLock lock(shard.mutex);
  auto found = shard.index.find(key);
  if (found == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  if (found->second->epoch != epoch) {
    // The engine (registry, workers, or table tags) changed since this entry
    // was computed: drop it rather than serve a stale answer.
    EraseEntry(shard, found->second);
    ++shard.invalidations;
    ++shard.misses;
    return nullptr;
  }
  const auto* payload =
      std::get_if<std::shared_ptr<const T>>(&found->second->payload);
  if (payload == nullptr) {
    ++shard.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
  ++shard.hits;
  return *payload;
}

std::shared_ptr<const InsightQueryResult> QueryCache::Lookup(
    const std::string& key, uint64_t epoch) {
  return LookupAs<InsightQueryResult>(key, epoch);
}

std::shared_ptr<const std::string> QueryCache::LookupBody(
    const std::string& key, uint64_t epoch) {
  return LookupAs<std::string>(key, epoch);
}

void QueryCache::Insert(const std::string& key, uint64_t epoch,
                        CachedPayload payload) {
  // Build the stored entry first and size THAT: the copied key generally
  // has a different capacity than the caller's original (copies shrink to
  // fit), and shard.bytes must account for what the shard actually holds
  // or it drifts from reality on every insert.
  Entry entry{key, epoch, 0, std::move(payload)};
  entry.bytes = EntryBytes(entry);
  Shard& shard = *shards_[ShardOf(key)];
  MutexLock lock(shard.mutex);
  auto found = shard.index.find(key);
  if (entry.bytes > per_shard_bytes_) {  // Would evict the whole shard.
    // An existing entry for the key still has to go — it is stale relative
    // to the newer payload we cannot store — but the drop is counted (stale
    // epoch: invalidation; otherwise: capacity eviction) instead of
    // disappearing from the books.
    if (found != shard.index.end()) {
      if (found->second->epoch != epoch) {
        ++shard.invalidations;
      } else {
        ++shard.evictions;
      }
      EraseEntry(shard, found->second);
    }
    return;
  }
  if (found != shard.index.end()) EraseEntry(shard, found->second);
  shard.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  while (shard.bytes > per_shard_bytes_ && shard.lru.size() > 1) {
    EraseEntry(shard, std::prev(shard.lru.end()));
    ++shard.evictions;
  }
}

QueryCacheStats QueryCache::stats() const {
  QueryCacheStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.evictions += shard->evictions;
    total.invalidations += shard->invalidations;
    total.entries += shard->lru.size();
    total.bytes += shard->bytes;
  }
  return total;
}

size_t QueryCache::RecomputeBytes() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const Entry& entry : shard->lru) total += EntryBytes(entry);
  }
  return total;
}

void QueryCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

}  // namespace foresight
