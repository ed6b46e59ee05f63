// Regression + concurrency tests for QueryCache accounting.
//
// The two accounting bugs covered here:
//   1. Insert() of an oversized result erased an existing same-key entry
//      without counting the drop, so hits/misses/evictions/invalidations no
//      longer explained the cache's contents.
//   2. Insert() computed the entry's byte charge from the *caller's*
//      key.capacity() instead of the stored copy's, so shard byte accounting
//      drifted from reality whenever the caller's string had spare capacity
//      (and the drift compounded on every insert).
//
// The concurrent section is intended to run under TSAN (-DFORESIGHT_TSAN=ON)
// and asserts the conservation laws at quiescence:
//      hits + misses == lookups issued
//      stats().bytes == RecomputeBytes()   (recomputed from live entries)

#include "core/query_cache.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace foresight {
namespace {

std::shared_ptr<const InsightQueryResult> MakeResult(
    size_t description_bytes) {
  auto result = std::make_shared<InsightQueryResult>();
  Insight insight;
  insight.class_name = "dispersion";
  insight.metric_name = "variance";
  insight.description = std::string(description_bytes, 'x');
  insight.attributes.indices = {0};
  insight.attribute_names = {"col"};
  insight.raw_value = 1.0;
  insight.score = 1.0;
  result->insights.push_back(std::move(insight));
  result->candidates_evaluated = 1;
  return result;
}

TEST(QueryCacheAccountingTest, OversizedRefreshCountsTheDroppedEntry) {
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 4096;
  QueryCache cache(options);

  cache.Insert("k", /*epoch=*/1, MakeResult(16));
  ASSERT_EQ(cache.stats().entries, 1u);

  // Same key, same epoch, but a result too large to cache: the stale entry
  // must be dropped AND the drop must appear in the counters.
  cache.Insert("k", /*epoch=*/1, MakeResult(1 << 20));
  QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(cache.RecomputeBytes(), 0u);
}

TEST(QueryCacheAccountingTest, OversizedRefreshAcrossEpochCountsInvalidation) {
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 4096;
  QueryCache cache(options);

  cache.Insert("k", /*epoch=*/1, MakeResult(16));
  // The entry predates this epoch, so its drop is an invalidation.
  cache.Insert("k", /*epoch=*/2, MakeResult(1 << 20));
  QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(QueryCacheAccountingTest, BytesChargedFromStoredCopyNotCallerCapacity) {
  QueryCache cache;

  // A caller key with lots of spare capacity: the stored copy shrinks to fit,
  // so charging the caller's capacity() would overcount immediately.
  std::string key = "query-key";
  key.reserve(1 << 16);
  cache.Insert(key, /*epoch=*/1, MakeResult(32));
  EXPECT_EQ(cache.stats().bytes, cache.RecomputeBytes());

  // Replacing the entry must charge the new copy and refund the old one
  // exactly, across many refreshes with varying payload sizes.
  for (size_t i = 0; i < 64; ++i) {
    cache.Insert(key, /*epoch=*/1, MakeResult(32 + 17 * i));
    ASSERT_EQ(cache.stats().bytes, cache.RecomputeBytes()) << i;
  }
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(QueryCacheAccountingTest, LruEvictionKeepsBytesConsistent) {
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 8192;
  QueryCache cache(options);
  for (size_t i = 0; i < 100; ++i) {
    cache.Insert("key-" + std::to_string(i), 1, MakeResult(256));
    ASSERT_EQ(cache.stats().bytes, cache.RecomputeBytes()) << i;
  }
  QueryCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);  // The budget forces LRU evictions.
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LE(stats.bytes, options.max_bytes);
}

// Concurrent mixed workload across shards. Run under TSAN to catch data
// races; the assertions below catch lost updates even without it.
TEST(QueryCacheStressTest, CountersConserveUnderConcurrency) {
  QueryCacheOptions options;
  options.num_shards = 4;
  options.max_bytes = 1 << 16;  // Small enough to force constant eviction.
  QueryCache cache(options);

  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 2000;
  constexpr size_t kKeySpace = 64;

  std::vector<uint64_t> lookups_by_thread(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      uint64_t lookups = 0;
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        std::string key =
            "stress-key-" + std::to_string(rng.UniformInt(kKeySpace));
        uint64_t epoch = 1 + rng.UniformInt(2);  // Mix epochs: invalidations.
        double roll = rng.UniformDouble();
        if (roll < 0.55) {
          (void)cache.Lookup(key, epoch);
          ++lookups;
        } else if (roll < 0.98) {
          cache.Insert(key, epoch, MakeResult(64 + 8 * rng.UniformInt(64)));
        } else {
          cache.Clear();
        }
      }
      lookups_by_thread[t] = lookups;
    });
  }
  for (std::thread& thread : threads) thread.join();

  uint64_t total_lookups = 0;
  for (uint64_t n : lookups_by_thread) total_lookups += n;
  QueryCacheStats stats = cache.stats();
  // Conservation: every lookup was either a hit or a miss, exactly once.
  EXPECT_EQ(stats.hits + stats.misses, total_lookups);
  // Byte accounting matches a from-scratch recount of the live entries.
  EXPECT_EQ(stats.bytes, cache.RecomputeBytes());
  EXPECT_LE(stats.bytes, options.max_bytes);
}

TEST(QueryCacheStressTest, SingleShardContentionKeepsLruCoherent) {
  // One shard maximizes contention on a single mutex + LRU list.
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 1 << 14;
  QueryCache cache(options);

  constexpr size_t kThreads = 6;
  constexpr size_t kOpsPerThread = 1500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7 * t + 3);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        std::string key = "hot-" + std::to_string(rng.UniformInt(8));
        if (rng.UniformDouble() < 0.5) {
          (void)cache.Lookup(key, 1);
        } else {
          cache.Insert(key, 1, MakeResult(128 + 16 * rng.UniformInt(32)));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.stats().bytes, cache.RecomputeBytes());
}

}  // namespace
}  // namespace foresight
