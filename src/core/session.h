#ifndef FORESIGHT_CORE_SESSION_H_
#define FORESIGHT_CORE_SESSION_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/query_cache.h"

namespace foresight {

/// Knobs for a QuerySession.
struct QuerySessionOptions {
  QueryCacheOptions cache;
};

/// The serving layer in front of InsightEngine (the paper frames insight
/// queries as an interactive, high-traffic workload: the demo repeatedly
/// issues top-k queries over the same profiled table). A QuerySession
/// answers repeated queries and per-class overviews from one sharded LRU
/// cache and overlapping query batches from shared candidate work, instead
/// of re-enumerating and re-evaluating every candidate on every call — the
/// same query-reuse idea as SeeDB's shared scans and Zenvisage's reuse
/// layer. Query entries hold results (each hit copies one out, to stamp its
/// own telemetry); overview entries hold the encoded response body, served
/// as is.
///
/// Thread safety: Execute/ExecuteBatch/Overview are const and safe to call
/// concurrently (the cache is internally mutex-striped); the explorer's
/// carousel fan-out issues its per-class queries through one session from
/// many pool threads. Staleness safety: every cache entry is keyed to the
/// engine's serving epoch, which engine/table mutations bump, so a stale
/// result can never be served. `engine` must outlive the session.
class QuerySession {
 public:
  /// When the engine collects metrics, the session registers callback metrics
  /// on the engine's registry (query_cache.* counters and occupancy gauges)
  /// that pull from this session's cache at export time; they are
  /// deregistered in the destructor. The session is therefore pinned in
  /// memory (no copy/move).
  explicit QuerySession(const InsightEngine& engine,
                        QuerySessionOptions options = {});
  ~QuerySession();

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  const InsightEngine& engine() const { return *engine_; }

  /// Executes `query`, serving it from the cache when an identical query
  /// (after canonicalization — attribute/tag order, default metric, kAuto
  /// mode all normalize away) was answered under the current engine epoch.
  /// The returned result reports `cache_hit`, its `cache_shard`, and the
  /// end-to-end latency of THIS call (on a hit: resolve + lookup + copy).
  StatusOr<InsightQueryResult> Execute(const InsightQuery& query) const;

  /// Batched execution: answers what it can from the cache, forwards the
  /// misses to InsightEngine::ExecuteBatch (one enumeration + one evaluation
  /// sweep per overlapping group), and caches every computed result.
  /// Bit-identical to calling Execute() per query, in order.
  StatusOr<std::vector<InsightQueryResult>> ExecuteBatch(
      std::span<const InsightQuery> queries) const;

  /// Encodes a computed overview into the response body the cache stores.
  /// Supplied by the serving layer, so core/ does not depend on serve/.
  using OverviewEncoder =
      std::function<std::string(const CorrelationOverview&)>;

  /// Serves ComputePairwiseOverview(class_name, options) as `encode` renders
  /// it. On a table that has not changed the overview is the same for every
  /// request, so the encoded body is cached under a canonical key (class,
  /// resolved metric and mode, and the threshold bits in exact mode; kAuto
  /// and its resolved mode share one entry) at the current serving epoch: a
  /// hit neither computes nor encodes, and any engine/table change
  /// invalidates it like a query result. The request is validated before the
  /// lookup and errors are never cached, so the outcome is the same with the
  /// cache on or off. Every caller of one session must pass the same
  /// encoder (the key does not name it). A body larger than a shard's byte
  /// slice is returned uncached.
  StatusOr<std::shared_ptr<const std::string>> Overview(
      const std::string& class_name, const PairwiseOverviewOptions& options,
      const OverviewEncoder& encode) const;

  QueryCacheStats cache_stats() const { return cache_.stats(); }

 private:
  const InsightEngine* engine_;
  /// Logically the session is a read-through view of the engine; the cache
  /// mutates under the hood (it is internally synchronized).
  mutable QueryCache cache_;
  /// Shares ownership of the engine's registry so the destructor can always
  /// deregister the callbacks below, even if the engine died first.
  std::shared_ptr<MetricsRegistry> metrics_;
  std::vector<std::pair<std::string, uint64_t>> callback_tokens_;
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_SESSION_H_
