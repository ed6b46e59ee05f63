#include "core/session.h"

#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "util/timer.h"
#include "util/trace.h"

namespace foresight {

namespace {

constexpr size_t kCacheLookupIdx =
    static_cast<size_t>(QueryStage::kCacheLookup);

/// Canonical overview key: the class, resolved metric and resolved mode (so
/// kAuto and the mode it resolves to share an entry), plus the threshold's
/// bit pattern in exact mode only, where it can change the answer. The
/// "overview|" prefix cannot collide with InsightQuery::CacheKey's "v1|", and
/// the caller-supplied metric name comes last so no value can forge another
/// field.
std::string OverviewCacheKey(const ResolvedQuery& resolved,
                             double refine_min_score) {
  std::string key = "overview|class=";
  key += resolved.insight_class->name();
  key += "|mode=";
  if (resolved.mode == ExecutionMode::kSketch) {
    key += "sketch";
  } else {
    // + 0.0 folds -0.0 into +0.0: both disable pruning identically.
    char bits[17];
    std::snprintf(bits, sizeof(bits), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(refine_min_score + 0.0)));
    key += "exact|refine=";
    key += bits;
  }
  key += "|metric=";
  key += resolved.metric;
  return key;
}

}  // namespace

QuerySession::QuerySession(const InsightEngine& engine,
                           QuerySessionOptions options)
    : engine_(&engine), cache_(options.cache) {
  metrics_ = engine.metrics();
  if (metrics_ == nullptr) return;
  // The cache already maintains exact per-shard counters under its shard
  // mutexes; callback metrics surface them at export time instead of double
  // bookkeeping on the lookup hot path.
  auto add = [&](const char* name, CallbackKind kind,
                 std::function<double()> fn) {
    callback_tokens_.emplace_back(
        name, metrics_->RegisterCallback(name, kind, std::move(fn)));
  };
  add("query_cache.hits_total", CallbackKind::kCounter,
      [this] { return static_cast<double>(cache_.stats().hits); });
  add("query_cache.misses_total", CallbackKind::kCounter,
      [this] { return static_cast<double>(cache_.stats().misses); });
  add("query_cache.evictions_total", CallbackKind::kCounter,
      [this] { return static_cast<double>(cache_.stats().evictions); });
  add("query_cache.invalidations_total", CallbackKind::kCounter,
      [this] { return static_cast<double>(cache_.stats().invalidations); });
  add("query_cache.entries", CallbackKind::kGauge,
      [this] { return static_cast<double>(cache_.stats().entries); });
  add("query_cache.bytes", CallbackKind::kGauge,
      [this] { return static_cast<double>(cache_.stats().bytes); });
}

QuerySession::~QuerySession() {
  if (metrics_ == nullptr) return;
  for (const auto& [name, token] : callback_tokens_) {
    metrics_->RemoveCallback(name, token);
  }
}

StatusOr<InsightQueryResult> QuerySession::Execute(
    const InsightQuery& query) const {
  const bool collect = engine_->collect_metrics();
  // determinism-ok: serving latency telemetry, gated on collect_metrics.
  WallTimer timer{kDeferredStart};
  if (collect) timer.Restart();
  FORESIGHT_ASSIGN_OR_RETURN(ResolvedQuery resolved,
                             engine_->ResolveQuery(query));
  const std::string key = query.CacheKey(resolved.metric, resolved.mode);
  const uint64_t epoch = engine_->serving_epoch();
  const size_t shard = cache_.ShardOf(key);
  QueryTrace lookup_trace;
  std::shared_ptr<const InsightQueryResult> entry;
  {
    StageSpan span(collect ? &lookup_trace : nullptr,
                   QueryStage::kCacheLookup);
    entry = cache_.Lookup(key, epoch);
  }
  const double lookup_ms = lookup_trace.stage_ms[kCacheLookupIdx];
  if (entry != nullptr) {
    InsightQueryResult cached = *entry;  // The one copy, outside the lock.
    cached.cache_hit = true;
    cached.cache_shard = shard;
    if (collect) {
      // End-to-end hit latency (resolve + lookup + copy), not the stale
      // compute time — and mode_used stays the resolved mode it was stored
      // with, so cached and computed results are indistinguishable modulo
      // the cache telemetry. The engine-side stage timings keep describing
      // the call that computed the payload; only the lookup stage and the
      // totals describe this serving call.
      cached.trace.stage_ms[kCacheLookupIdx] = lookup_ms;
      cached.elapsed_ms = timer.ElapsedMillis();
      cached.trace.total_ms = cached.elapsed_ms;
      metrics_->histogram("engine.stage.cache_lookup_ms").Record(lookup_ms);
      metrics_->histogram("session.hit_ms").Record(cached.elapsed_ms);
    }
    return cached;
  }
  FORESIGHT_ASSIGN_OR_RETURN(InsightQueryResult result,
                             engine_->Execute(query));
  result.cache_hit = false;
  result.cache_shard = shard;
  // Inserted before the lookup stage is folded in, so the cached entry keeps
  // the pure compute-path trace.
  cache_.Insert(key, epoch, std::make_shared<const InsightQueryResult>(result));
  if (collect) {
    result.trace.stage_ms[kCacheLookupIdx] += lookup_ms;
    result.elapsed_ms = timer.ElapsedMillis();
    result.trace.total_ms = result.elapsed_ms;
    metrics_->histogram("engine.stage.cache_lookup_ms").Record(lookup_ms);
  }
  return result;
}

StatusOr<std::vector<InsightQueryResult>> QuerySession::ExecuteBatch(
    std::span<const InsightQuery> queries) const {
  const bool collect = engine_->collect_metrics();
  // determinism-ok: serving latency telemetry, gated on collect_metrics.
  WallTimer timer{kDeferredStart};
  if (collect) timer.Restart();
  const uint64_t epoch = engine_->serving_epoch();
  std::vector<InsightQueryResult> results(queries.size());
  std::vector<std::string> keys(queries.size());
  std::vector<double> lookup_ms(queries.size(), 0.0);
  std::vector<size_t> miss_indices;
  std::vector<InsightQuery> miss_queries;
  for (size_t q = 0; q < queries.size(); ++q) {
    FORESIGHT_ASSIGN_OR_RETURN(ResolvedQuery resolved,
                               engine_->ResolveQuery(queries[q]));
    keys[q] = queries[q].CacheKey(resolved.metric, resolved.mode);
    QueryTrace lookup_trace;
    std::shared_ptr<const InsightQueryResult> entry;
    {
      StageSpan span(collect ? &lookup_trace : nullptr,
                     QueryStage::kCacheLookup);
      entry = cache_.Lookup(keys[q], epoch);
    }
    lookup_ms[q] = lookup_trace.stage_ms[kCacheLookupIdx];
    if (collect) {
      metrics_->histogram("engine.stage.cache_lookup_ms").Record(lookup_ms[q]);
    }
    if (entry != nullptr) {
      InsightQueryResult& cached = results[q];
      cached = *entry;  // The one copy, outside the lock.
      cached.cache_hit = true;
      cached.cache_shard = cache_.ShardOf(keys[q]);
      if (collect) {
        cached.trace.stage_ms[kCacheLookupIdx] = lookup_ms[q];
        cached.elapsed_ms = timer.ElapsedMillis();
        cached.trace.total_ms = cached.elapsed_ms;
      }
    } else {
      miss_indices.push_back(q);
      miss_queries.push_back(queries[q]);
    }
  }
  if (!miss_queries.empty()) {
    FORESIGHT_ASSIGN_OR_RETURN(std::vector<InsightQueryResult> computed,
                               engine_->ExecuteBatch(miss_queries));
    for (size_t m = 0; m < miss_indices.size(); ++m) {
      size_t q = miss_indices[m];
      computed[m].cache_hit = false;
      computed[m].cache_shard = cache_.ShardOf(keys[q]);
      cache_.Insert(keys[q], epoch,
                    std::make_shared<const InsightQueryResult>(computed[m]));
      if (collect) {
        computed[m].trace.stage_ms[kCacheLookupIdx] += lookup_ms[q];
        computed[m].elapsed_ms = timer.ElapsedMillis();
        computed[m].trace.total_ms = computed[m].elapsed_ms;
      }
      results[q] = std::move(computed[m]);
    }
  }
  return results;
}

StatusOr<std::shared_ptr<const std::string>> QuerySession::Overview(
    const std::string& class_name, const PairwiseOverviewOptions& options,
    const OverviewEncoder& encode) const {
  // Validated before the lookup, so a request the engine rejects fails the
  // same way whether or not an entry exists; errors are never cached.
  FORESIGHT_ASSIGN_OR_RETURN(ResolvedQuery resolved,
                             engine_->ResolveOverview(class_name, options));
  const std::string key = OverviewCacheKey(resolved, options.refine_min_score);
  const uint64_t epoch = engine_->serving_epoch();
  if (std::shared_ptr<const std::string> body = cache_.LookupBody(key, epoch)) {
    return body;
  }
  FORESIGHT_ASSIGN_OR_RETURN(
      CorrelationOverview overview,
      engine_->ComputePairwiseOverview(class_name, options));
  auto body = std::make_shared<const std::string>(encode(overview));
  cache_.Insert(key, epoch, body);
  return body;
}

}  // namespace foresight
