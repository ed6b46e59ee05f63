#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "data/generators.h"
#include "serve/wire.h"

namespace foresight {

/// Options-form builder for the single ComputePairwiseOverview entry point
/// (the metric/mode convenience overloads were removed in PR 7).
PairwiseOverviewOptions OverviewOptions(ExecutionMode mode,
                                        std::string metric = "") {
  PairwiseOverviewOptions options;
  options.metric = std::move(metric);
  options.mode = mode;
  return options;
}
namespace {

/// Field-by-field equality of two results' payloads (everything except the
/// cache/latency telemetry, which legitimately differs between serving paths).
void ExpectSamePayload(const InsightQueryResult& a, const InsightQueryResult& b,
                       const std::string& label) {
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated) << label;
  EXPECT_EQ(a.mode_used, b.mode_used) << label;
  ASSERT_EQ(a.insights.size(), b.insights.size()) << label;
  for (size_t i = 0; i < a.insights.size(); ++i) {
    const Insight& x = a.insights[i];
    const Insight& y = b.insights[i];
    EXPECT_EQ(x.class_name, y.class_name) << label << " #" << i;
    EXPECT_EQ(x.metric_name, y.metric_name) << label << " #" << i;
    EXPECT_EQ(x.attributes.indices, y.attributes.indices) << label << " #" << i;
    // Bit-identity, not approximate agreement.
    EXPECT_EQ(x.raw_value, y.raw_value) << label << " #" << i;
    EXPECT_EQ(x.score, y.score) << label << " #" << i;
    EXPECT_EQ(x.provenance, y.provenance) << label << " #" << i;
    EXPECT_EQ(x.description, y.description) << label << " #" << i;
  }
}

class QuerySessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeOecdLike(800, 11);
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 256;
    auto engine = InsightEngine::Create(table_, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_.emplace(std::move(*engine));
  }

  InsightQuery LinearQuery(size_t top_k = 5) const {
    InsightQuery query;
    query.class_name = "linear_relationship";
    query.top_k = top_k;
    query.mode = ExecutionMode::kExact;
    return query;
  }

  DataTable table_;
  std::optional<InsightEngine> engine_;
};

TEST_F(QuerySessionTest, HitAndMissAccounting) {
  QuerySession session(*engine_);
  InsightQuery query = LinearQuery();

  auto cold = session.Execute(query);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit);

  auto warm = session.Execute(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->cache_shard, cold->cache_shard);
  ExpectSamePayload(*cold, *warm, "cold vs warm");

  QueryCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  // The engine's own result matches what the session served.
  auto direct = engine_->Execute(query);
  ASSERT_TRUE(direct.ok());
  ExpectSamePayload(*direct, *warm, "direct vs warm");
}

TEST_F(QuerySessionTest, CacheHitLatencyAndModeAreReal) {
  QuerySession session(*engine_);
  InsightQuery query = LinearQuery();
  query.mode = ExecutionMode::kAuto;  // Resolves to sketch (profile built).

  ASSERT_TRUE(session.Execute(query).ok());
  auto hit = session.Execute(query);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  // The §2-satellite bugfix: elapsed reflects this call's end-to-end time
  // (never 0), and mode_used is the resolved mode, not the query's kAuto.
  EXPECT_GT(hit->elapsed_ms, 0.0);
  EXPECT_EQ(hit->mode_used, ExecutionMode::kSketch);
}

TEST_F(QuerySessionTest, CacheKeyCanonicalization) {
  InsightQuery a;
  a.class_name = "linear_relationship";
  a.metric = "pearson";
  a.mode = ExecutionMode::kExact;
  a.fixed_attributes = {"WorkingLongHours", "TimeDevotedToLeisure"};
  a.required_tags = {"alpha", "beta"};
  a.min_score = 0.25;

  InsightQuery b = a;
  std::reverse(b.fixed_attributes.begin(), b.fixed_attributes.end());
  std::reverse(b.required_tags.begin(), b.required_tags.end());
  b.metric = "";  // Default metric of linear_relationship is pearson.
  b.mode = ExecutionMode::kAuto;

  // a spells everything explicitly; b relies on defaults + different member
  // order. Canonicalization maps both to one key.
  EXPECT_EQ(a.CacheKey("pearson", ExecutionMode::kExact),
            b.CacheKey("pearson", ExecutionMode::kExact));

  // Distinct queries stay distinct.
  InsightQuery c = a;
  c.top_k = a.top_k + 1;
  EXPECT_NE(a.CacheKey("pearson", ExecutionMode::kExact),
            c.CacheKey("pearson", ExecutionMode::kExact));
  EXPECT_NE(a.CacheKey("pearson", ExecutionMode::kExact),
            a.CacheKey("pearson", ExecutionMode::kSketch));
  EXPECT_NE(a.CacheKey("pearson", ExecutionMode::kExact),
            a.CacheKey("pearson_projection", ExecutionMode::kExact));
}

TEST_F(QuerySessionTest, OrderInsensitiveQueryIsAHit) {
  ASSERT_TRUE(table_.TagColumn("WorkingLongHours", "scenario").ok());
  ASSERT_TRUE(table_.TagColumn("TimeDevotedToLeisure", "scenario").ok());
  ASSERT_TRUE(table_.TagColumn("WorkingLongHours", "numeric_kpi").ok());
  ASSERT_TRUE(table_.TagColumn("TimeDevotedToLeisure", "numeric_kpi").ok());
  QuerySession session(*engine_);

  InsightQuery first = LinearQuery(8);
  first.required_tags = {"scenario", "numeric_kpi"};
  first.metric = "pearson";
  ASSERT_TRUE(session.Execute(first).ok());

  InsightQuery shuffled = first;
  std::reverse(shuffled.required_tags.begin(), shuffled.required_tags.end());
  shuffled.metric = "";  // Class default == "pearson".
  auto result = session.Execute(shuffled);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cache_hit);
}

TEST_F(QuerySessionTest, EvictionAccountingUnderTinyBudget) {
  QuerySessionOptions options;
  options.cache.num_shards = 1;   // Deterministic: every key shares a shard.
  // Large enough for any single result (oversized entries are skipped, not
  // stored), small enough that 40 of them cannot all stay resident.
  options.cache.max_bytes = 32768;
  QuerySession session(*engine_, options);

  size_t distinct = 0;
  for (size_t k = 1; k <= 40; ++k) {
    auto result = session.Execute(LinearQuery(k));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->cache_shard, 0u);
    ++distinct;
  }
  QueryCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.misses, distinct);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, options.cache.max_bytes);
  EXPECT_LT(stats.entries, distinct);
  // LRU: the most recent query must still be resident.
  auto recent = session.Execute(LinearQuery(40));
  ASSERT_TRUE(recent.ok());
  EXPECT_TRUE(recent->cache_hit);
}

TEST_F(QuerySessionTest, RegistryMutationInvalidates) {
  QuerySession session(*engine_);
  InsightQuery query = LinearQuery();
  ASSERT_TRUE(session.Execute(query).ok());

  // Conservative hook: any mutable_registry() access bumps the epoch.
  engine_->mutable_registry();

  auto result = session.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->cache_hit);
  QueryCacheStats stats = session.cache_stats();
  EXPECT_GE(stats.invalidations, 1u);
}

TEST_F(QuerySessionTest, WorkerChangeInvalidates) {
  QuerySession session(*engine_);
  InsightQuery query = LinearQuery();
  ASSERT_TRUE(session.Execute(query).ok());
  PairwiseOverviewOptions exact;
  exact.mode = ExecutionMode::kExact;
  auto encode = [](const CorrelationOverview& overview) {
    return WireOverviewResponseV1(overview).Dump() + "\n";
  };
  auto overview = session.Overview("linear_relationship", exact, encode);
  ASSERT_TRUE(overview.ok());

  engine_->set_num_workers(engine_->num_workers() == 1 ? 2 : 1);

  auto result = session.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->cache_hit);
  // Overview entries follow the same epoch rule: recomputed, same bytes.
  auto recomputed = session.Overview("linear_relationship", exact, encode);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_NE(recomputed->get(), overview->get());
  EXPECT_EQ(**recomputed, **overview);
  EXPECT_EQ(session.cache_stats().invalidations, 2u);
}

TEST_F(QuerySessionTest, TagChangeInvalidates) {
  QuerySession session(*engine_);
  InsightQuery query = LinearQuery();
  ASSERT_TRUE(session.Execute(query).ok());

  // Tagging mutates the schema (version bump) -> epoch change. A re-tag of
  // an existing tag is a no-op and must NOT invalidate.
  ASSERT_TRUE(table_.TagColumn("AirPollution", "environment").ok());
  auto after_tag = session.Execute(query);
  ASSERT_TRUE(after_tag.ok());
  EXPECT_FALSE(after_tag->cache_hit);

  ASSERT_TRUE(table_.TagColumn("AirPollution", "environment").ok());
  auto after_noop = session.Execute(query);
  ASSERT_TRUE(after_noop.ok());
  EXPECT_TRUE(after_noop->cache_hit);
}

TEST_F(QuerySessionTest, ValidateMatchesExecuteErrors) {
  std::vector<InsightQuery> bad(5);
  bad[0].class_name = "";  // Empty class name.
  bad[1].class_name = "no_such_class";
  bad[2].class_name = "skew";
  bad[2].metric = "pearson";  // Not a skew metric.
  bad[3].class_name = "skew";
  bad[3].min_score = 0.9;
  bad[3].max_score = 0.1;
  bad[4].class_name = "linear_relationship";
  bad[4].fixed_attributes = {"NoSuchColumn"};

  QuerySession session(*engine_);
  for (size_t i = 0; i < bad.size(); ++i) {
    Status validate = bad[i].Validate(engine_->registry(), engine_->table());
    EXPECT_FALSE(validate.ok()) << i;
    // One validator, identical errors on every serving path.
    Status direct = engine_->Execute(bad[i]).status();
    Status served = session.Execute(bad[i]).status();
    Status batched = engine_->ExecuteBatch({&bad[i], 1}).status();
    EXPECT_EQ(validate, direct) << i;
    EXPECT_EQ(validate, served) << i;
    EXPECT_EQ(validate, batched) << i;
  }
  EXPECT_EQ(bad[0].Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad[1].Validate(engine_->registry(), engine_->table()).code(),
            StatusCode::kNotFound);
}

/// The 16-query overlapping workload the acceptance bench uses, downsized.
std::vector<InsightQuery> OverlappingWorkload() {
  std::vector<InsightQuery> queries;
  for (size_t i = 0; i < 8; ++i) {
    InsightQuery query;
    query.class_name = "linear_relationship";
    query.mode = ExecutionMode::kExact;
    query.top_k = 3 + i;
    if (i % 2 == 1) query.fixed_attributes = {"WorkingLongHours"};
    if (i % 4 >= 2) {
      query.min_score = 0.05 * static_cast<double>(i);
      query.max_score = 0.95;
    }
    queries.push_back(std::move(query));
  }
  for (size_t i = 0; i < 4; ++i) {
    InsightQuery query;
    query.class_name = i % 2 == 0 ? "dispersion" : "skew";
    query.mode = ExecutionMode::kExact;
    query.top_k = 4 + i;
    queries.push_back(std::move(query));
  }
  InsightQuery sketch_query;
  sketch_query.class_name = "linear_relationship";
  sketch_query.mode = ExecutionMode::kSketch;
  sketch_query.top_k = 6;
  queries.push_back(std::move(sketch_query));
  InsightQuery monotonic;
  monotonic.class_name = "monotonic_relationship";
  monotonic.metric = "kendall";
  monotonic.mode = ExecutionMode::kExact;
  monotonic.top_k = 5;
  queries.push_back(std::move(monotonic));
  return queries;
}

TEST_F(QuerySessionTest, ExecuteBatchBitIdenticalToSequential) {
  for (size_t workers : {size_t{1}, size_t{8}}) {
    engine_->set_num_workers(workers);
    std::vector<InsightQuery> queries = OverlappingWorkload();
    auto batch = engine_->ExecuteBatch(queries);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto single = engine_->Execute(queries[q]);
      ASSERT_TRUE(single.ok()) << single.status();
      ExpectSamePayload(*single, (*batch)[q],
                        "workers=" + std::to_string(workers) + " query #" +
                            std::to_string(q));
    }
  }
}

TEST_F(QuerySessionTest, SessionBatchCachesAndServesHits) {
  QuerySession session(*engine_);
  std::vector<InsightQuery> queries = OverlappingWorkload();

  auto cold = session.ExecuteBatch(queries);
  ASSERT_TRUE(cold.ok()) << cold.status();
  for (const InsightQueryResult& result : *cold) {
    EXPECT_FALSE(result.cache_hit);
  }

  // Every batch result is individually addressable afterwards...
  auto single = session.Execute(queries[0]);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single->cache_hit);
  ExpectSamePayload((*cold)[0], *single, "batch vs single");

  // ...and a repeated batch is served entirely from cache, bit-identically.
  auto warm = session.ExecuteBatch(queries);
  ASSERT_TRUE(warm.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE((*warm)[q].cache_hit) << q;
    ExpectSamePayload((*cold)[q], (*warm)[q], "warm batch #" + std::to_string(q));
  }
}

// The former ComputeCorrelationOverview alias is gone (DESIGN.md "API
// deprecations"): default-constructed options must select the class default
// metric, so the one remaining entry point still serves Figure 2 verbatim.
TEST_F(QuerySessionTest, DefaultOverviewOptionsSelectClassDefaultMetric) {
  auto defaulted = engine_->ComputePairwiseOverview("linear_relationship");
  auto explicit_metric = engine_->ComputePairwiseOverview(
      "linear_relationship", OverviewOptions(ExecutionMode::kAuto, "pearson"));
  ASSERT_TRUE(defaulted.ok());
  ASSERT_TRUE(explicit_metric.ok());
  EXPECT_EQ(defaulted->class_name, explicit_metric->class_name);
  EXPECT_EQ(defaulted->metric_name, "pearson");
  EXPECT_EQ(defaulted->attribute_names, explicit_metric->attribute_names);
  EXPECT_EQ(defaulted->matrix, explicit_metric->matrix);
}

// ---------------------------------------------------------------------------
// Overview entries: encoded response bodies in the same cache.

/// The serving layer's overview encoder (`GET /v1/overview/*` body).
std::string EncodeOverview(const CorrelationOverview& overview) {
  return WireOverviewResponseV1(overview).Dump() + "\n";
}

/// A fresh compute + encode, bypassing every cache.
std::string FreshOverviewBody(const InsightEngine& engine,
                              const std::string& class_name,
                              const PairwiseOverviewOptions& options) {
  auto overview = engine.ComputePairwiseOverview(class_name, options);
  EXPECT_TRUE(overview.ok()) << overview.status();
  return overview.ok() ? EncodeOverview(*overview) : std::string();
}

PairwiseOverviewOptions ExactOverview(double refine_min_score) {
  PairwiseOverviewOptions options = OverviewOptions(ExecutionMode::kExact);
  options.refine_min_score = refine_min_score;
  return options;
}

TEST_F(QuerySessionTest, OverviewHitIsByteIdenticalToFreshEncode) {
  QuerySession session(*engine_);
  size_t encodes = 0;
  auto counting = [&encodes](const CorrelationOverview& overview) {
    ++encodes;
    return EncodeOverview(overview);
  };
  for (const PairwiseOverviewOptions& options :
       {OverviewOptions(ExecutionMode::kSketch), ExactOverview(0.8),
        ExactOverview(0.0)}) {
    const std::string fresh =
        FreshOverviewBody(*engine_, "linear_relationship", options);
    const size_t encodes_before = encodes;
    auto cold = session.Overview("linear_relationship", options, counting);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(encodes, encodes_before + 1);
    auto warm = session.Overview("linear_relationship", options, counting);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(encodes, encodes_before + 1);  // A hit neither computes nor
                                              // encodes...
    EXPECT_EQ(warm->get(), cold->get());      // ...it shares the one body.
    EXPECT_EQ(**cold, fresh);
    EXPECT_EQ(**warm, fresh);
  }
  QueryCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST_F(QuerySessionTest, OverviewKeyCanonicalization) {
  QuerySession session(*engine_);
  // kAuto resolves to sketch (the engine has a profile): one entry.
  auto automatic = session.Overview(
      "linear_relationship", OverviewOptions(ExecutionMode::kAuto),
      EncodeOverview);
  auto sketch = session.Overview(
      "linear_relationship", OverviewOptions(ExecutionMode::kSketch, "pearson"),
      EncodeOverview);
  ASSERT_TRUE(automatic.ok());
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(automatic->get(), sketch->get());
  EXPECT_EQ(session.cache_stats().entries, 1u);

  // Sketch mode ignores the threshold.
  PairwiseOverviewOptions thresholded = OverviewOptions(ExecutionMode::kSketch);
  thresholded.refine_min_score = 0.5;
  auto sketch_thresholded =
      session.Overview("linear_relationship", thresholded, EncodeOverview);
  ASSERT_TRUE(sketch_thresholded.ok());
  EXPECT_EQ(sketch_thresholded->get(), sketch->get());
  EXPECT_EQ(session.cache_stats().entries, 1u);

  // "0.8" and "0.80" parse to one double: one exact entry.
  auto point_eight = session.Overview(
      "linear_relationship", ExactOverview(std::strtod("0.8", nullptr)),
      EncodeOverview);
  auto point_eighty = session.Overview(
      "linear_relationship", ExactOverview(std::strtod("0.80", nullptr)),
      EncodeOverview);
  ASSERT_TRUE(point_eight.ok());
  ASSERT_TRUE(point_eighty.ok());
  EXPECT_EQ(point_eight->get(), point_eighty->get());
  EXPECT_EQ(session.cache_stats().entries, 2u);

  // Exact mode at another threshold is another entry, with its own bytes.
  auto point_five = session.Overview("linear_relationship", ExactOverview(0.5),
                                     EncodeOverview);
  ASSERT_TRUE(point_five.ok());
  EXPECT_NE(point_five->get(), point_eight->get());
  EXPECT_EQ(**point_five,
            FreshOverviewBody(*engine_, "linear_relationship",
                              ExactOverview(0.5)));
  EXPECT_EQ(session.cache_stats().entries, 3u);

  // Another metric of the class is another entry too.
  auto projection = session.Overview(
      "linear_relationship",
      OverviewOptions(ExecutionMode::kSketch, "pearson_projection"),
      EncodeOverview);
  ASSERT_TRUE(projection.ok()) << projection.status();
  EXPECT_NE(projection->get(), sketch->get());
  EXPECT_EQ(session.cache_stats().entries, 4u);

  // Overview keys never alias query keys: a query after the overviews is a
  // miss, and its result is unaffected.
  auto query = session.Execute(LinearQuery());
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query->cache_hit);
}

TEST_F(QuerySessionTest, OverviewErrorsMatchEngineAndAreNeverCached) {
  QueryCacheOptions tiny;
  tiny.max_bytes = 64;
  QuerySession cached(*engine_);
  QuerySession uncached(*engine_, QuerySessionOptions{tiny});
  struct Case {
    std::string class_name;
    PairwiseOverviewOptions options;
  };
  const std::vector<Case> cases = {
      {"no_such_class", {}},
      {"skew", {}},  // Arity 1.
      {"linear_relationship",
       ExactOverview(std::numeric_limits<double>::quiet_NaN())},
      {"linear_relationship", ExactOverview(-0.25)},
      {"linear_relationship", OverviewOptions(ExecutionMode::kExact, "nope")},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.class_name + " metric=" + c.options.metric);
    auto expected = engine_->ComputePairwiseOverview(c.class_name, c.options);
    ASSERT_FALSE(expected.ok());
    for (int round = 0; round < 2; ++round) {
      for (const QuerySession* session : {&cached, &uncached}) {
        auto served =
            session->Overview(c.class_name, c.options, EncodeOverview);
        ASSERT_FALSE(served.ok());
        EXPECT_EQ(served.status().code(), expected.status().code());
        EXPECT_EQ(served.status().message(), expected.status().message());
      }
    }
  }
  EXPECT_EQ(cached.cache_stats().entries, 0u);
  EXPECT_EQ(cached.cache_stats().hits, 0u);
  EXPECT_EQ(cached.cache_stats().bytes, 0u);
}

TEST_F(QuerySessionTest, OverviewBytesSameWithCacheOnAndOff) {
  // A 64-byte budget cannot hold any body: every call computes, encodes and
  // is served uncached. The bytes must not depend on it.
  QueryCacheOptions tiny;
  tiny.max_bytes = 64;
  QuerySession on(*engine_);
  QuerySession off(*engine_, QuerySessionOptions{tiny});
  for (const PairwiseOverviewOptions& options :
       {OverviewOptions(ExecutionMode::kAuto),
        OverviewOptions(ExecutionMode::kExact, "pearson"), ExactOverview(0.8)}) {
    for (int round = 0; round < 2; ++round) {
      auto a = on.Overview("linear_relationship", options, EncodeOverview);
      auto b = off.Overview("linear_relationship", options, EncodeOverview);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(**a, **b);
    }
  }
  QueryCacheStats off_stats = off.cache_stats();
  EXPECT_EQ(off_stats.entries, 0u);
  EXPECT_EQ(off_stats.hits, 0u);
  EXPECT_EQ(off_stats.bytes, 0u);
  EXPECT_EQ(on.cache_stats().hits, 3u);
}

TEST(QueryCacheOverviewEntries, BytesAccountedAcrossPayloadKinds) {
  QueryCacheOptions options;
  options.num_shards = 2;
  options.max_bytes = 1 << 14;
  QueryCache cache(options);
  auto result = std::make_shared<InsightQueryResult>();
  result->insights.resize(3);
  for (size_t i = 0; i < 40; ++i) {
    std::string body(100 + 37 * i, 'b');
    body.reserve(body.size() + i);  // Charged by capacity, as stored.
    cache.Insert("overview|" + std::to_string(i), 1,
                 std::make_shared<const std::string>(std::move(body)));
    cache.Insert("v1|" + std::to_string(i), 1, result);
    ASSERT_EQ(cache.stats().bytes, cache.RecomputeBytes()) << i;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  // A key holding the other payload kind is a miss, never a bad cast.
  cache.Insert("mixed", 1, std::make_shared<const std::string>("body"));
  EXPECT_EQ(cache.Lookup("mixed", 1), nullptr);
  ASSERT_NE(cache.LookupBody("mixed", 1), nullptr);
  EXPECT_EQ(*cache.LookupBody("mixed", 1), "body");
  // A body over a shard's slice is not stored.
  cache.Insert("huge", 1, std::make_shared<const std::string>(1 << 14, 'h'));
  EXPECT_EQ(cache.LookupBody("huge", 1), nullptr);
  EXPECT_EQ(cache.stats().bytes, cache.RecomputeBytes());
  cache.Clear();
  EXPECT_EQ(cache.RecomputeBytes(), 0u);
}

TEST_F(QuerySessionTest, ExplorerSharesTheSessionCache) {
  QuerySession session(*engine_);
  ExplorationSession explorer(session);
  auto first = explorer.InitialCarousels();
  ASSERT_TRUE(first.ok()) << first.status();
  QueryCacheStats after_first = session.cache_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.misses, 0u);

  auto second = explorer.InitialCarousels();
  ASSERT_TRUE(second.ok());
  QueryCacheStats after_second = session.cache_stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GE(after_second.hits, after_first.misses);
  ASSERT_EQ(first->size(), second->size());
  for (size_t c = 0; c < first->size(); ++c) {
    ASSERT_EQ((*first)[c].insights.size(), (*second)[c].insights.size());
    for (size_t i = 0; i < (*first)[c].insights.size(); ++i) {
      EXPECT_EQ((*first)[c].insights[i].score, (*second)[c].insights[i].score);
    }
  }
}

}  // namespace
}  // namespace foresight
