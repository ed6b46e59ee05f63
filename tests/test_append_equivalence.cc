// The incremental-ingestion contract (DESIGN.md "Incremental ingestion"):
// a profile grown by Preprocessor::AppendToProfile over an append history is
// bit-identical to a from-scratch Preprocessor::Profile of the full table
// with partition_boundaries replaying that history — across worker counts,
// null patterns (dense / sparse / all-null / constant / categorical), delta
// sizes down to a single row, and multi-batch append chains. On top of that,
// InsightEngine::AppendPartition must serve identical wire results, bump the
// serving epoch so QuerySession caches invalidate, fall back to a full
// rebuild when the auto-resolved sketch geometry shifts, and reject
// mismatched deltas without touching table or profile.
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/profile.h"
#include "core/session.h"
#include "data/table.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace foresight {
namespace {

constexpr size_t kRows = 137;  // Prime-ish: every delta size splits unevenly.

/// The kernel-equivalence null-pattern zoo: dense, constant, sparse,
/// all-null, valid-head-null-tail numeric columns plus a categorical one —
/// each exercises a different merge path in the append pipeline.
DataTable MakeNullPatternTable(size_t rows) {
  DataTable table;
  std::vector<double> dense_a(rows), dense_b(rows);
  for (size_t i = 0; i < rows; ++i) {
    double x = static_cast<double>(i);
    dense_a[i] = 0.25 * x - 3.0;
    dense_b[i] = 100.0 - x * x * 0.01;
  }
  EXPECT_TRUE(table.AddNumericColumn("dense_a", dense_a).ok());
  EXPECT_TRUE(table.AddNumericColumn("dense_b", dense_b).ok());
  EXPECT_TRUE(
      table.AddNumericColumn("constant", std::vector<double>(rows, 3.25))
          .ok());

  auto sparse = std::make_unique<NumericColumn>();
  for (size_t i = 0; i < rows; ++i) {
    if (i % 5 == 0) {
      sparse->AppendNull();
    } else {
      sparse->Append(static_cast<double>(i % 11) - 5.0);
    }
  }
  EXPECT_TRUE(table.AddColumn("sparse", std::move(sparse)).ok());

  auto all_null = std::make_unique<NumericColumn>();
  for (size_t i = 0; i < rows; ++i) all_null->AppendNull();
  EXPECT_TRUE(table.AddColumn("all_null", std::move(all_null)).ok());

  // Valid head, null tail: every appended batch is entirely null here.
  auto head_only = std::make_unique<NumericColumn>();
  for (size_t i = 0; i < rows; ++i) {
    if (i < 100) {
      head_only->Append(std::sin(static_cast<double>(i)) * 10.0);
    } else {
      head_only->AppendNull();
    }
  }
  EXPECT_TRUE(table.AddColumn("head_only", std::move(head_only)).ok());

  std::vector<std::string> labels(rows);
  for (size_t i = 0; i < rows; ++i) {
    labels[i] = "bucket_" + std::to_string(i % 7);
  }
  EXPECT_TRUE(table.AddCategoricalColumn("cat", labels).ok());
  return table;
}

/// Rows [begin, end) as a standalone table — the delta a client would POST.
/// Categorical values copy by string, so the slice builds its own dictionary.
DataTable SliceRows(const DataTable& table, size_t begin, size_t end) {
  DataTable out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    std::unique_ptr<Column> sliced;
    if (column.type() == ColumnType::kNumeric) {
      auto dst = std::make_unique<NumericColumn>();
      const NumericColumn& src = column.AsNumeric();
      for (size_t i = begin; i < end; ++i) {
        if (src.is_valid(i)) {
          dst->Append(src.value(i));
        } else {
          dst->AppendNull();
        }
      }
      sliced = std::move(dst);
    } else {
      auto dst = std::make_unique<CategoricalColumn>();
      const CategoricalColumn& src = column.AsCategorical();
      for (size_t i = begin; i < end; ++i) {
        if (src.is_valid(i)) {
          dst->Append(src.value(i));
        } else {
          dst->AppendNull();
        }
      }
      sliced = std::move(dst);
    }
    EXPECT_TRUE(out.AddColumn(table.column_name(c), std::move(sliced)).ok());
  }
  return out;
}

/// Profile document minus wall-clock telemetry; everything else must match
/// byte for byte.
std::string ComparableProfileJson(const TableProfile& profile) {
  JsonValue json = profile.ToJson();
  json.Remove("preprocess_seconds");
  return json.Dump();
}

TEST(AppendEquivalence, AppendedProfileBitMatchesPartitionedRebuild) {
  const DataTable full = MakeNullPatternTable(kRows);
  for (size_t workers : {size_t{1}, size_t{8}}) {
    std::optional<ThreadPool> pool;
    if (workers > 1) pool.emplace(workers);
    ThreadPool* pool_ptr = pool ? &*pool : nullptr;
    for (size_t delta_rows : {size_t{1}, size_t{17}, kRows / 2}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " delta=" + std::to_string(delta_rows));
      const size_t base_rows = kRows - delta_rows;
      DataTable table = SliceRows(full, 0, base_rows);
      const DataTable delta = SliceRows(full, base_rows, kRows);

      PreprocessOptions options;
      auto grown = Preprocessor::Profile(table, options, pool_ptr);
      ASSERT_TRUE(grown.ok()) << grown.status();
      ASSERT_TRUE(table.AppendRows(delta).ok());
      Status merged = Preprocessor::AppendToProfile(table, base_rows, options,
                                                    &*grown, pool_ptr);
      ASSERT_TRUE(merged.ok()) << merged.ToString();

      PreprocessOptions rebuild;
      rebuild.partition_boundaries = {base_rows, kRows};
      auto rebuilt = Preprocessor::Profile(table, rebuild, pool_ptr);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
      EXPECT_EQ(ComparableProfileJson(*grown), ComparableProfileJson(*rebuilt));
    }
  }
}

TEST(AppendEquivalence, MultiBatchAppendChainReplaysAsPartitionLayout) {
  // Three successive appends; the rebuild replays the full history as
  // explicit boundaries — including a deliberately empty partition, which
  // both sides must treat as a no-op.
  const DataTable full = MakeNullPatternTable(kRows);
  const std::vector<size_t> history = {90, 90, 120, kRows};  // 90 | 0 | 30 | 17

  DataTable table = SliceRows(full, 0, history[0]);
  PreprocessOptions options;
  auto grown = Preprocessor::Profile(table, options);
  ASSERT_TRUE(grown.ok()) << grown.status();
  size_t rows = history[0];
  for (size_t i = 1; i < history.size(); ++i) {
    const DataTable delta = SliceRows(full, rows, history[i]);
    ASSERT_TRUE(table.AppendRows(delta).ok());
    Status merged =
        Preprocessor::AppendToProfile(table, rows, options, &*grown);
    ASSERT_TRUE(merged.ok()) << merged.ToString();
    rows = history[i];
  }

  PreprocessOptions rebuild;
  rebuild.partition_boundaries = history;
  auto rebuilt = Preprocessor::Profile(table, rebuild);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(ComparableProfileJson(*grown), ComparableProfileJson(*rebuilt));
}

TEST(AppendEquivalence, EngineAppendServesIdenticalWireResults) {
  // End-to-end over the engine: AppendPartition, then every registered
  // class, in both modes and at worker counts 1 and 8, must produce
  // byte-identical documents to an engine built from the serial partitioned
  // rebuild of the grown table.
  const DataTable full = MakeNullPatternTable(kRows);
  const size_t base_rows = kRows - 17;
  for (size_t workers : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    DataTable table = SliceRows(full, 0, base_rows);
    const DataTable delta = SliceRows(full, base_rows, kRows);

    EngineOptions engine_options;
    engine_options.num_workers = workers;
    auto engine = InsightEngine::Create(table, std::move(engine_options));
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto stats = engine->AppendPartition(table, delta);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_TRUE(stats->delta_merged);
    EXPECT_EQ(stats->rows_before, base_rows);
    EXPECT_EQ(stats->rows_appended, 17u);
    EXPECT_EQ(stats->num_rows, kRows);

    PreprocessOptions rebuild;
    rebuild.partition_boundaries = {base_rows, kRows};
    auto reference_profile = Preprocessor::Profile(table, rebuild);
    ASSERT_TRUE(reference_profile.ok()) << reference_profile.status();
    EngineOptions reference_options;
    reference_options.num_workers = workers;
    auto reference = InsightEngine::CreateFromProfile(
        table, std::move(*reference_profile), std::move(reference_options));
    ASSERT_TRUE(reference.ok()) << reference.status();

    size_t compared = 0;
    for (const std::string& class_name : engine->registry().names()) {
      for (ExecutionMode mode :
           {ExecutionMode::kSketch, ExecutionMode::kExact}) {
        SCOPED_TRACE(class_name + " mode=" +
                     std::to_string(static_cast<int>(mode)));
        InsightQuery query;
        query.class_name = class_name;
        query.top_k = 10;
        query.mode = mode;
        auto a = engine->Execute(query);
        auto b = reference->Execute(query);
        // A class the null-pattern table cannot serve must fail the same
        // way on both engines.
        ASSERT_EQ(a.status().ToString(), b.status().ToString());
        if (!a.ok()) continue;
        EXPECT_EQ(WireResultV1(*a).Dump(), WireResultV1(*b).Dump());
        ++compared;
      }
    }
    EXPECT_GT(compared, 0u);
  }
}

TEST(AppendEquivalence, AppendBumpsServingEpochAndInvalidatesSessionCache) {
  const DataTable full = MakeNullPatternTable(kRows);
  const size_t base_rows = kRows - 10;
  DataTable table = SliceRows(full, 0, base_rows);
  const DataTable delta = SliceRows(full, base_rows, kRows);

  EngineOptions options;
  options.num_workers = 1;
  auto engine = InsightEngine::Create(table, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status();
  QuerySession session(*engine);

  InsightQuery query;
  query.class_name = "dispersion";
  query.top_k = 5;
  query.mode = ExecutionMode::kExact;

  auto cold = session.Execute(query);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit);
  auto warm = session.Execute(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);

  const uint64_t epoch_before = engine->serving_epoch();
  ASSERT_TRUE(engine->AppendPartition(table, delta).ok());
  EXPECT_NE(engine->serving_epoch(), epoch_before);

  // The cached pre-append answer is dead: the session recomputes, and the
  // recomputation matches a fresh engine over the grown table byte for byte.
  auto after = session.Execute(query);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache_hit);

  DataTable grown = table.Clone();
  EngineOptions fresh_options;
  fresh_options.num_workers = 1;
  auto fresh = InsightEngine::Create(grown, std::move(fresh_options));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  auto expected = fresh->Execute(query);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(WireResultV1(*after).Dump(), WireResultV1(*expected).Dump());
}

TEST(AppendEquivalence, GeometryShiftFallsBackToFullRebuild) {
  // Auto-resolved hyperplane width: ceil(log2(n)^2 / 64) * 64 steps from 128
  // to 192 bits between 2500 and 2650 rows, so this append cannot delta-merge
  // (sketches of different widths don't compose). AppendPartition must fall
  // back to a full rebuild — reporting delta_merged = false — and still
  // serve results identical to a fresh engine over the grown table.
  const size_t kBase = 2500;
  const size_t kGrown = 2650;
  const DataTable full = MakeNullPatternTable(kGrown);
  DataTable table = SliceRows(full, 0, kBase);
  const DataTable delta = SliceRows(full, kBase, kGrown);

  EngineOptions options;
  options.num_workers = 1;
  auto engine = InsightEngine::Create(table, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status();
  const SketchConfig& config = engine->profile().config();
  ASSERT_NE(config.ResolveHyperplaneBits(kBase),
            config.ResolveHyperplaneBits(kGrown))
      << "row counts no longer straddle a hyperplane width step; pick new "
         "sizes";

  auto stats = engine->AppendPartition(table, delta);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->delta_merged);
  EXPECT_EQ(stats->num_rows, kGrown);

  DataTable grown = table.Clone();
  EngineOptions fresh_options;
  fresh_options.num_workers = 1;
  auto fresh = InsightEngine::Create(grown, std::move(fresh_options));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.top_k = 5;
  query.mode = ExecutionMode::kSketch;
  auto a = engine->Execute(query);
  auto b = fresh->Execute(query);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(WireResultV1(*a).Dump(), WireResultV1(*b).Dump());
}

TEST(AppendEquivalence, MismatchedDeltaIsRejectedWithoutMutatingState) {
  const DataTable full = MakeNullPatternTable(kRows);
  DataTable table = SliceRows(full, 0, kRows - 5);

  EngineOptions options;
  options.num_workers = 1;
  auto engine = InsightEngine::Create(table, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status();
  const std::string profile_before = ComparableProfileJson(engine->profile());
  const uint64_t epoch_before = engine->serving_epoch();
  const size_t rows_before = table.num_rows();

  // Wrong column count.
  DataTable narrow;
  ASSERT_TRUE(narrow.AddNumericColumn("dense_a", {1.0}).ok());
  EXPECT_FALSE(engine->AppendPartition(table, narrow).ok());

  // Right shape, wrong name.
  DataTable renamed = SliceRows(full, 0, 1);
  DataTable wrong_name;
  for (size_t c = 0; c < renamed.num_columns(); ++c) {
    std::unique_ptr<Column> col;
    if (renamed.column(c).type() == ColumnType::kNumeric) {
      auto dst = std::make_unique<NumericColumn>();
      dst->AppendNull();
      col = std::move(dst);
    } else {
      auto dst = std::make_unique<CategoricalColumn>();
      dst->AppendNull();
      col = std::move(dst);
    }
    const std::string name =
        c == 2 ? "imposter" : renamed.column_name(c);
    ASSERT_TRUE(wrong_name.AddColumn(name, std::move(col)).ok());
  }
  EXPECT_FALSE(engine->AppendPartition(table, wrong_name).ok());

  EXPECT_EQ(table.num_rows(), rows_before);
  EXPECT_EQ(engine->serving_epoch(), epoch_before);
  EXPECT_EQ(ComparableProfileJson(engine->profile()), profile_before);
}

TEST(AppendEquivalence, MemoryEstimateRoundsValidityBitmaskUp) {
  // Regression: the per-column validity bitmask is ceil(rows / 8) bytes;
  // integer division used to truncate, undercounting by a byte for any
  // column whose row count is not a multiple of 8 (and to zero bytes for
  // tables under 8 rows — the registry's byte budget then admitted more
  // residents than it should).
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("n", {1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(table.AddCategoricalColumn("c", {"a", "b", "a"}).ok());
  const size_t dict_bytes =
      (1 + sizeof(std::string)) + (1 + sizeof(std::string));  // "a", "b"
  EXPECT_EQ(table.EstimateMemoryBytes(),
            (1 + 3 * sizeof(double)) +                   // numeric + 1-byte mask
                (1 + 3 * sizeof(int32_t) + dict_bytes)); // categorical + mask

  DataTable nine;
  ASSERT_TRUE(nine
                  .AddNumericColumn(
                      "n", std::vector<double>(9, 1.5))
                  .ok());
  EXPECT_EQ(nine.EstimateMemoryBytes(), 2 + 9 * sizeof(double));
}

}  // namespace
}  // namespace foresight
