// Panel-blocked ingestion, the only production path, must be BIT-IDENTICAL
// to a per-row reference built here from BundleBuilder::AccumulateNumeric:
// each partition's rows are sketched one row at a time, the partials merge
// in partition order, and the finalized sketch must serialize to the same
// bytes as the profile's. Table sizes and partition layouts reach multi-block
// panels (256-row blocks), a 1-row tail block (513 rows), empty partitions,
// and partition cuts inside and at block edges; null patterns exercise the
// compaction path (scattered nulls, all-null, a null tail, a null run inside
// one block) next to a group of fully-valid columns. Whole profiles must also
// be identical across worker counts. Plus RandomPanelCache unit behavior:
// content, generate-once under contention, and planned-use freeing.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/profile.h"
#include "data/table.h"
#include "sketch/bundle.h"
#include "sketch/panel_cache.h"
#include "sketch/serialize.h"
#include "util/thread_pool.h"

namespace foresight {
namespace {

DataTable MakeNullPatternTable(size_t rows) {
  DataTable table;
  // Five fully-valid columns: one group of four plus a group of one in the
  // blocked kernels, and the shared ones-side accumulation.
  for (size_t c = 0; c < 4; ++c) {
    std::vector<double> dense(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = static_cast<double>(i);
      dense[i] = c % 2 == 0 ? 0.25 * x - 3.0 * static_cast<double>(c)
                            : 100.0 - x * x * 0.01 * static_cast<double>(c);
    }
    EXPECT_TRUE(
        table.AddNumericColumn("dense_" + std::to_string(c), dense).ok());
  }
  EXPECT_TRUE(
      table.AddNumericColumn("constant", std::vector<double>(rows, 3.25))
          .ok());

  auto sparse = std::make_unique<NumericColumn>();
  auto all_null = std::make_unique<NumericColumn>();
  auto null_tail = std::make_unique<NumericColumn>();
  auto null_run = std::make_unique<NumericColumn>();
  size_t tail_begin = rows - rows / 4;
  size_t run_begin = rows / 3;
  for (size_t i = 0; i < rows; ++i) {
    double x = static_cast<double>(i);
    if (i % 5 == 0) {
      sparse->AppendNull();
    } else {
      sparse->Append(static_cast<double>(i % 11) - 5.0);
    }
    all_null->AppendNull();
    if (i < tail_begin) {
      null_tail->Append(std::sin(x) * 10.0);
    } else {
      null_tail->AppendNull();
    }
    if (i >= run_begin && i < run_begin + 40) {
      null_run->AppendNull();
    } else {
      null_run->Append(std::cos(x) + 0.5 * x);
    }
  }
  EXPECT_TRUE(table.AddColumn("sparse", std::move(sparse)).ok());
  EXPECT_TRUE(table.AddColumn("all_null", std::move(all_null)).ok());
  EXPECT_TRUE(table.AddColumn("null_tail", std::move(null_tail)).ok());
  EXPECT_TRUE(table.AddColumn("null_run", std::move(null_run)).ok());

  std::vector<std::string> labels(rows);
  for (size_t i = 0; i < rows; ++i) {
    labels[i] = "bucket_" + std::to_string(i % 7);
  }
  EXPECT_TRUE(table.AddCategoricalColumn("cat", labels).ok());
  return table;
}

std::string ComparableProfileJson(const TableProfile& profile) {
  JsonValue json = profile.ToJson();
  json.Set("preprocess_seconds", 0.0);
  return json.Dump();
}

/// The per-row reference for one numeric column: every partition (ascending
/// row end-offsets in `boundaries`) sketched by AccumulateNumeric, partials
/// merged in partition order, then finalized. A single partition accumulates
/// straight into the result, as Preprocessor::Profile does.
std::string ReferenceNumericSketchJson(const DataTable& table, size_t column,
                                       const SketchConfig& config,
                                       const std::vector<size_t>& boundaries) {
  BundleBuilder builder(config, table.num_rows());
  const NumericColumn& values = table.column(column).AsNumeric();
  NumericColumnSketch sketch = builder.MakeNumericSketch();
  if (boundaries.size() == 1) {
    builder.AccumulateNumeric(values, 0, boundaries[0], sketch);
  } else {
    size_t begin = 0;
    for (size_t end : boundaries) {
      NumericColumnSketch partial = builder.MakeNumericSketch();
      builder.AccumulateNumeric(values, begin, end, partial);
      sketch.Merge(partial);
      begin = end;
    }
  }
  builder.FinalizeNumeric(sketch);
  return NumericSketchToJson(sketch).Dump();
}

struct Layout {
  size_t rows;
  std::vector<size_t> boundaries;
  size_t num_partitions = 0;  ///< When set, cuts at n * p / num_partitions.
};

TEST(KernelEquivalence, BlockedMatchesPerRowReference) {
  const std::vector<Layout> layouts = {
      {137, {137}},                  // One partial panel block.
      {137, {45, 91, 137}},          // Cuts inside one block.
      {513, {513}},                  // Two full blocks + a 1-row tail block.
      {513, {100, 300, 300, 513}},   // Cuts inside blocks, an empty partition.
      {513, {256, 512, 513}},        // Cuts at block edges; 1-row partition.
      {513, {255, 257, 513}},        // A 2-row partition straddling blocks.
      {513, {0, 513}},               // Leading empty partition.
      {1000, {1, 999, 1000}},        // 1-row partitions at both ends.
      {513, {128, 256, 384, 513}, 4},  // num_partitions cutting in blocks.
  };
  ThreadPool pool(3);
  for (const Layout& layout : layouts) {
    DataTable table = MakeNullPatternTable(layout.rows);
    PreprocessOptions options;
    if (layout.num_partitions > 0) {
      options.num_partitions = layout.num_partitions;
    } else {
      options.partition_boundaries = layout.boundaries;
    }
    std::vector<std::string> expected;
    for (size_t c : table.NumericColumnIndices()) {
      expected.push_back(ReferenceNumericSketchJson(table, c, options.sketch,
                                                    layout.boundaries));
    }
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto profile = Preprocessor::Profile(table, options, p);
      ASSERT_TRUE(profile.ok()) << profile.status();
      size_t i = 0;
      for (size_t c : table.NumericColumnIndices()) {
        EXPECT_EQ(expected[i++],
                  NumericSketchToJson(profile->numeric_sketch(c)).Dump())
            << "rows=" << layout.rows
            << " partitions=" << layout.boundaries.size() << " column "
            << table.column_name(c) << " pool=" << (p != nullptr);
      }
    }
  }
}

TEST(KernelEquivalence, ProfileIdenticalAcrossWorkerCounts) {
  for (size_t rows : {size_t{137}, size_t{513}}) {
    DataTable table = MakeNullPatternTable(rows);
    for (size_t parts : {size_t{1}, size_t{3}, size_t{8}}) {
      PreprocessOptions options;
      options.num_partitions = parts;
      auto serial = Preprocessor::Profile(table, options);
      ASSERT_TRUE(serial.ok()) << serial.status();
      std::string expected = ComparableProfileJson(*serial);
      for (size_t workers : {size_t{2}, size_t{3}, size_t{4}}) {
        ThreadPool pool(workers);
        auto pooled = Preprocessor::Profile(table, options, &pool);
        ASSERT_TRUE(pooled.ok()) << pooled.status();
        EXPECT_EQ(expected, ComparableProfileJson(*pooled))
            << "rows=" << rows << " parts=" << parts
            << " workers=" << workers;
      }
    }
  }
}

TEST(KernelEquivalence, CenteredProjectionCacheMatchesComputation) {
  DataTable table = MakeNullPatternTable(137);
  auto profile = Preprocessor::Profile(table, {});
  ASSERT_TRUE(profile.ok()) << profile.status();
  for (size_t c : table.NumericColumnIndices()) {
    const NumericColumnSketch& sketch = profile->numeric_sketch(c);
    ASSERT_GT(sketch.centered_projection.k(), 0u) << "column " << c;
    EXPECT_EQ(sketch.centered_projection.components(),
              sketch.CenteredProjection().components())
        << "column " << c;
  }
  // The cache is derived state: a serialization round trip must rebuild it.
  JsonValue json = profile->ToJson();
  EXPECT_EQ(json.Dump().find("centered_projection"), std::string::npos);
  auto loaded = Preprocessor::LoadProfile(table, json);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (size_t c : table.NumericColumnIndices()) {
    const NumericColumnSketch& sketch = loaded->numeric_sketch(c);
    EXPECT_EQ(sketch.centered_projection.components(),
              sketch.CenteredProjection().components())
        << "loaded column " << c;
  }
}

TEST(PanelCache, BlockContentMatchesPerRowGeneration) {
  HyperplaneSketcher hyperplane(64, 42);
  ProjectionSketcher projection(16, 43);
  RandomPanelCache cache(hyperplane, projection, /*n_rows=*/100,
                         /*block_rows=*/33);
  ASSERT_EQ(cache.num_blocks(), 4u);  // 33 + 33 + 33 + 1.
  for (size_t b = 0; b < cache.num_blocks(); ++b) {
    auto panel = cache.Acquire(b);
    ASSERT_NE(panel, nullptr);
    EXPECT_EQ(panel->row_begin, cache.block_begin(b));
    EXPECT_EQ(panel->num_rows, cache.block_end(b) - cache.block_begin(b));
    std::vector<double> expected_h, expected_p;
    for (size_t j = 0; j < panel->num_rows; ++j) {
      hyperplane.GenerateRowHyperplanes(panel->row_begin + j, expected_h);
      projection.GenerateRowComponents(panel->row_begin + j, expected_p);
      for (size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(panel->hyperplane_row(j)[i], expected_h[i]);
      }
      for (size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(panel->projection_row(j)[i], expected_p[i]);
      }
    }
  }
  EXPECT_EQ(cache.blocks_generated(), 4u);
  // Re-acquire without a plan: blocks stay resident, nothing regenerates.
  cache.Acquire(0);
  EXPECT_EQ(cache.blocks_generated(), 4u);
}

TEST(PanelCache, GenerateOnceUnderContention) {
  HyperplaneSketcher hyperplane(128, 7);
  ProjectionSketcher projection(32, 8);
  RandomPanelCache cache(hyperplane, projection, /*n_rows=*/4096,
                         /*block_rows=*/1024);
  ThreadPool pool(4);
  pool.ParallelFor(0, 64, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto panel = cache.Acquire(i % cache.num_blocks());
      ASSERT_NE(panel, nullptr);
      EXPECT_EQ(panel->num_rows, 1024u);
    }
  });
  EXPECT_EQ(cache.blocks_generated(), cache.num_blocks());
}

TEST(PanelCache, PlannedUsesFreeBlocks) {
  HyperplaneSketcher hyperplane(64, 1);
  ProjectionSketcher projection(8, 2);
  RandomPanelCache cache(hyperplane, projection, /*n_rows=*/64,
                         /*block_rows=*/32);
  cache.PlanUses({2, 1});
  auto first = cache.Acquire(0);
  cache.Release(0);
  // One planned use left: still resident, no regeneration on re-acquire.
  auto second = cache.Acquire(0);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.blocks_generated(), 1u);
  cache.Release(0);
  // All planned uses spent: the cache dropped its reference, but outstanding
  // shared_ptrs stay valid.
  EXPECT_EQ(first->num_rows, 32u);
}

}  // namespace
}  // namespace foresight
