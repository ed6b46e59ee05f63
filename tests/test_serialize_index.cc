// Tests for sketch/profile serialization, engine-from-profile, the insight
// index (§3 "indexes"), and parallel query evaluation (§5 future work).

#include <algorithm>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "core/index.h"
#include "data/generators.h"
#include "sketch/serialize.h"
#include "util/random.h"

namespace foresight {
namespace {

// ---------- Individual sketch round-trips ----------

TEST(SerializeTest, MomentsRoundTrip) {
  Rng rng(1);
  RunningMoments moments;
  for (int i = 0; i < 5000; ++i) moments.Add(rng.LogNormal(1.0, 0.7));
  auto restored = MomentsFromJson(MomentsToJson(moments));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->count(), moments.count());
  EXPECT_DOUBLE_EQ(restored->mean(), moments.mean());
  EXPECT_DOUBLE_EQ(restored->variance(), moments.variance());
  EXPECT_DOUBLE_EQ(restored->skewness(), moments.skewness());
  EXPECT_DOUBLE_EQ(restored->kurtosis(), moments.kurtosis());
  EXPECT_DOUBLE_EQ(restored->min(), moments.min());
  EXPECT_DOUBLE_EQ(restored->max(), moments.max());
}

TEST(SerializeTest, KllRoundTripPreservesQuantiles) {
  Rng rng(2);
  KllSketch sketch(200);
  for (int i = 0; i < 50000; ++i) sketch.Update(rng.Normal());
  auto restored = KllFromJson(KllToJson(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->count(), sketch.count());
  EXPECT_EQ(restored->RetainedItems(), sketch.RetainedItems());
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_DOUBLE_EQ(restored->Quantile(q), sketch.Quantile(q));
  }
  // The restored sketch keeps working as a stream summary.
  KllSketch continuing = std::move(*restored);
  for (int i = 0; i < 1000; ++i) continuing.Update(100.0);
  EXPECT_GT(continuing.Quantile(0.999), 10.0);
}

TEST(SerializeTest, ReservoirRoundTrip) {
  ReservoirSample sample(128, 3);
  for (int i = 0; i < 10000; ++i) sample.Add(i);
  auto restored = ReservoirFromJson(ReservoirToJson(sample));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->seen(), sample.seen());
  EXPECT_EQ(restored->values(), sample.values());
}

TEST(SerializeTest, SignatureRoundTripBitExact) {
  Rng rng(4);
  BitSignature signature(517);  // Deliberately not a multiple of 64.
  for (size_t i = 0; i < 517; ++i) signature.set_bit(i, rng.UniformDouble() < 0.5);
  auto restored = SignatureFromJson(SignatureToJson(signature));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_bits(), signature.num_bits());
  EXPECT_EQ(BitSignature::HammingDistance(*restored, signature), 0u);
}

TEST(SerializeTest, SpaceSavingRoundTrip) {
  Rng rng(5);
  SpaceSavingSketch sketch(32);
  for (int i = 0; i < 20000; ++i) {
    sketch.Update("v" + std::to_string(rng.Zipf(500, 1.3)));
  }
  auto restored = SpaceSavingFromJson(SpaceSavingToJson(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->total_count(), sketch.total_count());
  auto original_top = sketch.TopK(10);
  auto restored_top = restored->TopK(10);
  ASSERT_EQ(original_top.size(), restored_top.size());
  for (size_t i = 0; i < original_top.size(); ++i) {
    EXPECT_EQ(original_top[i].item, restored_top[i].item);
    EXPECT_EQ(original_top[i].estimated_count, restored_top[i].estimated_count);
    EXPECT_EQ(original_top[i].error, restored_top[i].error);
  }
}

TEST(SerializeTest, CountMinRoundTrip) {
  CountMinSketch sketch(256, 4, 77);
  sketch.Update("a", 10);
  sketch.Update("b", 3);
  auto restored = CountMinFromJson(CountMinToJson(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->EstimateCount("a"), sketch.EstimateCount("a"));
  EXPECT_EQ(restored->EstimateCount("b"), sketch.EstimateCount("b"));
  // Seeds survive, so merging original and restored stays legal.
  restored->Merge(sketch);
  EXPECT_EQ(restored->EstimateCount("a"), 20u);
}

TEST(SerializeTest, EntropyRoundTrip) {
  EntropySketch sketch(128, 9);
  for (int i = 0; i < 40; ++i) {
    sketch.Update("item" + std::to_string(i), 100 + i);
  }
  auto restored = EntropyFromJson(EntropyToJson(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored->EstimateEntropy(), sketch.EstimateEntropy());
}

TEST(SerializeTest, MalformedInputsRejected) {
  JsonValue empty = JsonValue::Object();
  EXPECT_FALSE(MomentsFromJson(empty).ok());
  EXPECT_FALSE(KllFromJson(empty).ok());
  EXPECT_FALSE(SignatureFromJson(empty).ok());
  EXPECT_FALSE(SpaceSavingFromJson(empty).ok());
  EXPECT_FALSE(CountMinFromJson(empty).ok());
  EXPECT_FALSE(EntropyFromJson(empty).ok());
  // Word-count mismatch.
  JsonValue bad_signature = JsonValue::Object();
  bad_signature.Set("bits", 128);
  JsonValue words = JsonValue::Array();
  words.Append("00000000000000ff");
  bad_signature.Set("words", std::move(words));
  EXPECT_FALSE(SignatureFromJson(bad_signature).ok());
}

// ---------- Profile persistence and engine-from-profile ----------

class ProfilePersistenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new DataTable(MakeOecdLike(3000, 51));
    PreprocessOptions options;
    options.sketch.hyperplane_bits = 512;
    auto profile = Preprocessor::Profile(*table_, options);
    ASSERT_TRUE(profile.ok());
    profile_json_ = new JsonValue(profile->ToJson());
  }
  static void TearDownTestSuite() {
    delete profile_json_;
    delete table_;
    profile_json_ = nullptr;
    table_ = nullptr;
  }

  static DataTable* table_;
  static JsonValue* profile_json_;
};

DataTable* ProfilePersistenceTest::table_ = nullptr;
JsonValue* ProfilePersistenceTest::profile_json_ = nullptr;

TEST_F(ProfilePersistenceTest, RoundTripsThroughText) {
  std::string text = profile_json_->Dump();
  auto reparsed = JsonValue::Parse(text);
  ASSERT_TRUE(reparsed.ok());
  auto restored = Preprocessor::LoadProfile(*table_, *reparsed);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // Restored sketches answer identically to the originals.
  PreprocessOptions options;
  options.sketch.hyperplane_bits = 512;
  auto original = Preprocessor::Profile(*table_, options);
  ASSERT_TRUE(original.ok());
  for (size_t c : table_->NumericColumnIndices()) {
    const auto& a = original->numeric_sketch(c);
    const auto& b = restored->numeric_sketch(c);
    EXPECT_DOUBLE_EQ(a.moments.mean(), b.moments.mean());
    EXPECT_DOUBLE_EQ(a.moments.kurtosis(), b.moments.kurtosis());
    EXPECT_EQ(BitSignature::HammingDistance(a.signature, b.signature), 0u);
    EXPECT_DOUBLE_EQ(a.quantiles.Quantile(0.5), b.quantiles.Quantile(0.5));
  }
  for (size_t c : table_->CategoricalColumnIndices()) {
    const auto& a = original->categorical_sketch(c);
    const auto& b = restored->categorical_sketch(c);
    EXPECT_DOUBLE_EQ(a.entropy.EstimateEntropy(), b.entropy.EstimateEntropy());
    EXPECT_EQ(a.observed_count, b.observed_count);
  }
  EXPECT_EQ(original->sampled_rows(), restored->sampled_rows());
}

TEST_F(ProfilePersistenceTest, EngineFromRestoredProfileServesQueries) {
  auto restored = Preprocessor::LoadProfile(*table_, *profile_json_);
  ASSERT_TRUE(restored.ok());
  auto engine =
      InsightEngine::CreateFromProfile(*table_, std::move(*restored));
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->has_profile());
  auto top = engine->TopInsights("linear_relationship", 3,
                                 ExecutionMode::kSketch);
  ASSERT_TRUE(top.ok());
  ASSERT_FALSE(top->empty());
  EXPECT_GT((*top)[0].score, 0.5);  // The planted strong pair survives.
}

TEST_F(ProfilePersistenceTest, RejectsMismatchedTable) {
  DataTable other = MakeOecdLike(100, 52);  // Different row count.
  EXPECT_FALSE(Preprocessor::LoadProfile(other, *profile_json_).ok());
  DataTable imdb = MakeImdbLike(3000, 53);  // Same rows, wrong columns.
  EXPECT_FALSE(Preprocessor::LoadProfile(imdb, *profile_json_).ok());
  EXPECT_FALSE(
      Preprocessor::LoadProfile(*table_, JsonValue::Object()).ok());
}

// ---------- Insight index ----------

class IndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new DataTable(MakeOecdLike(3000, 54));
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 512;
    auto engine = InsightEngine::Create(*table_, std::move(options));
    ASSERT_TRUE(engine.ok());
    engine_ = new InsightEngine(std::move(*engine));
    auto index = InsightIndex::Build(*engine_);
    ASSERT_TRUE(index.ok()) << index.status();
    index_ = new InsightIndex(std::move(*index));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete engine_;
    delete table_;
    index_ = nullptr;
    engine_ = nullptr;
    table_ = nullptr;
  }

  static DataTable* table_;
  static InsightEngine* engine_;
  static InsightIndex* index_;
};

DataTable* IndexTest::table_ = nullptr;
InsightEngine* IndexTest::engine_ = nullptr;
InsightIndex* IndexTest::index_ = nullptr;

TEST_F(IndexTest, CoversAllDefaultMetrics) {
  EXPECT_EQ(index_->num_rankings(), 12u);
  for (const std::string& class_name : engine_->registry().names()) {
    EXPECT_TRUE(index_->Covers(class_name, "")) << class_name;
  }
  EXPECT_FALSE(index_->Covers("linear_relationship", "pearson_projection"));
  EXPECT_FALSE(index_->Covers("no_such_class", ""));
  EXPECT_GT(index_->num_entries(), 200u);
  EXPECT_GT(index_->EstimateMemoryBytes(), 0u);
}

TEST_F(IndexTest, TopKMatchesEngineSketchPath) {
  for (const std::string& class_name : engine_->registry().names()) {
    InsightQuery query;
    query.class_name = class_name;
    query.top_k = 5;
    query.mode = ExecutionMode::kSketch;
    auto live = engine_->Execute(query);
    auto indexed = index_->Execute(query);
    ASSERT_TRUE(live.ok()) << class_name;
    ASSERT_TRUE(indexed.ok()) << class_name;
    ASSERT_EQ(live->insights.size(), indexed->insights.size()) << class_name;
    for (size_t i = 0; i < live->insights.size(); ++i) {
      EXPECT_EQ(live->insights[i].Key(), indexed->insights[i].Key());
      EXPECT_DOUBLE_EQ(live->insights[i].score, indexed->insights[i].score);
    }
  }
}

TEST_F(IndexTest, FixedAttributeQueriesMatch) {
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.fixed_attributes = {"SelfReportedHealth"};
  query.top_k = 8;
  query.mode = ExecutionMode::kSketch;
  auto live = engine_->Execute(query);
  auto indexed = index_->Execute(query);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(indexed.ok());
  ASSERT_EQ(live->insights.size(), indexed->insights.size());
  for (size_t i = 0; i < live->insights.size(); ++i) {
    EXPECT_EQ(live->insights[i].Key(), indexed->insights[i].Key());
  }
  // The index touches only the posting list, not all candidates.
  EXPECT_LT(indexed->candidates_evaluated, live->candidates_evaluated);
}

TEST_F(IndexTest, RangeQueriesMatch) {
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.min_score = 0.2;
  query.max_score = 0.7;
  query.top_k = 50;
  query.mode = ExecutionMode::kSketch;
  auto live = engine_->Execute(query);
  auto indexed = index_->Execute(query);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(indexed.ok());
  ASSERT_EQ(live->insights.size(), indexed->insights.size());
  for (size_t i = 0; i < live->insights.size(); ++i) {
    EXPECT_EQ(live->insights[i].Key(), indexed->insights[i].Key());
    EXPECT_GE(indexed->insights[i].score, 0.2);
    EXPECT_LE(indexed->insights[i].score, 0.7);
  }
}

TEST_F(IndexTest, UncoveredMetricAndUnknownAttributeFail) {
  InsightQuery uncovered;
  uncovered.class_name = "linear_relationship";
  uncovered.metric = "pearson_projection";
  EXPECT_EQ(index_->Execute(uncovered).status().code(),
            StatusCode::kFailedPrecondition);
  InsightQuery bad_attr;
  bad_attr.class_name = "linear_relationship";
  bad_attr.fixed_attributes = {"NoSuchColumn"};
  EXPECT_EQ(index_->Execute(bad_attr).status().code(), StatusCode::kNotFound);
}

TEST_F(IndexTest, BuildRequiresProfile) {
  EngineOptions options;
  options.build_profile = false;
  auto bare = InsightEngine::Create(*table_, std::move(options));
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(InsightIndex::Build(*bare).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------- Parallel query evaluation ----------

TEST(ParallelExecutionTest, WorkersProduceIdenticalResults) {
  DataTable table = MakeBenchmarkTable(2000, 24, 4, 55);
  EngineOptions serial_options;
  serial_options.preprocess.sketch.hyperplane_bits = 256;
  auto serial = InsightEngine::Create(table, std::move(serial_options));
  ASSERT_TRUE(serial.ok());
  EngineOptions parallel_options;
  parallel_options.preprocess.sketch.hyperplane_bits = 256;
  parallel_options.num_workers = 4;
  auto parallel = InsightEngine::Create(table, std::move(parallel_options));
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->num_workers(), 4u);

  for (const std::string& class_name : serial->registry().names()) {
    for (ExecutionMode mode :
         {ExecutionMode::kExact, ExecutionMode::kSketch}) {
      auto a = serial->TopInsights(class_name, 10, mode);
      auto b = parallel->TopInsights(class_name, 10, mode);
      ASSERT_TRUE(a.ok()) << class_name;
      ASSERT_TRUE(b.ok()) << class_name;
      ASSERT_EQ(a->size(), b->size()) << class_name;
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].Key(), (*b)[i].Key()) << class_name;
        EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score) << class_name;
      }
    }
  }
}

TEST(ParallelExecutionTest, ZeroWorkersResolveToHardwareConcurrency) {
  // EngineOptions::num_workers: 0 resolves to hardware_concurrency (at least
  // one worker), and an explicit 1 stays serial.
  DataTable table = MakeBenchmarkTable(200, 4, 1, 56);
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  for (size_t requested : {size_t{0}, size_t{1}}) {
    EngineOptions options;
    options.build_profile = false;
    options.num_workers = requested;
    auto engine = InsightEngine::Create(table, std::move(options));
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine->num_workers(), requested == 0 ? hardware : 1u);
    EXPECT_TRUE(engine->TopInsights("skew", 2).ok());
  }
}

}  // namespace
}  // namespace foresight
