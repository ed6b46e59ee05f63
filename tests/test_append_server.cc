// POST /v1/append over real loopback sockets. Registry datasets are the only
// mutable ones: the default dataset is always read-only (409), appends route
// per dataset id, the strict wire codec rejects malformed bodies without
// mutating anything, post-append answers are byte-identical to in-process
// execution on the grown dataset (cached overviews included: an append
// invalidates them), and — the TSAN surface — concurrent appends race
// queries and overviews on a dataset's data_mutex(), the only append lock
// the server has.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/session.h"
#include "core/snapshot.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/table.h"
#include "serve/http_client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/sync.h"

namespace foresight {
namespace {

/// Registry-backed server over two on-disk datasets (one snapshotted), the
/// `--datasets` deployment shape; appends route per dataset id.
class RegistryAppendFixture {
 public:
  explicit RegistryAppendFixture(HttpServerOptions options = {}) {
    dir_ = testing::TempDir() + "/foresight_append_datasets";
    std::filesystem::create_directories(dir_);
    for (int i = 0; i < 2; ++i) {
      const std::string id = "set" + std::to_string(i);
      DataTable generated = MakeBenchmarkTable(150, 5, 1, 40 + i);
      const std::string csv_path = dir_ + "/" + id + ".csv";
      EXPECT_TRUE(CsvWriter::WriteFile(generated, csv_path).ok());
      if (i == 0) {
        auto table = CsvReader::ReadFile(csv_path);
        EXPECT_TRUE(table.ok());
        auto profile = Preprocessor::Profile(*table);
        EXPECT_TRUE(profile.ok());
        EXPECT_TRUE(
            WriteProfileSnapshot(*profile, dir_ + "/" + id + ".fsnap").ok());
      }
    }
    // Two workers per dataset engine, so appends and queries also exercise
    // the engines' parallel paths.
    DatasetRegistryOptions registry_options;
    registry_options.num_workers = 2;
    registry_ = std::make_unique<DatasetRegistry>(std::move(registry_options));
    auto specs = DatasetRegistry::ScanDirectory(dir_);
    EXPECT_TRUE(specs.ok());
    for (DatasetSpec& spec : *specs) {
      EXPECT_TRUE(registry_->Add(std::move(spec)).ok());
    }

    default_table_ = MakeOecdLike(80, 9);
    auto engine = InsightEngine::Create(default_table_);
    EXPECT_TRUE(engine.ok());
    engine_ = std::make_unique<InsightEngine>(std::move(*engine));
    session_ = std::make_unique<QuerySession>(*engine_);
    options.registry = registry_.get();
    server_ = std::make_unique<HttpServer>(*session_, options);
    EXPECT_TRUE(server_->Start().ok());
  }

  ~RegistryAppendFixture() {
    server_->Stop();
    server_.reset();
    session_.reset();
    engine_.reset();
    registry_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  HttpClient Client() {
    HttpClient client;
    EXPECT_TRUE(client.Connect(server_->port()).ok());
    return client;
  }

  /// The resident dataset `id` (loaded on first use).
  std::shared_ptr<const ResidentDataset> Dataset(const std::string& id) {
    auto dataset = registry_->Acquire(id);
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    return dataset.ok() ? *dataset : nullptr;
  }

 private:
  std::string dir_;
  DataTable default_table_;
  std::unique_ptr<DatasetRegistry> registry_;
  std::unique_ptr<InsightEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  std::unique_ptr<HttpServer> server_;
};

/// An append body for MakeBenchmarkTable's 5-numeric + 1-categorical schema,
/// with an optional dataset selector.
std::string BenchmarkRowBody(const std::string& dataset, double fill) {
  JsonValue row = JsonValue::Array();
  for (int c = 0; c < 5; ++c) row.Append(fill);
  row.Append(std::string("cat_from_append"));
  JsonValue rows = JsonValue::Array();
  rows.Append(std::move(row));
  JsonValue body = JsonValue::Object();
  if (!dataset.empty()) body.Set("dataset", dataset);
  body.Set("rows", std::move(rows));
  return body.Dump();
}

/// An append body for `table`'s schema with `copies` identical rows: `fill`
/// in numeric columns, null in categorical ones, plus the dataset selector
/// unless `dataset` is empty.
std::string UniformRowBody(const std::string& dataset, const DataTable& table,
                           double fill, size_t copies = 1) {
  JsonValue rows = JsonValue::Array();
  for (size_t r = 0; r < copies; ++r) {
    JsonValue row = JsonValue::Array();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (table.column(c).type() == ColumnType::kNumeric) {
        row.Append(fill);
      } else {
        row.Append(JsonValue());
      }
    }
    rows.Append(std::move(row));
  }
  JsonValue body = JsonValue::Object();
  if (!dataset.empty()) body.Set("dataset", dataset);
  body.Set("rows", std::move(rows));
  return body.Dump();
}

TEST(AppendServeTest, DefaultDatasetIsReadOnly) {
  // An append that names no dataset must be refused outright — 409
  // (FailedPrecondition), not 404: the route exists, the state forbids.
  DataTable table = MakeOecdLike(60, 3);
  auto engine = InsightEngine::Create(table);
  ASSERT_TRUE(engine.ok());
  QuerySession session(*engine);
  HttpServer server(session, {});
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response =
      client.Request("POST", "/v1/append", UniformRowBody("", table, 1.0));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 409) << response->body;
  auto error = JsonValue::Parse(response->body);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->Get("error")->Get("code")->as_string(),
            "FailedPrecondition");
  auto wrong_method = client.Request("GET", "/v1/append");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
  EXPECT_EQ(table.num_rows(), 60u);
  server.Stop();
}

TEST(AppendServeTest, AppendExtendsServedTableAndAnswersStayIdentical) {
  RegistryAppendFixture fixture;
  HttpClient client = fixture.Client();
  const std::shared_ptr<const ResidentDataset> dataset =
      fixture.Dataset("set0");
  ASSERT_NE(dataset, nullptr);
  const size_t rows_before = dataset->table().num_rows();

  auto response = client.Request(
      "POST", "/v1/append",
      UniformRowBody("set0", dataset->table(), 41.5, /*copies=*/3));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = JsonValue::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("api_version")->as_number(), 1.0);
  const JsonValue* append = body->Get("append");
  ASSERT_NE(append, nullptr);
  EXPECT_EQ(append->Get("dataset")->as_string(), "set0");
  EXPECT_EQ(append->Get("rows_before")->as_number(),
            static_cast<double>(rows_before));
  EXPECT_EQ(append->Get("rows_appended")->as_number(), 3.0);
  EXPECT_EQ(append->Get("num_rows")->as_number(),
            static_cast<double>(rows_before + 3));
  EXPECT_TRUE(append->Get("delta_merged")->as_bool());
  const double epoch_first = append->Get("serving_epoch")->as_number();

  // The registry serves the mutated resident in place: the pin taken
  // before the append sees the grown table.
  EXPECT_EQ(fixture.Dataset("set0").get(), dataset.get());
  EXPECT_EQ(dataset->table().num_rows(), rows_before + 3);

  // Post-append answers must match in-process execution on the grown
  // dataset byte for byte (the served and in-process sessions are one).
  InsightQuery query;
  query.class_name = "outliers";
  query.top_k = 5;
  query.mode = ExecutionMode::kExact;
  StatusOr<InsightQueryResult> in_process = Status::Internal("unset");
  {
    ReaderLock lock(dataset->data_mutex());
    in_process = dataset->session().Execute(query);
  }
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  JsonValue routed = query.ToJson();
  routed.Set("dataset", "set0");
  auto served = client.Request("POST", "/v1/query", routed.Dump());
  ASSERT_TRUE(served.ok());
  ASSERT_EQ(served->status, 200) << served->body;
  auto served_body = JsonValue::Parse(served->body);
  ASSERT_TRUE(served_body.ok());
  EXPECT_EQ(served_body->Get("result")->Dump(),
            WireResultV1(*in_process).Dump());

  // A second append advances the serving epoch (cache keys can never alias
  // across appends).
  auto second = client.Request(
      "POST", "/v1/append", UniformRowBody("set0", dataset->table(), -3.25));
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, 200) << second->body;
  auto second_body = JsonValue::Parse(second->body);
  ASSERT_TRUE(second_body.ok());
  EXPECT_GT(second_body->Get("append")->Get("serving_epoch")->as_number(),
            epoch_first);
}

TEST(AppendServeTest, StrictCodecRejectsMalformedAppends) {
  HttpServerOptions options;
  options.max_append_rows = 4;
  RegistryAppendFixture fixture(options);
  HttpClient client = fixture.Client();
  const std::shared_ptr<const ResidentDataset> dataset =
      fixture.Dataset("set0");
  ASSERT_NE(dataset, nullptr);
  const DataTable& table = dataset->table();
  const size_t rows_before = table.num_rows();
  const size_t columns = table.num_columns();

  const std::string valid_cells = [&] {
    std::string cells;
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) cells += ", ";
      cells += table.column(c).type() == ColumnType::kNumeric ? "1.0" : "null";
    }
    return cells;
  }();

  // Every body but the first names the dataset, so each reaches the strict
  // codec with the selector already stripped.
  const std::string head = R"({"dataset": "set0")";
  const std::vector<std::string> bad = {
      R"(not json)",
      head + "}",                                // missing rows
      head + R"(, "rows": []})",                 // empty batch
      head + R"(, "rows": 7})",                  // rows not an array
      head + R"(, "rows": [7]})",                // row not an array
      head + R"(, "rows": [[1.0]]})",            // arity mismatch
      head + R"(, "rows": [[)" + valid_cells + R"(]], "extra": 1})",  // unknown
      R"({"dataset": 7, "rows": [[)" + valid_cells + R"(]]})",  // bad selector
      // Five rows against max_append_rows = 4.
      head + R"(, "rows": [[)" + valid_cells + R"(], [)" + valid_cells +
          R"(], [)" + valid_cells + R"(], [)" + valid_cells + R"(], [)" +
          valid_cells + R"(]]})",
  };
  for (const std::string& payload : bad) {
    SCOPED_TRACE(payload);
    auto response = client.Request("POST", "/v1/append", payload);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 400) << response->body;
  }

  // Type mismatch: a string in a numeric cell (and vice versa).
  std::string flipped_cells;
  for (size_t c = 0; c < columns; ++c) {
    if (c > 0) flipped_cells += ", ";
    flipped_cells +=
        table.column(c).type() == ColumnType::kNumeric ? R"("oops")" : "1.0";
  }
  auto flipped = client.Request(
      "POST", "/v1/append", head + R"(, "rows": [[)" + flipped_cells + "]]}");
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(flipped->status, 400) << flipped->body;

  // Nothing above may have mutated the dataset.
  EXPECT_EQ(table.num_rows(), rows_before);
  EXPECT_FALSE(dataset->mutated());
}

TEST(AppendServeTest, RegistryRoutedAppendTargetsOneDatasetOnly) {
  RegistryAppendFixture fixture;
  HttpClient client = fixture.Client();

  // Appending to set0 (cold: the request both loads and mutates it).
  auto response =
      client.Request("POST", "/v1/append", BenchmarkRowBody("set0", 3.5));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = JsonValue::Parse(response->body);
  ASSERT_TRUE(body.ok());
  const JsonValue* append = body->Get("append");
  ASSERT_NE(append, nullptr);
  EXPECT_EQ(append->Get("dataset")->as_string(), "set0");
  EXPECT_EQ(append->Get("rows_before")->as_number(), 150.0);
  EXPECT_EQ(append->Get("num_rows")->as_number(), 151.0);

  // set1 is untouched: its first append still starts from 150 rows.
  auto other =
      client.Request("POST", "/v1/append", BenchmarkRowBody("set1", 9.0));
  ASSERT_TRUE(other.ok());
  ASSERT_EQ(other->status, 200) << other->body;
  auto other_body = JsonValue::Parse(other->body);
  ASSERT_TRUE(other_body.ok());
  EXPECT_EQ(other_body->Get("append")->Get("rows_before")->as_number(), 150.0);

  // A second set0 append sees the grown table — the mutated resident (not
  // the now-stale snapshot) serves the dataset from here on.
  auto again =
      client.Request("POST", "/v1/append", BenchmarkRowBody("set0", -1.0));
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->status, 200) << again->body;
  auto again_body = JsonValue::Parse(again->body);
  ASSERT_TRUE(again_body.ok());
  EXPECT_EQ(again_body->Get("append")->Get("rows_before")->as_number(), 151.0);

  // Queries against the mutated dataset still answer (under the same
  // per-dataset mutex appends hold exclusively).
  auto query = client.Request(
      "POST", "/v1/query",
      R"({"class": "skew", "top_k": 3, "dataset": "set0"})");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->status, 200) << query->body;

  // Unknown dataset routes to 404, appendless registry default to 409.
  auto unknown =
      client.Request("POST", "/v1/append", BenchmarkRowBody("nope", 1.0));
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);
  auto no_default =
      client.Request("POST", "/v1/append", BenchmarkRowBody("", 1.0));
  ASSERT_TRUE(no_default.ok());
  EXPECT_EQ(no_default->status, 409);
}

/// The `GET /v1/overview/*` body a fresh engine over a deep copy of
/// `dataset`'s current table serves (caller holds the dataset's lock).
std::string FreshEngineOverviewBody(const ResidentDataset& dataset,
                                    const PairwiseOverviewOptions& options) {
  DataTable copy = dataset.table().Clone();
  auto engine = InsightEngine::Create(copy);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return "";
  auto overview =
      engine->ComputePairwiseOverview("linear_relationship", options);
  EXPECT_TRUE(overview.ok()) << overview.status().ToString();
  return overview.ok() ? WireOverviewResponseV1(*overview).Dump() + "\n" : "";
}

TEST(AppendServeTest, AppendInvalidatesCachedOverview) {
  RegistryAppendFixture fixture;
  HttpClient client = fixture.Client();
  const std::shared_ptr<const ResidentDataset> dataset =
      fixture.Dataset("set0");
  ASSERT_NE(dataset, nullptr);
  // Exact mode: the matrix comes from the table alone, so a fresh engine
  // (whatever its profile) must agree byte for byte.
  const std::string target =
      "/v1/overview/linear_relationship?dataset=set0&mode=exact";
  PairwiseOverviewOptions options;
  options.mode = ExecutionMode::kExact;

  auto first = client.Request("GET", target);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200) << first->body;
  auto second = client.Request("GET", target);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, 200);
  EXPECT_EQ(second->body, first->body);
  const QueryCacheStats cached = dataset->session().cache_stats();
  EXPECT_EQ(cached.hits, 1u);
  {
    ReaderLock lock(dataset->data_mutex());
    EXPECT_EQ(first->body, FreshEngineOverviewBody(*dataset, options));
  }

  auto append = client.Request(
      "POST", "/v1/append",
      UniformRowBody("set0", dataset->table(), 1e3, /*copies=*/4));
  ASSERT_TRUE(append.ok());
  ASSERT_EQ(append->status, 200) << append->body;

  auto grown = client.Request("GET", target);
  ASSERT_TRUE(grown.ok());
  ASSERT_EQ(grown->status, 200) << grown->body;
  const QueryCacheStats after = dataset->session().cache_stats();
  EXPECT_EQ(after.invalidations, cached.invalidations + 1);
  EXPECT_EQ(after.hits, cached.hits);  // Recomputed, not served stale.
  EXPECT_NE(grown->body, first->body);
  ReaderLock lock(dataset->data_mutex());
  EXPECT_EQ(grown->body, FreshEngineOverviewBody(*dataset, options));
}

TEST(AppendServeTest, ConcurrentOverviewsAndAppendsStayCoherent) {
  // The TSAN surface for overview entries: cached overview lookups, computes
  // and inserts (shared dataset lock) racing appends (exclusive) that
  // invalidate them. Every request must succeed, and the last answer must
  // match a fresh engine over the final table.
  RegistryAppendFixture fixture;
  const std::shared_ptr<const ResidentDataset> dataset =
      fixture.Dataset("set0");
  ASSERT_NE(dataset, nullptr);
  constexpr int kAppends = 6;
  constexpr int kOverviewThreads = 2;
  constexpr int kOverviewsPerThread = 12;
  std::vector<std::string> append_bodies;
  for (int i = 0; i < kAppends; ++i) {
    append_bodies.push_back(UniformRowBody("set0", dataset->table(),
                                           static_cast<double>(7 * i)));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&fixture, &failures, &append_bodies] {
    HttpClient client = fixture.Client();
    for (const std::string& body : append_bodies) {
      auto response = client.Request("POST", "/v1/append", body);
      if (!response.ok() || response->status != 200) failures.fetch_add(1);
    }
  });
  for (int t = 0; t < kOverviewThreads; ++t) {
    threads.emplace_back([&fixture, &failures, t] {
      HttpClient client = fixture.Client();
      for (int i = 0; i < kOverviewsPerThread; ++i) {
        const std::string target =
            (i + t) % 2 == 0
                ? "/v1/overview/linear_relationship?dataset=set0&mode=sketch"
                : "/v1/overview/linear_relationship?dataset=set0&mode=exact"
                  "&refine_min_score=0.8";
        auto response = client.Request("GET", target);
        if (!response.ok() || response->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  HttpClient client = fixture.Client();
  auto last = client.Request(
      "GET", "/v1/overview/linear_relationship?dataset=set0&mode=exact");
  ASSERT_TRUE(last.ok());
  ASSERT_EQ(last->status, 200) << last->body;
  PairwiseOverviewOptions options;
  options.mode = ExecutionMode::kExact;
  ReaderLock lock(dataset->data_mutex());
  EXPECT_EQ(dataset->table().num_rows(), 150u + kAppends);
  EXPECT_EQ(last->body, FreshEngineOverviewBody(*dataset, options));
}

TEST(AppendServeTest, ConcurrentAppendsAndQueriesStayCoherent) {
  // The TSAN gate for the serving-side locking: appends (exclusive, inside
  // ResidentDataset::Append) racing queries (shared, in the server's query
  // route) on one registry dataset's data_mutex(). Every request must
  // succeed and the dataset must end exactly (initial + appends) rows — no
  // lost updates, no torn reads.
  RegistryAppendFixture fixture;
  const std::shared_ptr<const ResidentDataset> dataset =
      fixture.Dataset("set0");
  ASSERT_NE(dataset, nullptr);
  const size_t rows_before = dataset->table().num_rows();
  constexpr int kAppendThreads = 2;
  constexpr int kAppendsPerThread = 6;
  constexpr int kQueryThreads = 2;
  constexpr int kQueriesPerThread = 10;

  // Bodies are built up front: reading the table's schema from a client
  // thread while the server appends would itself be an unlocked read.
  std::vector<std::vector<std::string>> append_bodies(kAppendThreads);
  for (int t = 0; t < kAppendThreads; ++t) {
    for (int i = 0; i < kAppendsPerThread; ++i) {
      append_bodies[static_cast<size_t>(t)].push_back(UniformRowBody(
          "set0", dataset->table(), static_cast<double>(t * 100 + i)));
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (const std::vector<std::string>& bodies : append_bodies) {
    threads.emplace_back([&fixture, &failures, &bodies] {
      HttpClient client = fixture.Client();
      for (const std::string& body : bodies) {
        auto response = client.Request("POST", "/v1/append", body);
        if (!response.ok() || response->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&fixture, &failures] {
      HttpClient client = fixture.Client();
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto response = client.Request(
            "POST", "/v1/query",
            R"({"class": "dispersion", "top_k": 4, "mode": "exact", )"
            R"("dataset": "set0"})");
        if (!response.ok() || response->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  ReaderLock lock(dataset->data_mutex());
  EXPECT_EQ(dataset->table().num_rows(),
            rows_before + kAppendThreads * kAppendsPerThread);
}

}  // namespace
}  // namespace foresight
