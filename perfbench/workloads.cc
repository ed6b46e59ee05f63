#include "workloads.h"

#include <sys/stat.h>

#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "core/insight_class.h"
#include "core/snapshot.h"
#include "data/csv.h"
#include "data/generators.h"
#include "serve/wire.h"
#include "util/timer.h"

namespace perfbench {

using foresight::DataTable;
using foresight::ExecutionMode;
using foresight::InsightQuery;
using foresight::JsonValue;
using foresight::Status;
using foresight::StatusOr;
using foresight::WallTimer;

namespace {

constexpr char kExplore[] = "explore";
constexpr char kCarouselHot[] = "carousel_hot";
constexpr char kAppendMix[] = "append_mix";

constexpr size_t kExploreRows = 100000;
constexpr size_t kExploreNumeric = 90;
constexpr size_t kExploreCategorical = 10;
constexpr size_t kCarouselRows = 2000;
constexpr size_t kAppendBaseRows = 20000;
constexpr size_t kAppendNumeric = 28;
constexpr size_t kAppendCategorical = 4;
constexpr size_t kRowsPerAppend = 50;
/// Growth bound: 200 batches of 50 rows take the table from 20000 to at
/// most 30000 rows.
constexpr size_t kMaxAppends = 200;
/// Appends follow a fixed schedule, one batch every kAppendIntervalMs, as
/// a live feed delivers them; at 10 batches a second a 15 s run holds the
/// 100+ appends its append latency quantiles need. After each batch the
/// writer re-reads one view: the carousels after every
/// kWriterCarouselEvery-th batch, a session query otherwise. Readers send
/// the session's /v1/query steps only: a cold carousel holds the dataset's
/// shared lock and most cores for tens of milliseconds, and readers
/// stampeding on one after every append made throughput bistable.
constexpr double kAppendIntervalMs = 100.0;
constexpr size_t kWriterCarouselEvery = 5;
constexpr char kDatasetId[] = "live";

/// The UI model of core/explorer.h (ExplorationOptions defaults): a carousel
/// shows carousel_size = 5 insights per class, drawn from a pool of
/// pool_factor * carousel_size = 20 that the UI re-ranks itself, and
/// queries run in mode kAuto (sketch when a profile exists).
constexpr size_t kPoolSize = 20;
/// One explore session in this many ends with the overview and an exact
/// verification (a choice: the §4.1 scenario has neither).
constexpr size_t kExactEvery = 4;
/// Focus pairs the cache-hot workloads draw their sessions from. append_mix
/// draws more, so that the reads missing the cache after each append are
/// several percent of all reads: with fewer, its query p99 sat on the edge
/// between hit and miss latencies and moved with throughput.
constexpr size_t kHotPairs = 8;
constexpr size_t kAppendMixPairs = 48;

/// Requests per second per connection an explore script is sized for: about
/// three times what a connection gets through on a 4-core VM, so a run never
/// replays its script (a replay would turn its cold queries into cache
/// hits). The report warns if a run does.
constexpr double kExploreScriptRate = 4000.0;
/// Sessions per hot-set connection script (replayed cyclically).
constexpr size_t kHotSessions = 40;
/// Only the first requests of each script are gate candidates, so every
/// sampled request is certain to run.
constexpr size_t kGateWindow = 200;
constexpr double kExploreGateShare = 0.06;

/// splitmix64: a fixed, platform-independent stream per seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x100000001B3ull + stream).Next();
}

bool IsRegistryWorkload(const RunOptions& options) {
  return options.workload == kAppendMix;
}

std::string PostRaw(std::string_view target, const std::string& body) {
  std::string raw = "POST ";
  raw += target;
  raw += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: ";
  raw += std::to_string(body.size());
  raw += "\r\n\r\n";
  raw += body;
  return raw;
}

std::string GetRaw(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

ScriptedRequest MakeQuery(InsightQuery query, const std::string& dataset) {
  JsonValue body = query.ToJson();
  if (!dataset.empty()) body.Set("dataset", dataset);
  ScriptedRequest request;
  request.kind = RequestKind::kQuery;
  request.raw = PostRaw("/v1/query", body.Dump());
  request.queries.push_back(std::move(query));
  return request;
}

ScriptedRequest MakeBatch(std::vector<InsightQuery> queries,
                          const std::string& dataset) {
  JsonValue list = JsonValue::Array();
  for (const InsightQuery& query : queries) list.Append(query.ToJson());
  JsonValue body = JsonValue::Object();
  body.Set("queries", std::move(list));
  if (!dataset.empty()) body.Set("dataset", dataset);
  ScriptedRequest request;
  request.kind = RequestKind::kBatch;
  request.raw = PostRaw("/v1/query_batch", body.Dump());
  request.queries = std::move(queries);
  return request;
}

/// `refine` is sent as written; it must be a literal strtod reads exactly.
ScriptedRequest MakeOverview(const std::string& class_name, ExecutionMode mode,
                             const char* refine) {
  std::string target = "/v1/overview/" + class_name +
                       "?mode=" + foresight::ExecutionModeName(mode);
  ScriptedRequest request;
  request.kind = RequestKind::kOverview;
  request.overview_class = class_name;
  request.overview.mode = mode;
  if (refine != nullptr) {
    target += "&refine_min_score=";
    target += refine;
    request.overview.refine_min_score = std::strtod(refine, nullptr);
  }
  request.raw = GetRaw(target);
  return request;
}

/// Batch `batch` of the append pool as a POST /v1/append body.
ScriptedRequest MakeAppend(const DataTable& pool, size_t batch,
                           const std::string& dataset) {
  JsonValue rows = JsonValue::Array();
  for (size_t r = batch * kRowsPerAppend; r < (batch + 1) * kRowsPerAppend;
       ++r) {
    JsonValue row = JsonValue::Array();
    for (size_t c = 0; c < pool.num_columns(); ++c) {
      const foresight::Column& column = pool.column(c);
      if (!column.is_valid(r)) {
        row.Append(JsonValue());
      } else if (column.type() == foresight::ColumnType::kNumeric) {
        row.Append(column.AsNumeric().value(r));
      } else {
        row.Append(column.AsCategorical().value(r));
      }
    }
    rows.Append(std::move(row));
  }
  JsonValue body = JsonValue::Object();
  body.Set("dataset", dataset);
  body.Set("rows", std::move(rows));
  ScriptedRequest request;
  request.kind = RequestKind::kAppend;
  request.raw = PostRaw("/v1/append", body.Dump());
  return request;
}

struct ClassLists {
  std::vector<std::string> all;
  std::vector<std::string> pairwise;  ///< Arity-2 classes (drill-downs).
};

ClassLists BuiltinClasses() {
  const foresight::InsightClassRegistry registry =
      foresight::InsightClassRegistry::CreateDefault();
  ClassLists lists;
  lists.all = registry.names();
  for (const std::string& name : lists.all) {
    if (registry.Find(name)->arity() == 2) lists.pairwise.push_back(name);
  }
  return lists;
}

std::vector<std::string> NumericColumnNames(const DataTable& table) {
  std::vector<std::string> names;
  for (size_t index : table.NumericColumnIndices()) {
    names.push_back(table.column_name(index));
  }
  return names;
}

InsightQuery Query(const std::string& class_name, size_t top_k,
                   std::vector<std::string> fixed_attributes = {}) {
  InsightQuery query;
  query.class_name = class_name;
  query.top_k = top_k;
  query.fixed_attributes = std::move(fixed_attributes);
  return query;
}

/// The carousels of every class as ExplorationSession::InitialCarousels and
/// Recommendations fetch them: one batch, the top kPoolSize of each class.
ScriptedRequest CarouselRequest(const ClassLists& classes,
                                const std::string& dataset) {
  std::vector<InsightQuery> queries;
  for (const std::string& name : classes.all) {
    queries.push_back(Query(name, kPoolSize));
  }
  return MakeBatch(std::move(queries), dataset);
}

/// The focus of one session: a linear insight over numeric columns x, y,
/// and where the session's score range starts. The scenario leaves the
/// range open; the window is as wide as the §2.1 example's (0.3) and starts
/// anywhere in [0, 0.5], in steps of 1e-4, so that ranges rarely repeat.
struct FocusPair {
  std::string x;
  std::string y;
  double range_low = 0.5;
};

FocusPair DrawPair(const std::vector<std::string>& numeric, Rng& rng) {
  const size_t x = rng.Below(numeric.size());
  size_t y = rng.Below(numeric.size() - 1);
  if (y >= x) ++y;
  const double range_low = static_cast<double>(rng.Below(5001)) / 10000.0;
  return {numeric[x], numeric[y], range_low};
}

/// One analyst session focused on (x, y), in the order of the paper's §4.1
/// usage scenario as bench/bench_scenario_oecd.cc walks it:
///   1. the opening carousels (InitialCarousels);
///   2. focus the insight (x, y);
///   3. Pearson and Spearman drill-downs on x, the top kPoolSize;
///   4. the distributions: skew and heavy tails of x, skew of y;
///   5. focus y, then the top 3 linear relationships of y;
/// then the §2.1 metric-range filter over all pairs (there rho in
/// [0.5, 0.8]), here rho in [range_low, range_low + 0.3]. A focus change
/// sends nothing: ExplorationSession::Recommendations re-ranks the pools
/// of step 1, which is why a carousel fetches pool_factor times
/// carousel_size. Without `carousels` step 1 is left out.
std::vector<ScriptedRequest> Session(const ClassLists& classes,
                                     const FocusPair& pair,
                                     const std::string& dataset,
                                     bool carousels) {
  InsightQuery range = Query("linear_relationship", kPoolSize);
  range.min_score = pair.range_low;
  range.max_score = pair.range_low + 0.3;
  std::vector<ScriptedRequest> requests;
  if (carousels) requests.push_back(CarouselRequest(classes, dataset));
  requests.push_back(MakeQuery(
      Query("linear_relationship", kPoolSize, {pair.x}), dataset));
  requests.push_back(MakeQuery(
      Query("monotonic_relationship", kPoolSize, {pair.x}), dataset));
  requests.push_back(MakeQuery(Query("skew", 1, {pair.x}), dataset));
  requests.push_back(MakeQuery(Query("heavy_tails", 1, {pair.x}), dataset));
  requests.push_back(MakeQuery(Query("skew", 1, {pair.y}), dataset));
  requests.push_back(
      MakeQuery(Query("linear_relationship", 3, {pair.y}), dataset));
  requests.push_back(MakeQuery(std::move(range), dataset));
  return requests;
}

/// The analyst sessions of explore, each over a fresh seeded pair: the
/// range filters rarely repeat and mostly miss the cache; the carousel
/// fetch repeats, and the lookups keyed by one attribute (90 columns) soon
/// repeat too, and hit it, as a UI's would. Every kExactEvery-th session then opens
/// the correlation overview of Figure 2 (sketch mode) and verifies it:
/// exact linear_relationship top-k, k drawn from the UI's range
/// 1..kPoolSize (the pruned path), and the exact overview with
/// refine_min_score 0.8. Overviews are not cached.
ConnectionScript ExploreScript(const std::vector<std::string>& numeric,
                               size_t length, uint64_t stream_seed) {
  const ClassLists classes = BuiltinClasses();
  Rng rng(stream_seed);
  ConnectionScript script;
  for (size_t session = 1; script.requests.size() < length;
       ++session) {
    std::vector<ScriptedRequest> requests =
        Session(classes, DrawPair(numeric, rng), "", /*carousels=*/true);
    if (session % kExactEvery == 0) {
      requests.push_back(MakeOverview("linear_relationship",
                                      ExecutionMode::kSketch, nullptr));
      InsightQuery exact = Query("linear_relationship", 1 + rng.Below(kPoolSize));
      exact.mode = ExecutionMode::kExact;
      requests.push_back(MakeQuery(std::move(exact), ""));
      requests.push_back(
          MakeOverview("linear_relationship", ExecutionMode::kExact, "0.8"));
    }
    for (ScriptedRequest& request : requests) {
      request.gate_sample = script.requests.size() < kGateWindow &&
                            rng.Uniform() < kExploreGateShare;
      script.requests.push_back(std::move(request));
    }
  }
  return script;
}

/// The fixed pairs carousel_hot and append_mix draw their sessions from.
std::vector<FocusPair> HotPairs(const RunOptions& options,
                                const std::vector<std::string>& numeric) {
  Rng rng(StreamSeed(options.seed, 7));
  std::vector<FocusPair> pairs;
  const size_t count =
      IsRegistryWorkload(options) ? kAppendMixPairs : kHotPairs;
  for (size_t i = 0; i < count; ++i) pairs.push_back(DrawPair(numeric, rng));
  return pairs;
}

/// One connection's script over the hot pairs: kHotSessions sessions, each
/// on a pair drawn from `pairs`, replayed cyclically. The first occurrence
/// of each distinct request is a gate sample.
ConnectionScript HotScript(const std::vector<FocusPair>& pairs,
                           const std::string& dataset, bool carousels,
                           uint64_t stream_seed) {
  const ClassLists classes = BuiltinClasses();
  Rng rng(stream_seed);
  ConnectionScript script;
  std::set<std::string> seen;
  for (size_t session = 0; session < kHotSessions; ++session) {
    for (ScriptedRequest& request :
         Session(classes, pairs[rng.Below(pairs.size())], dataset, carousels)) {
      request.gate_sample = seen.insert(request.raw).second;
      script.requests.push_back(std::move(request));
    }
  }
  return script;
}

StatusOr<double> FileBytes(const std::string& path) {
  struct stat info {};
  if (::stat(path.c_str(), &info) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  return static_cast<double>(info.st_size);
}

/// The comparison of one wire body against the reference engine's answer.
void Compare(const std::string& what, const std::string& expected,
             const std::string& actual, GateResult* gate) {
  ++gate->checked;
  if (expected == actual) return;
  ++gate->mismatches;
  if (gate->first_mismatch.empty()) gate->first_mismatch = what;
}

void CompareProbe(const foresight::InsightEngine& reference,
                  const ScriptedRequest& request, const std::string& body,
                  GateResult* gate) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(body);
  const JsonValue* wire = nullptr;
  if (parsed.ok()) {
    wire = parsed->Get(request.kind == RequestKind::kBatch ? "results"
                                                           : "result");
  }
  const std::string what = std::string(RequestKindName(request.kind)) +
                           " request " + request.raw.substr(0, 120);
  if (wire == nullptr) {
    Compare(what + " (no result in body)", "", "-", gate);
    return;
  }
  if (request.kind == RequestKind::kOverview) {
    StatusOr<foresight::CorrelationOverview> overview =
        reference.ComputePairwiseOverview(request.overview_class,
                                          request.overview);
    const std::string expected =
        overview.ok()
            ? foresight::WireOverviewResponseV1(*overview).Get("result")->Dump()
            : overview.status().ToString();
    Compare(what, expected, wire->Dump(), gate);
    return;
  }
  for (size_t i = 0; i < request.queries.size(); ++i) {
    StatusOr<foresight::InsightQueryResult> result =
        reference.Execute(request.queries[i]);
    const std::string expected = result.ok()
                                     ? foresight::WireResultV1(*result).Dump()
                                     : result.status().ToString();
    const JsonValue& actual =
        request.kind == RequestKind::kBatch ? wire->at(i) : *wire;
    if (request.kind == RequestKind::kBatch && i >= wire->size()) {
      Compare(what + " (short batch)", "", "-", gate);
      return;
    }
    Compare(what, expected, actual.Dump(), gate);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {kExplore, kCarouselHot,
                                                 kAppendMix};
  return names;
}

namespace {

std::string InputPath(const RunOptions& options, const char* extension) {
  const std::string stem =
      IsRegistryWorkload(options) ? kDatasetId : options.workload;
  return options.work_dir + "/" + stem + extension;
}

std::string ManifestPath(const RunOptions& options) {
  return options.work_dir + "/inputs.json";
}

}  // namespace

Status GenerateInputs(const RunOptions& options) {
  DataTable table;
  if (options.workload == kExplore) {
    table = foresight::MakeBenchmarkTable(kExploreRows, kExploreNumeric,
                                          kExploreCategorical, options.seed);
  } else if (options.workload == kCarouselHot) {
    table = foresight::MakeParkinsonLike(kCarouselRows, options.seed);
  } else {
    table = foresight::MakeBenchmarkTable(kAppendBaseRows, kAppendNumeric,
                                          kAppendCategorical, options.seed);
  }
  const std::string csv_path = InputPath(options, ".csv");
  FORESIGHT_RETURN_IF_ERROR(foresight::CsvWriter::WriteFile(table, csv_path));
  JsonValue manifest = JsonValue::Object();
  JsonValue numeric = JsonValue::Array();
  for (const std::string& name : NumericColumnNames(table)) numeric.Append(name);
  manifest.Set("numeric_columns", std::move(numeric));
  FORESIGHT_ASSIGN_OR_RETURN(double csv_bytes, FileBytes(csv_path));
  manifest.Set("csv_bytes", csv_bytes);

  if (IsRegistryWorkload(options)) {
    // The snapshot is built from the table as the registry will parse it.
    FORESIGHT_ASSIGN_OR_RETURN(DataTable parsed,
                               foresight::CsvReader::ReadFile(csv_path));
    WallTimer timer;
    FORESIGHT_ASSIGN_OR_RETURN(foresight::InsightEngine engine,
                               foresight::InsightEngine::Create(parsed));
    manifest.Set("snapshot_preprocess_s", timer.ElapsedSeconds());
    FORESIGHT_RETURN_IF_ERROR(foresight::WriteProfileSnapshot(
        engine.profile(), InputPath(options, ".fsnap")));
  }
  std::ofstream out(ManifestPath(options));
  out << manifest.Dump();
  out.close();
  if (!out) return Status::IOError("cannot write " + ManifestPath(options));
  return Status::OK();
}

StatusOr<Inputs> LoadInputs(const RunOptions& options) {
  std::ifstream in(ManifestPath(options));
  if (!in) {
    return Status::IOError("cannot read " + ManifestPath(options) +
                           "; run --phase generate first");
  }
  std::stringstream text;
  text << in.rdbuf();
  FORESIGHT_ASSIGN_OR_RETURN(JsonValue manifest, JsonValue::Parse(text.str()));
  const JsonValue* numeric = manifest.Get("numeric_columns");
  const JsonValue* csv_bytes = manifest.Get("csv_bytes");
  if (numeric == nullptr || csv_bytes == nullptr || numeric->size() < 2) {
    return Status::InvalidArgument("malformed " + ManifestPath(options));
  }
  Inputs inputs;
  for (size_t i = 0; i < numeric->size(); ++i) {
    inputs.numeric_columns.push_back(numeric->at(i).as_string());
  }
  inputs.csv_bytes = csv_bytes->as_number();
  inputs.csv_path = InputPath(options, ".csv");

  JsonValue& params = inputs.parameters;
  params.Set("seed", static_cast<size_t>(options.seed));
  params.Set("connections", options.connections);
  params.Set("seconds", options.seconds);
  if (options.workload == kExplore) {
    params.Set("table", "MakeBenchmarkTable(100000, 90, 10)");
    params.Set("exact_every_sessions", kExactEvery);
  } else if (options.workload == kCarouselHot) {
    params.Set("table", "MakeParkinsonLike(2000)");
    params.Set("hot_pairs", kHotPairs);
  } else {
    params.Set("table", "MakeBenchmarkTable(20000, 28, 4)");
    params.Set("hot_pairs", kAppendMixPairs);
    params.Set("rows_per_append", kRowsPerAppend);
    params.Set("max_appends", kMaxAppends);
    params.Set("append_interval_ms", kAppendIntervalMs);
    inputs.dataset = kDatasetId;
    inputs.snapshot_path = InputPath(options, ".fsnap");
    if (const JsonValue* s = manifest.Get("snapshot_preprocess_s")) {
      inputs.snapshot_preprocess_s = s->as_number();
    }
    inputs.append_pool = std::make_unique<DataTable>(foresight::MakeBenchmarkTable(
        kMaxAppends * kRowsPerAppend, kAppendNumeric, kAppendCategorical,
        StreamSeed(options.seed, 99)));
  }
  return inputs;
}

std::vector<ConnectionScript> BuildScripts(const RunOptions& options,
                                           const Inputs& inputs) {
  const std::vector<std::string>& numeric = inputs.numeric_columns;
  std::vector<ConnectionScript> scripts;
  if (options.workload == kExplore) {
    for (size_t c = 0; c < options.connections; ++c) {
      scripts.push_back(ExploreScript(
          numeric, static_cast<size_t>(options.seconds * kExploreScriptRate),
          StreamSeed(options.seed, c)));
    }
    return scripts;
  }
  const std::vector<FocusPair> pairs = HotPairs(options, numeric);
  for (size_t c = 0; c < options.connections; ++c) {
    scripts.push_back(HotScript(pairs, inputs.dataset,
                                /*carousels=*/!IsRegistryWorkload(options),
                                StreamSeed(options.seed, 100 + c)));
  }
  if (IsRegistryWorkload(options)) {
    // Reads race with appends here, so the gate probes the grown dataset
    // after the run instead of sampling answers during it.
    for (ConnectionScript& script : scripts) {
      for (ScriptedRequest& request : script.requests) {
        request.gate_sample = false;
      }
    }
    // Connection 0 becomes the writer: every scheduled append is followed
    // by one query of its own; after the last batch it keeps reading.
    const ScriptedRequest carousel =
        CarouselRequest(BuiltinClasses(), inputs.dataset);
    const std::vector<ScriptedRequest>& reads = scripts[0].requests;
    ConnectionScript writer;
    for (size_t batch = 0; batch < kMaxAppends; ++batch) {
      writer.requests.push_back(
          MakeAppend(*inputs.append_pool, batch, inputs.dataset));
      writer.requests.back().due_ms =
          static_cast<double>(batch) * kAppendIntervalMs;
      writer.requests.push_back(batch % kWriterCarouselEvery == 0
                                    ? carousel
                                    : reads[batch % reads.size()]);
    }
    writer.cycle_from = writer.requests.size();
    writer.requests.insert(writer.requests.end(), reads.begin(), reads.end());
    scripts[0] = std::move(writer);
  }
  return scripts;
}

std::vector<const ScriptedRequest*> WarmUpSet(
    const RunOptions& options, const std::vector<ConnectionScript>& scripts) {
  std::vector<const ScriptedRequest*> requests;
  if (options.workload == kExplore) return requests;
  std::set<std::string> seen;
  for (const ConnectionScript& script : scripts) {
    for (const ScriptedRequest& request : script.requests) {
      if (request.kind == RequestKind::kAppend) continue;
      if (seen.insert(request.raw).second) requests.push_back(&request);
    }
  }
  return requests;
}

namespace {

foresight::DatasetRegistryOptions RegistryOptions() {
  foresight::DatasetRegistryOptions options;
  // The engines' default worker count (hardware concurrency), as the
  // other workloads use, and metrics on so /metrics covers the dataset.
  options.num_workers = 0;
  options.collect_metrics = true;
  return options;
}

StatusOr<std::unique_ptr<Deployment>> LoadRegistry(const Inputs& inputs,
                                                   double* load_s) {
  auto deployment = std::make_unique<Deployment>();
  deployment->registry =
      std::make_unique<foresight::DatasetRegistry>(RegistryOptions());
  FORESIGHT_RETURN_IF_ERROR(deployment->registry->Add(
      {inputs.dataset, inputs.csv_path, inputs.snapshot_path}));
  WallTimer timer;
  FORESIGHT_ASSIGN_OR_RETURN(deployment->pin,
                             deployment->registry->Acquire(inputs.dataset));
  *load_s = timer.ElapsedSeconds();
  if (!deployment->pin->loaded_from_snapshot()) {
    return Status::Internal(
        "dataset was rebuilt instead of loading its snapshot");
  }
  deployment->options.registry = deployment->registry.get();
  return deployment;
}

}  // namespace

StatusOr<std::unique_ptr<Deployment>> SetUp(const RunOptions& options,
                                            const Inputs& inputs,
                                            SetupTiming* timing) {
  WallTimer total;
  std::unique_ptr<Deployment> deployment;
  if (IsRegistryWorkload(options)) {
    FORESIGHT_ASSIGN_OR_RETURN(deployment,
                               LoadRegistry(inputs, &timing->registry_load_s));
  } else {
    deployment = std::make_unique<Deployment>();
    WallTimer timer;
    FORESIGHT_ASSIGN_OR_RETURN(DataTable table,
                               foresight::CsvReader::ReadFile(inputs.csv_path));
    timing->csv_read_s = timer.ElapsedSeconds();
    deployment->table = std::make_unique<DataTable>(std::move(table));
    timer.Restart();
    FORESIGHT_ASSIGN_OR_RETURN(
        foresight::InsightEngine engine,
        foresight::InsightEngine::Create(*deployment->table));
    timing->preprocess_s = timer.ElapsedSeconds();
    deployment->engine =
        std::make_unique<foresight::InsightEngine>(std::move(engine));
    deployment->session =
        std::make_unique<foresight::QuerySession>(*deployment->engine);
  }
  deployment->server = std::make_unique<foresight::HttpServer>(
      deployment->serving_session(), deployment->options);
  FORESIGHT_RETURN_IF_ERROR(deployment->server->Start());
  timing->setup_s = total.ElapsedSeconds();
  return deployment;
}

StatusOr<std::unique_ptr<Deployment>> ReplayState(const RunOptions& options,
                                                  const Inputs& inputs,
                                                  const Deployment& live) {
  if (IsRegistryWorkload(options)) {
    double load_s = 0.0;
    return LoadRegistry(inputs, &load_s);
  }
  auto deployment = std::make_unique<Deployment>();
  deployment->session =
      std::make_unique<foresight::QuerySession>(*live.engine);
  return deployment;
}

StatusOr<std::vector<std::pair<const ScriptedRequest*, std::string>>>
CollectProbes(const RunOptions& options, const Inputs& inputs,
              const Deployment& live, HttpPhase* phase,
              std::vector<ScriptedRequest>* probe_storage) {
  if (!IsRegistryWorkload(options)) return std::move(phase->gate_bodies);
  // Probes of the grown dataset: every class's carousel pool in sketch mode,
  // exact linear top-k, and every distinct query of the hot sessions.
  const ClassLists classes = BuiltinClasses();
  probe_storage->clear();
  for (const std::string& name : classes.all) {
    probe_storage->push_back(MakeQuery(Query(name, kPoolSize), inputs.dataset));
  }
  InsightQuery exact = Query("linear_relationship", kPoolSize);
  exact.mode = ExecutionMode::kExact;
  probe_storage->push_back(MakeQuery(std::move(exact), inputs.dataset));
  // Every distinct query of the sessions over the hot pairs.
  std::set<std::string> seen;
  for (const FocusPair& pair : HotPairs(options, inputs.numeric_columns)) {
    for (ScriptedRequest& request :
         Session(classes, pair, inputs.dataset, /*carousels=*/false)) {
      if (seen.insert(request.raw).second) {
        probe_storage->push_back(std::move(request));
      }
    }
  }

  std::vector<std::pair<const ScriptedRequest*, std::string>> probes;
  for (const ScriptedRequest& request : *probe_storage) {
    FORESIGHT_ASSIGN_OR_RETURN(std::string body,
                               FetchOnce(live.server->port(), request.raw));
    probes.emplace_back(&request, std::move(body));
  }
  return probes;
}

StatusOr<GateResult> VerifyProbes(
    const RunOptions& options, const Inputs& inputs,
    const std::vector<std::pair<const ScriptedRequest*, std::string>>& probes,
    const std::vector<AppendRecord>& appends) {
  FORESIGHT_ASSIGN_OR_RETURN(DataTable table,
                             foresight::CsvReader::ReadFile(inputs.csv_path));
  foresight::EngineOptions engine_options;
  if (IsRegistryWorkload(options)) {
    // The final table is the base rows plus every appended batch, in order.
    // The grown profile's partitions replay the append history since the
    // last full rebuild (an append that could not merge rebuilt it whole).
    size_t appended_rows = 0;
    std::vector<size_t> boundaries = {table.num_rows()};
    for (const AppendRecord& record : appends) {
      appended_rows += record.rows_appended;
      if (!record.delta_merged) boundaries.clear();
      boundaries.push_back(record.num_rows);
    }
    FORESIGHT_RETURN_IF_ERROR(
        table.AppendRows(inputs.append_pool->HeadRows(appended_rows)));
    if (table.num_rows() != boundaries.back()) {
      return Status::Internal("append history does not add up to the final "
                              "row count");
    }
    engine_options.preprocess.partition_boundaries = std::move(boundaries);
  }
  FORESIGHT_ASSIGN_OR_RETURN(
      foresight::InsightEngine reference,
      foresight::InsightEngine::Create(table, std::move(engine_options)));
  GateResult gate;
  for (const auto& [request, body] : probes) {
    CompareProbe(reference, *request, body, &gate);
  }
  return gate;
}

}  // namespace perfbench
