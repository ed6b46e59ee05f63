// foresight_perfbench: runs one workload against a real HttpServer and
// prints its metrics (see perfbench/README.md).
//
//   foresight_perfbench --workload explore|carousel_hot|append_mix
//                       --seed N --seconds S --trace 0|1 --work-dir DIR
//                       [--out-dir DIR] [--phase generate|setup|run]
//
// A run takes three kinds of process, each started fresh (run.py starts
// them in this order): `--phase generate` writes the inputs into DIR;
// each `--phase setup` sets up once from nothing resident, records its
// timings in DIR/setups.jsonl and exits; `--phase run` (the default) sets
// up once more, serves, measures, and reports setup_s as the median over
// its own set-up and the recorded ones.
//
// --trace 0 prints the end-to-end metrics of a closed-loop HTTP phase.
// --trace 1 runs the same HTTP phase, then replays the same scripts
// in-process twice (spans on, spans off) and prints the per-layer metrics.
// Either way the correctness gate runs last; the last line of stdout is the
// result JSON. Exits nonzero, without a result line, on any error, and with
// status 1 after printing it when the gate finds a mismatch.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/snapshot.h"
#include "data/csv.h"
#include "perfbench.h"
#include "pipeline.h"
#include "report.h"
#include "spans.h"
#include "util/bench_env.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using foresight::JsonValue;
using foresight::Status;
using foresight::StatusOr;

/// Direct CsvReader / snapshot-load calls timed by the traced append_mix run.
constexpr size_t kLoadReps = 3;

struct Args {
  RunOptions run;
  std::string out_dir = ".";
  std::string phase = "run";
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Status::InvalidArgument("bad --seed");
    } else if (flag == "--seconds") {
      args.run.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.run.seconds > 0.0)) {
        return Status::InvalidArgument("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      args.run.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.run.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--phase") {
      if (value != "generate" && value != "setup" && value != "run") {
        return Status::InvalidArgument("--phase takes generate, setup or run");
      }
      args.phase = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!have_workload) return Status::InvalidArgument("--workload is required");
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.run.workload) == names.end()) {
    return Status::InvalidArgument("unknown workload " + args.run.workload);
  }
  if (args.run.work_dir.empty()) return Status::InvalidArgument("--work-dir is required");
  // Half as many reading connections as cores, so clients, the event loop
  // and the engine pool do not all contend for every core; at least two
  // connections, and on append_mix one more for the writer, which is idle
  // between its scheduled appends.
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t readers = std::max<size_t>(1, cores / 2);
  args.run.connections =
      std::max<size_t>(2, readers + (args.run.workload == "append_mix"));
  return args;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

StatusOr<Scrape> ScrapeMetrics(uint16_t port) {
  FORESIGHT_ASSIGN_OR_RETURN(
      std::string text,
      FetchOnce(port, "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"));
  return Scrape(text);
}

/// The program's own counters over the measured phase (increase between the
/// scrapes before and after it), printed with every report.
void PrintCounters(const Scrape& before, const Scrape& after) {
  static const char* const kCounters[] = {
      "query_cache.hits_total",          "query_cache.misses_total",
      "query_cache.invalidations_total", "query_cache.evictions_total",
      "engine.queries_total",            "engine.batches_total",
      "engine.candidates_evaluated_total", "engine.pairwise_refined_total",
      "engine.pairwise_pruned_total",    "engine.appends_total",
      "thread_pool.tasks_executed_total", "serve.queue_rejections_total",
      "serve.responses_2xx_total",       "serve.responses_5xx_total",
  };
  std::printf("counters over the measured phase (from /metrics)\n");
  for (const char* name : kCounters) {
    if (after.Has(name)) {
      std::printf("  %-36s %14.0f\n", name, after.Delta(before, name));
    }
  }
}

/// Throughput and query latency quantiles of one window of the measured
/// phase. A failed query ranks above every success (it missed any latency
/// limit).
struct WindowStats {
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

WindowStats StatsOfWindow(const HttpPhase& phase, double begin_s,
                          double end_s) {
  std::vector<double> latencies;
  size_t completed = 0;
  size_t failed_queries = 0;
  for (const HttpPhase::Sample& sample : phase.samples) {
    const double end = static_cast<double>(sample.end_s);
    if (end < begin_s || end >= end_s) continue;
    completed += sample.ok ? 1 : 0;
    if (!IsQueryKind(sample.kind)) continue;
    if (sample.ok) {
      latencies.push_back(static_cast<double>(sample.ms));
    } else {
      ++failed_queries;
    }
  }
  const double slowest =
      latencies.empty() ? 0.0
                        : *std::max_element(latencies.begin(), latencies.end());
  latencies.insert(latencies.end(), failed_queries,
                   slowest + phase.elapsed_s * 1e3);
  WindowStats stats;
  stats.throughput_rps = static_cast<double>(completed) / (end_s - begin_s);
  stats.p50_ms = Quantile(latencies, 0.50);
  stats.p99_ms = Quantile(latencies, 0.99);
  return stats;
}

template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F field) {
  std::vector<double> values;
  for (const T& item : items) values.push_back(field(item));
  return Median(std::move(values));
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Windows of the measured phase: throughput and the query p50 are medians
/// over windows of kWindowSeconds, so a burst of noise from outside the
/// process moves a few windows, not the result. The p99 is the median over
/// as many equal windows as hold kP99Samples queries each (at least one).
constexpr double kWindowSeconds = 0.5;
constexpr size_t kP99Samples = 1000;

std::vector<WindowStats> Windows(const HttpPhase& http, size_t count) {
  std::vector<WindowStats> windows;
  const double length = http.elapsed_s / static_cast<double>(count);
  for (size_t w = 0; w < count; ++w) {
    windows.push_back(StatsOfWindow(http, length * static_cast<double>(w),
                                    length * static_cast<double>(w + 1)));
  }
  return windows;
}

/// End-to-end metrics of the untraced HTTP phase (see Windows above).
std::vector<Metric> EndToEndMetrics(const HttpPhase& http,
                                    const std::vector<SetupTiming>& setups,
                                    double peak_rss_mb) {
  const std::vector<WindowStats> windows = Windows(
      http, std::max<size_t>(1, static_cast<size_t>(http.elapsed_s /
                                                    kWindowSeconds)));
  size_t queries = 0;
  for (const HttpPhase::Sample& sample : http.samples) {
    queries += IsQueryKind(sample.kind) ? 1 : 0;
  }
  const std::vector<WindowStats> p99_windows = Windows(
      http, std::clamp<size_t>(queries / kP99Samples, 1, windows.size()));
  std::printf("%zu windows (throughput 1/s, query p50 ms):", windows.size());
  for (const WindowStats& w : windows) {
    std::printf(" [%.1f %.4f]", w.throughput_rps, w.p50_ms);
  }
  std::printf("\n%zu p99 windows of %zu queries (ms):", p99_windows.size(),
              queries / p99_windows.size());
  for (const WindowStats& w : p99_windows) std::printf(" %.4f", w.p99_ms);
  std::printf("\n");
  return {
      {"setup_s", MedianOf(setups, [](const SetupTiming& t) { return t.setup_s; }), "s"},
      {"throughput_rps",
       MedianOf(windows, [](const WindowStats& w) { return w.throughput_rps; }),
       "1/s"},
      {"query_p50_ms", MedianOf(windows, [](const WindowStats& w) { return w.p50_ms; }), "ms"},
      {"query_p99_ms",
       MedianOf(p99_windows, [](const WindowStats& w) { return w.p99_ms; }),
       "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// Append latency and error rate: printed with the end-to-end metrics but
/// not part of the result line (see perfbench/README.md).
void PrintHttpDetails(const HttpPhase& http, size_t gate_mismatches) {
  std::printf("http phase: %.3f s, %zu attempted, %zu failed (%zu refused "
              "with 503), %zu gate mismatches, %zu connections replayed "
              "their script\n",
              http.elapsed_s, http.attempted, http.failed, http.rejected_503,
              gate_mismatches, http.replayed_scripts);
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    std::vector<double> latencies =
        http.LatenciesOf(static_cast<RequestKind>(k));
    if (latencies.empty() && http.failures[k] == 0) continue;
    const double p50 = Quantile(latencies, 0.5);
    std::printf("  %-12s %8zu ok %4zu failed  p50 %.4f ms  p90 %.4f ms  "
                "p99 %.4f ms\n",
                RequestKindName(static_cast<RequestKind>(k)), latencies.size(),
                http.failures[k], p50, Quantile(latencies, 0.9),
                Quantile(latencies, 0.99));
  }
  PrintMetric({"error_rate",
               Ratio(static_cast<double>(http.failed + gate_mismatches),
                     static_cast<double>(http.attempted)),
               "ratio"});
  std::vector<double> appends = http.LatenciesOf(RequestKind::kAppend);
  if (!http.appends.empty()) {
    PrintMetric({"append_p50_ms", Quantile(appends, 0.5), "ms"});
    PrintMetric({"append_p90_ms", Quantile(appends, 0.9), "ms"});
    PrintMetric({"appends", static_cast<double>(http.appends.size()), "count"});
  }
}

/// Median over requests of a layer's summed span time, in microseconds.
double LayerMedianUs(const LayerTotals& totals, Layer layer) {
  return Median(totals.per_request_us[static_cast<size_t>(layer)]);
}

/// Per request kind: mean traced time, each layer's mean self time and
/// share, and the uncovered share (root self time). Returns the uncovered
/// percentage over all kinds.
double PrintCoverage(const LayerTotals& totals) {
  std::printf("traced pipeline by request kind (mean self time per request; "
              "layers sum to the traced request time)\n");
  double all_us = 0.0;
  double uncovered_us = 0.0;
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    const size_t n = totals.requests[k];
    if (n == 0) continue;
    const double request_us = totals.request_us[k];
    double covered = 0.0;
    std::printf("  %s: %zu requests, %.3f us each\n",
                RequestKindName(static_cast<RequestKind>(k)), n,
                request_us / static_cast<double>(n));
    for (size_t l = 1; l < kNumLayers; ++l) {
      const double self_us = totals.self_us[k][l];
      if (self_us == 0.0) continue;
      covered += self_us;
      std::printf("    %-24s %12.3f us %6.2f%%\n",
                  LayerName(static_cast<Layer>(l)),
                  self_us / static_cast<double>(n),
                  100.0 * Ratio(self_us, request_us));
    }
    const double uncovered = totals.self_us[k][0];
    std::printf("    %-24s %12.3f us %6.2f%%  (layers %.2f%% + uncovered = "
                "%.2f%%)\n",
                "uncovered", uncovered / static_cast<double>(n),
                100.0 * Ratio(uncovered, request_us),
                100.0 * Ratio(covered, request_us),
                100.0 * Ratio(covered + uncovered, request_us));
    all_us += request_us;
    uncovered_us += uncovered;
  }
  return 100.0 * Ratio(uncovered_us, all_us);
}

/// HTTP latency minus traced in-process pipeline latency, per kind (medians),
/// printed; returns the mean over kinds weighted by HTTP request counts.
double TransportUs(const HttpPhase& http, const LayerTotals& traced) {
  double weighted = 0.0;
  double weight = 0.0;
  std::printf("transport (HTTP median minus traced pipeline median)\n");
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    const std::vector<double> latencies =
        http.LatenciesOf(static_cast<RequestKind>(k));
    if (latencies.empty() || traced.request_samples_us[k].empty()) continue;
    const double http_us = Median(latencies) * 1e3;
    const double pipeline_us = Median(traced.request_samples_us[k]);
    const double n = static_cast<double>(latencies.size());
    std::printf("  %-12s http %.3f us - pipeline %.3f us = %.3f us\n",
                RequestKindName(static_cast<RequestKind>(k)), http_us,
                pipeline_us, http_us - pipeline_us);
    weighted += n * (http_us - pipeline_us);
    weight += n;
  }
  return Ratio(weighted, weight);
}

/// Spans on versus spans off: mean in-process request time, with the kinds
/// weighted alike on both sides so a shifted mix does not read as overhead.
double TraceOverheadPct(const LayerTotals& on, const LayerTotals& off) {
  double on_us = 0.0;
  double off_us = 0.0;
  double weights = 0.0;
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    if (on.requests[k] == 0 || off.requests[k] == 0) continue;
    const double weight = static_cast<double>(on.requests[k]);
    on_us += weight * on.request_us[k] / static_cast<double>(on.requests[k]);
    off_us += weight * off.request_us[k] / static_cast<double>(off.requests[k]);
    weights += weight;
  }
  std::printf("tracing overhead: %.3f us per request with spans, %.3f us "
              "without\n",
              Ratio(on_us, weights), Ratio(off_us, weights));
  return 100.0 * (Ratio(on_us, off_us) - 1.0);
}

/// Direct calls of the load path's public functions (append_mix, whose
/// set-up reaches them only inside DatasetRegistry::Acquire).
Status TimeLoadPath(const Inputs& inputs, std::vector<double>* csv_read_s,
                    std::vector<double>* snapshot_load_s) {
  for (size_t rep = 0; rep < kLoadReps; ++rep) {
    foresight::WallTimer timer;
    FORESIGHT_ASSIGN_OR_RETURN(foresight::DataTable table,
                               foresight::CsvReader::ReadFile(inputs.csv_path));
    csv_read_s->push_back(timer.ElapsedSeconds());
    timer.Restart();
    FORESIGHT_ASSIGN_OR_RETURN(
        foresight::TableProfile profile,
        foresight::LoadProfileSnapshotFile(table, inputs.snapshot_path));
    snapshot_load_s->push_back(timer.ElapsedSeconds());
  }
  return Status::OK();
}

struct TracedRun {
  ReplayPhase traced;
  ReplayPhase plain;
  std::vector<double> csv_read_s;
  std::vector<double> snapshot_load_s;
};

StatusOr<TracedRun> RunTraced(const RunOptions& options, const Inputs& inputs,
                              const Deployment& live,
                              const std::vector<ConnectionScript>& scripts,
                              const std::vector<const ScriptedRequest*>& warm_up) {
  TracedRun run;
  for (bool spans : {true, false}) {
    FORESIGHT_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> state,
                               ReplayState(options, inputs, live));
    ReplayTarget target;
    target.session = &state->serving_session();
    target.registry = state->registry.get();
    target.options = live.options;
    (spans ? run.traced : run.plain) =
        RunReplay(target, scripts, warm_up, options.seconds, spans);
  }
  if (!inputs.snapshot_path.empty()) {
    FORESIGHT_RETURN_IF_ERROR(
        TimeLoadPath(inputs, &run.csv_read_s, &run.snapshot_load_s));
  }
  return run;
}

std::vector<Metric> PerLayerMetrics(const Inputs& inputs,
                                    const std::vector<SetupTiming>& setups,
                                    const HttpPhase& http, const Scrape& before,
                                    const Scrape& after, const TracedRun& run) {
  const LayerTotals& totals = run.traced.totals;
  const bool registry = !inputs.snapshot_path.empty();
  const double csv_read_s =
      registry ? Median(run.csv_read_s)
               : MedianOf(setups, [](const SetupTiming& t) { return t.csv_read_s; });
  const double preprocess_s =
      registry ? inputs.snapshot_preprocess_s
               : MedianOf(setups, [](const SetupTiming& t) { return t.preprocess_s; });
  const double registry_load_ms =
      registry ? 1e3 * MedianOf(setups, [](const SetupTiming& t) {
                   return t.registry_load_s;
                 })
               : 0.0;
  const double hits = after.Delta(before, "query_cache.hits_total");
  const double misses = after.Delta(before, "query_cache.misses_total");
  size_t merged = 0;
  double append_rows = 0.0;
  double append_ms = 0.0;
  std::vector<double> append_latencies;
  for (const AppendRecord& record : run.traced.appends) {
    merged += record.delta_merged ? 1 : 0;
    append_rows += static_cast<double>(record.rows_appended);
    append_ms += record.ms;
    append_latencies.push_back(record.ms);
  }

  std::vector<Metric> metrics = {
      {"data.csv_read_s", csv_read_s, "s"},
      {"data.csv_mb_per_s", Ratio(inputs.csv_bytes / 1e6, csv_read_s), "MB/s"},
      {"core.preprocess_s", preprocess_s, "s"},
      {"sketch.panel_hit_ratio",
       Ratio(after.Value("panel_cache.hits_total"),
             after.Value("panel_cache.acquires_total")),
       "ratio"},
      {"core.registry_load_ms", registry_load_ms, "ms"},
      {"core.snapshot_load_ms", 1e3 * Median(run.snapshot_load_s), "ms"},
      {"core.profile_bytes", after.Value("engine.profile_bytes"), "bytes"},
      {"core.cache_bytes", after.Value("query_cache.bytes"), "bytes"},
      {"serve.http_parse_us", LayerMedianUs(totals, Layer::kHttpParse), "us"},
      {"serve.wire_decode_us", LayerMedianUs(totals, Layer::kWireDecode), "us"},
      {"serve.wire_encode_us", LayerMedianUs(totals, Layer::kWireEncode), "us"},
      {"serve.response_bytes",
       Ratio(run.traced.response_bytes,
             static_cast<double>(run.traced.responses)),
       "bytes"},
      {"serve.transport_us", TransportUs(http, totals), "us"},
      {"serve.server_latency_ms",
       after.HistogramQuantile(before, "serve.query_latency_ms", 0.5), "ms"},
      {"serve.queue_rejections",
       after.Delta(before, "serve.queue_rejections_total"), "count"},
      {"core.session_execute_us", LayerMedianUs(totals, Layer::kSessionExecute),
       "us"},
      {"core.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"core.cache_invalidations",
       after.Delta(before, "query_cache.invalidations_total"), "count"},
      {"core.cache_evictions", after.Delta(before, "query_cache.evictions_total"),
       "count"},
      {"core.registry_acquire_us",
       LayerMedianUs(totals, Layer::kRegistryAcquire), "us"},
      {"core.lock_wait_us", LayerMedianUs(totals, Layer::kLockWait), "us"},
      {"core.engine.resolve_us", LayerMedianUs(totals, Layer::kEngineResolve),
       "us"},
      {"core.engine.enumerate_us",
       LayerMedianUs(totals, Layer::kEngineEnumerate), "us"},
      {"core.engine.evaluate_us", LayerMedianUs(totals, Layer::kEngineEvaluate),
       "us"},
      {"core.engine.assemble_us", LayerMedianUs(totals, Layer::kEngineAssemble),
       "us"},
      {"core.candidates_per_query",
       Ratio(run.traced.missed_candidates,
             static_cast<double>(run.traced.missed_results)),
       "count"},
      {"core.prune_refined_ratio",
       Ratio(static_cast<double>(run.traced.prune_refined),
             static_cast<double>(run.traced.prune_total)),
       "ratio"},
      {"core.overview_ms", LayerMedianUs(totals, Layer::kOverview) / 1e3, "ms"},
      {"util.pool_tasks_per_request",
       Ratio(after.Delta(before, "thread_pool.tasks_executed_total"),
             static_cast<double>(http.attempted)),
       "count"},
      {"core.append_ms", Median(append_latencies), "ms"},
      {"core.append_merged_ratio",
       Ratio(static_cast<double>(merged),
             static_cast<double>(run.traced.appends.size())),
       "ratio"},
      {"core.append_rows_per_s", Ratio(append_rows * 1e3, append_ms), "1/s"},
  };
  metrics.push_back({"bench.uncovered_pct", PrintCoverage(totals), "%"});
  metrics.push_back(
      {"bench.trace_overhead_pct",
       TraceOverheadPct(run.traced.totals, run.plain.totals), "%"});
  return metrics;
}

/// Set-up timings as one line of DIR/setups.jsonl.
std::string SetupLine(const SetupTiming& timing) {
  JsonValue line = JsonValue::Object();
  line.Set("setup_s", timing.setup_s);
  line.Set("csv_read_s", timing.csv_read_s);
  line.Set("preprocess_s", timing.preprocess_s);
  line.Set("registry_load_s", timing.registry_load_s);
  return line.Dump();
}

std::string SetupsPath(const RunOptions& options) {
  return options.work_dir + "/setups.jsonl";
}

/// The set-ups recorded by earlier `--phase setup` processes, if any.
StatusOr<std::vector<SetupTiming>> ReadSetups(const RunOptions& options) {
  std::vector<SetupTiming> setups;
  std::ifstream in(SetupsPath(options));
  std::string text;
  while (std::getline(in, text)) {
    FORESIGHT_ASSIGN_OR_RETURN(JsonValue line, JsonValue::Parse(text));
    auto field = [&line](const char* name) {
      const JsonValue* value = line.Get(name);
      return value != nullptr && value->is_number() ? value->as_number() : 0.0;
    };
    setups.push_back({field("setup_s"), field("csv_read_s"),
                      field("preprocess_s"), field("registry_load_s")});
  }
  return setups;
}

/// `--phase setup`: one set-up from nothing resident, recorded and torn down.
int RecordSetup(const RunOptions& options, const Inputs& inputs) {
  SetupTiming timing;
  StatusOr<std::unique_ptr<Deployment>> deployment =
      SetUp(options, inputs, &timing);
  if (!deployment.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  (*deployment)->server->Stop();
  std::ofstream out(SetupsPath(options), std::ios::app);
  out << SetupLine(timing) << "\n";
  out.close();
  std::printf("%s\n", SetupLine(timing).c_str());
  return out ? 0 : 1;
}

int Run(const Args& args) {
  const RunOptions& options = args.run;
  JsonValue environment = foresight::BenchEnvironmentJson(options.connections);
  const std::string build_type = environment.Get("build_type")->as_string();
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "refusing to report numbers from a %s build; configure "
                 "perfbench with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  };

  if (args.phase == "generate") {
    const Status generated = GenerateInputs(options);
    return generated.ok() ? 0 : fail(generated);
  }
  StatusOr<Inputs> inputs = LoadInputs(options);
  if (!inputs.ok()) return fail(inputs.status());
  if (args.phase == "setup") return RecordSetup(options, *inputs);

  // This process's set-up is its first, from nothing resident, like each
  // recorded one; setup_s is the median over all of them.
  SetupTiming own_setup;
  StatusOr<std::unique_ptr<Deployment>> deployment =
      SetUp(options, *inputs, &own_setup);
  if (!deployment.ok()) return fail(deployment.status());
  std::unique_ptr<Deployment> live = std::move(*deployment);
  StatusOr<std::vector<SetupTiming>> setups = ReadSetups(options);
  if (!setups.ok()) return fail(setups.status());
  setups->push_back(own_setup);

  environment.Set("workload", options.workload);
  environment.Set("trace", options.trace);
  environment.Set("parameters", inputs->parameters);
  std::printf("perfbench %s seed=%llu trace=%d\nenvironment %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, environment.Dump().c_str());
  std::printf("set-ups: %zu, setup_s", setups->size());
  for (const SetupTiming& timing : *setups) std::printf(" %.4f", timing.setup_s);
  std::printf("\n");

  const std::vector<ConnectionScript> scripts = BuildScripts(options, *inputs);
  const std::vector<const ScriptedRequest*> warm_up = WarmUpSet(options, scripts);
  const uint16_t port = live->server->port();
  if (Status s = WarmUp(port, warm_up); !s.ok()) return fail(s);

  StatusOr<Scrape> before = ScrapeMetrics(port);
  if (!before.ok()) return fail(before.status());
  HttpPhase http = RunHttpPhase(port, scripts, options.seconds);
  StatusOr<Scrape> after = ScrapeMetrics(port);
  if (!after.ok()) return fail(after.status());
  std::vector<ScriptedRequest> probe_storage;
  auto probes = CollectProbes(options, *inputs, *live, &http, &probe_storage);
  if (!probes.ok()) return fail(probes.status());
  const double peak_rss_mb = PeakRssMb();
  live->server->Stop();

  std::vector<Metric> metrics;
  size_t attempted = http.attempted;
  size_t failed = http.failed;
  if (!options.trace) {
    metrics = EndToEndMetrics(http, *setups, peak_rss_mb);
  } else {
    StatusOr<TracedRun> run =
        RunTraced(options, *inputs, *live, scripts, warm_up);
    if (!run.ok()) return fail(run.status());
    metrics = PerLayerMetrics(*inputs, *setups, http, *before, *after, *run);
    attempted += run->traced.attempted + run->plain.attempted;
    failed += run->traced.failed + run->plain.failed;
    const std::string span_path = args.out_dir + "/spans-" + options.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  ".csv";
    if (Status s = WriteSpans(span_path, run->traced.logs); !s.ok()) {
      return fail(s);
    }
    std::printf("spans: %s\n", span_path.c_str());
  }

  StatusOr<GateResult> gate =
      VerifyProbes(options, *inputs, *probes, http.appends);
  if (!gate.ok()) return fail(gate.status());
  attempted += gate->checked;
  failed += gate->mismatches;
  std::printf("correctness gate: %zu of %zu wire results identical to the "
              "reference engine\n",
              gate->checked - gate->mismatches, gate->checked);
  if (gate->mismatches > 0) {
    std::printf("  first mismatch: %s\n", gate->first_mismatch.c_str());
  }

  PrintHttpDetails(http, gate->mismatches);
  PrintCounters(*before, *after);
  std::printf("%s metrics\n", options.trace ? "per-layer" : "end-to-end");
  for (const Metric& metric : metrics) PrintMetric(metric);
  const bool correct = failed == 0 && gate->checked > 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return gate->mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  foresight::StatusOr<perfbench::Args> args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(*args);
}
