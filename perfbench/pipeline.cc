#include "pipeline.h"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <span>
#include <string_view>
#include <thread>

#include "serve/http.h"
#include "serve/http_client.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/sync.h"

namespace perfbench {

using foresight::ClientResponse;
using foresight::HttpClient;
using foresight::InsightQueryResult;
using foresight::JsonValue;
using foresight::Status;
using foresight::StatusOr;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::string_view kOverviewPrefix = "/v1/overview/";
/// Raw spans kept per replay thread for the span file.
constexpr size_t kKeptRequestsPerThread = 1000;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

StatusOr<AppendRecord> ParseAppendRecord(const std::string& body) {
  FORESIGHT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(body));
  const JsonValue* append = json.Get("append");
  if (append == nullptr || !append->is_object()) {
    return Status::ParseError("append response without an 'append' object");
  }
  const JsonValue* rows = append->Get("rows_appended");
  const JsonValue* num_rows = append->Get("num_rows");
  const JsonValue* merged = append->Get("delta_merged");
  if (rows == nullptr || num_rows == nullptr || merged == nullptr) {
    return Status::ParseError("append response is missing fields");
  }
  AppendRecord record;
  record.rows_appended = static_cast<size_t>(rows->as_number());
  record.num_rows = static_cast<size_t>(num_rows->as_number());
  record.delta_merged = merged->as_bool();
  return record;
}

/// Waits until a scheduled request is due; returns the time its latency
/// counts from (now, for unscheduled requests).
Clock::time_point WaitUntilDue(const ScriptedRequest& request,
                               Clock::time_point phase_start) {
  if (request.due_ms < 0.0) return Clock::now();
  const Clock::time_point due =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(request.due_ms));
  std::this_thread::sleep_until(due);
  return due;
}

struct ConnectionResult {
  size_t attempted = 0;
  size_t rejected_503 = 0;
  std::array<size_t, kNumRequestKinds> failures{};
  std::vector<HttpPhase::Sample> samples;
  std::vector<std::pair<const ScriptedRequest*, std::string>> gate_bodies;
  std::vector<AppendRecord> appends;
};

void DriveConnection(uint16_t port, const ConnectionScript& script,
                     Clock::time_point start_time, Clock::time_point deadline,
                     ConnectionResult* out) {
  HttpClient client;
  for (size_t i = 0; Clock::now() < deadline; ++i) {
    const ScriptedRequest& request = script.at(i);
    const size_t kind = static_cast<size_t>(request.kind);
    const Clock::time_point start = WaitUntilDue(request, start_time);
    if (start >= deadline) break;
    ++out->attempted;
    if (!client.connected() && !client.Connect(port).ok()) {
      ++out->failures[kind];
      return;
    }
    const Status sent = client.SendRaw(request.raw);
    StatusOr<ClientResponse> response =
        sent.ok() ? client.ReadResponse() : StatusOr<ClientResponse>(sent);
    const double ms = MillisSince(start);
    HttpPhase::Sample& sample = out->samples.emplace_back();
    sample.end_s = static_cast<float>(MillisSince(start_time) / 1e3);
    sample.ms = static_cast<float>(ms);
    sample.kind = request.kind;
    if (!response.ok() || response->status != 200) {
      ++out->failures[kind];
      if (response.ok() && response->status == 503) ++out->rejected_503;
      continue;
    }
    if (request.kind == RequestKind::kAppend) {
      StatusOr<AppendRecord> record = ParseAppendRecord(response->body);
      if (!record.ok()) {
        ++out->failures[kind];
        continue;
      }
      record->ms = ms;
      out->appends.push_back(*record);
    }
    sample.ok = true;
    if (request.gate_sample && i < script.requests.size()) {
      out->gate_bodies.emplace_back(&request, std::move(response->body));
    }
  }
}

std::string EncodeOk(const JsonValue& body) {
  foresight::HttpResponse response;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = body.Dump();
  response.body += '\n';
  return foresight::SerializeResponse(response, /*keep_alive=*/true);
}

/// The overview route's class and query parameters (the server's own
/// parser is private to serve/server.cc; this mirrors its rules).
Status ParseOverviewTarget(std::string_view target, std::string* class_name,
                           foresight::PairwiseOverviewOptions* options,
                           std::string* dataset) {
  const size_t question = target.find('?');
  *class_name = std::string(
      target.substr(kOverviewPrefix.size(), question - kOverviewPrefix.size()));
  std::string_view params = question == std::string_view::npos
                                ? std::string_view{}
                                : target.substr(question + 1);
  while (!params.empty()) {
    const size_t amp = params.find('&');
    const std::string_view pair = params.substr(0, amp);
    params = amp == std::string_view::npos ? std::string_view{}
                                           : params.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("malformed query parameter");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string value(pair.substr(eq + 1));
    if (key == "metric") {
      options->metric = value;
    } else if (key == "mode") {
      FORESIGHT_ASSIGN_OR_RETURN(options->mode,
                                 foresight::ParseExecutionMode(value));
    } else if (key == "refine_min_score") {
      options->refine_min_score = std::strtod(value.c_str(), nullptr);
    } else if (key == "dataset") {
      *dataset = value;
    } else {
      return Status::InvalidArgument("unknown query parameter");
    }
  }
  return Status::OK();
}

/// Per-thread tallies of the replay beyond the spans themselves.
struct ReplayCounters {
  double response_bytes = 0.0;
  size_t responses = 0;
  size_t missed_results = 0;
  double missed_candidates = 0.0;
  size_t prune_refined = 0;
  size_t prune_total = 0;
  std::vector<AppendRecord> appends;

  void AddPrune(const foresight::PruneTelemetry& prune) {
    if (!prune.used) return;
    prune_refined += prune.pairs_refined;
    prune_total += prune.pairs_total;
  }
};

/// Lays the QueryTrace engine stages of the cache-missed results end to end
/// under the session span.
void AddEngineStages(SpanLog& log, int32_t session_span,
                     std::span<const InsightQueryResult> results,
                     ReplayCounters* counters) {
  using foresight::QueryStage;
  constexpr std::pair<QueryStage, Layer> kStages[] = {
      {QueryStage::kResolve, Layer::kEngineResolve},
      {QueryStage::kEnumerate, Layer::kEngineEnumerate},
      {QueryStage::kEvaluate, Layer::kEngineEvaluate},
      {QueryStage::kAssemble, Layer::kEngineAssemble},
  };
  std::array<double, 4> stage_us{};
  bool any_miss = false;
  for (const InsightQueryResult& result : results) {
    if (result.cache_hit) continue;
    counters->AddPrune(result.prune);
    any_miss = true;
    ++counters->missed_results;
    counters->missed_candidates +=
        static_cast<double>(result.candidates_evaluated);
    for (size_t s = 0; s < stage_us.size(); ++s) {
      stage_us[s] += result.trace.stage(kStages[s].first) * 1e3;
    }
  }
  if (!any_miss || session_span < 0) return;
  double cursor = log.start_us(session_span);
  for (size_t s = 0; s < stage_us.size(); ++s) {
    log.AddMeasured(kStages[s].second, session_span, stage_us[s], &cursor);
  }
}

/// One request through the server's pipeline (HttpServer::HandleApi order).
/// Returns the serialized response bytes, or an error for a request the
/// server would have answered with a non-2xx status.
StatusOr<std::string> ServeOne(const ReplayTarget& target,
                               const ScriptedRequest& scripted, SpanLog& log,
                               ReplayCounters* counters) {
  foresight::HttpRequest request;
  {
    ScopedSpan span(log, Layer::kHttpParse);
    const foresight::ParseResult parsed =
        foresight::ParseRequest(scripted.raw, target.options.limits, &request);
    if (parsed.state != foresight::ParseState::kComplete) {
      return Status::ParseError("request did not parse");
    }
  }

  std::string dataset;
  JsonValue body;
  std::string overview_class;
  foresight::PairwiseOverviewOptions overview_options;
  {
    ScopedSpan span(log, Layer::kWireDecode);
    if (scripted.kind == RequestKind::kOverview) {
      FORESIGHT_RETURN_IF_ERROR(ParseOverviewTarget(
          request.target, &overview_class, &overview_options, &dataset));
    } else {
      FORESIGHT_ASSIGN_OR_RETURN(body, JsonValue::Parse(request.body));
      if (const JsonValue* field = body.Get("dataset"); field != nullptr) {
        dataset = field->as_string();
        body.Remove("dataset");
      }
    }
  }

  std::shared_ptr<const foresight::ResidentDataset> pin;
  const foresight::QuerySession* session = target.session;
  if (!dataset.empty()) {
    ScopedSpan span(log, Layer::kRegistryAcquire);
    FORESIGHT_ASSIGN_OR_RETURN(pin, target.registry->Acquire(dataset));
    session = &pin->session();
  }

  if (scripted.kind == RequestKind::kAppend) {
    StatusOr<foresight::DataTable> delta = Status::Internal("unset");
    {
      ScopedSpan span(log, Layer::kWireDecode);
      delta = foresight::ParseAppendRowsV1(body, pin->table(),
                                           target.options.max_append_rows);
    }
    FORESIGHT_RETURN_IF_ERROR(delta.status());
    const Clock::time_point start = Clock::now();
    StatusOr<foresight::DatasetAppendOutcome> outcome =
        Status::Internal("unset");
    {
      ScopedSpan span(log, Layer::kAppend);
      outcome = target.registry->Append(dataset, *delta);
    }
    FORESIGHT_RETURN_IF_ERROR(outcome.status());
    counters->appends.push_back({outcome->rows_appended, outcome->num_rows,
                                 outcome->delta_merged, MillisSince(start)});
    ScopedSpan span(log, Layer::kWireEncode);
    return EncodeOk(foresight::WireAppendResponseV1(dataset, *outcome));
  }

  // The route's own codec, then the shared side of the append/query
  // exclusion, as the server holds it for registry datasets (the default
  // dataset of these workloads is read-only and takes no lock).
  std::optional<foresight::InsightQuery> query;
  std::optional<std::vector<foresight::InsightQuery>> batch;
  if (scripted.kind != RequestKind::kOverview) {
    ScopedSpan span(log, Layer::kWireDecode);
    if (scripted.kind == RequestKind::kBatch) {
      FORESIGHT_ASSIGN_OR_RETURN(
          batch, foresight::ParseQueryBatchV1(
                     body, target.options.max_batch_queries));
    } else {
      FORESIGHT_ASSIGN_OR_RETURN(query,
                                 foresight::InsightQuery::FromJson(body));
    }
  }
  std::optional<foresight::ReaderLockMaybe> guard;
  if (pin != nullptr) {
    ScopedSpan span(log, Layer::kLockWait);
    guard.emplace(&pin->data_mutex());
  }

  if (scripted.kind == RequestKind::kOverview) {
    StatusOr<foresight::CorrelationOverview> overview =
        Status::Internal("unset");
    {
      ScopedSpan span(log, Layer::kOverview);
      overview = session->engine().ComputePairwiseOverview(overview_class,
                                                           overview_options);
    }
    FORESIGHT_RETURN_IF_ERROR(overview.status());
    counters->AddPrune(overview->prune);
    ScopedSpan span(log, Layer::kWireEncode);
    return EncodeOk(foresight::WireOverviewResponseV1(*overview));
  }

  if (batch.has_value()) {
    StatusOr<std::vector<InsightQueryResult>> results =
        Status::Internal("unset");
    {
      ScopedSpan span(log, Layer::kSessionExecute);
      results = session->ExecuteBatch(*batch);
      if (results.ok()) AddEngineStages(log, span.index(), *results, counters);
    }
    FORESIGHT_RETURN_IF_ERROR(results.status());
    ScopedSpan span(log, Layer::kWireEncode);
    return EncodeOk(foresight::WireBatchResponseV1(*results));
  }

  StatusOr<InsightQueryResult> result = Status::Internal("unset");
  {
    ScopedSpan span(log, Layer::kSessionExecute);
    result = session->Execute(*query);
    if (result.ok()) {
      AddEngineStages(log, span.index(), std::span(&*result, 1), counters);
    }
  }
  FORESIGHT_RETURN_IF_ERROR(result.status());
  ScopedSpan span(log, Layer::kWireEncode);
  return EncodeOk(foresight::WireQueryResponseV1(*result));
}

}  // namespace

std::vector<double> HttpPhase::LatenciesOf(RequestKind kind) const {
  std::vector<double> latencies;
  for (const Sample& sample : samples) {
    if (sample.ok && sample.kind == kind) {
      latencies.push_back(static_cast<double>(sample.ms));
    }
  }
  return latencies;
}

HttpPhase RunHttpPhase(uint16_t port, const std::vector<ConnectionScript>& scripts,
                       double seconds) {
  std::vector<ConnectionResult> results(scripts.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < scripts.size(); ++c) {
      threads.emplace_back(DriveConnection, port, std::cref(scripts[c]),
                           start, deadline, &results[c]);
    }
  }
  HttpPhase phase;
  phase.elapsed_s = MillisSince(start) / 1e3;
  for (size_t c = 0; c < results.size(); ++c) {
    ConnectionResult& result = results[c];
    phase.replayed_scripts += result.attempted > scripts[c].requests.size();
    phase.attempted += result.attempted;
    phase.rejected_503 += result.rejected_503;
    for (size_t k = 0; k < kNumRequestKinds; ++k) {
      phase.failures[k] += result.failures[k];
      phase.failed += result.failures[k];
    }
    phase.samples.insert(phase.samples.end(), result.samples.begin(),
                         result.samples.end());
    for (auto& entry : result.gate_bodies) {
      phase.gate_bodies.push_back(std::move(entry));
    }
    phase.appends.insert(phase.appends.end(), result.appends.begin(),
                         result.appends.end());
  }
  return phase;
}

Status WarmUp(uint16_t port,
              const std::vector<const ScriptedRequest*>& requests) {
  HttpClient client;
  FORESIGHT_RETURN_IF_ERROR(client.Connect(port));
  for (const ScriptedRequest* request : requests) {
    FORESIGHT_RETURN_IF_ERROR(client.SendRaw(request->raw));
    FORESIGHT_ASSIGN_OR_RETURN(ClientResponse response, client.ReadResponse());
    if (response.status != 200) {
      return Status::Internal("warm-up request answered " +
                              std::to_string(response.status) + ": " +
                              response.body);
    }
  }
  return Status::OK();
}

StatusOr<std::string> FetchOnce(uint16_t port, const std::string& raw) {
  HttpClient client;
  FORESIGHT_RETURN_IF_ERROR(client.Connect(port));
  FORESIGHT_RETURN_IF_ERROR(client.SendRaw(raw));
  FORESIGHT_ASSIGN_OR_RETURN(ClientResponse response, client.ReadResponse());
  if (response.status != 200) {
    return Status::Internal("answered " + std::to_string(response.status) +
                            ": " + response.body);
  }
  return std::move(response.body);
}

ReplayPhase RunReplay(const ReplayTarget& target,
                      const std::vector<ConnectionScript>& scripts,
                      const std::vector<const ScriptedRequest*>& warm_up,
                      double seconds, bool spans) {
  {
    SpanLog untimed(/*enabled=*/false, Clock::now(), 0);
    ReplayCounters ignored;
    for (const ScriptedRequest* request : warm_up) {
      untimed.BeginRequest(request->kind);
      (void)ServeOne(target, *request, untimed, &ignored);
      untimed.EndRequest();
    }
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  ReplayPhase phase;
  phase.logs.reserve(scripts.size());
  for (size_t c = 0; c < scripts.size(); ++c) {
    phase.logs.emplace_back(spans, start, kKeptRequestsPerThread);
  }
  std::vector<ReplayCounters> counters(scripts.size());
  std::vector<std::array<size_t, 2>> tallies(scripts.size());  // attempted, failed
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < scripts.size(); ++c) {
      threads.emplace_back([&, c] {
        SpanLog& log = phase.logs[c];
        for (size_t i = 0; Clock::now() < deadline; ++i) {
          const ScriptedRequest& request = scripts[c].at(i);
          if (WaitUntilDue(request, start) >= deadline) break;
          log.BeginRequest(request.kind);
          StatusOr<std::string> bytes =
              ServeOne(target, request, log, &counters[c]);
          log.EndRequest();
          ++tallies[c][0];
          if (!bytes.ok()) {
            ++tallies[c][1];
            continue;
          }
          counters[c].response_bytes += static_cast<double>(bytes->size());
          ++counters[c].responses;
        }
      });
    }
  }
  phase.elapsed_s = MillisSince(start) / 1e3;
  for (size_t c = 0; c < scripts.size(); ++c) {
    phase.attempted += tallies[c][0];
    phase.failed += tallies[c][1];
    phase.totals.Merge(phase.logs[c].totals());
    const ReplayCounters& tally = counters[c];
    phase.response_bytes += tally.response_bytes;
    phase.responses += tally.responses;
    phase.missed_results += tally.missed_results;
    phase.missed_candidates += tally.missed_candidates;
    phase.prune_refined += tally.prune_refined;
    phase.prune_total += tally.prune_total;
    phase.appends.insert(phase.appends.end(), tally.appends.begin(),
                         tally.appends.end());
  }
  return phase;
}

}  // namespace perfbench
