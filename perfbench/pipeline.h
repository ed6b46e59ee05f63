// The two ways a workload's scripts are driven: a closed loop of HTTP
// clients against a running HttpServer, and an in-process replay of the
// server's request pipeline with a span around each layer call.

#ifndef FORESIGHT_PERFBENCH_PIPELINE_H_
#define FORESIGHT_PERFBENCH_PIPELINE_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset_registry.h"
#include "core/session.h"
#include "perfbench.h"
#include "serve/server.h"
#include "spans.h"
#include "util/status.h"

namespace perfbench {

/// Result of one closed-loop HTTP phase.
struct HttpPhase {
  double elapsed_s = 0.0;
  size_t attempted = 0;
  /// Non-2xx answers (503 included) and transport errors.
  size_t failed = 0;
  size_t rejected_503 = 0;
  std::array<size_t, kNumRequestKinds> failures{};
  /// Connections that got through their whole script and replayed it.
  size_t replayed_scripts = 0;
  /// Every request that got an answer or failed: when it ended (seconds
  /// after the phase started), its client-observed latency and outcome.
  /// Compact, since the samples live in the measured process and count in
  /// its peak RSS.
  struct Sample {
    float end_s = 0.0f;
    float ms = 0.0f;
    RequestKind kind = RequestKind::kQuery;
    bool ok = false;
  };
  std::vector<Sample> samples;

  /// Latencies of the successful requests of one kind.
  std::vector<double> LatenciesOf(RequestKind kind) const;
  /// Response body of the first answer to each gate-sampled request.
  std::vector<std::pair<const ScriptedRequest*, std::string>> gate_bodies;
  /// Appends of the writing connection, in order.
  std::vector<AppendRecord> appends;
};

/// Runs one connection per script against 127.0.0.1:`port` for `seconds`.
/// A request in flight at the deadline completes and counts.
HttpPhase RunHttpPhase(uint16_t port, const std::vector<ConnectionScript>& scripts,
                       double seconds);

/// Sends each request once, in order, on one connection (cache warm-up).
foresight::Status WarmUp(uint16_t port,
                         const std::vector<const ScriptedRequest*>& requests);

/// One request over HTTP on a fresh connection; the body of a 200 answer.
foresight::StatusOr<std::string> FetchOnce(uint16_t port,
                                           const std::string& raw);

/// What the in-process replay routes to: the objects an HttpServer built
/// with the same options would route to.
struct ReplayTarget {
  const foresight::QuerySession* session = nullptr;
  foresight::DatasetRegistry* registry = nullptr;
  foresight::HttpServerOptions options;
};

/// Result of one in-process replay phase.
struct ReplayPhase {
  double elapsed_s = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  LayerTotals totals;
  std::vector<SpanLog> logs;
  std::vector<AppendRecord> appends;
  double response_bytes = 0.0;  ///< Sum over answered requests.
  size_t responses = 0;
  /// Cache-missed query results: count and candidates they evaluated.
  size_t missed_results = 0;
  double missed_candidates = 0.0;
  /// PruneTelemetry sums over results and overviews where the planner ran.
  size_t prune_refined = 0;
  size_t prune_total = 0;
};

/// Replays the scripts for `seconds` with one thread per script, calling
/// ParseRequest, the wire codecs, DatasetRegistry, QuerySession / engine and
/// the encoders in the server's order. With `spans` false only each
/// request's total time is taken (the tracing-overhead baseline).
/// `warm_up` runs first, once, untimed.
ReplayPhase RunReplay(const ReplayTarget& target,
                      const std::vector<ConnectionScript>& scripts,
                      const std::vector<const ScriptedRequest*>& warm_up,
                      double seconds, bool spans);

}  // namespace perfbench

#endif  // FORESIGHT_PERFBENCH_PIPELINE_H_
