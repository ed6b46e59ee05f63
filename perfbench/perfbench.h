// Shared types of the serving benchmark (see perfbench/README.md).
//
// A workload is a set of per-connection request scripts generated from a
// seed. The same scripts drive two measurements: a closed loop of HTTP
// clients against a real HttpServer over loopback (end-to-end metrics), and
// an in-process replay that calls each layer's public function in the order
// the server does, with a span around every call (per-layer metrics).

#ifndef FORESIGHT_PERFBENCH_PERFBENCH_H_
#define FORESIGHT_PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query.h"

namespace perfbench {

/// The request kinds the workloads send, one per served route.
enum class RequestKind : uint8_t { kQuery, kBatch, kOverview, kAppend };
inline constexpr size_t kNumRequestKinds = 4;

/// Route-style name: "query", "query_batch", "overview", "append".
const char* RequestKindName(RequestKind kind);

/// True for the kinds the query latency percentiles cover.
inline bool IsQueryKind(RequestKind kind) { return kind != RequestKind::kAppend; }

/// One scripted request: the exact bytes sent over the socket (and replayed
/// into ParseRequest by the traced run), plus the decoded intent the
/// correctness gate re-executes on an independent engine.
struct ScriptedRequest {
  RequestKind kind = RequestKind::kQuery;
  std::string raw;
  /// kQuery: one query; kBatch: the batch members in order.
  std::vector<foresight::InsightQuery> queries;
  /// kOverview: class and options.
  std::string overview_class;
  foresight::PairwiseOverviewOptions overview;
  /// The gate compares this request's wire `result` with a reference engine.
  bool gate_sample = false;
  /// When >= 0, the request is due this many ms after the phase starts:
  /// the connection waits until then, and latency counts from the due time
  /// (an open-loop schedule, so a stalled writer shows as lateness).
  double due_ms = -1.0;
};

/// One client connection's closed-loop script. Requests run in order; after
/// the last one, replay resumes at `cycle_from` (appends sit before it, so a
/// long run never re-sends a batch).
struct ConnectionScript {
  std::vector<ScriptedRequest> requests;
  size_t cycle_from = 0;

  const ScriptedRequest& at(size_t i) const {
    if (i < requests.size()) return requests[i];
    const size_t period = requests.size() - cycle_from;
    return requests[cycle_from + (i - requests.size()) % period];
  }
};

/// What one POST /v1/append did, as the response (or in-process call)
/// reported it.
struct AppendRecord {
  size_t rows_appended = 0;
  size_t num_rows = 0;
  bool delta_merged = false;
  double ms = 0.0;
};

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Median(std::vector<double> values) { return Quantile(values, 0.5); }

}  // namespace perfbench

#endif  // FORESIGHT_PERFBENCH_PERFBENCH_H_
