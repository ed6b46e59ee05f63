#ifndef FORESIGHT_SERVE_WIRE_H_
#define FORESIGHT_SERVE_WIRE_H_

#include <span>
#include <string>
#include <vector>

#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/query.h"
#include "util/json.h"
#include "util/status.h"

namespace foresight {

/// The wire API version these encoders speak. Responses carry it as
/// "api_version"; new shapes mean a new version constant and new paths, never
/// silent changes to v1.
inline constexpr int kWireApiVersion = 1;

/// Maps an engine Status to the HTTP status code of the v1 error response:
/// caller errors (InvalidArgument / ParseError / OutOfRange) → 400, unknown
/// class or metric (NotFound) → 404, FailedPrecondition / AlreadyExists →
/// 409, Unimplemented → 501, everything else → 500.
int HttpStatusForStatus(const Status& status);

/// v1 error body: {"api_version": 1, "error": {"code": "InvalidArgument",
/// "message": "..."}}.
JsonValue WireErrorV1(const Status& status);

/// The DETERMINISTIC half of a v1 query response: ranked insights plus the
/// run-count telemetry that is a pure function of (query, table, profile).
/// Serving-dependent fields (latency, cache hit/shard, trace) are encoded
/// separately by WireTelemetryV1 so clients — and the bench's bit-identity
/// gate — can compare `result` across transports byte-for-byte.
JsonValue WireResultV1(const InsightQueryResult& result);

/// The serving-dependent half: elapsed_ms, mode_used, cache_hit, cache_shard,
/// and prune-planner telemetry.
JsonValue WireTelemetryV1(const InsightQueryResult& result);

/// Full v1 response envelope for POST /v1/query:
/// {"api_version": 1, "result": WireResultV1, "telemetry": WireTelemetryV1}.
JsonValue WireQueryResponseV1(const InsightQueryResult& result);

/// Full v1 response envelope for POST /v1/query_batch:
/// {"api_version": 1, "results": [WireResultV1...],
///  "telemetry": [WireTelemetryV1...]} with positions matching the request.
JsonValue WireBatchResponseV1(std::span<const InsightQueryResult> results);

/// Deterministic v1 encoding of a pairwise overview (GET /v1/overview/...):
/// {"api_version": 1, "result": {class, metric, attributes, matrix (row-major
/// d*d), provenance, cell_provenance?}, "telemetry": {prune}}.
JsonValue WireOverviewResponseV1(const CorrelationOverview& overview);

/// v1 response for GET /v1/datasets:
/// {"api_version": 1,
///  "datasets": [{"id", "resident", "has_snapshot", "resident_bytes"}...]
///  (ascending id order),
///  "registry": {"resident_bytes", "memory_budget_bytes" (0 = unlimited),
///               "resident_datasets", "total_datasets"}}.
JsonValue WireDatasetsResponseV1(const std::vector<DatasetEntryInfo>& entries,
                                 const DatasetRegistryStats& stats,
                                 size_t memory_budget_bytes);

/// v1 response for POST /v1/append:
/// {"api_version": 1,
///  "append": {"dataset" (the registry dataset id), "rows_before",
///             "rows_appended", "num_rows", "delta_merged" (false = the
///             engine fell back to a full re-preprocess), "serving_epoch"}}.
JsonValue WireAppendResponseV1(const std::string& dataset,
                               const DatasetAppendOutcome& outcome);

/// Decodes the body of POST /v1/append into a delta table with exactly the
/// columns of `table` (names, types, order): {"rows": [[cell...]...]} where
/// each row array has one cell per column — number-or-null for numeric
/// columns, string-or-null for categorical. Strict: unknown envelope fields,
/// a missing/empty/oversized (> `max_rows`) rows array, row arrays of the
/// wrong width, and wrongly typed cells are all InvalidArgument.
StatusOr<DataTable> ParseAppendRowsV1(const JsonValue& json,
                                      const DataTable& table,
                                      size_t max_rows);

/// Decodes the body of POST /v1/query_batch:
/// {"queries": [InsightQuery::FromJson...]} — strict like FromJson (unknown
/// envelope fields rejected), and bounded: more than `max_queries` entries is
/// InvalidArgument (the admission queue bounds requests, this bounds the
/// work hidden inside one).
StatusOr<std::vector<InsightQuery>> ParseQueryBatchV1(const JsonValue& json,
                                                      size_t max_queries);

}  // namespace foresight

#endif  // FORESIGHT_SERVE_WIRE_H_
