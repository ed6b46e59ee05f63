// The three workloads: their generated inputs, request scripts, set-up, the
// state an in-process replay starts from, and their correctness gates.
//
//   explore       MakeBenchmarkTable(100000, 90, 10) as CSV on the default
//                 session; seeded analyst sessions (the paper's §4.1
//                 scenario) over fresh focus pairs, so most queries are
//                 distinct (engine, sketch and stats work dominates).
//   carousel_hot  MakeParkinsonLike(2000) as CSV; the same sessions over a
//                 few fixed focus pairs, cache-hot after warm-up (serve
//                 layers dominate).
//   append_mix    MakeBenchmarkTable(20000, 28, 4) as <id>.csv + <id>.fsnap
//                 behind a DatasetRegistry; one connection appends 50-row
//                 batches between its own queries while the others read.

#ifndef FORESIGHT_PERFBENCH_WORKLOADS_H_
#define FORESIGHT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/session.h"
#include "data/table.h"
#include "perfbench.h"
#include "pipeline.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/status.h"

namespace perfbench {

/// Names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run's inputs and span file.
  std::string work_dir;
  /// Closed-loop client connections (and replay threads).
  size_t connections = 2;
};

/// Generated inputs of one run.
struct Inputs {
  std::string csv_path;
  double csv_bytes = 0.0;
  /// Numeric column names, which the scripts draw attributes from.
  std::vector<std::string> numeric_columns;
  /// append_mix: the dataset id, its snapshot, and the pool appended rows
  /// are drawn from, in order (batch b is the b-th run of 50 rows).
  std::string dataset;
  std::string snapshot_path;
  std::unique_ptr<foresight::DataTable> append_pool;
  /// Seconds of the InsightEngine::Create that built the snapshot
  /// (append_mix only; the other workloads time Create in every set-up).
  double snapshot_preprocess_s = 0.0;
  /// Workload parameters, recorded with every result.
  foresight::JsonValue parameters = foresight::JsonValue::Object();
};

/// Timings of one set-up, from nothing resident to a started server.
struct SetupTiming {
  double setup_s = 0.0;
  double csv_read_s = 0.0;      ///< CsvReader::ReadFile (default session).
  double preprocess_s = 0.0;    ///< InsightEngine::Create (default session).
  double registry_load_s = 0.0; ///< First DatasetRegistry::Acquire.
};

/// The serving objects of one set-up, held by unique_ptr and never moved:
/// members are destroyed in reverse order, so the server stops before
/// anything it serves goes away.
struct Deployment {
  std::unique_ptr<foresight::DataTable> table;
  std::unique_ptr<foresight::InsightEngine> engine;
  std::unique_ptr<foresight::DatasetRegistry> registry;
  std::shared_ptr<const foresight::ResidentDataset> pin;
  std::unique_ptr<foresight::QuerySession> session;
  foresight::HttpServerOptions options;
  std::unique_ptr<foresight::HttpServer> server;

  const foresight::QuerySession& serving_session() const {
    return pin != nullptr ? pin->session() : *session;
  }
};

/// Writes the workload's input files under options.work_dir, with a
/// manifest (inputs.json) that LoadInputs reads. Runs in a process of its
/// own, so the measured process never holds the generator's tables.
foresight::Status GenerateInputs(const RunOptions& options);

/// The inputs GenerateInputs wrote for the same options.
foresight::StatusOr<Inputs> LoadInputs(const RunOptions& options);

/// One closed-loop script per connection, from options.seed.
std::vector<ConnectionScript> BuildScripts(const RunOptions& options,
                                           const Inputs& inputs);

/// The requests sent once before measuring (empty for explore, whose
/// users pay cold costs).
std::vector<const ScriptedRequest*> WarmUpSet(
    const RunOptions& options, const std::vector<ConnectionScript>& scripts);

/// One set-up: load the inputs and start an HttpServer on an ephemeral port.
foresight::StatusOr<std::unique_ptr<Deployment>> SetUp(
    const RunOptions& options, const Inputs& inputs, SetupTiming* timing);

/// Fresh serving state for an in-process replay, equal to what a set-up
/// starts from: a new QuerySession over the live engine (default session),
/// or a new DatasetRegistry loading the same files. No server is started.
foresight::StatusOr<std::unique_ptr<Deployment>> ReplayState(
    const RunOptions& options, const Inputs& inputs, const Deployment& live);

/// Outcome of a correctness gate.
struct GateResult {
  size_t checked = 0;
  size_t mismatches = 0;
  std::string first_mismatch;
};

/// Requests whose answers the gate compares after the run. explore and
/// carousel_hot use the sampled bodies of the HTTP phase; append_mix probes
/// the grown dataset here, before the server stops.
foresight::StatusOr<std::vector<std::pair<const ScriptedRequest*, std::string>>>
CollectProbes(const RunOptions& options, const Inputs& inputs,
              const Deployment& live, HttpPhase* phase,
              std::vector<ScriptedRequest>* probe_storage);

/// Compares each (request, wire body) with WireResultV1 of an independent
/// engine: built from a fresh parse of the CSV, or for append_mix from a
/// from-scratch rebuild of the final table (base rows plus every appended
/// batch, partition boundaries replaying the append history).
foresight::StatusOr<GateResult> VerifyProbes(
    const RunOptions& options, const Inputs& inputs,
    const std::vector<std::pair<const ScriptedRequest*, std::string>>& probes,
    const std::vector<AppendRecord>& appends);

}  // namespace perfbench

#endif  // FORESIGHT_PERFBENCH_WORKLOADS_H_
