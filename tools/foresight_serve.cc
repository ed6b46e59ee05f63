// foresight_serve: the v1 HTTP/JSON front-end over a QuerySession
// (DESIGN.md "Serve front-end"; README "Serving quick-start").
//
// Usage:
//   foresight_serve [--port=N] [--port-file=PATH] [--csv=PATH | --rows=N]
//                   [--workers=N] [--queue-capacity=N] [--idle-timeout-ms=N]
//                   [--datasets=DIR] [--memory-budget=BYTES]
//                   [--dataset-workers=N] [--max-append-rows=N]
//                   [--no-profile] [--smoke]
//
//   --port=N            Listen port on 127.0.0.1 (default 0 = ephemeral).
//   --port-file=PATH    Write the bound port to PATH once listening — how CI
//                       and scripts find an ephemeral port without racing.
//   --csv=PATH          Serve this CSV table (default: synthetic OECD-like).
//   --rows=N            Synthetic table rows (default 800).
//   --workers=N         Engine worker threads (default 0 = hardware).
//   --queue-capacity=N  Admission queue depth before 503s (default 64).
//   --idle-timeout-ms=N Idle/slowloris connection reaper (default 10000).
//   --datasets=DIR      Multi-dataset mode: every DIR/<id>.csv becomes a
//                       selectable dataset (sibling <id>.fsnap snapshots are
//                       used when present), listed at GET /v1/datasets and
//                       addressed by the optional `dataset` field/parameter
//                       on the API routes. Datasets load lazily on first
//                       use; the default table keeps serving requests that
//                       name no dataset. Registry datasets are the only
//                       mutable ones: POST /v1/append must name one (the
//                       default table is read-only; appends to it get 409).
//   --memory-budget=BYTES  Global budget over resident dataset bytes
//                       (table + profile estimates); least-recently-used
//                       datasets are evicted to admit new ones. 0 (default)
//                       = unlimited.
//   --dataset-workers=N Worker threads per resident dataset engine
//                       (default 1; hundreds of datasets must not spawn
//                       hundreds of hardware-sized pools).
//   --max-append-rows=N Upper bound on rows in one /v1/append body
//                       (default 100000).
//   --no-profile        Skip sketch preprocessing (exact-only serving).
//   --smoke             Start, answer one self-issued /healthz and
//                       /v1/query over a real socket — plus, when --datasets
//                       is set, /v1/datasets, a dataset-selecting query, and
//                       an /v1/append + re-query leg on the first dataset —
//                       then exit 0.
//
// Numeric flags take a plain decimal that must parse in full and fit its
// type; anything else prints the usage line and exits 1. The process runs
// until SIGINT/SIGTERM, then drains admitted requests and exits 0.

#include <charconv>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/session.h"
#include "data/csv.h"
#include "data/generators.h"
#include "serve/http_client.h"
#include "serve/server.h"

namespace foresight {
namespace {

/// SIGINT/SIGTERM handler target: signal-safe flag the main loop watches.
volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: foresight_serve [--port=N] [--port-file=PATH] [--csv=PATH] "
      "[--rows=N]\n"
      "                       [--workers=N] [--queue-capacity=N] "
      "[--idle-timeout-ms=N]\n"
      "                       [--datasets=DIR] [--memory-budget=BYTES]\n"
      "                       [--dataset-workers=N] [--max-append-rows=N]\n"
      "                       [--no-profile] [--smoke]\n");
  return 1;
}

struct Args {
  uint16_t port = 0;
  std::string port_file;
  std::string csv_path;
  std::string datasets_dir;
  size_t rows = 800;
  size_t workers = 0;
  size_t queue_capacity = 64;
  size_t memory_budget = 0;
  size_t dataset_workers = 1;
  uint32_t idle_timeout_ms = 10'000;
  size_t max_append_rows = 100'000;
  bool build_profile = true;
  bool smoke = false;
};

/// Matches `arg` against the numeric flag `prefix` ("--name="). Returns
/// false for any other flag. On a match, parses the value into *out and sets
/// *valid: the value must be a non-empty decimal, consumed in full, that
/// fits T.
template <typename T>
bool ParseNumericFlag(std::string_view arg, std::string_view prefix, T* out,
                      bool* valid) {
  if (arg.substr(0, prefix.size()) != prefix) return false;
  const std::string_view text = arg.substr(prefix.size());
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  *valid = !text.empty() && ec == std::errc() && ptr == end;
  return true;
}

int Smoke(uint16_t port, DatasetRegistry* registry) {
  HttpClient client;
  Status status = client.Connect(port);
  if (!status.ok()) {
    std::fprintf(stderr, "smoke: connect failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  auto health = client.Request("GET", "/healthz");
  if (!health.ok() || health->status != 200) {
    std::fprintf(stderr, "smoke: /healthz failed\n");
    return 1;
  }
  auto query = client.Request(
      "POST", "/v1/query",
      R"({"class": "linear_relationship", "top_k": 3, "mode": "exact"})");
  if (!query.ok() || query->status != 200) {
    std::fprintf(stderr, "smoke: /v1/query failed (%d): %s\n",
                 query.ok() ? query->status : -1,
                 query.ok() ? query->body.c_str()
                            : query.status().ToString().c_str());
    return 1;
  }
  if (registry != nullptr) {
    auto listing = client.Request("GET", "/v1/datasets");
    if (!listing.ok() || listing->status != 200) {
      std::fprintf(stderr, "smoke: /v1/datasets failed\n");
      return 1;
    }
    const std::vector<DatasetEntryInfo> entries = registry->ListEntries();
    if (!entries.empty()) {
      const std::string body =
          R"({"class": "linear_relationship", "top_k": 3, "mode": "exact", )"
          R"("dataset": ")" +
          entries.front().id + R"("})";
      auto routed = client.Request("POST", "/v1/query", body);
      if (!routed.ok() || routed->status != 200) {
        std::fprintf(stderr, "smoke: dataset query failed (%d): %s\n",
                     routed.ok() ? routed->status : -1,
                     routed.ok() ? routed->body.c_str()
                                 : routed.status().ToString().c_str());
        return 1;
      }
      // One all-null row exercises the whole append path (wire decode,
      // table growth, delta merge, epoch bump) against any schema.
      auto dataset = registry->Acquire(entries.front().id);
      if (!dataset.ok()) {
        std::fprintf(stderr, "smoke: acquiring %s failed: %s\n",
                     entries.front().id.c_str(),
                     dataset.status().ToString().c_str());
        return 1;
      }
      std::string append_body = R"({"dataset": ")" + entries.front().id +
                                R"(", "rows": [[)";
      for (size_t c = 0; c < (*dataset)->table().num_columns(); ++c) {
        if (c > 0) append_body += ", ";
        append_body += "null";
      }
      append_body += "]]}";
      auto appended = client.Request("POST", "/v1/append", append_body);
      if (!appended.ok() || appended->status != 200) {
        std::fprintf(stderr, "smoke: /v1/append failed (%d): %s\n",
                     appended.ok() ? appended->status : -1,
                     appended.ok() ? appended->body.c_str()
                                   : appended.status().ToString().c_str());
        return 1;
      }
      auto requery = client.Request("POST", "/v1/query", body);
      if (!requery.ok() || requery->status != 200) {
        std::fprintf(stderr, "smoke: post-append dataset query failed\n");
        return 1;
      }
      std::printf("smoke append ok: %s\n", appended->body.c_str());
      std::printf("smoke ok (dataset %s): %s\n", entries.front().id.c_str(),
                  requery->body.c_str());
      return 0;
    }
  }
  std::printf("smoke ok: %s\n", query->body.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool valid = true;
    if (ParseNumericFlag(arg, "--port=", &args.port, &valid) ||
        ParseNumericFlag(arg, "--rows=", &args.rows, &valid) ||
        ParseNumericFlag(arg, "--workers=", &args.workers, &valid) ||
        ParseNumericFlag(arg, "--memory-budget=", &args.memory_budget,
                         &valid) ||
        ParseNumericFlag(arg, "--dataset-workers=", &args.dataset_workers,
                         &valid) ||
        ParseNumericFlag(arg, "--max-append-rows=", &args.max_append_rows,
                         &valid) ||
        ParseNumericFlag(arg, "--queue-capacity=", &args.queue_capacity,
                         &valid) ||
        ParseNumericFlag(arg, "--idle-timeout-ms=", &args.idle_timeout_ms,
                         &valid)) {
      if (!valid) return Usage();
    } else if (arg.rfind("--port-file=", 0) == 0) {
      args.port_file = arg.substr(12);
    } else if (arg.rfind("--csv=", 0) == 0) {
      args.csv_path = arg.substr(6);
    } else if (arg.rfind("--datasets=", 0) == 0) {
      args.datasets_dir = arg.substr(11);
    } else if (arg == "--no-profile") {
      args.build_profile = false;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else {
      return Usage();
    }
  }
  if (args.rows < 10 || args.queue_capacity == 0) return Usage();

  DataTable table = MakeOecdLike(args.rows, 17);
  if (!args.csv_path.empty()) {
    auto loaded = CsvReader::ReadFile(args.csv_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "foresight_serve: failed to read %s: %s\n",
                   args.csv_path.c_str(), loaded.status().ToString().c_str());
      return 1;
    }
    table = std::move(loaded).value();
  }

  EngineOptions engine_options;
  engine_options.num_workers = args.workers;
  engine_options.build_profile = args.build_profile;
  auto engine = InsightEngine::Create(table, std::move(engine_options));
  if (!engine.ok()) {
    std::fprintf(stderr, "foresight_serve: engine creation failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  QuerySession session(*engine);

  std::unique_ptr<DatasetRegistry> registry;
  if (!args.datasets_dir.empty()) {
    DatasetRegistryOptions registry_options;
    registry_options.memory_budget_bytes = args.memory_budget;
    registry_options.num_workers = args.dataset_workers;
    registry_options.metrics = engine->metrics();
    registry = std::make_unique<DatasetRegistry>(std::move(registry_options));
    auto specs = DatasetRegistry::ScanDirectory(args.datasets_dir);
    if (!specs.ok()) {
      std::fprintf(stderr, "foresight_serve: scanning %s failed: %s\n",
                   args.datasets_dir.c_str(),
                   specs.status().ToString().c_str());
      return 1;
    }
    for (DatasetSpec& spec : *specs) {
      Status added = registry->Add(std::move(spec));
      if (!added.ok()) {
        std::fprintf(stderr, "foresight_serve: registering dataset failed: "
                     "%s\n", added.ToString().c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "foresight_serve: %zu datasets from %s "
                 "(budget %zu bytes)\n", registry->size(),
                 args.datasets_dir.c_str(), args.memory_budget);
  }

  HttpServerOptions server_options;
  server_options.port = args.port;
  server_options.queue_capacity = args.queue_capacity;
  server_options.idle_timeout_ms = args.idle_timeout_ms;
  server_options.registry = registry.get();
  server_options.max_append_rows = args.max_append_rows;
  HttpServer server(session, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "foresight_serve: start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "foresight_serve: listening on 127.0.0.1:%u "
               "(workers=%zu queue=%zu)\n",
               server.port(), engine->num_workers(), args.queue_capacity);
  if (!args.port_file.empty()) {
    std::FILE* f = std::fopen(args.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "foresight_serve: cannot write %s\n",
                   args.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  if (args.smoke) {
    const int rc = Smoke(server.port(), registry.get());
    server.Stop();
    return rc;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    // Signal-driven sleep; the server threads do all the work.
    struct timespec interval = {0, 100'000'000};
    ::nanosleep(&interval, nullptr);
  }
  std::fprintf(stderr, "foresight_serve: draining and shutting down\n");
  server.Stop();
  return 0;
}

}  // namespace
}  // namespace foresight

int main(int argc, char** argv) { return foresight::Main(argc, argv); }
