// Panel-blocked sketch ingestion: worker sweep.
//
// Preprocessing materializes every row's random hyperplane and projection
// components once per row block in a RandomPanelCache shared by all columns
// and partitions, and consumes them through dense blocked kernels. This bench
// times Preprocessor::Profile at 1/2/4/8 workers and enforces that every run
// serializes to the same profile (the per-row reference it must match lives
// in tests/test_kernel_equivalence.cc; EXPERIMENTS A4 keeps the recorded
// row-at-a-time timings this path replaced).
// Results are printed AND written to BENCH_preprocess_kernels.json.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/profile.h"
#include "data/generators.h"
#include "util/bench_env.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace foresight;

namespace {

constexpr size_t kRows = 30000;
constexpr size_t kNumericCols = 64;
constexpr size_t kCategoricalCols = 8;
constexpr uint64_t kSeed = 7;
constexpr int kReps = 5;  // Timed repetitions; min and median are reported.

std::string ProfileFingerprint(const TableProfile& profile) {
  JsonValue json = profile.ToJson();
  json.Set("preprocess_seconds", 0.0);  // The one wall-clock-dependent field.
  return json.Dump();
}

struct RunResult {
  size_t workers = 1;
  double min_seconds = 0.0;
  double median_seconds = 0.0;
  std::string fingerprint;  // Empty when profiling failed.
};

RunResult RunWorkers(const DataTable& table, size_t workers) {
  RunResult result;
  result.workers = workers;
  ThreadPool pool(workers);
  ThreadPool* pool_ptr = workers > 1 ? &pool : nullptr;
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    auto profile = Preprocessor::Profile(table, {}, pool_ptr);
    double elapsed = timer.ElapsedSeconds();
    if (!profile.ok()) {
      std::fprintf(stderr, "profile failed: %s\n",
                   profile.status().ToString().c_str());
      result.fingerprint.clear();
      return result;
    }
    seconds.push_back(elapsed);
    result.fingerprint = ProfileFingerprint(*profile);
  }
  std::sort(seconds.begin(), seconds.end());
  result.min_seconds = seconds.front();
  result.median_seconds = seconds[seconds.size() / 2];
  return result;
}

/// True when every run produced a profile and all profiles are identical to
/// the first run's; prints each mismatch.
bool AllIdentical(const std::vector<RunResult>& runs) {
  bool ok = !runs.empty() && !runs.front().fingerprint.empty();
  for (const RunResult& run : runs) {
    if (run.fingerprint != runs.front().fingerprint) {
      ok = false;
      std::printf("EQUIVALENCE FAILURE: workers=%zu differs from workers=%zu\n",
                  run.workers, runs.front().workers);
    }
  }
  return ok;
}

}  // namespace

int main() {
  std::printf("Preprocessing ingestion (panel-blocked): worker sweep\n");
  std::printf("workload: %zu rows x (%zu numeric + %zu categorical) columns\n",
              kRows, kNumericCols, kCategoricalCols);
  std::printf("hardware_concurrency: %u (%s)\n\n",
              std::thread::hardware_concurrency(), CpuModelName().c_str());
  DataTable table =
      MakeBenchmarkTable(kRows, kNumericCols, kCategoricalCols, kSeed);

  std::vector<RunResult> runs;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    WarnIfOversubscribed(workers);
    runs.push_back(RunWorkers(table, workers));
    const RunResult& run = runs.back();
    std::printf("workers %zu | min %.3f s | median %.3f s\n", run.workers,
                run.min_seconds, run.median_seconds);
  }
  bool equivalent = AllIdentical(runs);
  std::printf("all profiles bit-identical to the 1-worker profile: %s\n",
              equivalent ? "yes" : "NO");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "preprocess_kernels");
  doc.Set("environment", BenchEnvironmentJson(/*max_workers_requested=*/8));
  JsonValue workload = JsonValue::Object();
  workload.Set("rows", kRows);
  workload.Set("numeric_cols", kNumericCols);
  workload.Set("categorical_cols", kCategoricalCols);
  workload.Set("seed", kSeed);
  workload.Set("reps", kReps);
  doc.Set("workload", std::move(workload));
  JsonValue results = JsonValue::Array();
  for (const RunResult& run : runs) {
    JsonValue entry = JsonValue::Object();
    entry.Set("workers", run.workers);
    entry.Set("min_seconds", run.min_seconds);
    entry.Set("median_seconds", run.median_seconds);
    results.Append(std::move(entry));
  }
  doc.Set("results", std::move(results));
  doc.Set("bit_identical", equivalent);

  std::ofstream out("BENCH_preprocess_kernels.json");
  out << doc.Dump(2) << "\n";
  std::printf("wrote BENCH_preprocess_kernels.json\n");
  return equivalent ? 0 : 1;
}
