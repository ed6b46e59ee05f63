// Spans for the traced run: one span per call into a layer's public
// function, recorded by the benchmark around the call (the program itself is
// not instrumented). Spans of one request share its id; a span's self time
// is its duration minus the durations of its children.

#ifndef FORESIGHT_PERFBENCH_SPANS_H_
#define FORESIGHT_PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench.h"
#include "util/status.h"

namespace perfbench {

/// Layer boundaries, named after the module that owns the called function.
enum class Layer : uint8_t {
  kRequest,          ///< Root: the whole in-process pipeline of one request.
  kHttpParse,        ///< serve: ParseRequest.
  kWireDecode,       ///< JsonValue::Parse + FromJson / ParseQueryBatchV1 /
                     ///< ParseAppendRowsV1.
  kRegistryAcquire,  ///< core: DatasetRegistry::Acquire.
  kLockWait,         ///< Shared side of the dataset's append/query lock.
  kSessionExecute,   ///< core: QuerySession::Execute / ExecuteBatch.
  kEngineResolve,    ///< QueryTrace stages of cache misses (children of
  kEngineEnumerate,  ///< kSessionExecute, laid end to end from the
  kEngineEvaluate,   ///< durations the result's trace carries).
  kEngineAssemble,
  kOverview,         ///< core: InsightEngine::ComputePairwiseOverview.
  kAppend,           ///< core: DatasetRegistry::Append.
  kWireEncode,       ///< serve: Wire*ResponseV1 + Dump + SerializeResponse.
};
inline constexpr size_t kNumLayers = 13;

const char* LayerName(Layer layer);

struct Span {
  uint64_t request_id = 0;
  int32_t parent = -1;  ///< Index of the parent within its request; -1 = root.
  Layer layer = Layer::kRequest;
  RequestKind kind = RequestKind::kQuery;
  double start_us = 0.0;  ///< Relative to the run's epoch.
  double end_us = 0.0;
};

/// Self-time totals folded as each request ends, so a long run keeps
/// bounded memory however many requests it serves.
struct LayerTotals {
  std::array<size_t, kNumRequestKinds> requests{};
  /// Sum of root durations per kind.
  std::array<double, kNumRequestKinds> request_us{};
  /// Sum of self time per kind and layer (kRequest = the uncovered part).
  std::array<std::array<double, kNumLayers>, kNumRequestKinds> self_us{};
  /// Per request, the summed duration of each layer's spans in it (only
  /// requests that entered the layer), capped at kMaxSamples per thread.
  std::array<std::vector<double>, kNumLayers> per_request_us;
  /// Root durations per kind (same cap).
  std::array<std::vector<double>, kNumRequestKinds> request_samples_us;

  static constexpr size_t kMaxSamples = size_t{1} << 17;

  void Merge(const LayerTotals& other);
};

/// One replay thread's span recorder. Disabled, it reads the clock only at
/// request start and end (the spans-off baseline of the overhead check).
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog(bool enabled, Clock::time_point epoch, size_t keep_requests);

  /// Opens the root span of a new request; returns its index (0).
  int32_t BeginRequest(RequestKind kind);
  /// Closes the root, folds the request into totals(), and keeps its raw
  /// spans while fewer than `keep_requests` were kept. Returns the root
  /// duration in microseconds.
  double EndRequest();

  /// Opens a child span of `parent`; -1 when disabled.
  int32_t Open(Layer layer, int32_t parent);
  void Close(int32_t index);
  /// Adds an already-measured child of `parent`, placed at *cursor_us
  /// (advanced by the duration). Used for the engine's QueryTrace stages.
  void AddMeasured(Layer layer, int32_t parent, double duration_us,
                   double* cursor_us);
  /// Start of span `index` of the current request (epoch-relative, us).
  double start_us(int32_t index) const { return current_[index].start_us; }

  const LayerTotals& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  double NowUs() const;

  bool enabled_;
  Clock::time_point epoch_;
  size_t keep_requests_;
  size_t kept_requests_ = 0;
  uint64_t next_request_id_ = 0;
  std::vector<Span> current_;
  std::vector<double> child_us_;
  LayerTotals totals_;
  std::vector<Span> kept_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer, int32_t parent = 0)
      : log_(log), index_(log.Open(layer, parent)) {}
  ~ScopedSpan() { log_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanLog& log_;
  int32_t index_;
};

/// Writes every kept span as CSV (thread, request, kind, layer, parent,
/// start_us, end_us).
foresight::Status WriteSpans(const std::string& path,
                             const std::vector<SpanLog>& logs);

}  // namespace perfbench

#endif  // FORESIGHT_PERFBENCH_SPANS_H_
