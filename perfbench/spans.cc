#include "spans.h"

#include <fstream>

namespace perfbench {

namespace {

void PushCapped(std::vector<double>& samples, double value) {
  if (samples.size() < LayerTotals::kMaxSamples) samples.push_back(value);
}

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kQuery:
      return "query";
    case RequestKind::kBatch:
      return "query_batch";
    case RequestKind::kOverview:
      return "overview";
    case RequestKind::kAppend:
      return "append";
  }
  return "unknown";
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kHttpParse:
      return "serve.http_parse";
    case Layer::kWireDecode:
      return "serve.wire_decode";
    case Layer::kRegistryAcquire:
      return "core.registry_acquire";
    case Layer::kLockWait:
      return "core.lock_wait";
    case Layer::kSessionExecute:
      return "core.session_execute";
    case Layer::kEngineResolve:
      return "core.engine.resolve";
    case Layer::kEngineEnumerate:
      return "core.engine.enumerate";
    case Layer::kEngineEvaluate:
      return "core.engine.evaluate";
    case Layer::kEngineAssemble:
      return "core.engine.assemble";
    case Layer::kOverview:
      return "core.overview";
    case Layer::kAppend:
      return "core.append";
    case Layer::kWireEncode:
      return "serve.wire_encode";
  }
  return "unknown";
}

void LayerTotals::Merge(const LayerTotals& other) {
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    requests[k] += other.requests[k];
    request_us[k] += other.request_us[k];
    for (size_t l = 0; l < kNumLayers; ++l) self_us[k][l] += other.self_us[k][l];
    request_samples_us[k].insert(request_samples_us[k].end(),
                                 other.request_samples_us[k].begin(),
                                 other.request_samples_us[k].end());
  }
  for (size_t l = 0; l < kNumLayers; ++l) {
    per_request_us[l].insert(per_request_us[l].end(),
                             other.per_request_us[l].begin(),
                             other.per_request_us[l].end());
  }
}

SpanLog::SpanLog(bool enabled, Clock::time_point epoch, size_t keep_requests)
    : enabled_(enabled), epoch_(epoch), keep_requests_(keep_requests) {}

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int32_t SpanLog::BeginRequest(RequestKind kind) {
  current_.clear();
  Span root;
  root.request_id = next_request_id_++;
  root.kind = kind;
  root.start_us = NowUs();
  current_.push_back(root);
  return 0;
}

int32_t SpanLog::Open(Layer layer, int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.request_id = current_[0].request_id;
  span.parent = parent;
  span.layer = layer;
  span.kind = current_[0].kind;
  span.start_us = NowUs();
  current_.push_back(span);
  return static_cast<int32_t>(current_.size() - 1);
}

void SpanLog::Close(int32_t index) {
  if (index < 0) return;
  current_[static_cast<size_t>(index)].end_us = NowUs();
}

void SpanLog::AddMeasured(Layer layer, int32_t parent, double duration_us,
                          double* cursor_us) {
  if (!enabled_ || parent < 0) return;
  Span span;
  span.request_id = current_[0].request_id;
  span.parent = parent;
  span.layer = layer;
  span.kind = current_[0].kind;
  span.start_us = *cursor_us;
  span.end_us = *cursor_us + duration_us;
  *cursor_us = span.end_us;
  current_.push_back(span);
}

double SpanLog::EndRequest() {
  current_[0].end_us = NowUs();
  const Span& root = current_[0];
  const double root_us = root.end_us - root.start_us;
  const size_t kind = static_cast<size_t>(root.kind);
  totals_.requests[kind] += 1;
  totals_.request_us[kind] += root_us;
  PushCapped(totals_.request_samples_us[kind], root_us);
  if (!enabled_) return root_us;

  // Self time = duration minus the children's durations.
  child_us_.assign(current_.size(), 0.0);
  for (size_t i = 1; i < current_.size(); ++i) {
    child_us_[static_cast<size_t>(current_[i].parent)] +=
        current_[i].end_us - current_[i].start_us;
  }
  std::array<double, kNumLayers> layer_us{};
  std::array<bool, kNumLayers> entered{};
  for (size_t i = 0; i < current_.size(); ++i) {
    const Span& span = current_[i];
    const double duration = span.end_us - span.start_us;
    const size_t layer = static_cast<size_t>(span.layer);
    totals_.self_us[kind][layer] += duration - child_us_[i];
    layer_us[layer] += duration;
    entered[layer] = true;
  }
  for (size_t l = 0; l < kNumLayers; ++l) {
    if (entered[l]) PushCapped(totals_.per_request_us[l], layer_us[l]);
  }
  if (kept_requests_ < keep_requests_) {
    kept_.insert(kept_.end(), current_.begin(), current_.end());
    ++kept_requests_;
  }
  return root_us;
}

foresight::Status WriteSpans(const std::string& path,
                             const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) return foresight::Status::IOError("cannot write " + path);
  out << "thread,request,kind,layer,parent,start_us,end_us\n";
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& span : logs[t].kept()) {
      out << t << ',' << span.request_id << ',' << RequestKindName(span.kind)
          << ',' << LayerName(span.layer) << ',' << span.parent << ','
          << span.start_us << ',' << span.end_us << '\n';
    }
  }
  out.close();
  if (!out) return foresight::Status::IOError("short write to " + path);
  return foresight::Status::OK();
}

}  // namespace perfbench
