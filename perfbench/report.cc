#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/json.h"

namespace perfbench {

namespace {

/// The exposition name of a registry metric (MetricsRegistry prefixes
/// "foresight_" and maps every character outside [A-Za-z0-9_:] to '_').
std::string ExpositionName(const std::string& name) {
  std::string out = "foresight_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

Scrape::Scrape(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    series_[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
}

bool Scrape::Has(const std::string& name) const {
  return series_.count(ExpositionName(name)) > 0;
}

double Scrape::Value(const std::string& name) const {
  const auto it = series_.find(ExpositionName(name));
  return it == series_.end() ? 0.0 : it->second;
}

double Scrape::Delta(const Scrape& before, const std::string& name) const {
  return Value(name) - before.Value(name);
}

std::vector<std::pair<double, double>> Scrape::Buckets(
    const std::string& name) const {
  const std::string prefix = ExpositionName(name) + "_bucket{le=\"";
  std::vector<std::pair<double, double>> buckets;
  for (auto it = series_.lower_bound(prefix);
       it != series_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string bound = it->first.substr(prefix.size());
    const double le = bound.rfind("+Inf", 0) == 0
                          ? HUGE_VAL
                          : std::strtod(bound.c_str(), nullptr);
    buckets.emplace_back(le, it->second);
  }
  // Series are sorted as strings; order the buckets by bound.
  std::sort(buckets.begin(), buckets.end());
  return buckets;
}

double Scrape::HistogramQuantile(const Scrape& before, const std::string& name,
                                 double q) const {
  std::vector<std::pair<double, double>> after = Buckets(name);
  const std::vector<std::pair<double, double>> base = before.Buckets(name);
  if (after.empty()) return 0.0;
  if (base.size() == after.size()) {
    for (size_t i = 0; i < after.size(); ++i) after[i].second -= base[i].second;
  }
  const double total = after.back().second;
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [le, cumulative] : after) {
    if (cumulative >= target) {
      if (le == HUGE_VAL) return lower;
      const double in_bucket = cumulative - below;
      const double fraction = in_bucket > 0.0 ? (target - below) / in_bucket : 1.0;
      return lower + (le - lower) * fraction;
    }
    lower = le;
    below = cumulative;
  }
  return lower;
}

void PrintMetric(const Metric& metric) {
  std::printf("  %-28s %14.6g %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str());
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  using foresight::JsonValue;
  JsonValue values = JsonValue::Object();
  for (const Metric& metric : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    values.Set(metric.name, std::move(entry));
  }
  JsonValue line = JsonValue::Object();
  line.Set("correct", correct);
  line.Set("attempted", attempted);
  line.Set("failed", failed);
  line.Set("metrics", std::move(values));
  return line.Dump();
}

}  // namespace perfbench
