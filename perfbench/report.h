// Reading the program's /metrics exposition, and printing results.

#ifndef FORESIGHT_PERFBENCH_REPORT_H_
#define FORESIGHT_PERFBENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One Prometheus text scrape of GET /metrics. Lookups take the registry's
/// own metric names ("query_cache.hits_total"); the exposition's prefix and
/// '.' -> '_' sanitizing are applied here.
class Scrape {
 public:
  Scrape() = default;
  explicit Scrape(const std::string& text);

  bool Has(const std::string& name) const;
  /// Counter or gauge value; 0 when absent.
  double Value(const std::string& name) const;
  /// Increase of a counter since `before`.
  double Delta(const Scrape& before, const std::string& name) const;
  /// Quantile of a latency histogram's observations made since `before`,
  /// interpolated linearly inside the bucket that holds it; 0 when empty.
  double HistogramQuantile(const Scrape& before, const std::string& name,
                           double q) const;

 private:
  /// Cumulative (le, count) buckets of a histogram, +Inf last.
  std::vector<std::pair<double, double>> Buckets(const std::string& name) const;

  std::map<std::string, double> series_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// "name value unit" for the human-readable part of the report.
void PrintMetric(const Metric& metric);

/// The last line of the output: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // FORESIGHT_PERFBENCH_REPORT_H_
