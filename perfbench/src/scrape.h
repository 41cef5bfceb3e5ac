// /metrics scrapes: parses the Prometheus text exposition pdbd serves and
// turns the difference of two scrapes into counts, ratios and histogram
// quantiles.

#ifndef PERFBENCH_SCRAPE_H_
#define PERFBENCH_SCRAPE_H_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Scrape {
 public:
  /// Parses "name value" and "name_bucket{le=\"b\"} value" lines; comments
  /// and anything else are skipped.
  static Scrape Parse(const std::string& text);

  /// A counter or gauge value (0 when absent).
  double Value(const std::string& name) const;

  /// `name`'s increase from `before` to this scrape.
  double Delta(const Scrape& before, const std::string& name) const;

  /// Quantile `q` of the observations a histogram gained between `before`
  /// and this scrape, interpolated linearly inside the bucket it falls in
  /// (the Prometheus histogram_quantile rule). 0 when nothing was observed.
  double DeltaQuantile(const Scrape& before, const std::string& name,
                       double q) const;

 private:
  std::map<std::string, double> values_;
  /// Cumulative bucket counts per histogram: upper bound -> count.
  std::map<std::string, std::map<double, double>> buckets_;
};

/// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace perfbench

#endif  // PERFBENCH_SCRAPE_H_
