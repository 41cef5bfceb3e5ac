#include "scrape.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <iterator>
#include <sstream>

namespace perfbench {

Scrape Scrape::Parse(const std::string& text) {
  Scrape scrape;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string key = line.substr(0, space);
    double value = std::strtod(line.c_str() + space + 1, nullptr);
    size_t brace = key.find("_bucket{le=\"");
    if (brace == std::string::npos) {
      scrape.values_[key] = value;
      continue;
    }
    std::string name = key.substr(0, brace);
    std::string bound = key.substr(brace + 12);
    bound = bound.substr(0, bound.find('"'));
    double upper = bound == "+Inf" ? std::numeric_limits<double>::infinity()
                                   : std::strtod(bound.c_str(), nullptr);
    scrape.buckets_[name][upper] = value;
  }
  return scrape;
}

double Scrape::Value(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

double Scrape::Delta(const Scrape& before, const std::string& name) const {
  return Value(name) - before.Value(name);
}

double Scrape::DeltaQuantile(const Scrape& before, const std::string& name,
                             double q) const {
  auto after_it = buckets_.find(name);
  if (after_it == buckets_.end()) return 0.0;
  const std::map<double, double>* before_buckets = nullptr;
  auto before_it = before.buckets_.find(name);
  if (before_it != before.buckets_.end()) before_buckets = &before_it->second;
  // Empty interior buckets are omitted from the exposition, so a bucket's
  // cumulative count in `before` is the count at the largest bound <= it.
  auto cumulative_before = [&](double upper) {
    if (before_buckets == nullptr) return 0.0;
    auto it = before_buckets->upper_bound(upper);
    if (it == before_buckets->begin()) return 0.0;
    return std::prev(it)->second;
  };
  std::vector<std::pair<double, double>> delta;  // (upper, cumulative delta)
  for (const auto& [upper, count] : after_it->second) {
    delta.push_back({upper, count - cumulative_before(upper)});
  }
  if (delta.empty() || delta.back().second <= 0) return 0.0;
  double rank = q * delta.back().second;
  double lower_bound = 0.0;
  double lower_count = 0.0;
  for (const auto& [upper, count] : delta) {
    if (count >= rank && count > lower_count) {
      if (std::isinf(upper)) return lower_bound;
      // pdb histograms are log2-bucketed: bucket (u-1)/2 < v <= u. Skipped
      // buckets below it are empty, so its own lower edge is the start.
      double start = std::max(lower_bound, (upper - 1.0) / 2.0);
      return start + (upper - start) * (rank - lower_count) /
                         (count - lower_count);
    }
    lower_bound = upper;
    lower_count = count;
  }
  return lower_bound;
}

}  // namespace perfbench
