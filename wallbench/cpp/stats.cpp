#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace wallbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

/// 1-based nearest rank of percentile p over n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

Tail tail_percentile(std::vector<double> v) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  for (const double p : kLadder) {
    const std::size_t rank = nearest_rank(v.size(), p);
    if (v.size() - rank >= 10) {
      tail.percentile = p;
      tail.value = v[rank - 1];
      return tail;
    }
  }
  return tail;
}

}  // namespace wallbench
