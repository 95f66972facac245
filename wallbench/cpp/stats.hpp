#pragma once
// Order statistics for the benchmark's reported figures.

#include <cstddef>
#include <vector>

namespace wallbench {

/// Median of `v` (mean of the two middle values for even sizes). 0 when
/// empty.
double median(std::vector<double> v);

/// Geometric mean of strictly positive values. 0 when empty or when any
/// value is not positive.
double geomean(const std::vector<double>& v);

/// The highest percentile of a fixed ladder (50, 90, 99, 99.9, 99.99) that
/// still has at least ten samples strictly beyond it, read by nearest rank.
/// `percentile` is 0 when there are too few samples for even the median
/// (fewer than 20); `value` is then 0 too.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_percentile(std::vector<double> v);

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);

}  // namespace wallbench
