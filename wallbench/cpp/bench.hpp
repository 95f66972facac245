#pragma once
// Shared plumbing of the benchmark's workloads: options, the metric
// catalogue, and the result the driver program prints.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mesh.hpp"
#include "mirror.hpp"

namespace wallbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Metric values plus the attempted/failed tally of checked operations.
/// Every metric of the run's catalogue (end-to-end, or per-layer when
/// tracing) exists from the start with value 0, the reading for a layer the
/// workload bypasses; set() overwrites, and throws on a name outside the
/// catalogue so a typo cannot add a metric silently.
class Result {
 public:
  explicit Result(bool trace);

  void set(std::string_view name, double value);
  /// Counts one checked operation; a failed one is reported on stderr.
  void check(bool ok, std::string_view what);
  /// Extra fingerprint entry (printed before the result line).
  void note(std::string key, std::string json_value);

  /// Prints the fingerprint line, a metric table and, last, the one-line
  /// JSON result.
  void print(const Options& opt) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The seven Fig 8 CPU ports ports-solve times.
std::vector<tl::sim::Model> fig8_ports();

/// Kernel entry points reported as kernels.<entry>.s.
std::vector<Entry> reported_entries();

/// Writes kernels.*, solver.*, sim.launches from traced solves, averaged per
/// solve. `records` must all be traced.
void set_kernel_metrics(Result& r, const std::vector<SolveRecord>& records);

/// dist.rank_kernel_s / nonkernel_s / imbalance, averaged over the traced
/// multi-rank records (single-rank records are skipped).
void set_dist_metrics(Result& r, const std::vector<SolveRecord>& records);

/// Bytes of the ten fields a CG step streams (density, energy0, energy, u,
/// u0, p, r, w, kx, ky) over `mesh`'s padded extent — computed, not measured.
inline std::size_t cg_working_set_bytes(const tl::core::Mesh& mesh) {
  return 10 * mesh.padded_cells() * sizeof(double);
}

/// sim.ns_per_launch: host ns per metered launch of a metering-only
/// PhantomKernels CG solve at 32^2 (no fields, no arithmetic).
double phantom_ns_per_launch();

/// comm.halo_exchange_us / comm.allreduce_us: per-call medians of a 2-rank
/// run_ranks micro-run at the tile shape 2 ranks get for a 48^2 grid. Both
/// operations' results are checked.
void set_comm_micro_metrics(Result& r);

void run_ports_solve(const Options& opt, Result& r);
void run_service_mix(const Options& opt, Result& r);

}  // namespace wallbench
