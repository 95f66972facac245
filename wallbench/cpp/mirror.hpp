#pragma once
// The benchmark's own replica of service::run_scenario, split so that each
// set-up call and the solve can be timed from outside, and so a
// TimingKernels decorator can be slipped around every rank's port.
//
// It calls exactly what run_scenario calls — ports::make_port with the
// canonical seeding (run_seed = 1 + rank), core::Driver for one rank,
// dist::DistributedDriver over a MiniComm world for more — so its checksums
// must equal run_scenario's bit for bit. same_result() is that check.

#include <cstdint>
#include <vector>

#include "dist/driver.hpp"
#include "service/entry.hpp"
#include "timing_kernels.hpp"
#include "verify/checksum.hpp"

namespace wallbench {

struct SolveRecord {
  // Outcome (compared bit for bit against twins and repeats).
  bool converged = false;
  int iterations = 0;
  int inner_iterations = 0;
  double final_rr = 0.0;
  tl::verify::FieldChecksum u;
  tl::verify::FieldChecksum energy;

  // Simulated-clock counters (all ranks).
  std::uint64_t launches = 0;
  std::size_t kernel_bytes = 0;
  // Communication per solve, summed over ranks (zero for one rank).
  std::uint64_t halo_exchanges = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t comm_bytes = 0;

  // Host wall seconds. One rank: port_s = make_port, state_s = Driver
  // constructor. Several ranks: port_s = the slowest rank's make_port inside
  // the factory, state_s = DistributedDriver constructor. setup_s() is their
  // sum; solve_s is the run (minus the factory for several ranks) and
  // excludes reading back the fields for the checksums.
  double port_s = 0.0;
  double state_s = 0.0;
  double solve_s = 0.0;
  double setup_s() const { return port_s + state_s; }

  // Filled only when traced: per-rank kernel tallies.
  std::vector<KernelTally> rank_tallies;
  KernelTally tally() const;
  double max_rank_kernel_s() const;
};

/// Runs `scenario` like service::run_scenario (host_threads = 1). With
/// `traced`, every rank's port is wrapped in TimingKernels.
SolveRecord run_mirror(const tl::service::Scenario& scenario, bool traced);

/// The numerical outcome of a run_scenario call, for comparison.
SolveRecord to_record(const tl::service::ScenarioOutcome& outcome);

/// Bit-for-bit equality of the numerical outcome: convergence, iteration
/// counts, final residual, launch count and both field checksums.
bool same_result(const SolveRecord& a, const SolveRecord& b);
/// The same for a service job, which must also be ok.
bool same_result(const tl::service::JobResult& job, const SolveRecord& b);

}  // namespace wallbench
