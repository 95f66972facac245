#pragma once
// Golden baseline store: committed reference-solve results that pin the
// correctness oracle itself across commits, compilers, and build types.
//
// The cross-model checker compares every port against the in-process
// reference kernels; the golden store closes the remaining hole — a change
// that breaks the reference *and* every port identically would still
// "conform". Baselines live in CSV (verify/golden/reference.csv in the
// repo), carry full double precision (%.17g), and are regenerated only by an
// explicit `tl_verify --regen-golden` (the policy: a diff to a golden file
// must be a reviewed, deliberate act).
//
// Port records (verify/golden/ports.csv) pin every live port the same way,
// keyed by (model, device, fused, pipelined, solver), and add the port's
// metered launch count and simulated seconds, so a refactor of the port
// layer must reproduce both its numerics and its cost stream bit for bit.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/settings.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"
#include "verify/checksum.hpp"

namespace tl::verify {

/// One reference solve, condensed: control flow, physics summary, field
/// checksums. One record per (solver, nx) for the reference; port records
/// add the (model, device, fused, pipelined) key and the metered cost.
struct GoldenRecord {
  std::string model;   // sim::model_id; empty for the reference kernels
  std::string device;  // sim::device_short_name; empty for the reference
  bool fused = true;       // Settings::use_fused of the solve
  bool pipelined = false;  // Settings::use_pipelined of the solve
  core::SolverKind solver = core::SolverKind::kCg;
  int nx = 0;
  int steps = 1;
  bool converged = false;
  int iterations = 0;
  int inner_iterations = 0;
  double final_rr = 0.0;
  double volume = 0.0;
  double mass = 0.0;
  double internal_energy = 0.0;
  double temperature = 0.0;
  FieldChecksum u;       // solution field after the last step
  FieldChecksum energy;  // finalised energy field after the last step
  std::uint64_t launches = 0;  // RunReport::kernel_launches
  double sim_seconds = 0.0;    // RunReport::sim_total_seconds
};

/// Runs the reference kernels on the default problem at `nx` for `steps`
/// steps with `solver` and condenses the result.
GoldenRecord compute_reference_record(core::SolverKind solver, int nx,
                                      int steps = 1);

/// Runs every supported (model, device) port, optionally restricted to one
/// model and/or device, through each of `solvers` at `nx` with fused kernels
/// on and off, plus one pipelined-CG solve per port when CG is among
/// `solvers`, and condenses each run into a keyed port record.
std::vector<GoldenRecord> compute_port_records(
    const std::vector<core::SolverKind>& solvers, int nx, int steps,
    std::uint64_t seed, std::optional<sim::Model> only_model = std::nullopt,
    std::optional<sim::DeviceId> only_device = std::nullopt);

/// Condenses an already-finished run (any SolverKernels) into a record.
/// `driver.run()` must have completed; reads u and the chunk's energy field.
GoldenRecord condense_run(core::Driver& driver, const core::RunReport& report);

/// CSV round trip. `save_golden` overwrites; it writes the port key and cost
/// columns only when some record carries a model, so reference baselines
/// keep their original columns. `load_golden` reads either layout by header
/// and throws std::runtime_error on unreadable files or malformed rows.
void save_golden(const std::string& path,
                 const std::vector<GoldenRecord>& records);
std::vector<GoldenRecord> load_golden(const std::string& path);

/// Finds the record for (solver, nx, steps); returns nullptr when absent.
const GoldenRecord* find_golden(const std::vector<GoldenRecord>& records,
                                core::SolverKind solver, int nx, int steps);

}  // namespace tl::verify
