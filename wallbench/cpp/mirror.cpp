#include "mirror.hpp"

#include <algorithm>
#include <utility>

#include "core/driver.hpp"
#include "ports/registry.hpp"
#include "service/entry.hpp"
#include "util/buffer.hpp"

namespace wallbench {

namespace core = tl::core;
namespace dist = tl::dist;
namespace service = tl::service;

namespace {

void fill_outcome(SolveRecord& rec, const core::RunReport& run) {
  if (!run.steps.empty()) {
    rec.converged = run.steps.back().solve.converged;
    rec.final_rr = run.steps.back().solve.final_rr;
  }
  for (const core::StepReport& step : run.steps) {
    rec.iterations += step.solve.iterations;
    rec.inner_iterations += step.solve.inner_iterations;
  }
  rec.launches = run.kernel_launches;
}

SolveRecord run_single(const service::Scenario& sc, bool traced) {
  SolveRecord rec;
  const core::Mesh mesh(sc.settings.nx, sc.settings.ny,
                        sc.settings.halo_depth);
  if (traced) rec.rank_tallies.resize(1);

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<core::SolverKernels> port =
      tl::ports::make_port(sc.model, sc.device, mesh, 1, 1);
  rec.port_s = seconds_since(t0);
  if (traced) {
    port = std::make_unique<TimingKernels>(std::move(port),
                                           &rec.rank_tallies[0]);
  }
  const Clock::time_point t1 = Clock::now();
  core::Driver driver(sc.settings, std::move(port));
  rec.state_s = seconds_since(t1);

  const Clock::time_point t2 = Clock::now();
  const core::RunReport run = driver.run();
  rec.solve_s = seconds_since(t2);

  fill_outcome(rec, run);
  rec.kernel_bytes = driver.kernels().clock().kernel_bytes();
  const core::Mesh& m = driver.mesh();
  tl::util::Buffer<double> u(m.padded_cells());
  driver.kernels().read_u(u.view2d(m.padded_nx(), m.padded_ny()));
  rec.u = tl::verify::checksum_field(m, u.view2d(m.padded_nx(), m.padded_ny()));
  rec.energy = tl::verify::checksum_field(
      m, driver.chunk().field(core::FieldId::kEnergy));
  return rec;
}

SolveRecord run_distributed(const service::Scenario& sc, bool traced) {
  SolveRecord rec;
  const auto nranks = static_cast<std::size_t>(sc.settings.nranks);
  std::vector<double> factory_s(nranks, 0.0);
  if (traced) rec.rank_tallies.resize(nranks);

  // Each rank writes only its own slot, from its own thread.
  dist::PortFactory factory = [&](const core::Mesh& tile, int rank) {
    const auto r = static_cast<std::size_t>(rank);
    const Clock::time_point t = Clock::now();
    std::unique_ptr<core::SolverKernels> port = tl::ports::make_port(
        sc.model, sc.device, tile, 1 + static_cast<std::uint64_t>(rank), 1);
    factory_s[r] = seconds_since(t);
    if (traced) {
      port = std::make_unique<TimingKernels>(std::move(port),
                                             &rec.rank_tallies[r]);
    }
    return port;
  };

  const Clock::time_point t0 = Clock::now();
  dist::DistributedDriver driver(sc.settings, std::move(factory));
  rec.state_s = seconds_since(t0);

  const Clock::time_point t1 = Clock::now();
  dist::DistReport report = driver.run();
  const double run_s = seconds_since(t1);
  rec.port_s = *std::max_element(factory_s.begin(), factory_s.end());
  rec.solve_s = run_s - rec.port_s;

  fill_outcome(rec, report.run);
  for (const dist::RankReport& r : report.ranks) {
    rec.kernel_bytes += r.kernel_bytes;
    rec.halo_exchanges += r.comm.halo_exchanges;
    rec.allreduces += r.comm.allreduces;
    rec.comm_bytes += r.comm.bytes;
  }
  const core::Mesh& gm = report.global_mesh;
  rec.u = tl::verify::checksum_field(
      gm, report.u.view2d(gm.padded_nx(), gm.padded_ny()));
  rec.energy = tl::verify::checksum_field(
      gm, report.energy.view2d(gm.padded_nx(), gm.padded_ny()));
  return rec;
}

}  // namespace

KernelTally SolveRecord::tally() const {
  KernelTally sum;
  for (const KernelTally& t : rank_tallies) sum += t;
  return sum;
}

double SolveRecord::max_rank_kernel_s() const {
  double worst = 0.0;
  for (const KernelTally& t : rank_tallies) {
    worst = std::max(worst, t.total_ns() * 1e-9);
  }
  return worst;
}

SolveRecord run_mirror(const service::Scenario& scenario, bool traced) {
  return scenario.settings.nranks > 1 ? run_distributed(scenario, traced)
                                      : run_single(scenario, traced);
}

SolveRecord to_record(const service::ScenarioOutcome& outcome) {
  SolveRecord rec;
  fill_outcome(rec, outcome.run);
  rec.u = outcome.u_checksum;
  rec.energy = outcome.energy_checksum;
  return rec;
}

namespace {
bool same_checksum(const tl::verify::FieldChecksum& a,
                   const tl::verify::FieldChecksum& b) {
  return a.sum == b.sum && a.l2 == b.l2 && a.min == b.min && a.max == b.max;
}
}  // namespace

bool same_result(const SolveRecord& a, const SolveRecord& b) {
  return a.converged == b.converged && a.iterations == b.iterations &&
         a.inner_iterations == b.inner_iterations &&
         a.final_rr == b.final_rr && a.launches == b.launches &&
         same_checksum(a.u, b.u) && same_checksum(a.energy, b.energy);
}

bool same_result(const service::JobResult& job, const SolveRecord& b) {
  SolveRecord a;
  a.converged = job.converged;
  a.iterations = job.iterations;
  a.inner_iterations = job.inner_iterations;
  a.final_rr = job.final_rr;
  a.launches = job.kernel_launches;
  a.u = job.u_checksum;
  a.energy = job.energy_checksum;
  return job.ok && same_result(a, b);
}

}  // namespace wallbench
