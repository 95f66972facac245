// ports-solve: the seven Fig 8 CPU ports, one rank, one host thread,
// default-problem CG at 384^2 on the CPU device, timed in rounds whose port
// order the seed permutes.

#include <map>
#include <string>

#include "bench.hpp"
#include "core/mesh.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace wallbench {

namespace {

constexpr int kMesh = 384;
constexpr int kMinRounds = 3;

tl::service::Scenario port_scenario(tl::sim::Model model) {
  tl::service::Scenario sc;
  sc.settings = tl::core::Settings::default_problem();
  sc.settings.nx = sc.settings.ny = kMesh;
  sc.settings.solver = tl::core::SolverKind::kCg;
  sc.settings.end_step = 1;
  sc.model = model;
  sc.device = tl::sim::DeviceId::kCpuSandyBridge;
  return sc;
}

struct PortSamples {
  std::vector<double> solve_s;         // untraced
  std::vector<double> job_s;           // untraced, set-up to checksums
  std::vector<double> traced_solve_s;  // trace runs only
  std::vector<double> port_s, state_s;
};

}  // namespace

void run_ports_solve(const Options& opt, Result& r) {
  const std::vector<tl::sim::Model> ports = fig8_ports();
  std::map<tl::sim::Model, SolveRecord> reference;
  std::map<tl::sim::Model, PortSamples> samples;
  std::vector<SolveRecord> traced;
  std::vector<double> setup_s;

  // Untimed first repeat per port: warms the allocator and caches and is the
  // reference every later repeat must reproduce bit for bit.
  for (const tl::sim::Model m : ports) {
    SolveRecord rec = run_mirror(port_scenario(m), false);
    r.check(rec.converged && rec.iterations > 0,
            "ports-solve: first " + std::string(tl::sim::model_id(m)) +
                " solve did not converge");
    reference.emplace(m, std::move(rec));
  }

  tl::util::Rng rng(opt.seed);
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < kMinRounds || seconds_since(start) < opt.seconds;
       ++round) {
    std::vector<tl::sim::Model> order = ports;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const tl::sim::Model m : order) {
      const std::string id(tl::sim::model_id(m));
      const tl::service::Scenario sc = port_scenario(m);
      PortSamples& s = samples[m];
      auto run_traced = [&] {
        SolveRecord t = run_mirror(sc, true);
        r.check(same_result(t, reference.at(m)),
                "ports-solve: traced " + id + " differs from untraced");
        s.traced_solve_s.push_back(t.solve_s);
        traced.push_back(std::move(t));
      };
      // Traced runs alternate which of the pair goes first.
      const bool traced_first = opt.trace && rng.next_below(2) == 0;
      if (traced_first) run_traced();
      const Clock::time_point job_start = Clock::now();
      const SolveRecord rec = run_mirror(sc, false);
      s.job_s.push_back(seconds_since(job_start));
      r.check(same_result(rec, reference.at(m)),
              "ports-solve: repeat of " + id + " differs from the first");
      s.solve_s.push_back(rec.solve_s);
      s.port_s.push_back(rec.port_s);
      s.state_s.push_back(rec.state_s);
      setup_s.push_back(rec.setup_s());
      if (opt.trace && !traced_first) run_traced();
    }
  }

  const tl::core::Mesh mesh(kMesh, kMesh, 2);
  const double cells = static_cast<double>(mesh.interior_cells());
  std::vector<double> port_medians, traced_medians, port_s, state_s;
  double suite_s = 0.0;  // one job per port, each at its median
  for (const tl::sim::Model m : ports) {
    const PortSamples& s = samples.at(m);
    const double med = median(s.solve_s);
    port_medians.push_back(med);
    suite_s += median(s.job_s);
    if (opt.trace) {
      traced_medians.push_back(median(s.traced_solve_s));
      const std::string id(tl::sim::model_id(m));
      r.set("ports." + id + ".solve_s", med);
      r.set("ports." + id + ".ns_per_cell_iter",
            med * 1e9 / (cells * reference.at(m).iterations));
      port_s.insert(port_s.end(), s.port_s.begin(), s.port_s.end());
      state_s.insert(state_s.end(), s.state_s.begin(), s.state_s.end());
    }
  }

  if (opt.trace) {
    set_kernel_metrics(r, traced);
    r.set("driver.port_s", median(port_s));
    r.set("driver.state_s", median(state_s));
    r.set("sim.ns_per_launch", phantom_ns_per_launch());
    r.set("trace.overhead_frac",
          geomean(traced_medians) / geomean(port_medians) - 1.0);
  } else {
    r.set("setup_s", median(setup_s));
    r.set("solve_s", geomean(port_medians));
    r.set("jobs_per_s", static_cast<double>(ports.size()) / suite_s);
  }

  r.note("mesh", std::to_string(kMesh));
  r.note("ranks", "1");
  r.note("host_threads", "1");
  r.note("ports", std::to_string(ports.size()));
  r.note("rounds", std::to_string(samples.at(ports[0]).solve_s.size()));
  r.note("working_set_bytes", std::to_string(cg_working_set_bytes(mesh)));
}

}  // namespace wallbench
