// service-mix: decks of small jobs pushed through SolveService from one
// thread, one small-lane and one large-lane worker, at most 2 ranks per job.

#include <map>
#include <string>

#include "bench.hpp"
#include "deck.hpp"
#include "service/entry.hpp"
#include "service/pool.hpp"
#include "stats.hpp"

namespace wallbench {

namespace {

constexpr int kBlocks = 4;  // 480 jobs per deck
constexpr int kMinDecks = 5;

tl::service::ServiceConfig service_config() {
  tl::service::ServiceConfig config;
  config.small_workers = 1;
  config.large_workers = 1;
  config.host_threads = 1;
  return config;
}

struct DeckRun {
  double setup_s = 0.0;   // SolveService constructor
  double wall_s = 0.0;    // first submit -> finish returned
  double submit_s = 0.0;  // time spent inside submit()
  double finish_s = 0.0;  // time spent inside finish()
  double busy_frac = 0.0;
  double batches = 0.0;
  double max_wait_pops = 0.0;
};

}  // namespace

void run_service_mix(const Options& opt, Result& r) {
  const tl::service::ServiceConfig config = service_config();
  const int workers = config.small_workers + config.large_workers;
  const std::vector<tl::service::Job> deck = make_deck(opt.seed, kBlocks);

  // Standalone twins, one per scenario key, outside the timed region.
  std::map<std::string, SolveRecord> twins;
  for (const tl::service::Job& job : deck) {
    const std::string key = job.scenario.key();
    if (twins.count(key) == 0) {
      twins.emplace(key, to_record(tl::service::run_scenario(job.scenario)));
    }
  }

  r.note("unique_scenarios", std::to_string(twins.size()));

  std::vector<DeckRun> runs;
  std::vector<double> job_s;
  auto push_deck = [&](bool keep) {
    std::vector<tl::service::Job> jobs = deck;
    DeckRun run;
    const Clock::time_point t0 = Clock::now();
    tl::service::SolveService svc(config);
    run.setup_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    for (tl::service::Job& job : jobs) {
      const Clock::time_point ts = Clock::now();
      svc.submit(std::move(job));
      run.submit_s += seconds_since(ts);
    }
    const Clock::time_point tf = Clock::now();
    const tl::service::ServiceReport report = svc.finish();
    run.finish_s = seconds_since(tf);
    run.wall_s = seconds_since(t1);

    double busy_ns = 0.0;
    for (const tl::service::JobResult& res : report.results) {
      const auto twin = twins.find(res.scenario.key());
      r.check(twin != twins.end() && same_result(res, twin->second),
              "service-mix: job " + std::to_string(res.id) + " (" +
                  res.scenario.key() + ") " +
                  (res.ok ? "differs from its twin" : "failed: " + res.error));
      busy_ns += res.wall_ns;
      if (keep) job_s.push_back(res.wall_ns * 1e-9);
    }
    r.check(report.results.size() == deck.size(),
            "service-mix: deck lost jobs");
    run.busy_frac = busy_ns * 1e-9 / (workers * run.wall_s);
    run.batches = static_cast<double>(report.small_queue.batches +
                                      report.large_queue.batches);
    run.max_wait_pops = static_cast<double>(report.max_wait_pops());
    if (keep) runs.push_back(run);
  };

  push_deck(false);  // warm-up, checked but not timed
  const double budget = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(runs.size()) < kMinDecks ||
         seconds_since(start) < budget) {
    push_deck(true);
  }

  auto collect = [&](double DeckRun::*field) {
    std::vector<double> v;
    for (const DeckRun& run : runs) v.push_back(run.*field);
    return v;
  };
  std::vector<double> rates;
  for (const DeckRun& run : runs) {
    rates.push_back(static_cast<double>(deck.size()) / run.wall_s);
  }

  if (!opt.trace) {
    r.set("setup_s", median(collect(&DeckRun::setup_s)));
    r.set("solve_s", median(job_s));
    r.set("jobs_per_s", median(rates));
  } else {
    r.set("service.submit_blocked_s", median(collect(&DeckRun::submit_s)));
    r.set("service.finish_s", median(collect(&DeckRun::finish_s)));
    r.set("service.worker_busy_frac", median(collect(&DeckRun::busy_frac)));
    r.set("service.batches", median(collect(&DeckRun::batches)));
    r.set("service.max_wait_pops", median(collect(&DeckRun::max_wait_pops)));
    r.set("service.job_p99_s", percentile(job_s, 99.0));
    const Tail tail = tail_percentile(job_s);
    r.set("service.job_tail_s", tail.value);
    r.set("service.job_tail_pct", tail.percentile);
    r.set("service.job_samples", static_cast<double>(tail.samples));

    // Replay the deck outside the service, each job untraced and traced
    // (alternating which goes first), both checked against the twin.
    std::vector<SolveRecord> traced;
    std::vector<double> port_s, state_s;
    double untraced_sum = 0.0, traced_sum = 0.0;
    std::uint64_t distributed = 0;
    double halo = 0.0, allreduce = 0.0, bytes = 0.0;
    double two_rank_s = 0.0, one_rank_s = 0.0;
    for (std::size_t i = 0; i < deck.size(); ++i) {
      const tl::service::Scenario& sc = deck[i].scenario;
      const SolveRecord& twin = twins.at(sc.key());
      SolveRecord a, b;
      if (i % 2 == 0) {
        a = run_mirror(sc, false);
        b = run_mirror(sc, true);
      } else {
        b = run_mirror(sc, true);
        a = run_mirror(sc, false);
      }
      r.check(same_result(a, twin) && same_result(b, twin),
              "service-mix: replay of " + sc.key() + " differs from its twin");
      untraced_sum += a.solve_s;
      traced_sum += b.solve_s;
      port_s.push_back(a.port_s);
      state_s.push_back(a.state_s);
      if (sc.settings.nranks > 1) {
        ++distributed;
        halo += static_cast<double>(b.halo_exchanges);
        allreduce += static_cast<double>(b.allreduces);
        bytes += static_cast<double>(b.comm_bytes);
        // The same job on one rank, for dist.speedup_2v1.
        tl::service::Scenario one = sc;
        one.settings.nranks = 1;
        auto twin1 = twins.find(one.key());
        if (twin1 == twins.end()) {
          twin1 =
              twins.emplace(one.key(), to_record(tl::service::run_scenario(one)))
                  .first;
        }
        const SolveRecord c = run_mirror(one, false);
        r.check(same_result(c, twin1->second),
                "service-mix: 1-rank replay of " + one.key() +
                    " differs from its twin");
        two_rank_s += a.solve_s;
        one_rank_s += c.solve_s;
      }
      traced.push_back(std::move(b));
    }
    set_kernel_metrics(r, traced);
    set_dist_metrics(r, traced);
    if (distributed > 0) {
      const double n = static_cast<double>(distributed);
      r.set("comm.halo_exchanges", halo / n);
      r.set("comm.allreduces", allreduce / n);
      r.set("comm.bytes", bytes / n);
      r.set("dist.speedup_2v1", one_rank_s / two_rank_s);
    }
    r.set("driver.port_s", median(port_s));
    r.set("driver.state_s", median(state_s));
    r.set("trace.overhead_frac", traced_sum / untraced_sum - 1.0);
    r.set("sim.ns_per_launch", phantom_ns_per_launch());
    set_comm_micro_metrics(r);
  }

  r.note("deck_jobs", std::to_string(deck.size()));
  r.note("decks", std::to_string(runs.size()));
  r.note("meshes", "[16, 24, 32, 48, 96]");
  r.note("small_workers", std::to_string(config.small_workers));
  r.note("large_workers", std::to_string(config.large_workers));
  r.note("max_ranks_per_job", std::to_string(kDeckMaxRanks));
  r.note("host_threads", "1");
  r.note("working_set_bytes",
         std::to_string(cg_working_set_bytes(tl::core::Mesh(96, 96, 2))));
}

}  // namespace wallbench
