// Self-tests of the benchmark's own pieces: the TimingKernels decorator is
// transparent, the service-mix deck is a pure function of its seed, and the
// order statistics report what they claim.
//
//   cmake --build .bench_build --target wallbench_tests && .bench_build/wallbench_tests

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "deck.hpp"
#include "mirror.hpp"
#include "ports/registry.hpp"
#include "service/entry.hpp"
#include "sim/device.hpp"
#include "stats.hpp"
#include "timing_kernels.hpp"

namespace wallbench {
namespace {

namespace core = tl::core;
namespace sim = tl::sim;
namespace service = tl::service;

/// Every supported (model, device) pair.
std::vector<std::pair<sim::Model, sim::DeviceId>> all_ports() {
  std::vector<std::pair<sim::Model, sim::DeviceId>> out;
  for (const sim::Model m : sim::kAllModels) {
    for (const sim::DeviceId d : sim::kAllDevices) {
      if (tl::ports::is_supported(m, d)) out.emplace_back(m, d);
    }
  }
  return out;
}

service::Scenario small_scenario(sim::Model m, sim::DeviceId d, int nranks,
                                 core::SolverKind solver) {
  service::Scenario sc;
  sc.settings = core::Settings::default_problem();
  sc.settings.nx = sc.settings.ny = 32;
  sc.settings.nranks = nranks;
  sc.settings.solver = solver;
  sc.settings.eps = 1e-10;
  sc.settings.end_step = 1;
  sc.model = m;
  sc.device = d;
  return sc;
}

std::string label(const service::Scenario& sc) { return sc.key(); }

TEST(TimingKernels, BitIdenticalSingleAndTwoRankForEveryPort) {
  for (const auto& [m, d] : all_ports()) {
    for (const int ranks : {1, 2}) {
      const service::Scenario sc =
          small_scenario(m, d, ranks, core::SolverKind::kCg);
      const SolveRecord bare = run_mirror(sc, false);
      const SolveRecord timed = run_mirror(sc, true);
      EXPECT_TRUE(bare.converged) << label(sc);
      EXPECT_TRUE(same_result(bare, timed)) << label(sc);
      ASSERT_EQ(timed.rank_tallies.size(), static_cast<std::size_t>(ranks));
      EXPECT_GT(timed.tally().total_calls(), 0u) << label(sc);
      EXPECT_TRUE(bare.rank_tallies.empty());
    }
  }
}

TEST(TimingKernels, BitIdenticalForEverySolver) {
  for (const core::SolverKind solver :
       {core::SolverKind::kCg, core::SolverKind::kCheby,
        core::SolverKind::kPpcg, core::SolverKind::kJacobi}) {
    for (const int ranks : {1, 2}) {
      const service::Scenario sc = small_scenario(
          sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge, ranks, solver);
      EXPECT_TRUE(same_result(run_mirror(sc, false), run_mirror(sc, true)))
          << label(sc);
    }
  }
}

TEST(TimingKernels, ForwardsCapsAndRowReductions) {
  const core::Mesh mesh(24, 16, 2);
  for (const auto& [m, d] : all_ports()) {
    KernelTally tally;
    auto bare = tl::ports::make_port(m, d, mesh);
    TimingKernels timed(tl::ports::make_port(m, d, mesh), &tally);
    EXPECT_EQ(bare->caps(), timed.caps()) << sim::model_id(m);
    EXPECT_EQ(bare->set_row_reductions(true), timed.set_row_reductions(true))
        << sim::model_id(m);
    EXPECT_EQ(&timed.clock(), &timed.clock());
    EXPECT_EQ(tally.total_calls(), 0u);
  }
}

TEST(TimingKernels, CountsEachCall) {
  KernelTally tally;
  const core::Mesh mesh(16, 16, 2);
  TimingKernels timed(tl::ports::make_port(sim::Model::kOmp3Cpp,
                                           sim::DeviceId::kCpuSandyBridge,
                                           mesh),
                      &tally);
  timed.init_u();
  timed.init_u();
  timed.halo_update(core::kMaskU, 1);
  EXPECT_EQ(tally.calls[static_cast<std::size_t>(Entry::kInitU)], 2u);
  EXPECT_EQ(tally.calls[static_cast<std::size_t>(Entry::kHaloUpdate)], 1u);
  EXPECT_EQ(tally.total_calls(), 3u);
  EXPECT_GE(tally.total_ns(), 0.0);
}

TEST(TimingKernels, RejectsNullArguments) {
  KernelTally tally;
  EXPECT_THROW(TimingKernels(nullptr, &tally), std::invalid_argument);
  EXPECT_THROW(TimingKernels(tl::ports::make_port(
                                 sim::Model::kOmp3Cpp,
                                 sim::DeviceId::kCpuSandyBridge,
                                 core::Mesh(8, 8, 2)),
                             nullptr),
               std::invalid_argument);
}

TEST(Mirror, MatchesRunScenarioTwin) {
  for (const int ranks : {1, 2}) {
    const service::Scenario sc =
        small_scenario(sim::Model::kKokkos, sim::DeviceId::kCpuSandyBridge,
                       ranks, core::SolverKind::kPpcg);
    EXPECT_TRUE(
        same_result(run_mirror(sc, false), to_record(service::run_scenario(sc))))
        << label(sc);
  }
}

using DeckKey = std::tuple<std::string, std::string, int>;

std::vector<DeckKey> deck_keys(const std::vector<service::Job>& deck) {
  std::vector<DeckKey> keys;
  for (const service::Job& j : deck) {
    keys.emplace_back(j.scenario.key(), j.tenant,
                      static_cast<int>(j.priority));
  }
  return keys;
}

TEST(Deck, SameSeedSameDeck) {
  EXPECT_EQ(deck_keys(make_deck(7, 2)), deck_keys(make_deck(7, 2)));
}

TEST(Deck, DifferentSeedDifferentDeck) {
  EXPECT_NE(deck_keys(make_deck(7, 2)), deck_keys(make_deck(8, 2)));
}

TEST(Deck, EverySeedHasTheSameComposition) {
  auto composition = [](const std::vector<service::Job>& deck) {
    std::map<std::string, int> counts;  // key without the rank count
    int distributed = 0;
    for (const service::Job& j : deck) {
      service::Scenario s = j.scenario;
      distributed += s.settings.nranks > 1 ? 1 : 0;
      EXPECT_LE(s.settings.nranks, kDeckMaxRanks);
      s.settings.nranks = 1;
      ++counts[s.key()];
    }
    return std::make_pair(counts, distributed);
  };
  const auto a = composition(make_deck(1, 3));
  const auto b = composition(make_deck(99, 3));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.second, 3 * kDeckDistributedPerBlock);
  EXPECT_EQ(make_deck(5, 3).size(), 3u * kDeckBlockJobs);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond) {
  struct Case {
    std::size_t n;
    double pct;
    double value;
  };
  for (const Case c : {Case{1000, 99.0, 990.0}, Case{999, 90.0, 900.0},
                       Case{10000, 99.9, 9990.0}, Case{100, 90.0, 90.0},
                       Case{20, 50.0, 10.0}, Case{19, 0.0, 0.0},
                       Case{0, 0.0, 0.0}}) {
    const Tail t = tail_percentile(one_to(c.n));
    EXPECT_EQ(t.samples, c.n);
    EXPECT_EQ(t.percentile, c.pct) << "n=" << c.n;
    EXPECT_EQ(t.value, c.value) << "n=" << c.n;
  }
}

TEST(Stats, MedianPercentileGeomean) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(percentile(one_to(100), 99.0), 99.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_EQ(geomean({1.0, 0.0}), 0.0);
}

}  // namespace
}  // namespace wallbench
