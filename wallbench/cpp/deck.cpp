#include "deck.hpp"

#include <utility>

#include "util/rng.hpp"

namespace wallbench {

namespace core = tl::core;
namespace service = tl::service;
namespace sim = tl::sim;

namespace {

struct Pair {
  sim::Model model;
  sim::DeviceId device;
};
constexpr Pair kPairs[] = {
    {sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge},
    {sim::Model::kKokkos, sim::DeviceId::kCpuSandyBridge},
    {sim::Model::kCuda, sim::DeviceId::kGpuK20X},
};
constexpr int kMeshes[] = {16, 16, 16, 24, 24, 32, 32, 48, 48, 96};
constexpr core::SolverKind kSolvers[] = {
    core::SolverKind::kCg, core::SolverKind::kCheby, core::SolverKind::kPpcg,
    core::SolverKind::kJacobi};
constexpr const char* kTenants[] = {"acme", "burl", "cato",
                                    "dene", "etna", "frey"};

static_assert(std::size(kPairs) * std::size(kMeshes) * std::size(kSolvers) ==
              kDeckBlockJobs);

template <class T>
void shuffle(std::vector<T>& v, tl::util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

}  // namespace

std::vector<service::Job> make_deck(std::uint64_t seed, int blocks) {
  tl::util::Rng rng(seed ^ 0x5e41ce5eedULL);
  std::vector<service::Job> deck;
  deck.reserve(static_cast<std::size_t>(blocks) * kDeckBlockJobs);
  for (int b = 0; b < blocks; ++b) {
    std::vector<int> ranks(kDeckBlockJobs, 1);
    for (int i = 0; i < kDeckDistributedPerBlock; ++i) {
      ranks[static_cast<std::size_t>(i)] = kDeckMaxRanks;
    }
    shuffle(ranks, rng);

    std::vector<service::Job> block;
    block.reserve(kDeckBlockJobs);
    for (const Pair& pair : kPairs) {
      for (const int mesh : kMeshes) {
        for (const core::SolverKind solver : kSolvers) {
          service::Job job;
          service::Scenario& s = job.scenario;
          s.settings = core::Settings::default_problem();
          s.settings.nx = s.settings.ny = mesh;
          s.settings.nranks = ranks[block.size()];
          s.settings.solver = solver;
          s.settings.eps = 1e-6;
          s.settings.max_iters = 200;
          s.settings.end_step = 1;
          s.model = pair.model;
          s.device = pair.device;
          block.push_back(std::move(job));
        }
      }
    }
    shuffle(block, rng);
    for (service::Job& job : block) {
      // Two heavy tenants and four light ones; 20% high, 50% normal, 30%
      // low priority.
      const std::uint64_t t = rng.next_below(10);
      job.tenant = kTenants[t < 3 ? 0 : (t < 6 ? 1 : 2 + (t - 6) % 4)];
      const std::uint64_t p = rng.next_below(10);
      job.priority = p < 2   ? service::Priority::kHigh
                     : p < 7 ? service::Priority::kNormal
                             : service::Priority::kLow;
      deck.push_back(std::move(job));
    }
  }
  return deck;
}

}  // namespace wallbench
