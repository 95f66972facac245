// Per-layer measurements shared by the workloads: kernel tallies folded
// into metrics, and the two micro-runs (metering-only solve, 2-rank comm).

#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "comm/decomposition.hpp"
#include "comm/halo.hpp"
#include "comm/minimpi.hpp"
#include "core/driver.hpp"
#include "core/phantom_kernels.hpp"
#include "stats.hpp"
#include "util/buffer.hpp"

namespace wallbench {

std::vector<tl::sim::Model> fig8_ports() {
  using tl::sim::Model;
  return {Model::kFortran, Model::kOmp3Cpp,  Model::kKokkos,
          Model::kKokkosHp, Model::kRaja,    Model::kRajaSimd,
          Model::kOpenCl};
}

std::vector<Entry> reported_entries() {
  // Every entry point a workload's solves reach: the fused single-chunk
  // kernels, the region sweeps the 2-rank overlap path calls, and the few
  // classic kernels the Chebyshev/PPCG bootstrap still uses. The classic
  // sweeps behind use_fused=false and the pipelined-CG kernels stay off.
  return {Entry::kUploadState,
          Entry::kInitU,
          Entry::kInitCoefficients,
          Entry::kHaloUpdate,
          Entry::kCalc2norm,
          Entry::kFinalise,
          Entry::kFieldSummary,
          Entry::kCgInit,
          Entry::kCgCalcW,
          Entry::kCgCalcUr,
          Entry::kChebyInit,
          Entry::kPpcgInitSd,
          Entry::kCgCalcWFused,
          Entry::kCgFusedUrP,
          Entry::kFusedResidualNorm,
          Entry::kChebyFusedIterate,
          Entry::kPpcgFusedInner,
          Entry::kJacobiFusedCopyIterate,
          Entry::kCgCalcWRegion,
          Entry::kCgCalcWRegionFinish,
          Entry::kCgCalcWFusedRegion,
          Entry::kCgCalcWFusedRegionFinish,
          Entry::kChebyFusedRegion,
          Entry::kChebyFusedRegionFinish,
          Entry::kPpcgFusedRegion,
          Entry::kPpcgFusedRegionFinish,
          Entry::kJacobiFusedRegion,
          Entry::kJacobiFusedRegionFinish,
          Entry::kReadU,
          Entry::kDownloadEnergy};
}

void set_kernel_metrics(Result& r, const std::vector<SolveRecord>& records) {
  if (records.empty()) return;
  KernelTally sum;
  double bytes = 0.0, iterations = 0.0, launches = 0.0, self_s = 0.0;
  for (const SolveRecord& rec : records) {
    sum += rec.tally();
    bytes += static_cast<double>(rec.kernel_bytes);
    iterations += rec.iterations;
    launches += static_cast<double>(rec.launches);
    self_s += rec.solve_s - rec.max_rank_kernel_s();
  }
  const double n = static_cast<double>(records.size());
  r.set("kernels.busy_s", sum.total_ns() * 1e-9 / n);
  r.set("kernels.calls", static_cast<double>(sum.total_calls()) / n);
  r.set("kernels.gbs_computed", sum.total_ns() > 0 ? bytes / sum.total_ns()
                                                   : 0.0);
  const std::vector<Entry> reported = reported_entries();
  for (int i = 0; i < kEntryCount; ++i) {
    const auto e = static_cast<Entry>(i);
    const auto idx = static_cast<std::size_t>(i);
    const bool listed =
        std::find(reported.begin(), reported.end(), e) != reported.end();
    if (listed) {
      r.set("kernels." + std::string(entry_name(e)) + ".s",
            sum.ns[idx] * 1e-9 / n);
    } else if (sum.calls[idx] > 0) {
      std::fprintf(stderr, "wallbench: unreported entry %s fired\n",
                   std::string(entry_name(e)).c_str());
    }
  }
  r.set("solver.iterations", iterations / n);
  r.set("solver.self_s", self_s / n);
  r.set("sim.launches", launches / n);
}

void set_dist_metrics(Result& r, const std::vector<SolveRecord>& records) {
  double kernel_s = 0.0, nonkernel_s = 0.0, imbalance = 0.0, n = 0.0;
  for (const SolveRecord& rec : records) {
    if (rec.rank_tallies.size() < 2) continue;
    const double worst = rec.max_rank_kernel_s();
    const double mean = rec.tally().total_ns() * 1e-9 /
                        static_cast<double>(rec.rank_tallies.size());
    kernel_s += worst;
    nonkernel_s += rec.solve_s - worst;
    imbalance += mean > 0.0 ? worst / mean : 0.0;
    n += 1.0;
  }
  if (n == 0.0) return;
  r.set("dist.rank_kernel_s", kernel_s / n);
  r.set("dist.nonkernel_s", nonkernel_s / n);
  r.set("dist.imbalance", imbalance / n);
}

double phantom_ns_per_launch() {
  constexpr int kMesh = 32;  // a service-mix mesh size
  constexpr double kSeconds = 0.5;
  tl::core::Settings s = tl::core::Settings::default_problem();
  s.nx = s.ny = kMesh;
  tl::core::PhantomScript script;
  script.converge_after_ur = 100;
  const tl::core::Mesh m(kMesh, kMesh, s.halo_depth);
  std::vector<double> samples;
  const Clock::time_point t0 = Clock::now();
  while (samples.size() < 5 || seconds_since(t0) < kSeconds) {
    tl::core::Driver driver(
        s,
        std::make_unique<tl::core::PhantomKernels>(
            tl::sim::Model::kOmp3Cpp, tl::sim::DeviceId::kCpuSandyBridge, m,
            script),
        tl::core::DriverOptions{.materialize_host_state = false});
    const Clock::time_point t = Clock::now();
    driver.run();
    const double ns = seconds_since(t) * 1e9;
    samples.push_back(ns /
                      static_cast<double>(driver.kernels().clock().launches()));
  }
  return median(samples);
}

void set_comm_micro_metrics(Result& r) {
  constexpr int kMesh = 48;  // a mid service-mix mesh
  constexpr int kReps = 2000;
  constexpr int kHalo = 2;
  const tl::comm::BlockDecomposition decomp(kMesh, kMesh, 2);
  std::vector<double> halo_us(2), reduce_us(2), sums(2);
  std::vector<int> peer_cells(2);
  tl::comm::run_ranks(2, [&](tl::comm::Communicator& comm) {
    const int rank = comm.rank();
    const auto slot = static_cast<std::size_t>(rank);
    const tl::comm::Tile& tile = decomp.tile(rank);
    const int w = tile.nx() + 2 * kHalo, h = tile.ny() + 2 * kHalo;
    tl::util::Buffer<double> field(static_cast<std::size_t>(w) *
                                   static_cast<std::size_t>(h));
    auto view = field.view2d(w, h);
    // Interior cells hold rank + 1, halo cells 0: after an exchange the
    // halo facing the other rank holds its value.
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const bool interior = x >= kHalo && x < w - kHalo && y >= kHalo &&
                              y < h - kHalo;
        view(x, y) = interior ? rank + 1.0 : 0.0;
      }
    }
    tl::comm::HaloExchanger ex(decomp, rank, kHalo);
    std::vector<double> hs, rs;
    hs.reserve(kReps);
    rs.reserve(kReps);
    for (int i = 0; i < kReps; ++i) {
      comm.barrier();
      const Clock::time_point t = Clock::now();
      ex.exchange(comm, view, 1, 1);
      hs.push_back(seconds_since(t) * 1e6);
    }
    for (int i = 0; i < kReps; ++i) {
      comm.barrier();
      const Clock::time_point t = Clock::now();
      sums[slot] +=
          comm.allreduce(1.0 + i, tl::comm::Communicator::ReduceOp::kSum);
      rs.push_back(seconds_since(t) * 1e6);
    }
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) peer_cells[slot] += view(x, y) == 2 - rank;
    }
    halo_us[slot] = median(hs);
    reduce_us[slot] = median(rs);
  });
  // Each allreduce sums 1 + i from both ranks.
  const double want = static_cast<double>(kReps) * (kReps + 1);
  r.check(sums[0] == want && sums[1] == want,
          "comm micro-run: allreduce sums are wrong");
  r.check(peer_cells[0] >= kMesh / 2 && peer_cells[1] >= kMesh / 2,
          "comm micro-run: halo exchange did not deliver the peer's cells");
  r.set("comm.halo_exchange_us", std::max(halo_us[0], halo_us[1]));
  r.set("comm.allreduce_us", std::max(reduce_us[0], reduce_us[1]));
}

}  // namespace wallbench
