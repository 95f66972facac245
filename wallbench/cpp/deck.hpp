#pragma once
// The service-mix job deck.
//
// A deck is `blocks` blocks of 120 jobs. Each block holds every combination
// of the mesh ladder (16^2 x3, 24^2 x2, 32^2 x2, 48^2 x2, 96^2 x1), the four
// solvers (CG, Chebyshev, PPCG, Jacobi) and the three (model, device) pairs
// (omp3/cpu, kokkos/cpu, cuda/gpu) exactly once; 3 of the 120, chosen by
// the seed, run on 2 ranks. The seed also shuffles each block and draws
// every job's tenant and priority. Fixing the block contents keeps the total
// work of a deck the same for every seed, so the seed changes the order, the
// tenants and which jobs are distributed, not how much there is to do.
//
// Only one job in 40 is distributed: with one in six, the 2-rank jobs'
// lockstep ranks made deck throughput swing by half whenever the host
// descheduled a vCPU, against about 13% for a deck without them.

#include <cstdint>
#include <vector>

#include "service/job.hpp"

namespace wallbench {

inline constexpr int kDeckBlockJobs = 120;
inline constexpr int kDeckMaxRanks = 2;
inline constexpr int kDeckDistributedPerBlock = 3;

std::vector<tl::service::Job> make_deck(std::uint64_t seed, int blocks);

}  // namespace wallbench
