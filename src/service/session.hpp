#pragma once
// Session: one worker's reusable execution context.
//
// A Session owns what repeated solves share — the decomposition cache (a
// Scenario's BlockDecomposition is a pure function of (nx, ny, nranks), so
// mixed workloads that repeat shapes skip the grid factorisation) and a
// MetricsRegistry slice metering every job per tenant. Registries are
// single-writer by construction (DESIGN.md §11), which is exactly why each
// worker owns its own Session: the slice is written only from that worker's
// thread, and the pool merges slices pairwise in worker order at drain time.
//
// run() never throws: a job that is rejected (unsupported model x device,
// invalid settings) or dies mid-solve comes back with ok == false and the
// reason in `error`, and the worker moves on — one tenant's bad deck must
// not take the service down.

#include <cstdint>
#include <map>
#include <string>

#include "comm/decomposition.hpp"
#include "service/entry.hpp"
#include "service/job.hpp"
#include "telemetry/metrics_registry.hpp"

namespace tl::service {

struct SessionConfig {
  // HostPool width of the OpenMP 3.0 (fortran/omp3) ports this session runs;
  // every other port runs its kernels on the calling thread and ignores it.
  unsigned host_threads = 1;
};

class Session {
 public:
  explicit Session(SessionConfig config = {}) : config_(config) {}

  /// Executes the job's scenario (standalone-equivalent path — see
  /// service/entry.hpp). Fills the solve fields of the result; scheduling
  /// provenance (worker, batch, wait_pops) is the pool's to stamp.
  JobResult run(const Job& job);

  /// Folds one finished job into the per-tenant registry slice. Call after
  /// provenance is stamped so the wait histogram sees the real delay.
  void meter(const JobResult& result);

  const telemetry::MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  telemetry::MetricsRegistry& registry() noexcept { return registry_; }

  std::uint64_t jobs_run() const noexcept { return jobs_run_; }
  std::size_t cached_decompositions() const noexcept {
    return decompositions_.size();
  }

 private:
  /// Cache lookup, inserting on miss. Only consulted for nranks > 1.
  const comm::BlockDecomposition& decomposition_for(const Scenario& scenario);

  SessionConfig config_;
  std::map<std::string, comm::BlockDecomposition> decompositions_;
  telemetry::MetricsRegistry registry_;
  std::uint64_t jobs_run_ = 0;
};

}  // namespace tl::service
