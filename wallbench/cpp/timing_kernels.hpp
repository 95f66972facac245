#pragma once
// TimingKernels: a transparent core::SolverKernels decorator that measures
// host wall time per entry point.
//
// Every virtual — kernels, fused/pipelined/region variants, caps(), the
// row-reduction hooks, field_view, clock, begin_run — is forwarded to the
// wrapped port unchanged, so the solver dispatches exactly as it would on the
// bare port and the results are bit-identical. Kernel-running entry points
// are bracketed by steady_clock reads; caps(), clock(), row_partials(),
// field_view(), set_row_reductions() and begin_run() are forwarded untimed.
//
// One instance is used by one thread (one rank), like the port it wraps.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

#include "core/kernels_api.hpp"

namespace wallbench {

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Entry : int {
  kUploadState, kInitU, kInitCoefficients, kHaloUpdate, kCalcResidual,
  kCalc2norm, kFinalise, kFieldSummary, kCgInit, kCgCalcW, kCgCalcUr,
  kCgCalcP, kChebyInit, kChebyIterate, kPpcgInitSd, kPpcgInner,
  kJacobiCopyU, kJacobiIterate, kCgCalcWFused, kCgFusedUrP,
  kFusedResidualNorm, kChebyFusedIterate, kPpcgFusedInner,
  kJacobiFusedCopyIterate, kCgPipeInit, kCgPipeCalcQ, kCgPipeUpdate,
  kCgPipeDotsBegin, kCgPipeDotsComplete, kCgCalcWRegion,
  kCgCalcWRegionFinish, kCgCalcWFusedRegion, kCgCalcWFusedRegionFinish,
  kChebyFusedRegion, kChebyFusedRegionFinish, kPpcgFusedRegion,
  kPpcgFusedRegionFinish, kJacobiFusedRegion, kJacobiFusedRegionFinish,
  kReadU, kDownloadEnergy,
  kCount
};
inline constexpr int kEntryCount = static_cast<int>(Entry::kCount);

/// The SolverKernels method name of `e` (metric names use it verbatim).
std::string_view entry_name(Entry e);

/// Per-entry call counts and busy nanoseconds.
struct KernelTally {
  std::array<std::uint64_t, kEntryCount> calls{};
  std::array<double, kEntryCount> ns{};

  std::uint64_t total_calls() const;
  double total_ns() const;
  KernelTally& operator+=(const KernelTally& other);
};

class TimingKernels final : public tl::core::SolverKernels {
 public:
  /// Wraps `inner`; the tally is written to `*tally` (not owned; must
  /// outlive this object). Throws std::invalid_argument on null arguments.
  TimingKernels(std::unique_ptr<tl::core::SolverKernels> inner,
                KernelTally* tally);

  void upload_state(const tl::core::Chunk& chunk) override;
  void init_u() override;
  void init_coefficients(tl::core::Coefficient c, double rx,
                         double ry) override;
  void halo_update(unsigned fields, int depth) override;
  void calc_residual() override;
  double calc_2norm(tl::core::NormTarget target) override;
  void finalise() override;
  tl::core::FieldSummary field_summary() override;
  double cg_init() override;
  double cg_calc_w() override;
  double cg_calc_ur(double alpha) override;
  void cg_calc_p(double beta) override;
  void cheby_init(double theta) override;
  void cheby_iterate(double alpha, double beta) override;
  void ppcg_init_sd(double theta) override;
  void ppcg_inner(double alpha, double beta) override;
  void jacobi_copy_u() override;
  void jacobi_iterate() override;

  unsigned caps() const override { return inner_->caps(); }
  tl::core::CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;
  void cheby_fused_iterate(double alpha, double beta) override;
  void ppcg_fused_inner(double alpha, double beta) override;
  void jacobi_fused_copy_iterate() override;

  tl::core::CgPipeDots cg_pipe_init() override;
  void cg_pipe_calc_q() override;
  tl::core::CgPipeDots cg_pipe_update(double alpha, double beta) override;
  void cg_pipe_dots_begin(const tl::core::CgPipeDots& local) override;
  tl::core::CgPipeDots cg_pipe_dots_complete() override;

  void cg_calc_w_region(tl::core::Region region) override;
  double cg_calc_w_region_finish() override;
  void cg_calc_w_fused_region(tl::core::Region region) override;
  tl::core::CgFusedW cg_calc_w_fused_region_finish() override;
  void cheby_fused_region(double alpha, double beta,
                          tl::core::Region region) override;
  void cheby_fused_region_finish() override;
  void ppcg_fused_region(double alpha, double beta,
                         tl::core::Region region) override;
  void ppcg_fused_region_finish(double alpha, double beta) override;
  void jacobi_fused_region(tl::core::Region region) override;
  void jacobi_fused_region_finish() override;

  bool set_row_reductions(bool on) override {
    return inner_->set_row_reductions(on);
  }
  std::span<const double> row_partials() const override {
    return inner_->row_partials();
  }

  void read_u(tl::util::Span2D<double> out) override;
  tl::util::Span2D<double> field_view(tl::core::FieldId id) override {
    return inner_->field_view(id);
  }
  void download_energy(tl::core::Chunk& chunk) override;
  const tl::sim::SimClock& clock() const override { return inner_->clock(); }
  void begin_run(std::uint64_t run_seed) override {
    inner_->begin_run(run_seed);
  }

 private:
  template <class F>
  decltype(auto) timed(Entry e, F&& f);

  std::unique_ptr<tl::core::SolverKernels> inner_;
  KernelTally* tally_;
};

}  // namespace wallbench
