#include "timing_kernels.hpp"

#include <stdexcept>
#include <utility>

namespace wallbench {

namespace core = tl::core;

std::string_view entry_name(Entry e) {
  static constexpr std::string_view kNames[kEntryCount] = {
      "upload_state", "init_u", "init_coefficients", "halo_update",
      "calc_residual", "calc_2norm", "finalise", "field_summary", "cg_init",
      "cg_calc_w", "cg_calc_ur", "cg_calc_p", "cheby_init", "cheby_iterate",
      "ppcg_init_sd", "ppcg_inner", "jacobi_copy_u", "jacobi_iterate",
      "cg_calc_w_fused", "cg_fused_ur_p", "fused_residual_norm",
      "cheby_fused_iterate", "ppcg_fused_inner", "jacobi_fused_copy_iterate",
      "cg_pipe_init", "cg_pipe_calc_q", "cg_pipe_update",
      "cg_pipe_dots_begin", "cg_pipe_dots_complete", "cg_calc_w_region",
      "cg_calc_w_region_finish", "cg_calc_w_fused_region",
      "cg_calc_w_fused_region_finish", "cheby_fused_region",
      "cheby_fused_region_finish", "ppcg_fused_region",
      "ppcg_fused_region_finish", "jacobi_fused_region",
      "jacobi_fused_region_finish", "read_u", "download_energy"};
  const int i = static_cast<int>(e);
  return i >= 0 && i < kEntryCount ? kNames[i] : std::string_view("?");
}

std::uint64_t KernelTally::total_calls() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : calls) n += c;
  return n;
}

double KernelTally::total_ns() const {
  double t = 0.0;
  for (const double v : ns) t += v;
  return t;
}

KernelTally& KernelTally::operator+=(const KernelTally& other) {
  for (int i = 0; i < kEntryCount; ++i) {
    calls[static_cast<std::size_t>(i)] += other.calls[static_cast<std::size_t>(i)];
    ns[static_cast<std::size_t>(i)] += other.ns[static_cast<std::size_t>(i)];
  }
  return *this;
}

TimingKernels::TimingKernels(std::unique_ptr<core::SolverKernels> inner,
                             KernelTally* tally)
    : inner_(std::move(inner)), tally_(tally) {
  if (!inner_ || tally_ == nullptr) {
    throw std::invalid_argument("TimingKernels: null port or tally");
  }
}

template <class F>
decltype(auto) TimingKernels::timed(Entry e, F&& f) {
  const auto i = static_cast<std::size_t>(e);
  const Clock::time_point start = Clock::now();
  struct Stop {
    KernelTally* tally;
    std::size_t i;
    Clock::time_point start;
    ~Stop() {
      tally->ns[i] += std::chrono::duration<double, std::nano>(
                          Clock::now() - start).count();
      ++tally->calls[i];
    }
  } stop{tally_, i, start};
  return std::forward<F>(f)();
}

void TimingKernels::upload_state(const core::Chunk& chunk) {
  timed(Entry::kUploadState, [&] { inner_->upload_state(chunk); });
}
void TimingKernels::init_u() {
  timed(Entry::kInitU, [&] { inner_->init_u(); });
}
void TimingKernels::init_coefficients(core::Coefficient c, double rx,
                                      double ry) {
  timed(Entry::kInitCoefficients,
        [&] { inner_->init_coefficients(c, rx, ry); });
}
void TimingKernels::halo_update(unsigned fields, int depth) {
  timed(Entry::kHaloUpdate, [&] { inner_->halo_update(fields, depth); });
}
void TimingKernels::calc_residual() {
  timed(Entry::kCalcResidual, [&] { inner_->calc_residual(); });
}
double TimingKernels::calc_2norm(core::NormTarget target) {
  return timed(Entry::kCalc2norm, [&] { return inner_->calc_2norm(target); });
}
void TimingKernels::finalise() {
  timed(Entry::kFinalise, [&] { inner_->finalise(); });
}
core::FieldSummary TimingKernels::field_summary() {
  return timed(Entry::kFieldSummary, [&] { return inner_->field_summary(); });
}
double TimingKernels::cg_init() {
  return timed(Entry::kCgInit, [&] { return inner_->cg_init(); });
}
double TimingKernels::cg_calc_w() {
  return timed(Entry::kCgCalcW, [&] { return inner_->cg_calc_w(); });
}
double TimingKernels::cg_calc_ur(double alpha) {
  return timed(Entry::kCgCalcUr, [&] { return inner_->cg_calc_ur(alpha); });
}
void TimingKernels::cg_calc_p(double beta) {
  timed(Entry::kCgCalcP, [&] { inner_->cg_calc_p(beta); });
}
void TimingKernels::cheby_init(double theta) {
  timed(Entry::kChebyInit, [&] { inner_->cheby_init(theta); });
}
void TimingKernels::cheby_iterate(double alpha, double beta) {
  timed(Entry::kChebyIterate, [&] { inner_->cheby_iterate(alpha, beta); });
}
void TimingKernels::ppcg_init_sd(double theta) {
  timed(Entry::kPpcgInitSd, [&] { inner_->ppcg_init_sd(theta); });
}
void TimingKernels::ppcg_inner(double alpha, double beta) {
  timed(Entry::kPpcgInner, [&] { inner_->ppcg_inner(alpha, beta); });
}
void TimingKernels::jacobi_copy_u() {
  timed(Entry::kJacobiCopyU, [&] { inner_->jacobi_copy_u(); });
}
void TimingKernels::jacobi_iterate() {
  timed(Entry::kJacobiIterate, [&] { inner_->jacobi_iterate(); });
}

core::CgFusedW TimingKernels::cg_calc_w_fused() {
  return timed(Entry::kCgCalcWFused,
               [&] { return inner_->cg_calc_w_fused(); });
}
double TimingKernels::cg_fused_ur_p(double alpha, double beta_prev) {
  return timed(Entry::kCgFusedUrP,
               [&] { return inner_->cg_fused_ur_p(alpha, beta_prev); });
}
double TimingKernels::fused_residual_norm() {
  return timed(Entry::kFusedResidualNorm,
               [&] { return inner_->fused_residual_norm(); });
}
void TimingKernels::cheby_fused_iterate(double alpha, double beta) {
  timed(Entry::kChebyFusedIterate,
        [&] { inner_->cheby_fused_iterate(alpha, beta); });
}
void TimingKernels::ppcg_fused_inner(double alpha, double beta) {
  timed(Entry::kPpcgFusedInner,
        [&] { inner_->ppcg_fused_inner(alpha, beta); });
}
void TimingKernels::jacobi_fused_copy_iterate() {
  timed(Entry::kJacobiFusedCopyIterate,
        [&] { inner_->jacobi_fused_copy_iterate(); });
}

core::CgPipeDots TimingKernels::cg_pipe_init() {
  return timed(Entry::kCgPipeInit, [&] { return inner_->cg_pipe_init(); });
}
void TimingKernels::cg_pipe_calc_q() {
  timed(Entry::kCgPipeCalcQ, [&] { inner_->cg_pipe_calc_q(); });
}
core::CgPipeDots TimingKernels::cg_pipe_update(double alpha, double beta) {
  return timed(Entry::kCgPipeUpdate,
               [&] { return inner_->cg_pipe_update(alpha, beta); });
}
void TimingKernels::cg_pipe_dots_begin(const core::CgPipeDots& local) {
  timed(Entry::kCgPipeDotsBegin, [&] { inner_->cg_pipe_dots_begin(local); });
}
core::CgPipeDots TimingKernels::cg_pipe_dots_complete() {
  return timed(Entry::kCgPipeDotsComplete,
               [&] { return inner_->cg_pipe_dots_complete(); });
}

void TimingKernels::cg_calc_w_region(core::Region region) {
  timed(Entry::kCgCalcWRegion, [&] { inner_->cg_calc_w_region(region); });
}
double TimingKernels::cg_calc_w_region_finish() {
  return timed(Entry::kCgCalcWRegionFinish,
               [&] { return inner_->cg_calc_w_region_finish(); });
}
void TimingKernels::cg_calc_w_fused_region(core::Region region) {
  timed(Entry::kCgCalcWFusedRegion,
        [&] { inner_->cg_calc_w_fused_region(region); });
}
core::CgFusedW TimingKernels::cg_calc_w_fused_region_finish() {
  return timed(Entry::kCgCalcWFusedRegionFinish,
               [&] { return inner_->cg_calc_w_fused_region_finish(); });
}
void TimingKernels::cheby_fused_region(double alpha, double beta,
                                       core::Region region) {
  timed(Entry::kChebyFusedRegion,
        [&] { inner_->cheby_fused_region(alpha, beta, region); });
}
void TimingKernels::cheby_fused_region_finish() {
  timed(Entry::kChebyFusedRegionFinish,
        [&] { inner_->cheby_fused_region_finish(); });
}
void TimingKernels::ppcg_fused_region(double alpha, double beta,
                                      core::Region region) {
  timed(Entry::kPpcgFusedRegion,
        [&] { inner_->ppcg_fused_region(alpha, beta, region); });
}
void TimingKernels::ppcg_fused_region_finish(double alpha, double beta) {
  timed(Entry::kPpcgFusedRegionFinish,
        [&] { inner_->ppcg_fused_region_finish(alpha, beta); });
}
void TimingKernels::jacobi_fused_region(core::Region region) {
  timed(Entry::kJacobiFusedRegion,
        [&] { inner_->jacobi_fused_region(region); });
}
void TimingKernels::jacobi_fused_region_finish() {
  timed(Entry::kJacobiFusedRegionFinish,
        [&] { inner_->jacobi_fused_region_finish(); });
}

void TimingKernels::read_u(tl::util::Span2D<double> out) {
  timed(Entry::kReadU, [&] { inner_->read_u(out); });
}
void TimingKernels::download_energy(core::Chunk& chunk) {
  timed(Entry::kDownloadEnergy, [&] { inner_->download_energy(chunk); });
}

}  // namespace wallbench
