#pragma once
// The TeaLeaf port: every SolverKernels entry written once.
//
// Port<Policy> holds the per-cell arithmetic of each kernel — classic,
// fused, pipelined and (RegionPort) the region splits — and runs it through
// a launch policy (ports/policies.hpp) that supplies what the programming
// model fixes: storage, reduction combine order and transfers.
// This is the paper's methodology taken literally: "TeaLeaf's core solver
// logic and parameters were kept consistent between ports".
//
// Metering convention (matched by PhantomKernels):
//   - each SolverKernels method that runs a kernel charges exactly one
//     launch with make_launch_info(model, kernel, interior_cells), through
//     the policy's metered for_each / reduce;
//   - halo_update charges one make_halo_info launch;
//   - upload_state / download_energy / read_u charge the policy's transfers
//     (free on host devices);
//   - reduction finishes (partial sums, scalar readback) are priced inside
//     the performance model's reduction_overhead, never as extra launches.

#include <array>
#include <cstdint>
#include <utility>

#include "comm/halo.hpp"
#include "core/kernels_api.hpp"
#include "core/model_traits.hpp"
#include "ports/policies.hpp"

namespace tl::ports {

template <std::size_t N>
using Lanes = std::array<double, N>;

/// The 5-point operator's diagonal at padded index i (face coefficients
/// pre-scaled by rx, ry); `w` is the padded row width.
inline double diagonal(const double* kx, const double* ky, std::int64_t i,
                       std::int64_t w) {
  return 1.0 + kx[i + 1] + kx[i] + ky[i + w] + ky[i];
}

template <typename Policy>
class Port : public core::SolverKernels {
 public:
  Port(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
       std::uint64_t run_seed, unsigned host_threads)
      : model_(model),
        mesh_(mesh),
        w_(mesh.padded_nx()),
        p_(model, device, mesh, run_seed, host_threads) {}

  unsigned caps() const override {
    return core::kAllKernelCaps | core::kCapPipelined;
  }

  void upload_state(const core::Chunk& chunk) override { p_.upload(chunk); }

  void init_u() override {
    const double* density = f(FieldId::kDensity);
    const double* energy0 = f(FieldId::kEnergy0);
    double* u = f(FieldId::kU);
    double* u0 = f(FieldId::kU0);
    // Whole padded range: the halo gets coherent values immediately.
    p_.for_each(info(KernelId::kInitU), padded(), [=](std::int64_t i) {
      const double v = energy0[i] * density[i];
      u[i] = v;
      u0[i] = v;
    });
  }

  void init_coefficients(core::Coefficient coefficient, double rx,
                         double ry) override {
    const double* density = f(FieldId::kDensity);
    double* kx = f(FieldId::kKx);
    double* ky = f(FieldId::kKy);
    const bool recip = coefficient == core::Coefficient::kRecipConductivity;
    const std::int64_t w = w_;
    // One ring beyond the interior: the stencil reads kx(x+1), ky(y+1).
    p_.for_each(info(KernelId::kInitCoef), ring(), [=](std::int64_t i) {
      const double wc = recip ? 1.0 / density[i] : density[i];
      const double wl = recip ? 1.0 / density[i - 1] : density[i - 1];
      const double wb = recip ? 1.0 / density[i - w] : density[i - w];
      kx[i] = rx * (wl + wc) / (2.0 * wl * wc);
      ky[i] = ry * (wb + wc) / (2.0 * wb * wc);
    });
  }

  void halo_update(unsigned fields, int depth) override {
    static constexpr std::pair<unsigned, FieldId> kOrder[] = {
        {core::kMaskU, FieldId::kU},
        {core::kMaskP, FieldId::kP},
        {core::kMaskSd, FieldId::kSd},
        {core::kMaskR, FieldId::kR},
        {core::kMaskW, FieldId::kW},
        {core::kMaskDensity, FieldId::kDensity},
        {core::kMaskEnergy0, FieldId::kEnergy0}};
    const sim::LaunchInfo halo = core::make_halo_info(
        model_, mesh_.nx, mesh_.ny, core::mask_field_count(fields), depth);
    p_.launcher().run(halo, [&] {
      for (const auto& [mask, id] : kOrder) {
        if (fields & mask) {
          comm::reflect_boundary(p_.field(id), mesh_.halo_depth,
                                 comm::kAllFaces);
        }
      }
    });
  }

  void calc_residual() override {
    p_.for_each(info(KernelId::kCalcResidual), interior(), residual_cell());
  }

  double calc_2norm(core::NormTarget target) override {
    const double* v = f(target == core::NormTarget::kResidual ? FieldId::kR
                                                              : FieldId::kU0);
    return p_.reduce(info(KernelId::kCalc2Norm), interior(),
                     [=](std::int64_t i) { return Lanes<1>{v[i] * v[i]}; })[0];
  }

  void finalise() override {
    const double* u = f(FieldId::kU);
    const double* density = f(FieldId::kDensity);
    double* energy = f(FieldId::kEnergy);
    p_.for_each(info(KernelId::kFinalise), interior(),
                [=](std::int64_t i) { energy[i] = u[i] / density[i]; });
  }

  core::FieldSummary field_summary() override {
    const double* density = f(FieldId::kDensity);
    const double* energy0 = f(FieldId::kEnergy0);
    const double* u = f(FieldId::kU);
    const double vol = mesh_.cell_area();
    // The one multi-variable reduction of the paper's ports.
    const auto s = p_.reduce(
        info(KernelId::kFieldSummary), interior(), [=](std::int64_t i) {
          return Lanes<4>{vol, density[i] * vol, density[i] * energy0[i] * vol,
                          u[i] * vol};
        });
    return core::FieldSummary{s[0], s[1], s[2], s[3]};
  }

  // -- CG ------------------------------------------------------------------
  double cg_init() override {
    const double* u = f(FieldId::kU);
    const double* u0 = f(FieldId::kU0);
    double* w = f(FieldId::kW);
    double* r = f(FieldId::kR);
    double* p = f(FieldId::kP);
    const Stencil a = stencil();
    return p_.reduce(info(KernelId::kCgInit), interior(), [=](std::int64_t i) {
      const double au = a(u, i);
      w[i] = au;
      const double res = u0[i] - au;
      r[i] = res;
      p[i] = res;
      return Lanes<1>{res * res};
    })[0];
  }

  double cg_calc_w() override {
    const double* p = f(FieldId::kP);
    const auto w_cell = w_equals_ap();
    return p_.reduce(info(KernelId::kCgCalcW), interior(), [=](std::int64_t i) {
      return Lanes<1>{w_cell(i) * p[i]};
    })[0];
  }

  double cg_calc_ur(double alpha) override {
    double* u = f(FieldId::kU);
    const double* p = f(FieldId::kP);
    double* r = f(FieldId::kR);
    const double* w = f(FieldId::kW);
    return p_.reduce(info(KernelId::kCgCalcUr), interior(),
                     [=](std::int64_t i) {
                       u[i] += alpha * p[i];
                       const double res = r[i] - alpha * w[i];
                       r[i] = res;
                       return Lanes<1>{res * res};
                     })[0];
  }

  void cg_calc_p(double beta) override {
    const double* r = f(FieldId::kR);
    double* p = f(FieldId::kP);
    p_.for_each(info(KernelId::kCgCalcP), interior(),
                [=](std::int64_t i) { p[i] = r[i] + beta * p[i]; });
  }

  // -- Chebyshev -----------------------------------------------------------
  void cheby_init(double theta) override {
    const double* r = f(FieldId::kR);
    double* p = f(FieldId::kP);
    double* u = f(FieldId::kU);
    const double theta_inv = 1.0 / theta;
    p_.for_each(info(KernelId::kChebyInit), interior(), [=](std::int64_t i) {
      p[i] = r[i] * theta_inv;
      u[i] += p[i];
    });
  }

  void cheby_iterate(double alpha, double beta) override {
    cheby_sweeps(KernelId::kChebyIterate, alpha, beta);
  }

  // -- PPCG ----------------------------------------------------------------
  void ppcg_init_sd(double theta) override {
    const double* r = f(FieldId::kR);
    double* sd = f(FieldId::kSd);
    const double theta_inv = 1.0 / theta;
    p_.for_each(info(KernelId::kPpcgInitSd), interior(),
                [=](std::int64_t i) { sd[i] = r[i] * theta_inv; });
  }

  void ppcg_inner(double alpha, double beta) override {
    ppcg_sweeps(KernelId::kPpcgInner, alpha, beta);
  }

  // -- Jacobi --------------------------------------------------------------
  void jacobi_copy_u() override {
    // Full padded extent: the iterate's stencil reads w in the halo.
    p_.for_each(info(KernelId::kJacobiCopyU), padded(), copy_u_to_w());
  }

  void jacobi_iterate() override {
    p_.for_each(info(KernelId::kJacobiIterate), interior(), jacobi_cell());
  }

  // -- Fused ---------------------------------------------------------------
  // Each is the same per-cell arithmetic as its classic sequence, charged
  // once at the fused catalogue rate.
  core::CgFusedW cg_calc_w_fused() override {
    const double* p = f(FieldId::kP);
    const auto w_cell = w_equals_ap();
    const auto d = p_.reduce(
        info(KernelId::kCgCalcWFused), interior(), [=](std::int64_t i) {
          const double ap = w_cell(i);
          return Lanes<2>{ap * p[i], ap * ap};
        });
    return core::CgFusedW{d[0], d[1]};
  }

  double cg_fused_ur_p(double alpha, double beta_prev) override {
    double* u = f(FieldId::kU);
    double* p = f(FieldId::kP);
    double* r = f(FieldId::kR);
    const double* w = f(FieldId::kW);
    return p_.reduce(info(KernelId::kCgFusedUrP), interior(),
                     [=](std::int64_t i) {
                       u[i] += alpha * p[i];
                       const double res = r[i] - alpha * w[i];
                       r[i] = res;
                       p[i] = res + beta_prev * p[i];
                       return Lanes<1>{res * res};
                     })[0];
  }

  double fused_residual_norm() override {
    const auto res_cell = residual_cell();
    const double* r = f(FieldId::kR);
    return p_.reduce(info(KernelId::kFusedResidualNorm), interior(),
                     [=](std::int64_t i) {
                       res_cell(i);
                       return Lanes<1>{r[i] * r[i]};
                     })[0];
  }

  void cheby_fused_iterate(double alpha, double beta) override {
    cheby_sweeps(KernelId::kChebyFusedIterate, alpha, beta);
  }

  void ppcg_fused_inner(double alpha, double beta) override {
    ppcg_sweeps(KernelId::kPpcgFusedInner, alpha, beta);
  }

  void jacobi_fused_copy_iterate() override {
    p_.for_each(info(KernelId::kJacobiFusedCopyIterate), padded(),
                copy_u_to_w());
    p_.sweep(interior(), jacobi_cell());
  }

  // -- Pipelined CG ----------------------------------------------------------
  core::CgPipeDots cg_pipe_init() override {
    const double* r = f(FieldId::kR);
    double* w = f(FieldId::kW);
    const Stencil a = stencil();
    const auto d = p_.reduce(info(KernelId::kCgPipeInit), interior(),
                             [=](std::int64_t i) {
                               const double ar = a(r, i);
                               w[i] = ar;
                               return Lanes<2>{r[i] * r[i], ar * r[i]};
                             });
    return core::CgPipeDots{d[0], d[1]};
  }

  void cg_pipe_calc_q() override {
    const double* w = f(FieldId::kW);
    double* q = f(FieldId::kQ);
    const Stencil a = stencil();
    // q = A w — the matvec the in-flight allreduce hides behind.
    p_.for_each(info(KernelId::kCgPipeCalcQ), interior(),
                [=](std::int64_t i) { q[i] = a(w, i); });
  }

  core::CgPipeDots cg_pipe_update(double alpha, double beta) override {
    double* z = f(FieldId::kZ);
    double* s = f(FieldId::kSd);
    double* p = f(FieldId::kP);
    double* u = f(FieldId::kU);
    double* r = f(FieldId::kR);
    double* w = f(FieldId::kW);
    const double* q = f(FieldId::kQ);
    const auto d = p_.reduce(
        info(KernelId::kCgPipeUpdate), interior(), [=](std::int64_t i) {
          const double zn = q[i] + beta * z[i];
          z[i] = zn;
          const double sn = w[i] + beta * s[i];
          s[i] = sn;
          const double pn = r[i] + beta * p[i];
          p[i] = pn;
          u[i] += alpha * pn;
          const double rn = r[i] - alpha * sn;
          r[i] = rn;
          const double wn = w[i] - alpha * zn;
          w[i] = wn;
          return Lanes<2>{rn * rn, wn * rn};
        });
    return core::CgPipeDots{d[0], d[1]};
  }

  // -- Results -------------------------------------------------------------
  void read_u(util::Span2D<double> out) override {
    p_.download(FieldId::kU, out, "read_u");
  }
  void download_energy(core::Chunk& chunk) override {
    p_.download(FieldId::kEnergy, chunk.field(FieldId::kEnergy),
                "download_energy");
  }
  util::Span2D<double> field_view(core::FieldId id) override {
    return p_.field(id);
  }
  const sim::SimClock& clock() const override { return p_.launcher().clock(); }
  void begin_run(std::uint64_t run_seed) override {
    p_.launcher().begin_run(run_seed);
  }

 protected:
  using FieldId = core::FieldId;
  using KernelId = core::KernelId;

  /// (A v)_i for TeaLeaf's 5-point operator, bound to this port's
  /// coefficient fields.
  struct Stencil {
    const double* kx;
    const double* ky;
    std::int64_t w;
    double operator()(const double* v, std::int64_t i) const {
      return diagonal(kx, ky, i, w) * v[i] - kx[i + 1] * v[i + 1] -
             kx[i] * v[i - 1] - ky[i + w] * v[i + w] - ky[i] * v[i - w];
    }
  };
  Stencil stencil() { return {f(FieldId::kKx), f(FieldId::kKy), w_}; }

  double* f(FieldId id) { return p_.field(id).data(); }
  sim::LaunchInfo info(KernelId id) const {
    return core::make_launch_info(model_, id, mesh_.interior_cells());
  }

  Box interior() const { return interior_box(mesh_); }
  Box ring() const { return ring_box(mesh_); }
  Box padded() const { return padded_box(mesh_); }

  // -- Per-cell bodies shared by several entries ---------------------------
  /// r = u0 - A u.
  auto residual_cell() {
    const double* u = f(FieldId::kU);
    const double* u0 = f(FieldId::kU0);
    double* r = f(FieldId::kR);
    const Stencil a = stencil();
    return [=](std::int64_t i) { r[i] = u0[i] - a(u, i); };
  }
  /// w = A p, returning the new w.
  auto w_equals_ap() {
    const double* p = f(FieldId::kP);
    double* w = f(FieldId::kW);
    const Stencil a = stencil();
    return [=](std::int64_t i) {
      const double ap = a(p, i);
      w[i] = ap;
      return ap;
    };
  }
  /// Chebyshev phase 1: r = u0 - A u; p = alpha p + beta r.
  auto cheby_cell(double alpha, double beta) {
    const double* u = f(FieldId::kU);
    const double* u0 = f(FieldId::kU0);
    double* r = f(FieldId::kR);
    double* p = f(FieldId::kP);
    const Stencil a = stencil();
    return [=](std::int64_t i) {
      const double res = u0[i] - a(u, i);
      r[i] = res;
      p[i] = alpha * p[i] + beta * res;
    };
  }
  /// Chebyshev phase 2: u += p.
  auto cheby_u_cell() {
    double* u = f(FieldId::kU);
    const double* p = f(FieldId::kP);
    return [=](std::int64_t i) { u[i] += p[i]; };
  }
  /// PPCG phase 1: r -= A sd; u += sd.
  auto ppcg_cell() {
    double* u = f(FieldId::kU);
    double* r = f(FieldId::kR);
    const double* sd = f(FieldId::kSd);
    const Stencil a = stencil();
    return [=](std::int64_t i) {
      r[i] -= a(sd, i);
      u[i] += sd[i];
    };
  }
  /// PPCG phase 2: sd = alpha sd + beta r.
  auto ppcg_sd_cell(double alpha, double beta) {
    const double* r = f(FieldId::kR);
    double* sd = f(FieldId::kSd);
    return [=](std::int64_t i) { sd[i] = alpha * sd[i] + beta * r[i]; };
  }
  auto copy_u_to_w() {
    const double* u = f(FieldId::kU);
    double* w = f(FieldId::kW);
    return [=](std::int64_t i) { w[i] = u[i]; };
  }
  /// u = (u0 + kx(x+1) w(x+1) + kx w(x-1) + ky(y+1) w(y+1) + ky w(y-1)) / diag.
  auto jacobi_cell() {
    double* u = f(FieldId::kU);
    const double* u0 = f(FieldId::kU0);
    const double* w = f(FieldId::kW);
    const double* kx = f(FieldId::kKx);
    const double* ky = f(FieldId::kKy);
    const std::int64_t W = w_;
    return [=](std::int64_t i) {
      const double diag = diagonal(kx, ky, i, W);
      u[i] = (u0[i] + kx[i + 1] * w[i + 1] + kx[i] * w[i - 1] +
              ky[i + W] * w[i + W] + ky[i] * w[i - W]) /
             diag;
    };
  }

  // The two-sweep kernels: the stencil phase must complete before the
  // second phase rewrites a field it reads; both run under one charge.
  void cheby_sweeps(KernelId id, double alpha, double beta) {
    p_.for_each(info(id), interior(), cheby_cell(alpha, beta));
    p_.sweep(interior(), cheby_u_cell());
  }
  void ppcg_sweeps(KernelId id, double alpha, double beta) {
    p_.for_each(info(id), interior(), ppcg_cell());
    p_.sweep(interior(), ppcg_sd_cell(alpha, beta));
  }

  sim::Model model_;
  core::Mesh mesh_;
  std::int64_t w_;  // padded row width
  mutable Policy p_;
};

/// Port<Policy> plus the region-split sweeps (kCapRegions) for comm/compute
/// overlap. Only policies with an unmetered reduction in their own combine
/// order (sweep_reduce) can offer them; today that is the HostPool policy.
///
/// The split keeps two invariants against the blocking path:
///  * Numerics: region sweeps run the same per-cell bodies over region
///    bounds, and the finishes recompute every reduction over the whole
///    interior in the blocking kernel's exact combine order.
///  * Metering: the kInterior call prices the kernel once (one PerfModel
///    draw — the scheduler luck the unsplit launch would consume) and charges
///    the interior-cell fraction; the finish charges the exact remainder.
///    Edge sweeps charge nothing.
template <typename Policy>
class RegionPort final : public Port<Policy> {
  using Base = Port<Policy>;
  using typename Base::FieldId;
  using typename Base::KernelId;
  using Base::f;
  using Base::interior;
  using Base::mesh_;
  using Base::p_;

 public:
  using Base::Base;

  unsigned caps() const override {
    return Base::caps() | core::kCapRegions;
  }

  void cg_calc_w_region(core::Region region) override {
    if (region == core::Region::kInterior) region_begin(KernelId::kCgCalcW);
    p_.sweep(bounds(region), this->w_equals_ap());
  }
  double cg_calc_w_region_finish() override {
    const double* p = f(FieldId::kP);
    const double* w = f(FieldId::kW);
    const double pw = p_.sweep_reduce(interior(), [=](std::int64_t i) {
      return Lanes<1>{w[i] * p[i]};
    })[0];
    region_finish();
    return pw;
  }

  // The fused sweep is the same stencil; only the catalogue id (and so the
  // priced cost) and the finish's second dot differ.
  void cg_calc_w_fused_region(core::Region region) override {
    if (region == core::Region::kInterior) {
      region_begin(KernelId::kCgCalcWFused);
    }
    p_.sweep(bounds(region), this->w_equals_ap());
  }
  core::CgFusedW cg_calc_w_fused_region_finish() override {
    const double* p = f(FieldId::kP);
    const double* w = f(FieldId::kW);
    const auto d = p_.sweep_reduce(interior(), [=](std::int64_t i) {
      return Lanes<2>{w[i] * p[i], w[i] * w[i]};
    });
    region_finish();
    return core::CgFusedW{d[0], d[1]};
  }

  // Phase 1 only: u is untouched until the finish, so the in-flight u
  // exchange can land between the interior and edge sweeps.
  void cheby_fused_region(double alpha, double beta,
                          core::Region region) override {
    if (region == core::Region::kInterior) {
      region_begin(KernelId::kChebyFusedIterate);
    }
    p_.sweep(bounds(region), this->cheby_cell(alpha, beta));
  }
  void cheby_fused_region_finish() override {
    p_.sweep(interior(), this->cheby_u_cell());
    region_finish();
  }

  // Phase 1 only: sd is untouched until the finish.
  void ppcg_fused_region(double, double, core::Region region) override {
    if (region == core::Region::kInterior) {
      region_begin(KernelId::kPpcgFusedInner);
    }
    p_.sweep(bounds(region), this->ppcg_cell());
  }
  void ppcg_fused_region_finish(double alpha, double beta) override {
    p_.sweep(interior(), this->ppcg_sd_cell(alpha, beta));
    region_finish();
  }

  void jacobi_fused_region(core::Region region) override {
    if (region == core::Region::kInterior) {
      region_begin(KernelId::kJacobiFusedCopyIterate);
      // Full padded copy, as in the fused kernel. The halo of u may still be
      // in flight; the first edge sweep re-copies the refreshed frame, so by
      // the time any sweep reads w outside the interior it matches what the
      // blocking path would have copied.
      p_.sweep(this->padded(), this->copy_u_to_w());
      jacobi_frame_synced_ = false;
    } else if (!jacobi_frame_synced_) {
      const int h = mesh_.halo_depth;
      const int width = mesh_.padded_nx(), height = mesh_.padded_ny();
      for (const Box frame : {Box{0, width, 0, h},
                              Box{0, width, h + mesh_.ny, height},
                              Box{0, h, h, h + mesh_.ny},
                              Box{h + mesh_.nx, width, h, h + mesh_.ny}}) {
        p_.sweep(frame, this->copy_u_to_w());
      }
      jacobi_frame_synced_ = true;
    }
    p_.sweep(bounds(region), this->jacobi_cell());
  }
  void jacobi_fused_region_finish() override { region_finish(); }

 private:
  Box bounds(core::Region region) const {
    return core::region_bounds(region, mesh_.halo_depth, mesh_.nx, mesh_.ny);
  }

  void region_begin(KernelId id) {
    region_info_ = this->info(id);
    const auto priced = p_.launcher().price(region_info_);
    region_factor_ = priced.factor;
    double frac = 0.0;
    if (mesh_.nx > 2 && mesh_.ny > 2) {
      frac = (static_cast<double>(mesh_.nx - 2) *
              static_cast<double>(mesh_.ny - 2)) /
             (static_cast<double>(mesh_.nx) * static_cast<double>(mesh_.ny));
    }
    const double part_ns = priced.ns * frac;
    sim::LaunchInfo part = region_info_;
    part.bytes_read = static_cast<std::size_t>(
        static_cast<double>(region_info_.bytes_read) * frac);
    part.bytes_written = static_cast<std::size_t>(
        static_cast<double>(region_info_.bytes_written) * frac);
    region_rem_ns_ = priced.ns - part_ns;
    region_rem_read_ = region_info_.bytes_read - part.bytes_read;
    region_rem_written_ = region_info_.bytes_written - part.bytes_written;
    p_.launcher().charge_priced(part, part_ns, region_factor_);
  }

  void region_finish() {
    sim::LaunchInfo rem = region_info_;
    rem.bytes_read = region_rem_read_;
    rem.bytes_written = region_rem_written_;
    p_.launcher().charge_priced(rem, region_rem_ns_, region_factor_);
  }

  sim::LaunchInfo region_info_{};
  double region_factor_ = 1.0;
  double region_rem_ns_ = 0.0;
  std::size_t region_rem_read_ = 0;
  std::size_t region_rem_written_ = 0;
  // Jacobi region sweeps copy u into w; the first edge sweep after the halo
  // exchange completes must re-copy u's refreshed halo frame into w.
  bool jacobi_frame_synced_ = false;
};

}  // namespace tl::ports
