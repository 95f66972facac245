#pragma once
// Launch policies: what each programming model fixes about a TeaLeaf port.
//
// Port<Policy> (ports/port.hpp) writes every kernel body once, as a per-cell
// function of the padded flat index. Every metered launch walks its box the
// same way, row by row with contiguous cells (for_box; HostRowsPolicy deals
// the rows out to its HostPool), under the launcher of the model's layer
// (src/models). A policy supplies only what its model decides:
//   - storage: where the padded fields live (host chunk, Kokkos Views,
//     OpenCL buffers, CUDA device buffers);
//   - the reduction combine order its model fixes;
//   - the transfers it charges for upload_state / read_u / download_energy.
// The code shapes the paper blames (Kokkos' flat loop with a halo test,
// RAJA's ListSegment indirection, the hand-written two-stage reductions) are
// priced by the KernelTraits on each LaunchInfo and the sim/codegen profile,
// and measured in isolation by bench_micro_models; none is replayed here.
//
// Every policy offers the same surface:
//   for_each(info, box, body)   metered sweep, body(i) per cell
//   reduce(info, box, body)     metered sweep, body(i) -> lanes; the summed
//                               lanes in the model's combine order
//   sweep(box, body)            unmetered sweep (the second phase of a
//                               two-phase kernel, already priced by its launch)
//   field(id), launcher(), upload(chunk), download(id, out, name)
//
// Combine orders (each lane is a separate sum; every sum starts at +0.0):
//   HostRowsPolicy      lane 0: HostPool chunks of rows, pairwise in chunk
//                       order; lanes 1+: one partial per row, row order
//   KokkosPolicy        kokkos, and kokkos_hp outside its classic kernels:
//   RajaPolicy,         a left fold over the box's cells, row-major
//   OffloadPolicy
//   KokkosPolicy        kokkos_hp classic kernels: one partial per row (team),
//                       row order
//   OpenClPolicy,       one partial per kGroupSize cells of the box's
//   CudaPolicy          row-major cells (a group may span rows; the last may
//                       be partial), groups in order

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/fields.hpp"
#include "core/kernel_catalog.hpp"
#include "core/kernels_api.hpp"
#include "models/culike/cuda.hpp"
#include "models/kokkoslike/kokkos.hpp"
#include "models/ocllike/opencl.hpp"
#include "models/offload/offload.hpp"
#include "models/omp3/omp3.hpp"
#include "models/rajalike/raja.hpp"

namespace tl::ports {

/// A half-open rectangle of padded cells (interior, ring, padded, region).
using Box = core::RegionBounds;

/// The lanes a reduction body returns: std::array<double, N>.
template <typename Body>
using LanesOf = std::invoke_result_t<Body&, std::int64_t>;

template <typename Lanes>
void add_lanes(Lanes& acc, const Lanes& v) {
  for (std::size_t k = 0; k < acc.size(); ++k) acc[k] += v[k];
}

/// The iteration spaces of the kernels: the interior, the interior plus one
/// ring (the coefficients, which the stencil reads at x+1 and y+1), and the
/// whole padded field.
inline Box interior_box(const core::Mesh& m) {
  const int h = m.halo_depth;
  return {h, h + m.nx, h, h + m.ny};
}
inline Box ring_box(const core::Mesh& m) {
  const int h = m.halo_depth;
  return {h - 1, h + m.nx + 1, h - 1, h + m.ny + 1};
}
inline Box padded_box(const core::Mesh& m) {
  return {0, m.padded_nx(), 0, m.padded_ny()};
}

/// Row-major walk over a box of a padded field `width` wide.
template <typename Body>
void for_box(const Box& b, std::int64_t width, Body&& body) {
  for (std::int64_t y = b.y0; y < b.y1; ++y) {
    const std::int64_t row = y * width;
    for (std::int64_t x = b.x0; x < b.x1; ++x) body(row + x);
  }
}

/// Cells per partial of a flat left fold: more than any box holds.
inline constexpr std::int64_t kWholeBox =
    std::numeric_limits<std::int64_t>::max();

/// The combine order of every policy but HostRowsPolicy, on for_box's walk.
/// The box's row-major cells are cut into consecutive runs of `run` cells
/// (the last may be shorter); each run's lanes are left-folded from +0.0
/// into a partial, and the partials are left-folded in run order. With
/// run = kWholeBox this is the flat left fold: the one partial is added to
/// +0.0, which is exact because a sum seeded with +0.0 is never -0.0.
template <typename Body>
LanesOf<Body> fold_runs(const Box& b, std::int64_t width, std::int64_t run,
                        Body& body) {
  using Lanes = LanesOf<Body>;
  Lanes total{}, part{};
  std::int64_t left = run;  // cells still to add to `part`
  for (std::int64_t y = b.y0; y < b.y1; ++y) {
    const std::int64_t row = y * width;
    for (std::int64_t x = b.x0; x < b.x1;) {
      const std::int64_t n = std::min<std::int64_t>(b.x1 - x, left);
      const std::int64_t end = row + x + n;
      for (std::int64_t i = row + x; i < end; ++i) add_lanes(part, body(i));
      x += n;
      left -= n;
      if (left == 0) {
        add_lanes(total, part);
        part = Lanes{};
        left = run;
      }
    }
  }
  if (left != run) add_lanes(total, part);
  return total;
}

/// Geometry every policy shares, and the metered launch of every policy but
/// HostRowsPolicy: for_box under the launcher of the model's layer, and for
/// reductions fold_runs in runs of the policy's partial_cells(info, box).
/// `Policy` supplies launcher() and, where its model fixes a combine order
/// other than the flat left fold, partial_cells.
template <typename Policy>
class PolicyBase {
 public:
  template <typename Body>
  void for_each(const sim::LaunchInfo& info, const Box& b, Body&& body) {
    self().launcher().run(info, [&] { for_box(b, width_, body); });
  }

  template <typename Body>
  LanesOf<Body> reduce(const sim::LaunchInfo& info, const Box& b,
                       Body&& body) {
    LanesOf<Body> out{};
    self().launcher().run(info, [&] {
      out = fold_runs(b, width_, self().partial_cells(info, b), body);
    });
    return out;
  }

  template <typename Body>
  void sweep(const Box& b, Body&& body) {
    for_box(b, width_, body);
  }

  /// Cells per reduction partial: the flat left fold.
  static std::int64_t partial_cells(const sim::LaunchInfo&, const Box&) {
    return kWholeBox;
  }

 protected:
  explicit PolicyBase(const core::Mesh& mesh)
      : width_(mesh.padded_nx()),
        height_(mesh.padded_ny()),
        padded_(mesh.padded_cells()) {}

  std::size_t padded_bytes() const { return padded_ * sizeof(double); }
  util::Span2D<double> padded_span(double* data) const {
    return {data, static_cast<int>(width_), static_cast<int>(height_)};
  }

  std::int64_t width_, height_;
  std::size_t padded_;

 private:
  Policy& self() { return static_cast<Policy&>(*this); }
};

/// Fields held in a host chunk (OpenMP 3.0, RAJA, and the host copies the
/// offload directives map onto the device).
template <typename Policy>
class HostFields : public PolicyBase<Policy> {
 public:
  util::Span2D<double> field(core::FieldId id) { return storage_.field(id); }

 protected:
  explicit HostFields(const core::Mesh& mesh)
      : PolicyBase<Policy>(mesh), storage_(mesh) {}

  void copy_in(const core::Chunk& chunk) {
    for (const core::FieldId id : {core::FieldId::kDensity,
                                   core::FieldId::kEnergy0}) {
      const double* src = chunk.field(id).data();
      std::copy(src, src + this->padded_, storage_.field(id).data());
    }
  }
  void copy_out(core::FieldId id, util::Span2D<double> out) {
    const double* src = storage_.field(id).data();
    std::copy(src, src + this->padded_, out.data());
  }

  core::Chunk storage_;
};

// ---------------------------------------------------------------------------
// OpenMP 3.0 (Fortran 90 and C++): `parallel for` over rows on the HostPool
// ---------------------------------------------------------------------------

/// The only policy that reads `host_threads`: its rows run on a HostPool of
/// that width, and its reductions are bit-identical at any width. It replaces
/// the shared launch with the HostPool's row chunks.
class HostRowsPolicy : public HostFields<HostRowsPolicy> {
 public:
  HostRowsPolicy(sim::Model model, sim::DeviceId device,
                 const core::Mesh& mesh, std::uint64_t run_seed,
                 unsigned host_threads)
      : HostFields(mesh), rt_(model, device, run_seed, host_threads) {}

  models::Launcher& launcher() { return rt_.launcher(); }

  /// Host-resident data: the transfers are free but counted.
  void upload(const core::Chunk& chunk) {
    copy_in(chunk);
    rt_.launcher().charge_transfer({.name = "upload_state",
                                    .bytes = 2 * padded_bytes(),
                                    .to_device = true});
  }
  void download(core::FieldId id, util::Span2D<double> out,
                std::string_view name) {
    copy_out(id, out);
    rt_.launcher().charge_transfer(
        {.name = name, .bytes = padded_bytes(), .to_device = false});
  }

  template <typename Body>
  void for_each(const sim::LaunchInfo& info, const Box& b, Body&& body) {
    rt_.parallel_for(info, b.y0, b.y1,
                     [&](std::int64_t y) { row(b, y, body); });
  }

  template <typename Body>
  void sweep(const Box& b, Body&& body) {
    rt_.pool().parallel_for(b.y0, b.y1, [&](std::int64_t y0, std::int64_t y1) {
      for (std::int64_t y = y0; y < y1; ++y) row(b, y, body);
    });
  }

  /// The reduce clause carries lane 0 (one partial per HostPool chunk of
  /// rows, combined pairwise in chunk order); the other lanes ride in one
  /// slot per row, summed in row order afterwards.
  template <typename Body>
  LanesOf<Body> reduce(const sim::LaunchInfo& info, const Box& b,
                       Body&& body) {
    LanesOf<Body> out{};
    begin_rows<LanesOf<Body>>(b);
    out[0] = rt_.parallel_reduce(info, b.y0, b.y1,
                                 [&](std::int64_t y, double& acc) {
                                   reduce_row(b, y, body, acc);
                                 });
    fold_rows(b, out);
    return out;
  }

  /// reduce() without a launch: the same chunking and combine order, for
  /// the region-split finishes whose launch was priced when the split began.
  template <typename Body>
  LanesOf<Body> sweep_reduce(const Box& b, Body&& body) {
    LanesOf<Body> out{};
    begin_rows<LanesOf<Body>>(b);
    out[0] = rt_.pool().parallel_reduce_sum(
        b.y0, b.y1, [&](std::int64_t y0, std::int64_t y1) {
          double acc = 0.0;
          for (std::int64_t y = y0; y < y1; ++y) reduce_row(b, y, body, acc);
          return acc;
        });
    fold_rows(b, out);
    return out;
  }

 private:
  template <typename Body>
  void row(const Box& b, std::int64_t y, Body& body) {
    const std::int64_t base = y * width_;
    for (std::int64_t x = b.x0; x < b.x1; ++x) body(base + x);
  }

  template <typename Lanes>
  void begin_rows(const Box& b) {
    rows_.assign((std::tuple_size_v<Lanes> - 1) *
                     static_cast<std::size_t>(b.y1 - b.y0),
                 0.0);
  }

  // Each worker owns its rows, so the per-row slots are disjoint and the
  // row-order fold is the same at any pool width.
  template <typename Body>
  void reduce_row(const Box& b, std::int64_t y, Body& body, double& acc) {
    using Lanes = LanesOf<Body>;
    Lanes lanes{};
    const std::int64_t base = y * width_;
    for (std::int64_t x = b.x0; x < b.x1; ++x) {
      const Lanes v = body(base + x);
      acc += v[0];
      for (std::size_t k = 1; k < v.size(); ++k) lanes[k] += v[k];
    }
    const auto rows = static_cast<std::size_t>(b.y1 - b.y0);
    for (std::size_t k = 1; k < lanes.size(); ++k) {
      rows_[(k - 1) * rows + static_cast<std::size_t>(y - b.y0)] = lanes[k];
    }
  }

  template <typename Lanes>
  void fold_rows(const Box& b, Lanes& out) const {
    const auto rows = static_cast<std::size_t>(b.y1 - b.y0);
    for (std::size_t k = 1; k < out.size(); ++k) {
      for (std::size_t r = 0; r < rows; ++r) {
        out[k] += rows_[(k - 1) * rows + r];
      }
    }
  }

  omp3::Runtime rt_;
  std::vector<double> rows_;  // lanes 1+ of the running reduction, per row
};

// ---------------------------------------------------------------------------
// Kokkos (flat RangePolicy) and Kokkos-HP (TeamPolicy for the classic kernels)
// ---------------------------------------------------------------------------

/// Fields are Views; deep_copy charges the link on offload devices. The
/// flat port's loop-body halo test and the hierarchical port's team rows are
/// the launches' traits.interior_branch / traits.hierarchical. What kokkos_hp
/// keeps on the host is its reduction: the performance-critical classic
/// kernels add one partial per team (row); setup, diagnostic, fused and
/// pipelined kernels keep the flat functor's left fold.
class KokkosPolicy : public PolicyBase<KokkosPolicy> {
 public:
  KokkosPolicy(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
               std::uint64_t run_seed, unsigned)
      : PolicyBase(mesh),
        teams_(model == sim::Model::kKokkosHp),
        ctx_(model, device, run_seed) {
    for (const core::FieldId id : core::kAllFields) {
      views_[static_cast<std::size_t>(id)] = kokkoslike::View(
          std::string(core::field_name(id)), static_cast<int>(width_),
          static_cast<int>(height_));
    }
  }

  models::Launcher& launcher() { return ctx_.launcher(); }
  util::Span2D<double> field(core::FieldId id) { return view(id).span(); }

  void upload(const core::Chunk& chunk) {
    for (const core::FieldId id : {core::FieldId::kDensity,
                                   core::FieldId::kEnergy0}) {
      const double* src = chunk.field(id).data();
      std::copy(src, src + padded_, field(id).data());
      ctx_.deep_copy_to_device(view(id));
    }
  }
  void download(core::FieldId id, util::Span2D<double> out, std::string_view) {
    ctx_.deep_copy_to_host(view(id));
    const double* src = field(id).data();
    std::copy(src, src + padded_, out.data());
  }

  std::int64_t partial_cells(const sim::LaunchInfo& info, const Box& b) const {
    return teams_ && team_kernel(info) ? b.x1 - b.x0 : kWholeBox;
  }

 private:
  static bool team_kernel(const sim::LaunchInfo& info) {
    using core::KernelId;
    switch (static_cast<KernelId>(info.kernel_id)) {
      case KernelId::kCalcResidual:
      case KernelId::kCalc2Norm:
      case KernelId::kCgInit:
      case KernelId::kCgCalcW:
      case KernelId::kCgCalcUr:
      case KernelId::kCgCalcP:
      case KernelId::kChebyInit:
      case KernelId::kChebyIterate:
      case KernelId::kPpcgInitSd:
      case KernelId::kPpcgInner:
        return true;
      default:
        return false;
    }
  }

  kokkoslike::View view(core::FieldId id) {
    return views_[static_cast<std::size_t>(id)];
  }

  bool teams_;
  kokkoslike::Context ctx_;
  std::array<kokkoslike::View, core::kAllFields.size()> views_;
};

// ---------------------------------------------------------------------------
// RAJA and RAJA SIMD: forall over per-row ListSegment IndexSets
// ---------------------------------------------------------------------------

/// Host-chunk fields. The ListSegment indirection the paper blames for lost
/// vectorisation is the launches' traits.indirection, and RAJA SIMD's
/// `omp simd` annotation is a codegen-profile property; RAJA's ReduceSum
/// reductions are the flat left fold.
class RajaPolicy : public HostFields<RajaPolicy> {
 public:
  RajaPolicy(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
             std::uint64_t run_seed, unsigned)
      : HostFields(mesh), ctx_(model, device, run_seed) {}

  models::Launcher& launcher() { return ctx_.launcher(); }

  void upload(const core::Chunk& chunk) {
    copy_in(chunk);
    ctx_.launcher().charge_transfer({.name = "upload_state",
                                     .bytes = 2 * padded_bytes(),
                                     .to_device = true});
  }
  void download(core::FieldId id, util::Span2D<double> out,
                std::string_view name) {
    copy_out(id, out);
    ctx_.launcher().charge_transfer(
        {.name = name, .bytes = padded_bytes(), .to_device = false});
  }

 private:
  rajalike::Context ctx_;
};

// ---------------------------------------------------------------------------
// OpenCL and CUDA: 1-D work-groups / blocks over a box's flat cell index
// ---------------------------------------------------------------------------

/// The group size of both device-tuned ports.
inline constexpr std::int64_t kGroupSize = 256;

/// OpenCL: explicit buffers moved by enqueueWrite/ReadBuffer. Each kernel is
/// an NDRange of kGroupSize-item work-groups over the box's row-major cells;
/// its hand-written two-stage reduction adds one partial per group (the
/// overspill items past the box only ever added +0.0).
class OpenClPolicy : public PolicyBase<OpenClPolicy> {
 public:
  OpenClPolicy(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
               std::uint64_t run_seed, unsigned)
      : PolicyBase(mesh), ctx_(model, device, run_seed), queue_(ctx_) {
    // Boilerplate: confirm the requested device exists on a platform.
    const auto devices = ocllike::get_platform_devices();
    if (std::none_of(devices.begin(), devices.end(),
                     [&](const auto& d) { return d.id == device; })) {
      throw std::invalid_argument("OpenCL port: no such device");
    }
    for (auto& b : buffers_) {
      b = std::make_unique<ocllike::Buffer>(ctx_, padded_);
    }
  }

  models::Launcher& launcher() { return ctx_.launcher(); }
  util::Span2D<double> field(core::FieldId id) {
    return padded_span(buf(id).data());
  }

  void upload(const core::Chunk& chunk) {
    for (const core::FieldId id : {core::FieldId::kDensity,
                                   core::FieldId::kEnergy0}) {
      queue_.enqueue_write(buf(id), {chunk.field(id).data(), padded_});
    }
  }
  void download(core::FieldId id, util::Span2D<double> out, std::string_view) {
    queue_.enqueue_read(buf(id), {out.data(), out.size()});
  }

  static std::int64_t partial_cells(const sim::LaunchInfo&, const Box&) {
    return kGroupSize;
  }

 private:
  ocllike::Buffer& buf(core::FieldId id) {
    return *buffers_[static_cast<std::size_t>(id)];
  }

  ocllike::Context ctx_;
  ocllike::CommandQueue queue_;
  std::array<std::unique_ptr<ocllike::Buffer>, core::kAllFields.size()>
      buffers_;
};

/// CUDA: device buffers moved by cudaMemcpy. Each kernel is a grid of
/// kGroupSize-thread blocks with the overspill guard in the kernel; the
/// manual two-stage reduction adds one partial per block.
class CudaPolicy : public PolicyBase<CudaPolicy> {
 public:
  CudaPolicy(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
             std::uint64_t run_seed, unsigned)
      : PolicyBase(mesh), rt_(model, device, run_seed) {
    for (auto& b : buffers_) {
      b = std::make_unique<culike::DeviceBuffer>(padded_);
    }
  }

  models::Launcher& launcher() { return rt_.launcher(); }
  util::Span2D<double> field(core::FieldId id) {
    return padded_span(buf(id).data());
  }

  void upload(const core::Chunk& chunk) {
    for (const core::FieldId id : {core::FieldId::kDensity,
                                   core::FieldId::kEnergy0}) {
      rt_.memcpy_htod(buf(id), {chunk.field(id).data(), padded_});
    }
  }
  void download(core::FieldId id, util::Span2D<double> out, std::string_view) {
    rt_.memcpy_dtoh({out.data(), out.size()}, buf(id));
  }

  static std::int64_t partial_cells(const sim::LaunchInfo&, const Box&) {
    return kGroupSize;
  }

 private:
  culike::DeviceBuffer& buf(core::FieldId id) {
    return *buffers_[static_cast<std::size_t>(id)];
  }

  culike::Runtime rt_;
  std::array<std::unique_ptr<culike::DeviceBuffer>, core::kAllFields.size()>
      buffers_;
};

// ---------------------------------------------------------------------------
// OpenMP 4.0 / OpenACC: one synchronous target region per kernel
// ---------------------------------------------------------------------------

/// Each kernel is a collapse(2) target region (`omp target teams distribute
/// parallel for` or `acc kernels loop independent`, by model) inside a data
/// region opened per step by upload_state: inputs map `to`, work arrays
/// `alloc`, and results come back with `update from`. Multi-value
/// reductions put lane 0 on the reduction clause and the rest ride along as
/// mapped scalars: each lane is the flat left fold.
class OffloadPolicy : public HostFields<OffloadPolicy> {
 public:
  OffloadPolicy(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
                std::uint64_t run_seed, unsigned)
      : HostFields(mesh), rt_(model, device, run_seed) {}

  models::Launcher& launcher() { return rt_.launcher(); }

  void upload(const core::Chunk& chunk) {
    copy_in(chunk);
    std::vector<offload::MapSpec> maps;
    for (const core::FieldId id : core::kAllFields) {
      const bool input = id == core::FieldId::kDensity ||
                         id == core::FieldId::kEnergy0;
      maps.push_back(offload::map(std::span<double>(field(id).data(), padded_),
                                  input ? offload::MapDir::kTo
                                        : offload::MapDir::kAlloc));
    }
    step_scope_.reset();
    step_scope_.emplace(rt_, std::move(maps));
  }
  void download(core::FieldId id, util::Span2D<double> out, std::string_view) {
    rt_.update_from(field(id).data(), padded_bytes());
    copy_out(id, out);
  }

 private:
  offload::Runtime rt_;
  std::optional<offload::DataScope> step_scope_;
};

}  // namespace tl::ports
