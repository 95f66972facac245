#pragma once
// Launch policies: what each programming model fixes about a TeaLeaf port.
//
// Port<Policy> (ports/port.hpp) writes every kernel body once, as a per-cell
// function of the padded flat index. A policy supplies only what its model
// decides:
//   - storage: where the padded fields live (host chunk, Kokkos Views,
//     OpenCL buffers, CUDA device buffers);
//   - traversal: how a kernel walks a box of cells, executed through the
//     model layer (src/models), which meters one launch per call;
//   - the reduction combine order its model fixes;
//   - the transfers it charges for upload_state / read_u / download_energy.
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
//   KokkosFlatPolicy,   left fold over the box's cells, row-major
//   RajaPolicy,
//   OffloadPolicy
//   KokkosTeamPolicy    classic kernels: one partial per row (team), row
//                       order; every other kernel: the flat left fold
//   OpenClPolicy,       one partial per G-item group of the box's row-major
//   CudaPolicy          cells (G = 256), groups in order

#include <algorithm>
#include <array>
#include <cstdint>
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

inline std::size_t box_cells(const Box& b) {
  return b.empty() ? 0
                   : static_cast<std::size_t>(b.x1 - b.x0) *
                         static_cast<std::size_t>(b.y1 - b.y0);
}

/// Row-major walk over a box of a padded field `width` wide.
template <typename Body>
void for_box(const Box& b, std::int64_t width, Body&& body) {
  for (std::int64_t y = b.y0; y < b.y1; ++y) {
    const std::int64_t row = y * width;
    for (std::int64_t x = b.x0; x < b.x1; ++x) body(row + x);
  }
}

/// Row-major cursor over a box's cells. The emulated models run work items
/// strictly in order, so a flat-index traversal steps this cursor instead of
/// dividing the flat index by the row width for every cell.
class BoxCursor {
 public:
  BoxCursor(const Box& b, std::int64_t width)
      : b_(b), width_(width), x_(b.x0), y_(b.y0) {}

  /// Padded index of the next cell in the box.
  std::int64_t next() {
    const std::int64_t i = y_ * width_ + x_;
    if (++x_ == b_.x1) {
      x_ = b_.x0;
      ++y_;
    }
    return i;
  }

 private:
  Box b_;
  std::int64_t width_, x_, y_;
};

/// Geometry every policy shares, and the plain host sweep.
class PolicyBase {
 public:
  template <typename Body>
  void sweep(const Box& b, Body&& body) {
    for_box(b, width_, body);
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
};

/// Fields held in a host chunk (OpenMP 3.0, RAJA, and the host copies the
/// offload directives map onto the device).
class HostFields : public PolicyBase {
 public:
  util::Span2D<double> field(core::FieldId id) { return storage_.field(id); }

 protected:
  explicit HostFields(const core::Mesh& mesh)
      : PolicyBase(mesh), storage_(mesh) {}

  void copy_in(const core::Chunk& chunk) {
    for (const core::FieldId id : {core::FieldId::kDensity,
                                   core::FieldId::kEnergy0}) {
      const double* src = chunk.field(id).data();
      std::copy(src, src + padded_, storage_.field(id).data());
    }
  }
  void copy_out(core::FieldId id, util::Span2D<double> out) {
    const double* src = storage_.field(id).data();
    std::copy(src, src + padded_, out.data());
  }

  core::Chunk storage_;
};

// ---------------------------------------------------------------------------
// OpenMP 3.0 (Fortran 90 and C++): `parallel for` over rows on the HostPool
// ---------------------------------------------------------------------------

/// The only policy that reads `host_threads`: its rows run on a HostPool of
/// that width, and its reductions are bit-identical at any width.
class HostRowsPolicy : public HostFields {
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
// Kokkos: a flat RangePolicy with the loop-body halo test, or TeamPolicy
// ---------------------------------------------------------------------------

/// Every kernel is a functor over the flattened padded iteration space with
/// a halo-exclusion conditional in its body — the paper's original Kokkos
/// port. Fields are Views; deep_copy charges the link on offload devices.
class KokkosFlatPolicy : public PolicyBase {
 public:
  KokkosFlatPolicy(sim::Model model, sim::DeviceId device,
                   const core::Mesh& mesh, std::uint64_t run_seed, unsigned)
      : PolicyBase(mesh), ctx_(model, device, run_seed) {
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

  template <typename Body>
  void for_each(const sim::LaunchInfo& info, const Box& b, Body&& body) {
    FlatSweep<Body> f{BoxTest(b, width_), body};
    ctx_.parallel_for(info, flat(), f);
  }

  /// Kokkos' custom reduction: the functor's init/join over the lanes.
  template <typename Body>
  LanesOf<Body> reduce(const sim::LaunchInfo& info, const Box& b,
                       Body&& body) {
    FlatReduce<Body> f{BoxTest(b, width_), body};
    LanesOf<Body> out{};
    ctx_.parallel_reduce(info, flat(), f, out);
    return out;
  }

 protected:
  kokkoslike::View view(core::FieldId id) {
    return views_[static_cast<std::size_t>(id)];
  }
  kokkoslike::RangePolicy flat() const {
    return {0, static_cast<std::int64_t>(padded_)};
  }

  /// The loop-body halo test, fed the flat index in order: it steps an
  /// (x, y) cursor with each index instead of dividing it by the width.
  class BoxTest {
   public:
    BoxTest(const Box& b, std::int64_t width) : b_(b), width_(width) {}
    bool next() {
      const bool in = x_ >= b_.x0 && x_ < b_.x1 && y_ >= b_.y0 && y_ < b_.y1;
      if (++x_ == width_) {
        x_ = 0;
        ++y_;
      }
      return in;
    }

   private:
    Box b_;
    std::int64_t width_, x_ = 0, y_ = 0;
  };

  template <typename Body>
  struct FlatSweep {
    BoxTest test;
    Body& body;
    void operator()(std::int64_t i) {
      if (test.next()) body(i);
    }
  };

  template <typename Body>
  struct FlatReduce {
    using Lanes = LanesOf<Body>;
    BoxTest test;
    Body& body;
    void init(Lanes& v) const { v = Lanes{}; }
    void join(Lanes& dst, const Lanes& src) const { add_lanes(dst, src); }
    void operator()(std::int64_t i, Lanes& acc) {
      if (test.next()) add_lanes(acc, body(i));
    }
  };

  kokkoslike::Context ctx_;
  std::array<kokkoslike::View, core::kAllFields.size()> views_;
};

/// Kokkos hierarchical parallelism (the Sandia fix, paper Fig 7): the
/// performance-critical classic kernels run a TeamPolicy with one team per
/// row and a nested TeamThreadRange over its columns, re-encoding the halo
/// exclusion into the iteration space; their reductions add one partial per
/// team. Setup, diagnostic, fused and pipelined kernels keep the flat form.
class KokkosTeamPolicy : public KokkosFlatPolicy {
 public:
  using KokkosFlatPolicy::KokkosFlatPolicy;

  template <typename Body>
  void for_each(const sim::LaunchInfo& info, const Box& b, Body&& body) {
    if (!team_kernel(info)) return KokkosFlatPolicy::for_each(info, b, body);
    ctx_.parallel_for_team(
        info, teams(b), [&](const kokkoslike::TeamMember& t) {
          const std::int64_t row = (b.y0 + t.league_rank()) * width_ + b.x0;
          kokkoslike::team_thread_range(t, b.x1 - b.x0,
                                        [&](int i) { body(row + i); });
        });
  }

  template <typename Body>
  LanesOf<Body> reduce(const sim::LaunchInfo& info, const Box& b,
                       Body&& body) {
    if constexpr (std::tuple_size_v<LanesOf<Body>> == 1) {
      if (team_kernel(info)) {
        double total = 0.0;
        ctx_.parallel_reduce_team(
            info, teams(b),
            [&](const kokkoslike::TeamMember& t, double& acc) {
              const std::int64_t row = (b.y0 + t.league_rank()) * width_ + b.x0;
              kokkoslike::team_thread_range(
                  t, b.x1 - b.x0, [&](int i) { acc += body(row + i)[0]; });
            },
            total);
        return {total};
      }
    }
    return KokkosFlatPolicy::reduce(info, b, body);
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
  static kokkoslike::TeamPolicy teams(const Box& b) { return {b.y1 - b.y0, 1}; }
};

// ---------------------------------------------------------------------------
// RAJA: forall over pre-computed IndexSets of per-row ListSegments
// ---------------------------------------------------------------------------

/// The interior and coefficient-ring iteration spaces are built once as
/// IndexSets of per-row ListSegments (the indirection the paper blames for
/// lost vectorisation); whole-field sweeps use a plain RangeSegment.
/// Reductions go through one ReduceSum per lane. RAJA SIMD shares the
/// traversal; its `omp simd` annotation is a codegen-profile property.
class RajaPolicy : public HostFields {
 public:
  RajaPolicy(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
             std::uint64_t run_seed, unsigned)
      : HostFields(mesh),
        ctx_(model, device, run_seed),
        padded_box_(padded_box(mesh)),
        interior_box_(interior_box(mesh)),
        ring_box_(ring_box(mesh)),
        interior_(rajalike::make_interior_index_set(mesh.nx, mesh.ny,
                                                    mesh.halo_depth)),
        ring_(rajalike::make_interior_index_set(mesh.nx + 2, mesh.ny + 2,
                                                mesh.halo_depth - 1)) {}

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

  template <typename Body>
  void for_each(const sim::LaunchInfo& info, const Box& b, Body&& body) {
    if (b == padded_box_) {
      const auto n = static_cast<std::int64_t>(padded_);
      ctx_.forall<Exec>(info, rajalike::RangeSegment{0, n}, body);
    } else {
      ctx_.forall<Exec>(info, index_set(b), body);
    }
  }

  template <typename Body>
  LanesOf<Body> reduce(const sim::LaunchInfo& info, const Box& b,
                       Body&& body) {
    std::array<rajalike::ReduceSum, std::tuple_size_v<LanesOf<Body>>> sums;
    ctx_.forall<Exec>(info, index_set(b), [&](std::int64_t i) {
      const LanesOf<Body> v = body(i);
      for (std::size_t k = 0; k < sums.size(); ++k) sums[k] += v[k];
    });
    LanesOf<Body> out{};
    for (std::size_t k = 0; k < sums.size(); ++k) out[k] = sums[k].get();
    return out;
  }

 private:
  using Exec = rajalike::omp_parallel_for_exec;

  const rajalike::IndexSet& index_set(const Box& b) const {
    if (b == interior_box_) return interior_;
    if (b == ring_box_) return ring_;
    throw std::logic_error("RAJA port: no IndexSet for this iteration space");
  }

  rajalike::Context ctx_;
  Box padded_box_, interior_box_, ring_box_;
  // Pre-computed traversals (the paper: "the pre-computation of those
  // indirection lists still had to occur earlier in the application").
  rajalike::IndexSet interior_, ring_;
};

// ---------------------------------------------------------------------------
// OpenCL and CUDA: 1-D work-groups / blocks over a box's flat cell index
// ---------------------------------------------------------------------------

/// The group size of both device-tuned ports.
inline constexpr std::size_t kGroupSize = 256;

inline std::size_t group_global(std::size_t items) {
  return (items + kGroupSize - 1) / kGroupSize * kGroupSize;
}

/// Work item `id` of a flat NDRange / grid over a box: items past the box's
/// cell count are the overspill guard's no-ops.
template <typename Body>
struct GroupSweep {
  BoxCursor cell;
  std::size_t n;
  Body& body;

  void item(std::size_t id) {
    if (id < n) body(cell.next());
  }
};

/// The hand-written two-stage reduction: lane 0 goes through the group's
/// local (shared) memory, one slot per item, and the group's last item folds
/// the slots into the group partial; the other lanes accumulate straight
/// into companion per-group partials in item order. The group partials are
/// then summed in group order (the host finish).
template <typename Body>
struct GroupReduce {
  using Lanes = LanesOf<Body>;
  BoxCursor cell;
  std::size_t n;
  Body& body;
  Lanes group{}, total{};

  void item(std::size_t id, std::size_t slot, std::span<double> local,
            bool last_in_group) {
    Lanes v{};
    if (id < n) v = body(cell.next());
    local[slot] = v[0];
    for (std::size_t k = 1; k < v.size(); ++k) group[k] += v[k];
    if (last_in_group) {
      for (const double x : local) group[0] += x;
      add_lanes(total, group);
      group = Lanes{};
    }
  }
};

/// OpenCL: explicit buffers moved by enqueueWrite/ReadBuffer, and an NDRange
/// of 256-item work-groups per kernel.
class OpenClPolicy : public PolicyBase {
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

  template <typename Body>
  void for_each(const sim::LaunchInfo& info, const Box& b, Body&& body) {
    GroupSweep<Body> k{BoxCursor(b, width_), box_cells(b), body};
    queue_.enqueue_nd_range(
        info, group_global(k.n), kGroupSize,
        [&](const ocllike::NDItem& it) { k.item(it.global_id); });
  }

  template <typename Body>
  LanesOf<Body> reduce(const sim::LaunchInfo& info, const Box& b,
                       Body&& body) {
    GroupReduce<Body> k{BoxCursor(b, width_), box_cells(b), body};
    queue_.enqueue_nd_range(info, group_global(k.n), kGroupSize,
                            [&](const ocllike::NDItem& it) {
                              k.item(it.global_id, it.local_id, it.local_mem,
                                     it.local_id + 1 == it.local_size);
                            });
    return k.total;
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

/// CUDA: device buffers moved by cudaMemcpy, and a grid of 256-thread blocks
/// per kernel with the overspill guard in the kernel.
class CudaPolicy : public PolicyBase {
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

  template <typename Body>
  void for_each(const sim::LaunchInfo& info, const Box& b, Body&& body) {
    GroupSweep<Body> k{BoxCursor(b, width_), box_cells(b), body};
    rt_.launch(info, grid(k.n), culike::Dim3(kGroupSize), 0,
               [&](const culike::ThreadCtx& t) { k.item(t.global_thread()); });
  }

  template <typename Body>
  LanesOf<Body> reduce(const sim::LaunchInfo& info, const Box& b,
                       Body&& body) {
    GroupReduce<Body> k{BoxCursor(b, width_), box_cells(b), body};
    rt_.launch(info, grid(k.n), culike::Dim3(kGroupSize), kGroupSize,
               [&](const culike::ThreadCtx& t) {
                 k.item(t.global_thread(), t.thread_idx, t.shared,
                        t.is_last_in_block());
               });
    return k.total;
  }

 private:
  culike::DeviceBuffer& buf(core::FieldId id) {
    return *buffers_[static_cast<std::size_t>(id)];
  }
  static culike::Dim3 grid(std::size_t items) {
    return culike::Dim3(culike::Runtime::blocks_for(items, kGroupSize));
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
/// reductions put lane 0 on the reduction clause; the rest ride along as
/// mapped scalars.
class OffloadPolicy : public HostFields {
 public:
  OffloadPolicy(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
                std::uint64_t run_seed, unsigned)
      : HostFields(mesh), omp4_(model == sim::Model::kOmp4),
        rt_(model, device, run_seed) {}

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

  template <typename Body>
  void for_each(const sim::LaunchInfo& info, const Box& b, Body&& body) {
    const auto cell = [&](std::int64_t x, std::int64_t y) {
      body(y * width_ + x);
    };
    if (omp4_) {
      omp4::target_parallel_for(rt_, info, nest(b), cell);
    } else {
      acc::kernels_loop(rt_, info, nest(b), cell);
    }
  }

  template <typename Body>
  LanesOf<Body> reduce(const sim::LaunchInfo& info, const Box& b,
                       Body&& body) {
    LanesOf<Body> out{};
    const auto cell = [&](std::int64_t x, std::int64_t y, double& acc) {
      const LanesOf<Body> v = body(y * width_ + x);
      acc += v[0];
      for (std::size_t k = 1; k < v.size(); ++k) out[k] += v[k];
    };
    out[0] = omp4_ ? omp4::target_parallel_reduce(rt_, info, nest(b), cell)
                   : acc::kernels_loop_reduce(rt_, info, nest(b), cell);
    return out;
  }

 private:
  static offload::Collapse2 nest(const Box& b) {
    return {b.y0, b.y1, b.x0, b.x1};
  }

  bool omp4_;
  offload::Runtime rt_;
  std::optional<offload::DataScope> step_scope_;
};

}  // namespace tl::ports
