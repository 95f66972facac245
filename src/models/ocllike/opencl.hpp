#pragma once
// OpenCL-like programming model layer (from-scratch reimplementation of the
// API *style* the paper's OpenCL port uses — see DESIGN.md substitutions).
//
// Reproduced concepts (paper section 2.5): the platform model (platform ->
// device -> compute units), explicit contexts, command queues, device
// buffers that host code cannot touch directly (enqueueRead/WriteBuffer
// only), and NDRange execution in work groups with per-group local memory
// for work-group reductions. A kernel is any callable taking the work item's
// NDItem; it is enqueued with its global and local sizes.
//
// Emulation note: work items of a group execute sequentially in-order, so
// work-group barriers are correct as no-ops; kernels follow the convention
// that the *last* work item of a group performs the group-level finish
// (where real OpenCL would barrier and use item 0).

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "models/launcher.hpp"
#include "util/buffer.hpp"

namespace ocllike {

class Context;

/// Device memory object. Elements are doubles (TeaLeaf's only payload type).
class Buffer {
 public:
  Buffer(Context& ctx, std::size_t count);

  std::size_t size() const noexcept { return storage_.size(); }
  std::size_t size_bytes() const noexcept { return size() * sizeof(double); }

  /// Device-side access, only meaningful from inside a kernel.
  double& operator[](std::size_t i) noexcept { return storage_[i]; }
  double operator[](std::size_t i) const noexcept { return storage_[i]; }

  /// Raw device pointer (clEnqueueMapBuffer analogue): used by the port's
  /// device-resident halo kernel and reduction finishes.
  double* data() noexcept { return storage_.data(); }
  const double* data() const noexcept { return storage_.data(); }

 private:
  tl::util::Buffer<double> storage_;
};

/// One work item's coordinates within the NDRange.
struct NDItem {
  std::size_t global_id = 0;
  std::size_t local_id = 0;
  std::size_t group_id = 0;
  std::size_t local_size = 1;
  std::size_t global_size = 0;

  /// Work-group local memory (one double per work item in the group).
  std::span<double> local_mem;
};

/// Platform/device discovery boilerplate. Platforms mirror the simulated
/// device catalogue.
struct PlatformDevice {
  tl::sim::DeviceId id;
  std::string name;
};
std::vector<PlatformDevice> get_platform_devices();

class Context {
 public:
  Context(tl::sim::Model model, tl::sim::DeviceId device,
          std::uint64_t run_seed = 1)
      : launcher_(model, device, run_seed) {}

  models::Launcher& launcher() noexcept { return launcher_; }
  const models::Launcher& launcher() const noexcept { return launcher_; }

 private:
  models::Launcher launcher_;
};

class CommandQueue {
 public:
  explicit CommandQueue(Context& ctx) : ctx_(&ctx) {}

  /// clEnqueueNDRangeKernel analogue: runs `kernel(item)` for every work
  /// item, group by group. `global` must be a positive multiple of `local`.
  /// The LaunchInfo carries the metered cost of this enqueue.
  template <typename KernelFn>
  void enqueue_nd_range(const tl::sim::LaunchInfo& info, std::size_t global,
                        std::size_t local, KernelFn&& kernel) {
    check_nd_range(global, local);
    ctx_->launcher().run(info, [&] {
      local_mem_.assign(local, 0.0);
      NDItem item;
      item.local_size = local;
      item.global_size = global;
      item.local_mem = std::span<double>(local_mem_);
      for (std::size_t g = 0; g < global / local; ++g) {
        std::fill(local_mem_.begin(), local_mem_.end(), 0.0);
        item.group_id = g;
        for (std::size_t l = 0; l < local; ++l) {
          item.local_id = l;
          item.global_id = g * local + l;
          kernel(item);
        }
      }
    });
  }

  /// In-order emulation: every enqueue completes before it returns.
  void enqueue_write(Buffer& dst, std::span<const double> src);
  void enqueue_read(const Buffer& src, std::span<double> dst);

 private:
  static void check_nd_range(std::size_t global, std::size_t local);

  Context* ctx_;
  std::vector<double> local_mem_;
};

}  // namespace ocllike
