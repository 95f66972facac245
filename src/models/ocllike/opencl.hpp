#pragma once
// OpenCL-like programming model layer (from-scratch reimplementation of the
// API *style* the paper's OpenCL port uses — see DESIGN.md substitutions).
//
// Reproduced concepts (paper section 2.5): the platform model (platform ->
// device -> compute units), explicit contexts, command queues, and device
// buffers that host code cannot touch directly (enqueueRead/WriteBuffer
// only).
//
// The TeaLeaf port (ports/policies.hpp OpenClPolicy) runs each kernel, an
// NDRange of 256-item work-groups, as the ports' shared row walk under this
// context's launcher, folding its reductions one partial per group; the
// two-stage reduction's cost is a codegen-profile property.

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

  /// In-order emulation: every enqueue completes before it returns.
  void enqueue_write(Buffer& dst, std::span<const double> src);
  void enqueue_read(const Buffer& src, std::span<double> dst);

 private:
  Context* ctx_;
};

}  // namespace ocllike
