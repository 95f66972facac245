#pragma once
// CUDA-like programming model layer (from-scratch reimplementation of the
// API *style* the paper's CUDA port uses — see DESIGN.md substitutions).
//
// Reproduced concepts (paper sections 2.6, 3.5): device buffers with
// explicit memcpy in each direction, charged to the runtime's launcher.
//
// The TeaLeaf port (ports/policies.hpp CudaPolicy) runs each kernel, a grid
// of 256-thread blocks with the overspill guard in the kernel, as the ports'
// shared row walk under this runtime's launcher, folding its reductions one
// partial per block; the manual two-stage reduction the paper cites as
// CUDA's main complexity cost over Kokkos is a codegen-profile property.

#include <cstdint>
#include <span>
#include <stdexcept>

#include "models/launcher.hpp"
#include "util/buffer.hpp"

namespace culike {

/// Device allocation (cudaMalloc analogue). Host code moves data with
/// memcpy_htod / memcpy_dtoh; kernels index it directly.
class DeviceBuffer {
 public:
  explicit DeviceBuffer(std::size_t count) : storage_(count) {}

  std::size_t size() const noexcept { return storage_.size(); }
  std::size_t size_bytes() const noexcept { return size() * sizeof(double); }

  double& operator[](std::size_t i) noexcept { return storage_[i]; }
  double operator[](std::size_t i) const noexcept { return storage_[i]; }

  /// Raw device pointer (what a real kernel receives as its argument).
  double* data() noexcept { return storage_.data(); }
  const double* data() const noexcept { return storage_.data(); }

 private:
  tl::util::Buffer<double> storage_;
};

class Runtime {
 public:
  Runtime(tl::sim::Model model, tl::sim::DeviceId device,
          std::uint64_t run_seed = 1)
      : launcher_(model, device, run_seed) {}

  models::Launcher& launcher() noexcept { return launcher_; }

  void memcpy_htod(DeviceBuffer& dst, std::span<const double> src) {
    if (src.size() != dst.size()) {
      throw std::invalid_argument("culike: memcpy_htod size mismatch");
    }
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
    launcher_.charge_transfer(tl::sim::TransferInfo{
        .name = "cudaMemcpyHostToDevice", .bytes = src.size_bytes(),
        .to_device = true});
  }

  void memcpy_dtoh(std::span<double> dst, const DeviceBuffer& src) {
    if (dst.size() != src.size()) {
      throw std::invalid_argument("culike: memcpy_dtoh size mismatch");
    }
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = src[i];
    launcher_.charge_transfer(tl::sim::TransferInfo{
        .name = "cudaMemcpyDeviceToHost", .bytes = dst.size_bytes(),
        .to_device = false});
  }

 private:
  models::Launcher launcher_;
};

}  // namespace culike
