#pragma once
// Kokkos-like programming model layer (from-scratch reimplementation of the
// API *style* the paper's Kokkos port uses — see DESIGN.md substitutions).
//
// Reproduced concepts, following Edwards et al. and the paper's section 2.4:
//   - execution/memory space distinction: Views have a host allocation and,
//     on offload devices, a device mirror; deep_copy moves data and is the
//     only way across the spaces;
//   - View<double**>: reference-counted 2-D array with label (shared_ptr
//     copy semantics, exactly as the paper describes);
//   - functors: any callable with operator()(int);
//   - parallel_for over a flat RangePolicy (the paper's flat iteration
//     space that forces loop-body halo exclusion), measured as host cost by
//     bench_micro_models.
//
// The TeaLeaf port (ports/policies.hpp KokkosPolicy) holds its fields in
// Views and charges deep_copy here; its launches run the ports' shared row
// walk under this context's launcher.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "models/launcher.hpp"
#include "util/buffer.hpp"
#include "util/span2d.hpp"

namespace kokkoslike {

/// Where a View's canonical data lives for kernel execution.
enum class Space { kHost, kDevice };

/// Rank-2 dense view of doubles with shared-ownership copy semantics.
class View {
 public:
  View() = default;
  View(std::string label, int nx, int ny)
      : state_(std::make_shared<State>()) {
    state_->label = std::move(label);
    state_->nx = nx;
    state_->ny = ny;
    state_->host.resize(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
  }

  const std::string& label() const { return state_->label; }
  int nx() const { return state_->nx; }
  int ny() const { return state_->ny; }
  std::size_t size() const { return state_->host.size(); }
  std::size_t size_bytes() const { return size() * sizeof(double); }

  double& operator()(int x, int y) const {
    return state_->host.view2d(state_->nx, state_->ny)(x, y);
  }
  double& operator[](std::size_t i) const { return state_->host[i]; }

  tl::util::Span2D<double> span() const {
    return state_->host.view2d(state_->nx, state_->ny);
  }

  bool valid() const { return state_ != nullptr; }

 private:
  struct State {
    std::string label;
    int nx = 0, ny = 0;
    tl::util::Buffer<double> host;
  };
  std::shared_ptr<State> state_;
};

struct RangePolicy {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// The runtime instance a port holds: binds the API to one simulated device.
class Context {
 public:
  Context(tl::sim::Model model, tl::sim::DeviceId device,
          std::uint64_t run_seed = 1)
      : launcher_(model, device, run_seed),
        device_resident_(tl::sim::uses_device_residency(model, device)) {}

  models::Launcher& launcher() noexcept { return launcher_; }

  /// deep_copy between spaces; charges the link when the execution space is
  /// a discrete device. Host<->host copies are free metadata operations.
  void deep_copy_to_device(const View& v) { charge_copy(v, /*to=*/true); }
  void deep_copy_to_host(const View& v) { charge_copy(v, /*to=*/false); }

  template <typename Functor>
  void parallel_for(const tl::sim::LaunchInfo& info, RangePolicy policy,
                    Functor&& f) {
    launcher_.run(info, [&] {
      for (std::int64_t i = policy.begin; i < policy.end; ++i) f(i);
    });
  }

 private:
  void charge_copy(const View& v, bool to_device) {
    if (!device_resident_) return;
    launcher_.charge_transfer(tl::sim::TransferInfo{
        .name = "deep_copy", .bytes = v.size_bytes(), .to_device = to_device});
  }

  models::Launcher launcher_;
  bool device_resident_;
};

}  // namespace kokkoslike
