#pragma once
// Directive-style offload runtime — the shared machinery behind the OpenMP
// 4.0 (`target`) and OpenACC (`kernels`) ports.
//
// Reproduced concepts (paper sections 2.1, 2.2, 3.1, 3.2):
//   - `target data` / `acc data` scopes: map arrays onto the device for the
//     scope's lifetime so multiple target regions reuse resident data;
//   - `map(to/from/tofrom/alloc)` direction semantics with transfer charging
//     at scope entry/exit;
//   - `update from`: explicit mid-scope consistency for results.
//
// The TeaLeaf port (ports/policies.hpp OffloadPolicy) runs each kernel, one
// synchronous collapse(2) target region, as the ports' shared row walk under
// this runtime's launcher. The per-region launch overhead the paper observed
// ("overhead dependent upon the number of target invocations") is priced by
// the codegen profile's launch_overhead_ns.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/launcher.hpp"

namespace offload {

enum class MapDir { kTo, kFrom, kToFrom, kAlloc };

struct MapSpec {
  const void* host_ptr = nullptr;
  std::size_t bytes = 0;
  MapDir dir = MapDir::kToFrom;
};

template <typename T>
MapSpec map(std::span<T> data, MapDir dir) {
  return MapSpec{data.data(), data.size_bytes(), dir};
}

class Runtime {
 public:
  Runtime(tl::sim::Model model, tl::sim::DeviceId device,
          std::uint64_t run_seed = 1)
      : launcher_(model, device, run_seed),
        offloads_(tl::sim::uses_device_residency(model, device)) {}

  models::Launcher& launcher() noexcept { return launcher_; }

  /// Is this host array currently mapped on the device?
  bool is_present(const void* host_ptr) const {
    return resident_.count(host_ptr) != 0;
  }

  /// Explicit consistency (omp target update from / acc update host).
  void update_from(const void* host_ptr, std::size_t bytes) {
    require_present(host_ptr);
    charge_transfer(bytes, false);
  }

 private:
  friend class DataScope;

  void require_present(const void* host_ptr) const {
    if (offloads_ && resident_.count(host_ptr) == 0) {
      throw std::logic_error(
          "offload: array used on device without an enclosing data map");
    }
  }

  void enter(const MapSpec& spec) {
    if (!offloads_) return;
    if (++resident_[spec.host_ptr] == 1 &&
        (spec.dir == MapDir::kTo || spec.dir == MapDir::kToFrom)) {
      charge_transfer(spec.bytes, true);
    }
  }

  void exit(const MapSpec& spec) {
    if (!offloads_) return;
    const auto it = resident_.find(spec.host_ptr);
    if (it == resident_.end()) return;
    if (--it->second == 0) {
      resident_.erase(it);
      if (spec.dir == MapDir::kFrom || spec.dir == MapDir::kToFrom) {
        charge_transfer(spec.bytes, false);
      }
    }
  }

  void charge_transfer(std::size_t bytes, bool to_device) {
    if (!offloads_) return;
    launcher_.charge_transfer(
        tl::sim::TransferInfo{.name = "map", .bytes = bytes, .to_device = to_device});
  }

  models::Launcher launcher_;
  bool offloads_;
  std::unordered_map<const void*, int> resident_;  // ref-counted presence
};

/// RAII `target data` / `acc data` region: maps on construction, unmaps (and
/// copies `from`-direction arrays back) on destruction. Lexically structured,
/// exactly the constraint the paper calls out for OpenMP 4.0.
class DataScope {
 public:
  DataScope(Runtime& rt, std::vector<MapSpec> maps)
      : rt_(&rt), maps_(std::move(maps)) {
    for (const auto& m : maps_) rt_->enter(m);
  }
  ~DataScope() {
    for (const auto& m : maps_) rt_->exit(m);
  }
  DataScope(const DataScope&) = delete;
  DataScope& operator=(const DataScope&) = delete;

 private:
  Runtime* rt_;
  std::vector<MapSpec> maps_;
};

}  // namespace offload
