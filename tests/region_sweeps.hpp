// Shared harness for the region-split sweep tests: the implementations that
// advertise KernelCaps::kCapRegions, a standard solve prologue, the fixed
// region order, and a bitwise field comparison.

#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/reference_kernels.hpp"
#include "core/state_init.hpp"
#include "ports/registry.hpp"

namespace tl::region_sweeps {

using core::FieldId;
using core::Region;

/// An implementation that advertises kCapRegions, by name + factory.
struct RegionImpl {
  std::string name;
  std::function<std::unique_ptr<core::SolverKernels>(const core::Mesh&)> make;
};

inline std::vector<RegionImpl> region_impls() {
  std::vector<RegionImpl> out;
  out.push_back({"reference", [](const core::Mesh& m) {
                   return std::make_unique<core::ReferenceKernels>(m);
                 }});
  const core::Mesh probe_mesh(8, 8, 2);
  for (const auto model : sim::kAllModels) {
    for (const auto device : sim::kAllDevices) {
      if (!ports::is_supported(model, device)) continue;
      const auto probe = ports::make_port(model, device, probe_mesh, 1);
      if (!(probe->caps() & core::kCapRegions)) continue;
      std::string name = std::string(sim::model_id(model)) + "_" +
                         std::string(sim::device_short_name(device));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      out.push_back({name, [model, device](const core::Mesh& m) {
                       return ports::make_port(model, device, m, 9);
                     }});
    }
  }
  return out;
}

/// Standard solve prologue on a fresh instance (mirrors the solver driver).
inline std::unique_ptr<core::SolverKernels> make_ready(const RegionImpl& impl,
                                                       int nx, int ny) {
  const core::Mesh mesh(nx, ny, 2);
  auto k = impl.make(mesh);

  core::Settings s = core::Settings::default_problem();
  s.nx = nx;
  s.ny = ny;
  core::Mesh painted = mesh;
  painted.x_min = s.x_min;
  painted.x_max = s.x_max;
  painted.y_min = s.y_min;
  painted.y_max = s.y_max;
  core::Chunk chunk(painted);
  core::apply_initial_states(chunk, s);

  k->upload_state(chunk);
  k->halo_update(core::kMaskDensity | core::kMaskEnergy0, 2);
  k->init_u();
  k->init_coefficients(core::Coefficient::kConductivity, 0.35, 0.35);
  k->halo_update(core::kMaskU, 1);
  return k;
}

/// Sweeps interior + the four edge regions in the pipeline's fixed order.
template <typename Fn>
void sweep_regions(Fn&& region_call) {
  region_call(Region::kInterior);
  for (const Region r : core::kEdgeRegions) region_call(r);
}

/// Bitwise comparison of one padded field between two instances.
inline void expect_field_identical(core::SolverKernels& full,
                                   core::SolverKernels& split, FieldId id,
                                   const char* what) {
  const auto a = full.field_view(id);
  const auto b = split.field_view(id);
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  for (int y = 0; y < a.ny(); ++y) {
    for (int x = 0; x < a.nx(); ++x) {
      ASSERT_EQ(a(x, y), b(x, y))
          << what << ": field " << static_cast<int>(id) << " differs at ("
          << x << "," << y << ")";
    }
  }
}

}  // namespace tl::region_sweeps
