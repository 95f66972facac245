// Region-parameterised sweeps (KernelCaps::kCapRegions): the overlap
// pipeline's correctness rests on interior + boundary-ring sweeps being
// BIT-IDENTICAL to the full-sweep kernel they split — same per-cell
// arithmetic, reductions recomputed in the full sweep's accumulation order.
// These tests drive two instances of the same implementation through
// identical prologues, run one full and one split, and assert exact (==)
// agreement on every reduction and every touched field, for every
// advertising implementation, including degenerate tile shapes. The fused
// CG kernel's split is checked the same way in test_fusion.cpp.

#include <gtest/gtest.h>

#include <string>

#include "region_sweeps.hpp"

using namespace tl;
using namespace tl::region_sweeps;

namespace {

std::string impl_name(const testing::TestParamInfo<RegionImpl>& info) {
  return info.param.name;
}

}  // namespace

class RegionSweeps : public testing::TestWithParam<RegionImpl> {};

INSTANTIATE_TEST_SUITE_P(AllAdvertising, RegionSweeps,
                         testing::ValuesIn(region_impls()), impl_name);

TEST_P(RegionSweeps, CgClassicSplitIsBitIdentical) {
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  for (auto* k : {full.get(), split.get()}) {
    k->cg_init();
    k->halo_update(core::kMaskP, 1);
  }
  const double pw = full->cg_calc_w();
  sweep_regions([&](Region r) { split->cg_calc_w_region(r); });
  const double pw_split = split->cg_calc_w_region_finish();
  EXPECT_EQ(pw, pw_split);  // bitwise
  expect_field_identical(*full, *split, FieldId::kW, "cg_calc_w");
}

TEST_P(RegionSweeps, ChebySplitIsBitIdenticalOverIterations) {
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  const double theta = 4.0;
  for (auto* k : {full.get(), split.get()}) {
    k->cg_init();
    k->halo_update(core::kMaskP, 1);
    k->cheby_init(theta);
    k->halo_update(core::kMaskU, 1);
  }
  for (int it = 0; it < 3; ++it) {
    const double alpha = 0.3 + 0.1 * it;
    const double beta = 0.7 - 0.1 * it;
    full->cheby_fused_iterate(alpha, beta);
    full->halo_update(core::kMaskU, 1);
    sweep_regions([&](Region r) { split->cheby_fused_region(alpha, beta, r); });
    split->cheby_fused_region_finish();
    split->halo_update(core::kMaskU, 1);
    for (const FieldId id : {FieldId::kU, FieldId::kP, FieldId::kR}) {
      expect_field_identical(*full, *split, id, "cheby_fused_iterate");
    }
  }
}

TEST_P(RegionSweeps, PpcgSplitIsBitIdenticalOverIterations) {
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  const double theta = 5.0;
  for (auto* k : {full.get(), split.get()}) {
    k->cg_init();
    k->halo_update(core::kMaskP, 1);
    k->cg_calc_w();
    k->cg_calc_ur(0.7);
    k->ppcg_init_sd(theta);
    k->halo_update(core::kMaskSd, 1);
  }
  for (int it = 0; it < 3; ++it) {
    const double alpha = 0.4 + 0.05 * it;
    const double beta = 0.3 / theta;
    full->ppcg_fused_inner(alpha, beta);
    full->halo_update(core::kMaskSd, 1);
    sweep_regions([&](Region r) { split->ppcg_fused_region(alpha, beta, r); });
    split->ppcg_fused_region_finish(alpha, beta);
    split->halo_update(core::kMaskSd, 1);
    for (const FieldId id : {FieldId::kU, FieldId::kR, FieldId::kSd}) {
      expect_field_identical(*full, *split, id, "ppcg_fused_inner");
    }
  }
}

TEST_P(RegionSweeps, JacobiSplitIsBitIdenticalOverIterations) {
  // Three iterations with halo updates between, exercising the ping-pong
  // swap in the interior call and any per-iteration halo-frame bookkeeping.
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  for (int it = 0; it < 3; ++it) {
    full->jacobi_fused_copy_iterate();
    full->halo_update(core::kMaskU, 1);
    sweep_regions([&](Region r) { split->jacobi_fused_region(r); });
    split->jacobi_fused_region_finish();
    split->halo_update(core::kMaskU, 1);
    for (const FieldId id : {FieldId::kU, FieldId::kW}) {
      expect_field_identical(*full, *split, id, "jacobi_fused_copy_iterate");
    }
  }
}

TEST_P(RegionSweeps, DegenerateTileShapesStayBitIdentical) {
  // Tiles where the boundary ring IS most (or all) of the interior: single
  // rows, single columns, and rings wider than the remaining interior.
  const int shapes[][2] = {{5, 1}, {1, 4}, {2, 2}, {7, 3}, {3, 7}};
  for (const auto& s : shapes) {
    auto full = make_ready(GetParam(), s[0], s[1]);
    auto split = make_ready(GetParam(), s[0], s[1]);
    for (auto* k : {full.get(), split.get()}) {
      k->cg_init();
      k->halo_update(core::kMaskP, 1);
    }
    const double pw = full->cg_calc_w();
    sweep_regions([&](Region r) { split->cg_calc_w_region(r); });
    EXPECT_EQ(pw, split->cg_calc_w_region_finish())
        << "tile " << s[0] << "x" << s[1];
    expect_field_identical(*full, *split, FieldId::kW, "degenerate cg w");
  }
}

// ---------------------------------------------------------------------------
// Region geometry
// ---------------------------------------------------------------------------

TEST(RegionBounds, FiveRegionsPartitionTheInteriorExactly) {
  // Every interior cell is visited exactly once by the union of the five
  // regions, for every small tile shape and both halo depths.
  for (int h = 1; h <= 2; ++h) {
    for (int nx = 1; nx <= 6; ++nx) {
      for (int ny = 1; ny <= 6; ++ny) {
        std::vector<int> cover(static_cast<std::size_t>(nx) * ny, 0);
        const Region all[5] = {Region::kInterior, Region::kSouth,
                               Region::kNorth, Region::kWest, Region::kEast};
        for (const Region r : all) {
          const core::RegionBounds b = core::region_bounds(r, h, nx, ny);
          for (int y = b.y0; y < b.y1; ++y) {
            for (int x = b.x0; x < b.x1; ++x) {
              ASSERT_GE(x, h);
              ASSERT_LT(x, h + nx);
              ASSERT_GE(y, h);
              ASSERT_LT(y, h + ny);
              ++cover[static_cast<std::size_t>(y - h) * nx + (x - h)];
            }
          }
        }
        for (const int c : cover) {
          ASSERT_EQ(c, 1) << "tile " << nx << "x" << ny << " h=" << h;
        }
      }
    }
  }
}

TEST(RegionBounds, InteriorIsInsetOneCell) {
  const core::RegionBounds b =
      core::region_bounds(Region::kInterior, 2, 10, 8);
  EXPECT_EQ(b.x0, 3);
  EXPECT_EQ(b.x1, 11);
  EXPECT_EQ(b.y0, 3);
  EXPECT_EQ(b.y1, 9);
}

TEST(RegionDefaults, NonAdvertisingPortThrows) {
  // The solver/dist layers must never call a region sweep on a port that
  // does not advertise kCapRegions; the defaults enforce it loudly.
  const core::Mesh mesh(8, 8, 2);
  for (const auto model : sim::kAllModels) {
    for (const auto device : sim::kAllDevices) {
      if (!ports::is_supported(model, device)) continue;
      auto k = ports::make_port(model, device, mesh, 1);
      if (k->caps() & core::kCapRegions) continue;
      EXPECT_THROW(k->cg_calc_w_region(Region::kInterior), std::logic_error);
      EXPECT_THROW(k->cg_calc_w_region_finish(), std::logic_error);
      EXPECT_THROW(k->cheby_fused_region(0.5, 0.5, Region::kSouth),
                   std::logic_error);
      EXPECT_THROW(k->ppcg_fused_region_finish(0.5, 0.5), std::logic_error);
      EXPECT_THROW(k->jacobi_fused_region(Region::kInterior),
                   std::logic_error);
    }
  }
}
