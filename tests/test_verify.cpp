// Tests for the conformance & verification subsystem: the tolerance
// comparators (including their exact boundaries), field checksums, the
// golden-baseline CSV round trip, fault injection through PerturbingKernels
// (known-divergent inputs MUST fail), and the well-formedness of the JSON
// report CI consumes.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/mesh.hpp"
#include "core/reference_kernels.hpp"
#include "core/state_init.hpp"
#include "verify/checksum.hpp"
#include "verify/conformance.hpp"
#include "verify/golden.hpp"
#include "verify/perturb.hpp"
#include "verify/report.hpp"
#include "verify/tolerance.hpp"

using namespace tl;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (objects, arrays, strings, numbers, literals) —
// the same validator the trace tests use, enough to assert structural
// validity without a JSON library.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// A conformance run restricted to one cell, so the subsystem tests stay
/// fast (the full 69-cell sweep is the verify.conformance ctest).
verify::VerifyOptions one_cell_options() {
  verify::VerifyOptions opt;
  opt.nx = 24;
  opt.solvers = {core::SolverKind::kCg};
  opt.only_model = sim::Model::kKokkos;
  opt.only_device = sim::DeviceId::kCpuSandyBridge;
  return opt;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

}  // namespace

// ---------------------------------------------------------------------------
// ulp_distance
// ---------------------------------------------------------------------------

TEST(UlpDistance, EqualValuesAreZeroApart) {
  EXPECT_EQ(verify::ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(verify::ulp_distance(0.0, -0.0), 0u);
}

TEST(UlpDistance, AdjacentRepresentablesAreOneApart) {
  const double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(verify::ulp_distance(1.0, next), 1u);
  EXPECT_EQ(verify::ulp_distance(next, 1.0), 1u);
  EXPECT_EQ(verify::ulp_distance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
}

TEST(UlpDistance, NanAndOppositeSignsSaturate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(verify::ulp_distance(nan, 1.0), UINT64_MAX);
  EXPECT_EQ(verify::ulp_distance(1.0, nan), UINT64_MAX);
  EXPECT_EQ(verify::ulp_distance(-1.0, 1.0), UINT64_MAX);
}

// ---------------------------------------------------------------------------
// compare: the disjunction and its exact boundaries
// ---------------------------------------------------------------------------

TEST(Compare, AllCriteriaDisabledDemandsExactEquality) {
  EXPECT_TRUE(verify::compare(3.5, 3.5, verify::Tolerance::exact()).pass);
  EXPECT_FALSE(
      verify::compare(3.5, std::nextafter(3.5, 4.0), verify::Tolerance::exact())
          .pass);
}

TEST(Compare, AbsoluteBoundaryIsInclusive) {
  const verify::Tolerance tol{.abs = 0.5};
  EXPECT_TRUE(verify::compare(1.0, 1.5, tol).pass);   // exactly at the bound
  EXPECT_FALSE(verify::compare(1.0, 1.5001, tol).pass);
}

TEST(Compare, RelativeBoundaryIsInclusive) {
  const verify::Tolerance tol{.rel = 0.25};
  // rel_err = |80 - 100| / 100 = 0.2 <= 0.25
  EXPECT_TRUE(verify::compare(80.0, 100.0, tol).pass);
  // rel_err = |70 - 100| / 100 = 0.3 > 0.25
  EXPECT_FALSE(verify::compare(70.0, 100.0, tol).pass);
  EXPECT_TRUE(verify::compare(100.0, 125.0, verify::Tolerance{.rel = 0.2}).pass);
}

TEST(Compare, UlpBoundaryIsInclusive) {
  const verify::Tolerance tol{.ulp = 2};
  const double two_up = std::nextafter(std::nextafter(1.0, 2.0), 2.0);
  EXPECT_TRUE(verify::compare(1.0, two_up, tol).pass);
  EXPECT_FALSE(
      verify::compare(1.0, std::nextafter(two_up, 2.0), tol).pass);
}

TEST(Compare, DisjunctionPassesWhenAnyCriterionHolds) {
  // Tiny residuals: hopeless relatively, fine absolutely.
  const verify::Tolerance tol{.abs = 1e-15, .rel = 1e-9};
  const auto c = verify::compare(1e-22, 3e-22, tol);
  EXPECT_TRUE(c.pass);
  EXPECT_GT(c.rel_err, 0.5);
  // Large energies: hopeless absolutely, fine relatively.
  EXPECT_TRUE(verify::compare(1e9, 1e9 * (1 + 1e-10), tol).pass);
}

TEST(Compare, NanNeverPasses) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const verify::Tolerance loose{.abs = 1e300, .rel = 1.0, .ulp = UINT64_MAX};
  EXPECT_FALSE(verify::compare(nan, nan, loose).pass);
  EXPECT_FALSE(verify::compare(nan, 1.0, loose).pass);
  EXPECT_FALSE(verify::compare(1.0, nan, loose).pass);
}

TEST(Compare, RecordsEveryCriterionsError) {
  const auto c = verify::compare(2.0, 1.0, verify::Tolerance{.abs = 2.0});
  EXPECT_TRUE(c.pass);
  EXPECT_DOUBLE_EQ(c.abs_err, 1.0);
  EXPECT_DOUBLE_EQ(c.rel_err, 0.5);
  EXPECT_EQ(c.a, 2.0);
  EXPECT_EQ(c.b, 1.0);
}

TEST(ToleranceSpec, DefaultsEncodeTheDocumentedContract) {
  const auto spec = verify::ToleranceSpec::defaults(core::SolverKind::kCg);
  // Control flow is exact.
  EXPECT_EQ(spec[verify::Metric::kIterations].abs, 0.0);
  EXPECT_EQ(spec[verify::Metric::kIterations].rel, 0.0);
  EXPECT_EQ(spec[verify::Metric::kIterations].ulp, 0u);
  // Residuals have the eps absolute floor for converged values.
  EXPECT_GT(spec[verify::Metric::kFinalResidual].abs, 0.0);
  EXPECT_GT(spec[verify::Metric::kFinalResidual].rel, 0.0);
  // Replay launches are exact; replay seconds carry the pinned 1e-9.
  EXPECT_EQ(spec[verify::Metric::kReplayLaunches].rel, 0.0);
  EXPECT_DOUBLE_EQ(spec[verify::Metric::kReplaySeconds].rel, 1e-9);
  // Chebyshev's three-term recurrence gets a looser history bound than CG.
  const auto cheby = verify::ToleranceSpec::defaults(core::SolverKind::kCheby);
  EXPECT_GT(cheby[verify::Metric::kResidualHistory].rel,
            spec[verify::Metric::kResidualHistory].rel);
}

// ---------------------------------------------------------------------------
// Field checksums
// ---------------------------------------------------------------------------

TEST(Checksum, ConstantFieldHasKnownChecksum) {
  const core::Mesh mesh(4, 4, 2);
  std::vector<double> data(static_cast<std::size_t>(mesh.padded_nx()) *
                               static_cast<std::size_t>(mesh.padded_ny()),
                           -99.0);  // halo junk must not leak in
  for (int y = mesh.halo_depth; y < mesh.halo_depth + mesh.ny; ++y) {
    for (int x = mesh.halo_depth; x < mesh.halo_depth + mesh.nx; ++x) {
      data[static_cast<std::size_t>(y) *
               static_cast<std::size_t>(mesh.padded_nx()) +
           static_cast<std::size_t>(x)] = 2.0;
    }
  }
  const util::Span2D<const double> span(data.data(), mesh.padded_nx(),
                                        mesh.padded_ny());
  const verify::FieldChecksum cs = verify::checksum_field(mesh, span);
  EXPECT_DOUBLE_EQ(cs.sum, 2.0 * 16);
  EXPECT_DOUBLE_EQ(cs.l2, std::sqrt(4.0 * 16));
  EXPECT_DOUBLE_EQ(cs.min, 2.0);
  EXPECT_DOUBLE_EQ(cs.max, 2.0);
}

TEST(Checksum, CompensatedSumSurvivesMagnitudeSpread) {
  // 1e16 + many 1.0s: a naive left-to-right double sum loses the ones.
  const core::Mesh mesh(3, 3, 1);
  std::vector<double> data(static_cast<std::size_t>(mesh.padded_nx()) *
                               static_cast<std::size_t>(mesh.padded_ny()),
                           0.0);
  const auto at = [&](int x, int y) -> double& {
    return data[static_cast<std::size_t>(y) *
                    static_cast<std::size_t>(mesh.padded_nx()) +
                static_cast<std::size_t>(x)];
  };
  at(1, 1) = 1e16;
  at(2, 1) = 1.0;
  at(3, 1) = 1.0;
  at(1, 2) = 1.0;
  at(2, 2) = 1.0;
  const util::Span2D<const double> span(data.data(), mesh.padded_nx(),
                                        mesh.padded_ny());
  const verify::FieldChecksum cs = verify::checksum_field(mesh, span);
  EXPECT_DOUBLE_EQ(cs.sum, 1e16 + 4.0);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(Perturb, UnknownTargetThrows) {
  const core::Mesh mesh(8, 8, 2);
  EXPECT_THROW(verify::PerturbingKernels(
                   std::make_unique<core::ReferenceKernels>(mesh),
                   "not_a_kernel"),
               std::invalid_argument);
}

TEST(Perturb, TargetsCoverTheScalarKernels) {
  const auto& targets = verify::PerturbingKernels::targets();
  EXPECT_NE(std::find(targets.begin(), targets.end(), "cg_calc_ur"),
            targets.end());
  EXPECT_NE(std::find(targets.begin(), targets.end(), "field_summary"),
            targets.end());
}

TEST(Perturb, ScalesExactlyTheNamedKernel) {
  const core::Mesh mesh(8, 8, 2);
  core::ReferenceKernels plain(mesh);
  verify::PerturbingKernels wrapped(
      std::make_unique<core::ReferenceKernels>(mesh), "cg_init", 2.0);
  core::Chunk chunk(mesh);
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = mesh.nx;
  core::apply_initial_states(chunk, s);
  plain.upload_state(chunk);
  wrapped.upload_state(chunk);
  for (auto* k : {static_cast<core::SolverKernels*>(&plain),
                  static_cast<core::SolverKernels*>(&wrapped)}) {
    k->init_u();
    k->init_coefficients(core::Coefficient::kConductivity, 0.1, 0.1);
    k->calc_residual();
  }
  EXPECT_DOUBLE_EQ(wrapped.cg_init(), 2.0 * plain.cg_init());
  // Non-targeted kernels pass through untouched.
  EXPECT_DOUBLE_EQ(wrapped.cg_calc_w(), plain.cg_calc_w());
}

// ---------------------------------------------------------------------------
// Golden round trip
// ---------------------------------------------------------------------------

TEST(Golden, CsvRoundTripPreservesEveryBit) {
  const auto rec = verify::compute_reference_record(core::SolverKind::kCg, 24);
  const std::string path = temp_path("golden_roundtrip.csv");
  verify::save_golden(path, {rec});
  const auto loaded = verify::load_golden(path);
  ASSERT_EQ(loaded.size(), 1u);
  const auto& back = loaded[0];
  EXPECT_EQ(back.solver, rec.solver);
  EXPECT_EQ(back.nx, rec.nx);
  EXPECT_EQ(back.steps, rec.steps);
  EXPECT_EQ(back.converged, rec.converged);
  EXPECT_EQ(back.iterations, rec.iterations);
  EXPECT_EQ(back.final_rr, rec.final_rr);          // %.17g: exact round trip
  EXPECT_EQ(back.internal_energy, rec.internal_energy);
  EXPECT_EQ(back.u.sum, rec.u.sum);
  EXPECT_EQ(back.u.l2, rec.u.l2);
  EXPECT_EQ(back.energy.max, rec.energy.max);
  EXPECT_NE(verify::find_golden(loaded, core::SolverKind::kCg, 24, 1), nullptr);
  EXPECT_EQ(verify::find_golden(loaded, core::SolverKind::kPpcg, 24, 1),
            nullptr);
  std::remove(path.c_str());
}

TEST(Golden, PortRecordsRoundTripWithKeyAndCost) {
  const auto records = verify::compute_port_records(
      {core::SolverKind::kCg}, 24, 1, 7, sim::Model::kKokkos,
      sim::DeviceId::kGpuK20X);
  ASSERT_EQ(records.size(), 3u);  // fused, classic, pipelined
  const std::string path = temp_path("golden_ports_roundtrip.csv");
  verify::save_golden(path, records);
  const auto loaded = verify::load_golden(path);
  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].model, "kokkos");
    EXPECT_EQ(loaded[i].device, "gpu");
    EXPECT_EQ(loaded[i].fused, records[i].fused);
    EXPECT_EQ(loaded[i].pipelined, records[i].pipelined);
    EXPECT_GT(loaded[i].launches, 0u);
    EXPECT_EQ(loaded[i].launches, records[i].launches);
    EXPECT_EQ(loaded[i].sim_seconds, records[i].sim_seconds);
    EXPECT_EQ(loaded[i].u.sum, records[i].u.sum);
  }
  EXPECT_TRUE(loaded[0].fused);
  EXPECT_FALSE(loaded[1].fused);
  EXPECT_TRUE(loaded[2].pipelined);
  // Port records never stand in for a reference baseline.
  EXPECT_EQ(verify::find_golden(loaded, core::SolverKind::kCg, 24, 1), nullptr);
  std::remove(path.c_str());
}

TEST(Golden, MalformedFilesThrow) {
  const std::string path = temp_path("golden_malformed.csv");
  {
    std::ofstream out(path);
    out << "solver,nx\nCG,not_a_number\n";
  }
  EXPECT_THROW(verify::load_golden(path), std::runtime_error);
  EXPECT_THROW(verify::load_golden(temp_path("no_such_golden.csv")),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Conformance: agreement passes, known-divergent inputs fail
// ---------------------------------------------------------------------------

TEST(Conformance, SingleCellAgreesWithReference) {
  const auto report = verify::run_conformance(one_cell_options());
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_TRUE(report.all_pass());
  EXPECT_EQ(report.failed_cells(), 0);
  // The replay cross-check ran and passed too.
  bool saw_replay = false;
  for (const auto& m : report.cells[0].metrics) {
    if (m.metric == verify::Metric::kReplaySeconds) saw_replay = true;
  }
  EXPECT_TRUE(saw_replay);
}

TEST(Conformance, JacobiCellAgreesIncludingReplay) {
  // Jacobi converges on norm checks, not cg_calc_ur — the replay script
  // derivation must use converge_after_jacobi or the phantom never stops.
  auto opt = one_cell_options();
  opt.solvers = {core::SolverKind::kJacobi};
  const auto report = verify::run_conformance(opt);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_TRUE(report.all_pass()) << verify::format_matrix(report);
  bool replay_checked = false;
  for (const auto& m : report.cells[0].metrics) {
    if (m.metric == verify::Metric::kReplayLaunches) {
      replay_checked = true;
      EXPECT_TRUE(m.pass);
    }
  }
  EXPECT_TRUE(replay_checked);
}

TEST(Conformance, PerturbedReferenceKernelFails) {
  auto opt = one_cell_options();
  opt.perturb_kernel = "cg_calc_ur";
  const auto report = verify::run_conformance(opt);
  EXPECT_FALSE(report.all_pass());
  EXPECT_GT(report.failed_cells(), 0);
}

TEST(Conformance, GoldenStoreCatchesReferenceDrift) {
  // Commit a golden, then corrupt it: the conformance run must flag the
  // mismatch even though every port still agrees with the live reference.
  auto rec = verify::compute_reference_record(core::SolverKind::kCg, 24);
  rec.internal_energy *= 1.001;
  const std::string path = temp_path("golden_drift.csv");
  verify::save_golden(path, {rec});
  auto opt = one_cell_options();
  opt.golden_path = path;
  const auto report = verify::run_conformance(opt);
  EXPECT_FALSE(report.golden_pass());
  EXPECT_FALSE(report.all_pass());
  EXPECT_EQ(report.failed_cells(), 0);  // ports still conform
  std::remove(path.c_str());
}

TEST(Conformance, MissingGoldenRecordIsAFailureWithANote) {
  const auto rec = verify::compute_reference_record(core::SolverKind::kCg, 24);
  const std::string path = temp_path("golden_wrong_size.csv");
  verify::save_golden(path, {rec});
  auto opt = one_cell_options();
  opt.nx = 40;  // no record for nx=40 in the store
  opt.golden_path = path;
  const auto report = verify::run_conformance(opt);
  EXPECT_FALSE(report.golden_pass());
  ASSERT_FALSE(report.references.empty());
  EXPECT_FALSE(report.references[0].golden_note.empty());
  std::remove(path.c_str());
}

TEST(Conformance, EmptySolverListThrows) {
  verify::VerifyOptions opt;
  opt.solvers.clear();
  EXPECT_THROW(verify::run_conformance(opt), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Report output
// ---------------------------------------------------------------------------

TEST(Report, JsonIsWellFormedAndCarriesTheSummary) {
  const auto report = verify::run_conformance(one_cell_options());
  const std::string json = verify::to_json(report);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"tl-verify-1\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\":true"), std::string::npos);
  EXPECT_NE(json.find("\"residual_history\""), std::string::npos);
}

TEST(Report, FailingJsonStaysWellFormed) {
  auto opt = one_cell_options();
  opt.perturb_kernel = "cg_calc_w";
  const auto report = verify::run_conformance(opt);
  const std::string json = verify::to_json(report);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"pass\":false"), std::string::npos);
}

TEST(Report, JsonEscapeHandlesSpecials) {
  const std::string escaped =
      "\"" + verify::json_escape("a\"b\\c\nd\te\x01") + "\"";
  EXPECT_TRUE(JsonChecker(escaped).valid()) << escaped;
}

TEST(Report, MatrixNamesEveryCell) {
  const auto report = verify::run_conformance(one_cell_options());
  const std::string matrix = verify::format_matrix(report);
  EXPECT_NE(matrix.find("Kokkos"), std::string::npos);
  EXPECT_NE(matrix.find("CG"), std::string::npos);
  EXPECT_NE(matrix.find("pass"), std::string::npos);
}
