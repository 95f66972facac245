#pragma once
// Report analysis and regression checking — the logic behind tl_report.
//
// Works over parsed JSON documents so one code path handles every committed
// artifact: tl-report-1 run reports and the BENCH_*.json bench artifacts.
// Each artifact kind is one entry of a declarative table
// (`artifact_specs()`): the top-level fields that must match, its sections,
// and for every gated field its direction and relative bound. One walker
// compares a baseline and a current document through that table, and one
// renderer prints a bench artifact's sections from it, so a new bench costs
// one table entry.
// The regression policy is deliberately asymmetric: a lower- or
// higher-is-better metric fails only when it moves past its bound in its
// bad direction (improvements are reported, never failures); exact fields —
// launch and iteration counts, picks — and the key sets of array sections
// must not drift at all, because the simulated timeline is deterministic
// and any drift there is a behaviour change, not noise.

#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace tl::telemetry {

// -- The artifact table ------------------------------------------------------

enum class Better { kLower, kHigher, kExact };

/// One gated field: `lower` fails when it rises by more than `bound`
/// (relative to the baseline), `higher` when it drops by more than `bound`,
/// `exact` on any change. A string value is compared as text and must be
/// equal whatever the direction.
struct Metric {
  std::string_view field;
  Better better = Better::kExact;
  double bound = 0.0;
};

/// An object (no keys: `totals`, `schedule`, `summary`) or an array of
/// objects matched across documents by its key fields (`cells`, `kernels`,
/// `faults.cells`). `path` is dot-separated from the document root.
struct Section {
  std::string_view path;
  std::vector<std::string_view> keys;
  std::vector<Metric> gated;
  std::vector<std::string_view> info;  // recorded and shown, never compared
};

struct ArtifactSpec {
  std::string_view tag_field;  // "schema" or "bench"
  std::string_view tag;        // its value: "tl-report-1", "fusion", ...
  std::vector<std::string_view> match;  // top-level fields that must equal
  std::vector<Section> sections;
  /// Other top-level paths (leaves or whole subtrees) that are recorded but
  /// never compared: settings echoes, gate thresholds, registry dumps.
  std::vector<std::string_view> info;
};

/// One entry per artifact kind.
const std::vector<ArtifactSpec>& artifact_specs();

/// The table entry `doc` is tagged with, or nullptr.
const ArtifactSpec* find_spec(const util::JsonValue& doc);

/// "tl-report-1", "bench/<tag>", or "unknown".
std::string artifact_kind(const util::JsonValue& doc);

/// The value at a dot-separated path, or nullptr.
const util::JsonValue* find_path(const util::JsonValue& doc,
                                 std::string_view path);

// -- Analysis ---------------------------------------------------------------

struct AnalyzeOptions {
  int top_n = 8;  // kernels shown in the hot-kernel table
};

/// Human-readable analysis of one artifact. Run reports get the top-N
/// kernels with roofline ratios, per-rank comm exposure and fusion/overlap
/// effectiveness; bench artifacts get each table section with its gate.
std::string analyze(const util::JsonValue& doc, const AnalyzeOptions& opt = {});

// -- Regression checking ----------------------------------------------------

struct Finding {
  std::string metric;  // e.g. "kernels[cg_calc_w].total_ns"
  double baseline = 0.0;
  double current = 0.0;
  bool regression = false;
  std::string note;  // "up by 12.3% (bound 10.0%)", "improved", ...
};

struct CheckResult {
  std::vector<Finding> findings;  // regressions and notable improvements
  int checked = 0;                // numeric comparisons performed
  int regressions = 0;

  bool pass() const noexcept { return regressions == 0; }
};

/// Compares `current` against `baseline` (same artifact kind required; a
/// kind mismatch or an unknown kind is itself a regression finding).
CheckResult check(const util::JsonValue& baseline,
                  const util::JsonValue& current);

/// Renders findings plus the pass/fail summary line.
std::string format_check(const CheckResult& result);

}  // namespace tl::telemetry
