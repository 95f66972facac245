// tl_report: run-report analysis and regression checking.
//
//   tl_report [--top=N] FILE...
//       Analyze each artifact. A tl-report-1 run report shows the top-N
//       kernels with roofline ratios, per-rank comm exposure and
//       fusion/overlap effectiveness; a BENCH_*.json artifact shows each
//       section of its table entry with the section's gate.
//
//   tl_report --check --baseline=BASE CURRENT
//       Regression gate: compare CURRENT against BASE (same artifact kind).
//       Every gated field carries its direction and relative bound in the
//       artifact table (src/telemetry/check.cpp): a lower- or
//       higher-is-better metric fails only past its bound in its bad
//       direction; launch/iteration counts, picks and kernel/cell sets are
//       exact. Exits 0 on pass, 1 on regression, 2 on usage or parse errors
//       (an unknown flag is a usage error).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace tl;

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--top=N] FILE...\n"
               "       %s --check --baseline=BASE CURRENT\n",
               program, program);
  return 2;
}

bool load_json(const std::string& path, util::JsonValue& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tl_report: cannot read '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    out = util::parse_json(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tl_report: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (const auto flag = cli.unknown_flag({"check", "baseline", "top"})) {
    std::fprintf(stderr, "tl_report: unknown option --%s\n", flag->c_str());
    return usage(cli.program().c_str());
  }

  // Operands: positionals, plus a value the parser attached to the bare
  // --check flag (`--check FILE` binds FILE to the flag).
  std::vector<std::string> files = cli.positional();
  const std::string check_value = cli.get_or("check", "");
  if (!check_value.empty() && check_value != "true") {
    files.insert(files.begin(), check_value);
  }

  if (cli.has("check")) {
    const std::string baseline_path = cli.get_or("baseline", "");
    if (baseline_path.empty() || files.size() != 1) {
      return usage(cli.program().c_str());
    }
    util::JsonValue baseline, current;
    if (!load_json(baseline_path, baseline) || !load_json(files[0], current)) {
      return 2;
    }
    const telemetry::CheckResult result = telemetry::check(baseline, current);
    std::printf("check %s (%s) vs baseline %s\n", files[0].c_str(),
                telemetry::artifact_kind(current).c_str(),
                baseline_path.c_str());
    std::fputs(telemetry::format_check(result).c_str(), stdout);
    return result.pass() ? 0 : 1;
  }

  if (files.empty()) return usage(cli.program().c_str());

  telemetry::AnalyzeOptions opt;
  opt.top_n = static_cast<int>(cli.get_long_or("top", opt.top_n));
  bool first = true;
  for (const std::string& path : files) {
    util::JsonValue doc;
    if (!load_json(path, doc)) return 2;
    if (!first) std::printf("\n");
    first = false;
    std::printf("== %s ==\n", path.c_str());
    std::fputs(telemetry::analyze(doc, opt).c_str(), stdout);
  }
  return 0;
}
