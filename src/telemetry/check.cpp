#include "telemetry/check.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "telemetry/report.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace tl::telemetry {

namespace {

constexpr double kDefaultBound = 0.10;

Metric lower(std::string_view field, double bound = kDefaultBound) {
  return {field, Better::kLower, bound};
}
Metric higher(std::string_view field, double bound = kDefaultBound) {
  return {field, Better::kHigher, bound};
}
Metric exact(std::string_view field) { return {field, Better::kExact, 0.0}; }

}  // namespace

// Every simulated number is deterministic, so 10% is a behaviour-change
// bound, not a noise allowance. The only wall-clock numbers gated are the
// service's `wall_seconds` and `jobs_per_s`, at 300%: they only have to
// catch a collapse. A drop can never exceed 100%, so `jobs_per_s` at 300%
// cannot fail; it is listed so its direction is on record.
const std::vector<ArtifactSpec>& artifact_specs() {
  static const std::vector<ArtifactSpec> specs = {
      {"schema", kReportSchema, {},
       {{"totals", {},
         {lower("sim_seconds"), exact("kernel_launches"),
          exact("total_iterations")},
         {"achieved_gbs", "peak_gbs"}},
        {"kernels", {"name"}, {exact("count"), lower("total_ns")},
         {"mean_ns", "min_ns", "max_ns", "bytes", "percent", "gbs",
          "peak_gbs", "peak_ratio", "factor_min", "factor_mean",
          "factor_max"}},
        {"ranks", {"rank"},
         {exact("halo_exchanges"), exact("allreduces"), exact("comm_bytes"),
          lower("exposed_ns"), higher("hidden_fraction")},
         {"sim_seconds", "kernel_launches", "kernel_bytes",
          "overlapped_exchanges", "hidden_ns"}},
        // Service runs only: per-tenant rollups.
        {"tenants", {"tenant"},
         {exact("jobs"), exact("failures"), exact("iterations"),
          exact("kernel_launches"), lower("sim_seconds")},
         {"converged", "comm_bytes", "max_wait_pops"}}},
       {"context", "solves", "metrics"}},
      {"bench", "fusion", {},
       {{"cells", {"device", "model", "solver"},
         {lower("unfused_seconds"), lower("fused_seconds"), higher("speedup"),
          exact("unfused_launches"), exact("fused_launches")},
         {"unfused_gbs", "fused_gbs"}}},
       {"mesh", "gates"}},
      {"bench", "fig13_overlap", {"mode"},
       {{"cells", {"scaling", "solver", "ranks"},
         {lower("blocking_s"), lower("overlap_s"), higher("hidden_fraction")},
         {"blocking_comm_s", "hidden_s"}}},
       {"gates"}},
      // Classic vs pipelined CG (bench_fig13_scaling); in full mode every
      // number is a deterministic projection.
      {"bench", "pipeline", {"mode"},
       {{"cells", {"ranks"},
         {lower("classic_total_s"), lower("pipelined_blocking_s"),
          lower("pipelined_overlap_s"), lower("classic_allred_exposed_s"),
          lower("pipelined_allred_exposed_s"),
          higher("pipelined_allred_hidden_s")},
         {}}},
       {"gates"}},
      // The job mix and every job's simulated timeline are deterministic.
      // Scheduling outcomes (batches, max_wait_pops) and per-tenant wall
      // time depend on thread interleaving; the fairness bound does not.
      {"bench", "service", {},
       {{"totals", {},
         {exact("jobs"), exact("failures"), exact("iterations"),
          exact("kernel_launches"), exact("comm_bytes"), exact("scenarios"),
          exact("verified"), exact("bit_identical"), lower("sim_seconds")},
         {}},
        {"schedule", {},
         {exact("fairness_bound"), lower("wall_seconds", 3.0),
          higher("jobs_per_s", 3.0)},
         {"batches", "max_wait_pops"}},
        {"tenants", {"tenant"},
         {exact("jobs"), exact("failures"), exact("converged"),
          exact("iterations"), exact("inner_iterations"),
          exact("kernel_launches"), exact("comm_bytes"), lower("sim_seconds")},
         {"wall_seconds", "max_wait_pops"}}},
       {"config"}},
      // Everything runs on the simulated clock; the retransmission protocol
      // is logical, so a fault schedule's tallies are a function of its seed.
      {"bench", "elastic", {"mode"},
       {{"heterogeneous.cells", {"solver"},
         {lower("equal_seconds"), lower("weighted_seconds"), higher("speedup"),
          exact("equal_iterations"), exact("weighted_iterations")},
         {}},
        {"faults.cells", {"seed"},
         {exact("survived"), exact("identical"), exact("retries"),
          exact("dropped"), exact("duplicated"), exact("delayed")},
         {}},
        {"resume.cells", {"solver", "from_ranks", "to_ranks"},
         {exact("identical")},
         {}}},
       {"heterogeneous.ranks", "heterogeneous.mesh"}},
      // The grids are committed and the planner is a pure function of them,
      // so a different pick is a behaviour change.
      {"bench", "plan", {},
       {{"summary", {},
         {exact("cells"), exact("exact"), exact("picked_best"),
          higher("picked_best_pct"), lower("regret_pct"),
          lower("cv_mean_pct"), lower("cv_max_pct")},
         {"cv_series"}},
        {"cells", {"grid", "device", "solver", "mesh"},
         {exact("chosen"), exact("picked_best")},
         {"oracle", "chosen_s", "oracle_s", "regret_pct", "exact"}}},
       {"tie_tol", "gates"}},
  };
  return specs;
}

const ArtifactSpec* find_spec(const util::JsonValue& doc) {
  if (!doc.is_object()) return nullptr;
  for (const ArtifactSpec& spec : artifact_specs()) {
    const util::JsonValue* tag = doc.find(spec.tag_field);
    if (tag != nullptr && tag->is_string() && tag->as_string() == spec.tag) {
      return &spec;
    }
  }
  return nullptr;
}

std::string artifact_kind(const util::JsonValue& doc) {
  const ArtifactSpec* spec = find_spec(doc);
  if (spec == nullptr) return "unknown";
  if (spec->tag_field == "bench") return "bench/" + std::string(spec->tag);
  return std::string(spec->tag);
}

const util::JsonValue* find_path(const util::JsonValue& doc,
                                 std::string_view path) {
  const util::JsonValue* node = &doc;
  for (const std::string& part : util::split(path, '.')) {
    node = node->find(part);
    if (node == nullptr) return nullptr;
  }
  return node;
}

namespace {

std::string pct(double fraction) {
  return util::strf("%.1f%%", fraction * 100.0);
}

std::string text_of(const util::JsonValue* v) {
  if (v == nullptr) return "";
  if (v->is_string()) return v->as_string();
  if (v->is_number()) return util::strf("%.17g", v->as_number());
  return "?";
}

/// Accumulates comparisons under the asymmetric regression policy.
struct Checker {
  CheckResult result;

  void note(std::string metric, double base, double cur, bool regression,
            std::string text) {
    result.findings.push_back(
        Finding{std::move(metric), base, cur, regression, std::move(text)});
    if (regression) ++result.regressions;
  }

  /// Compares one gated field. A missing number reads as zero. Only numeric
  /// comparisons are counted; a string (plan's `chosen`) must be equal.
  void compare(const std::string& metric, const Metric& m,
               const util::JsonValue* b, const util::JsonValue* n) {
    if ((b != nullptr && b->is_string()) || (n != nullptr && n->is_string())) {
      if (text_of(b) != text_of(n)) {
        note(metric, 0.0, 1.0, true,
             "changed: '" + text_of(b) + "' -> '" + text_of(n) + "'");
      }
      return;
    }
    const double base = b != nullptr && b->is_number() ? b->as_number() : 0.0;
    const double cur = n != nullptr && n->is_number() ? n->as_number() : 0.0;
    ++result.checked;
    switch (m.better) {
      case Better::kExact:
        if (base != cur) {
          note(metric, base, cur, true, "changed (exact metric)");
        }
        return;
      case Better::kLower:
        if (base <= 0.0) {
          if (cur > 0.0) {
            note(metric, base, cur, true, "baseline was zero, now nonzero");
          }
          return;
        }
        tolerance(metric, m.bound, base, cur, (cur - base) / base, "rose");
        return;
      case Better::kHigher:
        if (base <= 0.0) return;  // nothing was gained at baseline
        tolerance(metric, m.bound, base, cur, (base - cur) / base, "dropped");
        return;
    }
  }

  /// `worse` is the relative move in the bad direction.
  void tolerance(const std::string& metric, double bound, double base,
                 double cur, double worse, const char* verb) {
    if (worse > bound) {
      note(metric, base, cur, true,
           util::strf("%s by %s (bound %s)", verb, pct(worse).c_str(),
                      pct(bound).c_str()));
    } else if (worse < -bound) {
      note(metric, base, cur, false,
           util::strf("improved by %s", pct(-worse).c_str()));
    }
  }

  void compare_entry(const std::string& prefix, const Section& section,
                     const util::JsonValue& b, const util::JsonValue* n) {
    for (const Metric& m : section.gated) {
      compare(prefix + std::string(m.field), m, b.find(m.field),
              n != nullptr ? n->find(m.field) : nullptr);
    }
  }
};

/// Array entries by composite key ("cpu/fortran/CG").
using Index = std::map<std::string, const util::JsonValue*>;

Index index_by(const util::JsonValue* array,
               const std::vector<std::string_view>& key_fields) {
  Index index;
  if (array == nullptr || !array->is_array()) return index;
  for (const util::JsonValue& entry : array->as_array()) {
    std::string key;
    for (std::string_view field : key_fields) {
      if (!key.empty()) key += '/';
      const util::JsonValue* v = entry.find(field);
      if (v != nullptr && v->is_number()) {
        key += util::strf("%g", v->as_number());
      } else {
        key += entry.get_string_or(field, "?");
      }
    }
    index.emplace(std::move(key), &entry);
  }
  return index;
}

void check_section(Checker& c, const Section& section,
                   const util::JsonValue& baseline,
                   const util::JsonValue& current) {
  const std::string path(section.path);
  const util::JsonValue* base = find_path(baseline, section.path);
  const util::JsonValue* cur = find_path(current, section.path);
  if (section.keys.empty()) {
    // An object section is compared when the baseline has it.
    if (base != nullptr) c.compare_entry(path + ".", section, *base, cur);
    return;
  }
  // Entries are matched by key; set drift is an exact regression.
  const Index base_index = index_by(base, section.keys);
  const Index cur_index = index_by(cur, section.keys);
  for (const auto& [key, entry] : base_index) {
    const auto it = cur_index.find(key);
    if (it == cur_index.end()) {
      c.note(path + "[" + key + "]", 1.0, 0.0, true,
             "present in baseline, missing in current");
    } else {
      c.compare_entry(path + "[" + key + "].", section, *entry, it->second);
    }
  }
  for (const auto& [key, entry] : cur_index) {
    if (base_index.count(key) == 0) {
      c.note(path + "[" + key + "]", 0.0, 1.0, true,
             "absent from baseline, present in current");
    }
  }
}

}  // namespace

CheckResult check(const util::JsonValue& baseline,
                  const util::JsonValue& current) {
  Checker c;
  const ArtifactSpec* spec = find_spec(baseline);
  if (spec == nullptr || spec != find_spec(current)) {
    c.note("artifact", 0.0, 0.0, true,
           "kind mismatch: baseline " + artifact_kind(baseline) +
               " vs current " + artifact_kind(current));
    return std::move(c.result);
  }
  for (std::string_view field : spec->match) {
    const std::string base = baseline.get_string_or(field, "");
    const std::string cur = current.get_string_or(field, "");
    if (base != cur) {
      c.note(std::string(field), 0.0, 0.0, true,
             "baseline " + std::string(field) + " '" + base +
                 "' vs current '" + cur + "' — not comparable");
      return std::move(c.result);
    }
  }
  for (const Section& section : spec->sections) {
    check_section(c, section, baseline, current);
  }
  return std::move(c.result);
}

std::string format_check(const CheckResult& result) {
  std::ostringstream os;
  for (const Finding& f : result.findings) {
    os << (f.regression ? "REGRESSION " : "note       ") << f.metric << ": "
       << util::strf("%.17g -> %.17g", f.baseline, f.current) << " — "
       << f.note << "\n";
  }
  os << util::strf("%d comparison(s), %d regression(s): %s\n", result.checked,
                   result.regressions, result.pass() ? "pass" : "FAIL");
  return os.str();
}

// -- Analysis ---------------------------------------------------------------

namespace {

void analyze_run_report(std::ostringstream& os, const util::JsonValue& doc,
                        const AnalyzeOptions& opt) {
  if (const util::JsonValue* ctx = doc.find("context")) {
    os << util::strf(
        "context: model=%s device=%s solver=%s %dx%d, %d step(s), "
        "%d rank(s), fused=%s overlap=%s\n",
        ctx->get_string_or("model", "?").c_str(),
        ctx->get_string_or("device", "?").c_str(),
        ctx->get_string_or("solver", "?").c_str(),
        static_cast<int>(ctx->get_number_or("nx", 0)),
        static_cast<int>(ctx->get_number_or("ny", 0)),
        static_cast<int>(ctx->get_number_or("steps", 0)),
        static_cast<int>(ctx->get_number_or("ranks", 1)),
        ctx->get_bool_or("use_fused", true) ? "on" : "off",
        ctx->get_bool_or("overlap_comm", true) ? "on" : "off");
  }
  if (const util::JsonValue* totals = doc.find("totals")) {
    os << util::strf(
        "totals:  %.6f sim s, %.1f GB/s achieved (priced peak %.1f), "
        "%.0f launches, %.0f iterations\n",
        totals->get_number_or("sim_seconds", 0.0),
        totals->get_number_or("achieved_gbs", 0.0),
        totals->get_number_or("peak_gbs", 0.0),
        totals->get_number_or("kernel_launches", 0.0),
        totals->get_number_or("total_iterations", 0.0));
  }

  // Top-N kernels by total time, with the roofline ratio.
  const util::JsonValue* kernels = doc.find("kernels");
  if (kernels != nullptr && kernels->is_array() &&
      !kernels->as_array().empty()) {
    std::vector<const util::JsonValue*> sorted;
    for (const util::JsonValue& k : kernels->as_array()) sorted.push_back(&k);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const util::JsonValue* a, const util::JsonValue* b) {
                       return a->get_number_or("total_ns", 0.0) >
                              b->get_number_or("total_ns", 0.0);
                     });
    os << "\ntop kernels:\n";
    util::Table table({"kernel", "launches", "total s", "% run", "GB/s",
                       "peak ratio"});
    const std::size_t n =
        std::min(sorted.size(), static_cast<std::size_t>(
                                    opt.top_n > 0 ? opt.top_n : 8));
    for (std::size_t i = 0; i < n; ++i) {
      const util::JsonValue& k = *sorted[i];
      table.row({k.get_string_or("name", "?"),
                 util::strf("%.0f", k.get_number_or("count", 0.0)),
                 util::strf("%.6f", k.get_number_or("total_ns", 0.0) * 1e-9),
                 util::strf("%.1f", k.get_number_or("percent", 0.0)),
                 util::strf("%.1f", k.get_number_or("gbs", 0.0)),
                 util::strf("%.2f", k.get_number_or("peak_ratio", 0.0))});
    }
    os << table.render();
    if (sorted.size() > n) {
      os << util::strf("(%zu more kernel(s) below the top %zu)\n",
                       sorted.size() - n, n);
    }
  }

  // Per-rank comm exposure.
  const util::JsonValue* ranks = doc.find("ranks");
  if (ranks != nullptr && ranks->is_array() && !ranks->as_array().empty()) {
    os << "\ncomm exposure:\n";
    util::Table table({"rank", "exchanges", "allreduces", "wire MB",
                       "exposed ms", "hidden ms", "hidden %"});
    for (const util::JsonValue& r : ranks->as_array()) {
      table.row(
          {util::strf("%.0f", r.get_number_or("rank", 0.0)),
           util::strf("%.0f", r.get_number_or("halo_exchanges", 0.0)),
           util::strf("%.0f", r.get_number_or("allreduces", 0.0)),
           util::strf("%.2f", r.get_number_or("comm_bytes", 0.0) / 1e6),
           util::strf("%.3f", r.get_number_or("exposed_ns", 0.0) * 1e-6),
           util::strf("%.3f", r.get_number_or("hidden_ns", 0.0) * 1e-6),
           util::strf("%.1f",
                      r.get_number_or("hidden_fraction", 0.0) * 100.0)});
    }
    os << table.render();
  }

  // Fusion / overlap effectiveness from the registry counters.
  if (const util::JsonValue* metrics = doc.find("metrics")) {
    if (const util::JsonValue* counters = metrics->find("counters")) {
      const double fused = counters->get_number_or("tl_fused_iterations", 0.0);
      const double classic =
          counters->get_number_or("tl_classic_iterations", 0.0);
      const double hidden =
          counters->get_number_or("tl_overlap_hidden_ns", 0.0);
      const double exposed = counters->get_number_or("tl_comm_ns", 0.0);
      os << "\neffectiveness:\n";
      if (fused + classic > 0.0) {
        os << util::strf("  fused path: %.0f of %.0f iterations (%s)\n",
                         fused, fused + classic,
                         pct(fused / (fused + classic)).c_str());
      }
      if (hidden + exposed > 0.0) {
        os << util::strf(
            "  overlap: %.3f ms comm hidden, %.3f ms exposed (%s hidden)\n",
            hidden * 1e-6, exposed * 1e-6,
            pct(hidden / (hidden + exposed)).c_str());
      }
    }
  }
}


std::string cell_text(const util::JsonValue* v) {
  if (v == nullptr) return "-";
  if (v->is_number()) {
    const double x = v->as_number();
    const bool count = x == std::floor(x) && std::abs(x) < 1e15;
    return util::strf(count ? "%.0f" : "%.6g", x);
  }
  if (v->is_string()) return v->as_string();
  if (v->is_bool()) return v->as_bool() ? "true" : "false";
  return "...";
}

std::string gate_text(const Metric& m) {
  switch (m.better) {
    case Better::kLower:
      return util::strf("%s lower (%s)", std::string(m.field).c_str(),
                        pct(m.bound).c_str());
    case Better::kHigher:
      return util::strf("%s higher (%s)", std::string(m.field).c_str(),
                        pct(m.bound).c_str());
    case Better::kExact:
      break;
  }
  return std::string(m.field) + " exact";
}

/// A bench artifact: its match fields and top-level scalars on one line,
/// then each section as a table (keys, gated fields, informational fields)
/// followed by the section's gate.
void render_bench(std::ostringstream& os, const ArtifactSpec& spec,
                  const util::JsonValue& doc) {
  os << artifact_kind(doc);
  for (std::string_view field : spec.match) {
    os << " " << field << "=" << doc.get_string_or(field, "?");
  }
  for (std::string_view path : spec.info) {
    const util::JsonValue* v = find_path(doc, path);
    if (v != nullptr && v->is_number()) {
      os << " " << path << "=" << cell_text(v);
    }
  }
  os << "\n";
  for (const Section& section : spec.sections) {
    const util::JsonValue* node = find_path(doc, section.path);
    std::vector<const util::JsonValue*> rows;
    if (node != nullptr && section.keys.empty()) {
      rows.push_back(node);
    } else if (node != nullptr && node->is_array()) {
      for (const util::JsonValue& entry : node->as_array()) {
        rows.push_back(&entry);
      }
    }
    if (rows.empty()) continue;
    std::vector<std::string_view> columns = section.keys;
    std::string gate;
    for (const Metric& m : section.gated) {
      columns.push_back(m.field);
      gate += (gate.empty() ? "gate: " : ", ") + gate_text(m);
    }
    columns.insert(columns.end(), section.info.begin(), section.info.end());
    util::Table table(std::vector<std::string>(columns.begin(), columns.end()));
    for (const util::JsonValue* row : rows) {
      std::vector<std::string> cells;
      for (std::string_view column : columns) {
        cells.push_back(cell_text(row->find(column)));
      }
      table.row(std::move(cells));
    }
    os << "\n" << section.path << ":\n" << table.render();
    os << gate << "\n";
  }
}

}  // namespace

std::string analyze(const util::JsonValue& doc, const AnalyzeOptions& opt) {
  std::ostringstream os;
  const ArtifactSpec* spec = find_spec(doc);
  if (spec == nullptr) {
    os << "unknown artifact (no tl-report-1 schema or bench tag)\n";
  } else if (spec->tag == kReportSchema) {
    analyze_run_report(os, doc, opt);
  } else {
    render_bench(os, *spec, doc);
  }
  return os.str();
}

}  // namespace tl::telemetry
