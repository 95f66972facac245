#include "tune/catalog.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "util/string_util.hpp"

namespace tl::tune {

using util::json_number;

double ScalingFit::eval(double x) const {
  double v = c0;
  if (c1 != 0.0) {
    double term = c1 * std::pow(x, a);
    if (b != 0) term *= std::pow(std::log2(x), b);
    v += term;
  }
  if (!std::isfinite(v)) return 0.0;
  return v < 0.0 ? 0.0 : v;
}

std::string SeriesKey::str() const {
  std::string s;
  s.reserve(metric.size() + model.size() + device.size() + solver.size() +
            variant.size() + x.size() + 6);
  for (const std::string* part : {&metric, &model, &device, &solver, &variant,
                                  &x}) {
    if (!s.empty()) s += '|';
    s += *part;
  }
  return s;
}

bool operator<(const SeriesKey& lhs, const SeriesKey& rhs) {
  return std::tie(lhs.metric, lhs.model, lhs.device, lhs.solver, lhs.variant,
                  lhs.x) < std::tie(rhs.metric, rhs.model, rhs.device,
                                    rhs.solver, rhs.variant, rhs.x);
}

bool operator==(const SeriesKey& lhs, const SeriesKey& rhs) {
  return std::tie(lhs.metric, lhs.model, lhs.device, lhs.solver, lhs.variant,
                  lhs.x) == std::tie(rhs.metric, rhs.model, rhs.device,
                                     rhs.solver, rhs.variant, rhs.x);
}

void ModelCatalog::put(FittedSeries series) {
  std::string key = series.key.str();
  series_.insert_or_assign(std::move(key), std::move(series));
}

const FittedSeries* ModelCatalog::find(const SeriesKey& key) const {
  const auto it = series_.find(key.str());
  return it == series_.end() ? nullptr : &it->second;
}

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("tl-models: malformed catalog: " + what);
}

double require_finite_number(const util::JsonValue& obj, const char* key,
                             const std::string& where) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    malformed(where + ": missing number '" + key + "'");
  }
  const double d = v->as_number();
  if (!std::isfinite(d)) malformed(where + ": non-finite '" + key + "'");
  return d;
}

std::string require_string(const util::JsonValue& obj, const char* key,
                           const std::string& where) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    malformed(where + ": missing string '" + key + "'");
  }
  return v->as_string();
}

}  // namespace

std::string ModelCatalog::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kModelsSchema << "\",\n";
  os << "  \"series\": [";
  bool first = true;
  for (const auto& [joined, s] : series_) {
    (void)joined;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"metric\": \"" << util::json_escape(s.key.metric)
       << "\", \"model\": \"" << util::json_escape(s.key.model)
       << "\", \"device\": \"" << util::json_escape(s.key.device)
       << "\", \"solver\": \"" << util::json_escape(s.key.solver)
       << "\", \"variant\": \"" << util::json_escape(s.key.variant)
       << "\", \"x\": \"" << util::json_escape(s.key.x) << "\",\n"
       << "     \"fit\": {\"c0\": " << json_number(s.fit.c0)
       << ", \"c1\": " << json_number(s.fit.c1)
       << ", \"a\": " << json_number(s.fit.a)
       << ", \"b\": " << s.fit.b << "},\n"
       << "     \"quality\": {\"r2\": " << json_number(s.quality.r2)
       << ", \"rel_rss\": " << json_number(s.quality.rel_rss)
       << ", \"cv_rel_err\": " << json_number(s.quality.cv_rel_err)
       << ", \"cv_max_rel_err\": " << json_number(s.quality.cv_max_rel_err)
       << ", \"points\": " << s.quality.points
       << ", \"fallback\": " << (s.quality.fallback ? "true" : "false")
       << "},\n"
       << "     \"domain\": {\"x_min\": " << json_number(s.x_min)
       << ", \"x_max\": " << json_number(s.x_max) << "}}";
  }
  os << (first ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

ModelCatalog ModelCatalog::from_json(const util::JsonValue& doc) {
  if (!doc.is_object()) malformed("document is not an object");
  if (doc.get_string_or("schema", "") != kModelsSchema) {
    malformed("schema tag is not 'tl-models-1'");
  }
  const util::JsonValue* series = doc.find("series");
  if (series == nullptr || !series->is_array()) {
    malformed("'series' is missing or not an array");
  }
  ModelCatalog catalog;
  std::size_t index = 0;
  for (const util::JsonValue& entry : series->as_array()) {
    const std::string where = util::strf("series[%zu]", index++);
    if (!entry.is_object()) malformed(where + " is not an object");
    FittedSeries s;
    s.key.metric = require_string(entry, "metric", where);
    s.key.model = require_string(entry, "model", where);
    s.key.device = require_string(entry, "device", where);
    s.key.solver = require_string(entry, "solver", where);
    s.key.variant = require_string(entry, "variant", where);
    s.key.x = require_string(entry, "x", where);
    if (s.key.metric.empty()) malformed(where + ": empty 'metric'");
    if (s.key.x != "cells" && s.key.x != "ranks") {
      malformed(where + ": 'x' must be 'cells' or 'ranks'");
    }

    const util::JsonValue* fit = entry.find("fit");
    if (fit == nullptr || !fit->is_object()) {
      malformed(where + ": missing 'fit' object");
    }
    s.fit.c0 = require_finite_number(*fit, "c0", where + ".fit");
    s.fit.c1 = require_finite_number(*fit, "c1", where + ".fit");
    s.fit.a = require_finite_number(*fit, "a", where + ".fit");
    const double b = require_finite_number(*fit, "b", where + ".fit");
    if (b != std::floor(b)) malformed(where + ".fit: 'b' is not integral");
    s.fit.b = static_cast<int>(b);

    const util::JsonValue* quality = entry.find("quality");
    if (quality == nullptr || !quality->is_object()) {
      malformed(where + ": missing 'quality' object");
    }
    s.quality.r2 = require_finite_number(*quality, "r2", where + ".quality");
    s.quality.rel_rss =
        require_finite_number(*quality, "rel_rss", where + ".quality");
    s.quality.cv_rel_err =
        require_finite_number(*quality, "cv_rel_err", where + ".quality");
    s.quality.cv_max_rel_err =
        require_finite_number(*quality, "cv_max_rel_err", where + ".quality");
    s.quality.points = static_cast<int>(
        require_finite_number(*quality, "points", where + ".quality"));
    s.quality.fallback = quality->get_bool_or("fallback", false);

    const util::JsonValue* domain = entry.find("domain");
    if (domain == nullptr || !domain->is_object()) {
      malformed(where + ": missing 'domain' object");
    }
    s.x_min = require_finite_number(*domain, "x_min", where + ".domain");
    s.x_max = require_finite_number(*domain, "x_max", where + ".domain");
    if (s.x_min > s.x_max) malformed(where + ".domain: x_min > x_max");

    if (catalog.find(s.key) != nullptr) {
      malformed(where + ": duplicate key " + s.key.str());
    }
    catalog.put(std::move(s));
  }
  return catalog;
}

ModelCatalog ModelCatalog::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("tl-models: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(util::parse_json(buffer.str()));
}

void ModelCatalog::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("tl-models: cannot write " + path);
  out << to_json();
  if (!out) throw std::runtime_error("tl-models: write failed: " + path);
}

}  // namespace tl::tune
