// wallbench: host wall-time benchmark of the TeaLeaf ports, the solve
// service and the MiniComm layer.
//
//   wallbench --workload ports-solve|service-mix --seed N
//             --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see NOTES.md). The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status 0 when the run completed (correct or not), 1 when it could
// not, 2 on bad usage.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "host.hpp"

namespace wallbench {

namespace {

struct MetricDef {
  std::string name;
  const char* unit;
};

std::vector<MetricDef> end_to_end_catalogue() {
  return {{"setup_s", "s"},
          {"solve_s", "s"},
          {"jobs_per_s", "1/s"},
          {"peak_rss_mb", "MiB"}};
}

std::vector<MetricDef> per_layer_catalogue() {
  std::vector<MetricDef> defs;
  for (const tl::sim::Model m : fig8_ports()) {
    const std::string id(tl::sim::model_id(m));
    defs.push_back({"ports." + id + ".solve_s", "s"});
    defs.push_back({"ports." + id + ".ns_per_cell_iter", "ns"});
  }
  defs.push_back({"kernels.busy_s", "s"});
  defs.push_back({"kernels.calls", "count"});
  defs.push_back({"kernels.gbs_computed", "GB/s"});
  for (const Entry e : reported_entries()) {
    defs.push_back({"kernels." + std::string(entry_name(e)) + ".s", "s"});
  }
  static const MetricDef kLayers[] = {
      {"solver.iterations", "count"},
      {"solver.self_s", "s"},
      {"driver.port_s", "s"},
      {"driver.state_s", "s"},
      {"sim.ns_per_launch", "ns"},
      {"sim.launches", "count"},
      {"comm.halo_exchanges", "count"},
      {"comm.allreduces", "count"},
      {"comm.bytes", "B"},
      {"comm.halo_exchange_us", "us"},
      {"comm.allreduce_us", "us"},
      {"dist.rank_kernel_s", "s"},
      {"dist.nonkernel_s", "s"},
      {"dist.imbalance", "ratio"},
      {"dist.speedup_2v1", "ratio"},
      {"service.submit_blocked_s", "s"},
      {"service.finish_s", "s"},
      {"service.worker_busy_frac", "fraction"},
      {"service.batches", "count"},
      {"service.max_wait_pops", "count"},
      {"service.job_p99_s", "s"},
      {"service.job_tail_s", "s"},
      {"service.job_tail_pct", "%"},
      {"service.job_samples", "count"},
      {"trace.overhead_frac", "fraction"},
  };
  defs.insert(defs.end(), std::begin(kLayers), std::end(kLayers));
  return defs;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench --workload "
               "ports-solve|service-mix --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return opt;
}

}  // namespace

Result::Result(bool trace) {
  for (const MetricDef& d :
       trace ? per_layer_catalogue() : end_to_end_catalogue()) {
    metrics_.push_back({d.name, d.unit, 0.0});
  }
}

void Result::set(std::string_view name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("wallbench: metric '" + std::string(name) +
                         "' is not in the catalogue");
}

void Result::check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "wallbench: check failed: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
}

void Result::note(std::string key, std::string json_value) {
  notes_.emplace_back(std::move(key), std::move(json_value));
}

void Result::print(const Options& opt) const {
  const HostInfo host = host_info();
  std::string fp = "{\"fingerprint\": {";
  fp += "\"nproc\": " + std::to_string(host.nproc);
  fp += ", \"cpu_model\": " + json_string(host.cpu_model);
  fp += ", \"l2_bytes\": " + std::to_string(host.l2_bytes);
  fp += ", \"l3_bytes\": " + std::to_string(host.l3_bytes);
  fp += ", \"workload\": " + json_string(opt.workload);
  fp += ", \"seed\": " + std::to_string(opt.seed);
  fp += ", \"seconds\": " + json_number(opt.seconds);
  fp += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  for (const auto& [k, v] : notes_) fp += ", " + json_string(k) + ": " + v;
  fp += "}}";
  std::printf("%s\n", fp.c_str());

  for (const Metric& m : metrics_) {
    std::printf("# %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string line = "{\"correct\": ";
  line += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) line += ", ";
    first = false;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    line += json_string(m.name) + ": {\"value\": " + json_number(v) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  const Options opt = parse(argc, argv);
  // Pin glibc's mmap threshold at its start-up value. Left dynamic, the first
  // free of a large field raises it, later fields land in reused heap memory,
  // and repeated 384^2 solves in one process drift between two speeds (up to
  // 40% apart) depending on that layout. Pinned, every solve's fields are
  // fresh mappings, as in a process that solves once.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // One malloc arena for every thread. With one per thread, how much freed
  // memory the service's worker and rank threads keep resident depends on
  // which thread got which arena, and peak RSS of identical service-mix runs
  // ranged 15-23 MB; with one it stays within 1%.
  mallopt(M_ARENA_MAX, 1);
  Result result(opt.trace);
  try {
    if (opt.workload == "ports-solve") {
      run_ports_solve(opt, result);
    } else if (opt.workload == "service-mix") {
      run_service_mix(opt, result);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
  if (!opt.trace) result.set("peak_rss_mb", peak_rss_mb());
  result.print(opt);
  return 0;
}
