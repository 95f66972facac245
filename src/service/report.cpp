#include "service/report.hpp"

#include <fstream>
#include <sstream>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace tl::service {

using util::json_number;
using util::json_string;

std::string service_artifact_json(const ServiceConfig& config,
                                  const ServiceReport& report,
                                  const ArtifactInfo& info) {
  std::uint64_t jobs = 0, failures = 0, iterations = 0, launches = 0;
  std::uint64_t comm_bytes = 0;
  double sim_seconds = 0.0;
  for (const TenantSummary& t : report.tenants) {
    jobs += t.jobs;
    failures += t.failures;
    iterations += t.iterations;
    launches += t.kernel_launches;
    comm_bytes += t.comm_bytes;
    sim_seconds += t.sim_seconds;
  }
  const std::uint64_t batches =
      report.small_queue.batches + report.large_queue.batches;

  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"service\",\n";
  os << "  \"source\": " << json_string(info.source) << ",\n";
  os << "  \"config\": {\"small_workers\": " << config.small_workers
     << ", \"large_workers\": " << config.large_workers
     << ", \"queue_capacity\": " << config.queue_capacity
     << ", \"aging_interval\": " << config.aging_interval
     << ", \"batch_max\": " << config.batch_max
     << ", \"large_cells_threshold\": " << config.large_cells_threshold
     << ", \"host_threads\": " << config.host_threads << "},\n";
  os << "  \"totals\": {\"jobs\": " << jobs << ", \"failures\": " << failures
     << ", \"iterations\": " << iterations
     << ", \"kernel_launches\": " << launches
     << ", \"comm_bytes\": " << comm_bytes
     << ", \"sim_seconds\": " << json_number(sim_seconds)
     << ", \"scenarios\": " << info.scenarios
     << ", \"verified\": " << info.verified
     << ", \"bit_identical\": " << info.bit_identical << "},\n";
  os << "  \"schedule\": {\"batches\": " << batches
     << ", \"max_wait_pops\": " << report.max_wait_pops()
     << ", \"fairness_bound\": " << report.fairness_bound
     << ", \"wall_seconds\": " << json_number(report.wall_seconds)
     << ", \"jobs_per_s\": "
     << json_number(report.wall_seconds > 0.0
                        ? static_cast<double>(jobs) / report.wall_seconds
                        : 0.0)
     << "},\n";
  os << "  \"tenants\": [";
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantSummary& t = report.tenants[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"tenant\": " << json_string(t.tenant) << ", \"jobs\": " << t.jobs
       << ", \"failures\": " << t.failures
       << ", \"converged\": " << t.converged
       << ", \"iterations\": " << t.iterations
       << ", \"inner_iterations\": " << t.inner_iterations
       << ", \"kernel_launches\": " << t.kernel_launches
       << ", \"comm_bytes\": " << t.comm_bytes
       << ", \"sim_seconds\": " << json_number(t.sim_seconds)
       << ", \"wall_seconds\": " << json_number(t.wall_seconds)
       << ", \"max_wait_pops\": " << t.max_wait_pops << "}";
  }
  os << (report.tenants.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

bool write_service_artifact(const std::string& path,
                            const ServiceConfig& config,
                            const ServiceReport& report,
                            const ArtifactInfo& info) {
  std::ofstream out(path);
  if (out) out << service_artifact_json(config, report, info);
  if (!out) {
    util::log_error("service: cannot write '%s'", path.c_str());
    return false;
  }
  return true;
}

}  // namespace tl::service
