#pragma once
// Host fingerprint and process measurements, read through system calls and
// CPUID only (no files are opened).

#include <string>

namespace wallbench {

struct HostInfo {
  int nproc = 0;               // CPUs this process may run on
  std::string cpu_model;       // CPUID brand string
  long l2_bytes = 0;           // per-core L2
  long l3_bytes = 0;           // shared L3
};

HostInfo host_info();

/// Peak resident set size of this process so far, in MiB (ru_maxrss).
double peak_rss_mb();

}  // namespace wallbench
