#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace wallbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

}  // namespace

HostInfo host_info() {
  HostInfo info;
  cpu_set_t set;
  CPU_ZERO(&set);
  info.nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                            : 1;
  info.cpu_model = cpu_brand();
  info.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  info.l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return info;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace wallbench
