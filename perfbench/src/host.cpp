#include "host.hpp"

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

HostSample sample_host() {
  HostSample s;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  std::uint64_t field[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (std::uint64_t& f : field) stat >> f;
    s.steal_ticks = field[7];
  }
  std::ifstream load("/proc/loadavg");
  load >> s.loadavg_1m;
  return s;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  }
  return "";
}

unsigned online_cpus() { return std::thread::hardware_concurrency(); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
