// Host readings for the result manifest: the machine the numbers came
// from, and the per-run diagnostics (steal ticks, load) that identify a
// noisy run.  Linux /proc sources; a missing source reads as 0 / "".
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostSample {
  std::uint64_t steal_ticks = 0;  // cumulative `steal` column of /proc/stat
  double loadavg_1m = 0.0;        // first field of /proc/loadavg
};

HostSample sample_host();
std::string cpu_model();
unsigned online_cpus();
/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

}  // namespace perfbench
