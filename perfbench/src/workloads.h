// The three workloads. Each call runs one round: it starts its own servers,
// sets up (timed as setup_s), runs a fixed, seed-determined amount of work,
// verifies every byte it read back, and tears everything down again.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/ledger.h"
#include "perfbench/src/rig.h"

namespace perfbench {

struct RoundResult {
  int64_t attempted = 0;  // Application ops of the measured phase.
  int64_t failed = 0;     // Failed, refused or mis-verified ops.
  std::string first_error;

  double setup_s = 0;
  double run_s = 0;            // Wall time of the fixed work.
  double throughput_ops_s = 0;  // App ops per second (open_rpc: max rate met).
  double cpu_us_per_op = 0;
  double peak_rss_mb = 0;  // Sampled at the end of the fixed work.

  // Latency samples (µs). rand_fault / vm_qsort: PagingBackend calls and
  // faulting accesses. open_rpc: per fixed rate step, from due time.
  std::vector<double> pagein_us;
  std::vector<double> pageout_us;
  std::vector<double> fault_us;
  std::vector<double> open_us[3];
  std::vector<double> open_pagein_us[3];
  std::vector<double> open_pageout_us[3];

  // Exact counts that must repeat for the same seed.
  std::map<std::string, int64_t> fingerprint;
  // Per-layer metrics (traced rounds only).
  MetricMap layer;
};

// Distinct inputs one run cycles through, round by round; input i of seed s
// is generated from seed s * InputsPerRun + i. A sort's fault count depends on
// how its input's pivots split it (1.7k-2.9k faults across seeds, and the
// pageout tail with it), so vm_qsort covers several inputs in every run. The
// other workloads' seeds only reorder a uniform access stream.
int InputsPerRun(const std::string& workload);

RoundResult RunRandFault(const Deployment& deployment, uint64_t seed, bool traced);
RoundResult RunVmQsort(const Deployment& deployment, uint64_t seed, bool traced);
RoundResult RunOpenRpc(const Deployment& deployment, uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
