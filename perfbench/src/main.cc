// perfbench: the end-to-end pager benchmark.
//
//   perfbench --workload rand_fault|vm_qsort|open_rpc --seed N --seconds S
//             --trace 0|1 [--capacity-pages N]
//
// Runs rounds of the workload (each: start servers, set up, fixed work,
// verify, tear down) until --seconds is spent, with at least kMinRounds and
// at least one round per input. --trace 0 reports the end-to-end metrics;
// --trace 1 alternates untraced and traced rounds and reports the per-layer
// metrics, plus the tracing overhead between the two. Human-readable lines
// come first; the last line of stdout is one JSON object. The exit code is 1
// when any op failed or mis-verified, or when the exact-count fingerprint
// differs between rounds of one input.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/ledger.h"
#include "perfbench/src/rig.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Deployment deployment;
};

// Untraced rounds per run at least; a traced run alternates and doubles it.
constexpr int kMinRounds = 3;

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics, the same names on every workload (NOTES.md maps each
// one onto what it measures per workload).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},        {"throughput_ops_s", "ops/s"}, {"pagein_p50_us", "us"},
    {"pagein_p90_us", "us"}, {"pageout_p50_us", "us"},      {"pageout_p90_us", "us"},
    {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"vm.self_ns_per_access", "ns"},
    {"vm.self_share", "ratio"},
    {"vm.faults", "count"},
    {"vm.pageins", "count"},
    {"vm.pageouts", "count"},
    {"vm.hit_ratio", "ratio"},
    {"ledger.policy_us.pagein.p50", "us"},
    {"ledger.policy_us.pagein.p99", "us"},
    {"ledger.policy_us.pageout.p50", "us"},
    {"ledger.policy_us.pageout.p99", "us"},
    {"policy.rpcs_per_pagein", "count"},
    {"policy.rpcs_per_pageout", "count"},
    {"policy.wire_bytes_per_op", "bytes"},
    {"policy.transfers_per_pageout", "count"},
    {"policy.retries", "count"},
    {"proto.crc_us_per_page", "us"},
    {"proto.encode_us", "us"},
    {"proto.decode_us", "us"},
    {"proto.crc_bytes_per_op", "bytes"},
    {"ledger.submit_us.pagein.p50", "us"},
    {"ledger.submit_us.pagein.p99", "us"},
    {"ledger.submit_us.pageout.p50", "us"},
    {"ledger.submit_us.pageout.p99", "us"},
    {"ledger.req_leg_us.pagein.p50", "us"},
    {"ledger.req_leg_us.pagein.p99", "us"},
    {"ledger.req_leg_us.pageout.p50", "us"},
    {"ledger.req_leg_us.pageout.p99", "us"},
    {"ledger.reply_leg_us.pagein.p50", "us"},
    {"ledger.reply_leg_us.pagein.p99", "us"},
    {"ledger.reply_leg_us.pageout.p50", "us"},
    {"ledger.reply_leg_us.pageout.p99", "us"},
    {"transport.inflight_max", "count"},
    {"transport.inflight_mean", "count"},
    {"gen.late_p99_us", "us"},
    {"gen.late_max_us", "us"},
    {"cpu.loops_us_per_op", "us"},
    {"ledger.server_us.pagein.p50", "us"},
    {"ledger.server_us.pagein.p99", "us"},
    {"ledger.server_us.pageout.p50", "us"},
    {"ledger.server_us.pageout.p99", "us"},
    {"cpu.workers_us_per_op", "us"},
    {"server.physical_per_logical", "ratio"},
    {"cpu.client_us_per_op", "us"},
    {"ledger.closure_pct.pagein", "%"},
    {"ledger.closure_pct.pageout", "%"},
    {"ledger.closure_p50_pct.pagein", "%"},
    {"ledger.closure_p50_pct.pageout", "%"},
    {"trace.overhead_pct", "%"},
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2);
    const char* value = argv[++i];
    Deployment& d = flags->deployment;
    if (key == "workload") {
      flags->workload = value;
    } else if (key == "seed") {
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "seconds") {
      flags->seconds = std::atof(value);
    } else if (key == "trace") {
      flags->trace = std::atoi(value) != 0;
    } else if (key == "capacity-pages") {
      d.capacity_pages = std::strtoull(value, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  if (flags->workload != "rand_fault" && flags->workload != "vm_qsort" &&
      flags->workload != "open_rpc") {
    std::fprintf(stderr, "--workload must be rand_fault, vm_qsort or open_rpc\n");
    return false;
  }
  return true;
}

RoundResult RunRound(const Flags& flags, uint64_t input_seed, bool traced) {
  if (flags.workload == "rand_fault") {
    return RunRandFault(flags.deployment, input_seed, traced);
  }
  if (flags.workload == "vm_qsort") {
    return RunVmQsort(flags.deployment, input_seed, traced);
  }
  return RunOpenRpc(flags.deployment, input_seed, traced);
}

template <typename T, typename F>
std::vector<double> Collect(const std::vector<T>& rounds, F field) {
  std::vector<double> out;
  for (const T& r : rounds) {
    out.push_back(field(r));
  }
  return out;
}

std::vector<double> Pool(const std::vector<RoundResult>& rounds,
                         std::vector<double> RoundResult::*samples) {
  std::vector<double> out;
  for (const RoundResult& r : rounds) {
    out.insert(out.end(), (r.*samples).begin(), (r.*samples).end());
  }
  return out;
}

std::vector<double> PoolStep(const std::vector<RoundResult>& rounds,
                             std::vector<double> (RoundResult::*steps)[3], int step) {
  std::vector<double> out;
  for (const RoundResult& r : rounds) {
    out.insert(out.end(), (r.*steps)[step].begin(), (r.*steps)[step].end());
  }
  return out;
}

// Latency views. open_rpc: p50 at the lowest fixed rate (the unloaded,
// depth-1 view), p90 at the middle one, where requests start to overlap. At
// the highest rate queueing amplifies the machine's speed drift: between two
// sets of 10 runs the p90 over all requests moved by 25% there, by 14% at the
// middle rate. Saturation is gated through max_rate_ops_s instead.
struct View {
  const char* name;
  bool pagein;
  int step;
  double q;
};
constexpr View kViews[] = {
    {"pagein_p50_us", true, 0, 0.50},   {"pagein_p90_us", true, 1, 0.90},
    {"pageout_p50_us", false, 0, 0.50}, {"pageout_p90_us", false, 1, 0.90},
    {"pagein_p99_us", true, 0, 0.99},   {"pageout_p99_us", false, 0, 0.99},
};

const std::vector<double>& ViewSamples(const RoundResult& r, bool open, const View& v) {
  if (open) {
    return v.pagein ? r.open_pagein_us[v.step] : r.open_pageout_us[v.step];
  }
  return v.pagein ? r.pagein_us : r.pageout_us;
}

// One round's figure for every end-to-end metric but peak_rss_mb, and for
// the p99 views.
MetricMap RoundFigures(const RoundResult& r, bool open) {
  MetricMap f;
  f["setup_s"] = r.setup_s;
  f["throughput_ops_s"] = r.throughput_ops_s;
  f["cpu_us_per_op"] = r.cpu_us_per_op;
  for (const View& v : kViews) {
    f[v.name] = Percentile(ViewSamples(r, open, v), v.q);
  }
  return f;
}

void PrintMetric(const std::string& name, double value, const char* unit, size_t samples) {
  std::printf("metric %-34s %14.4f %-6s n=%zu\n", name.c_str(), value, unit, samples);
}

// The workload's primary latency-or-time figure, for the tracing overhead.
double PrimaryFigure(const Flags& flags, const std::vector<RoundResult>& rounds) {
  if (flags.workload == "open_rpc") {
    return Median(PoolStep(rounds, &RoundResult::open_us, 0));
  }
  return Median(Collect(rounds, [](const RoundResult& r) { return r.run_s; }));
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    return 2;
  }
  // The client reactor reads its loop count once, on first use.
  const std::string loops = std::to_string(flags.deployment.client_loops);
  setenv("RMP_CLIENT_LOOPS", loops.c_str(), 1);

  const Deployment& d = flags.deployment;
  std::printf("perfbench workload=%s seed=%llu seconds=%.0f trace=%d\n", flags.workload.c_str(),
              static_cast<unsigned long long>(flags.seed), flags.seconds, flags.trace ? 1 : 0);
  std::printf(
      "deployment server_loops=%d server_workers=%d client_loops=%d capacity_pages=%llu "
      "rates=%.0f,%.0f,%.0f steps_s=%.2f,%.2f,%.2f p99_limit_us=%.0f search=%dx%.2fs\n",
      d.server_loops, d.server_workers, d.client_loops,
      static_cast<unsigned long long>(d.capacity_pages), d.rates[0], d.rates[1], d.rates[2],
      d.step_s[0], d.step_s[1], d.step_s[2], d.p99_limit_us, d.search_steps, d.search_step_s);
  const bool open = flags.workload == "open_rpc";
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  std::vector<MetricMap> figures;  // Per untraced round.
  int64_t attempted = 0;
  int64_t failed = 0;
  bool fingerprint_stable = true;
  // Exact counts of each input's first round; later rounds of it must repeat them.
  std::map<int, std::map<std::string, int64_t>> fingerprints;
  const int inputs = InputsPerRun(flags.workload);
  const int per_input = flags.trace ? 2 : 1;  // Traced runs: untraced, then traced.
  const int min_rounds = per_input * std::max(kMinRounds, inputs);
  const int64_t start = NowNs();
  double last_round_s = 0;
  // Peak RSS of one deployment: the first round's, before allocator reuse
  // across rounds (and open_rpc's overload search) can blur it.
  double peak_rss_mb = 0;
  for (int round = 0;; ++round) {
    const double elapsed = (NowNs() - start) / 1e9;
    if (round >= min_rounds && elapsed + last_round_s > flags.seconds) {
      break;
    }
    const bool trace_round = flags.trace && round % 2 == 1;
    const int input = round / per_input % inputs;
    const uint64_t input_seed = flags.seed * inputs + input;
    const int64_t round_start = NowNs();
    RoundResult result = RunRound(flags, input_seed, trace_round);
    last_round_s = (NowNs() - round_start) / 1e9;
    if (round == 0) {
      peak_rss_mb = result.peak_rss_mb;
    }
    attempted += result.attempted;
    failed += result.failed;
    if (!result.first_error.empty()) {
      std::printf("round %d: FAILED %lld ops, first: %s\n", round,
                  static_cast<long long>(result.failed), result.first_error.c_str());
    }
    auto [first, fresh] = fingerprints.emplace(input, result.fingerprint);
    if (!fresh && result.fingerprint != first->second) {
      fingerprint_stable = false;
      std::printf("round %d: fingerprint differs:", round);
      for (const auto& [key, value] : result.fingerprint) {
        std::printf(" %s=%lld", key.c_str(), static_cast<long long>(value));
      }
      std::printf("\n");
    }
    std::printf("round %d%s: setup %.3f s, run %.3f s, %.1f s total\n", round,
                trace_round ? " (traced)" : "", result.setup_s, result.run_s, last_round_s);
    if (!trace_round) {
      figures.push_back(RoundFigures(result, open));
      std::printf("round %d figures", round);
      for (const auto& [name, value] : figures.back()) {
        std::printf(" %s=%.4f", name.c_str(), value);
      }
      std::printf("\n");
    }
    (trace_round ? traced : untraced).push_back(std::move(result));
  }

  for (const auto& [input, fingerprint] : fingerprints) {
    std::printf("fingerprint %s seed=%llu input=%d", flags.workload.c_str(),
                static_cast<unsigned long long>(flags.seed), input);
    for (const auto& [key, value] : fingerprint) {
      std::printf(" %s=%lld", key.c_str(), static_cast<long long>(value));
    }
    std::printf(" stable=%s\n", fingerprint_stable ? "yes" : "NO");
  }

  const std::vector<RoundResult>& rounds = untraced;
  const size_t n_rounds = rounds.size();
  MetricMap values;
  std::map<std::string, size_t> counts;
  // Set-up time, rates and per-op costs: the median over rounds, so a round
  // hit by a machine stall moves them less.
  for (const char* name : {"setup_s", "throughput_ops_s", "cpu_us_per_op"}) {
    values[name] = Median(Collect(figures, [&](const MetricMap& f) { return f.at(name); }));
    counts[name] = n_rounds;
  }
  // Latency percentiles are taken over the samples of all rounds together:
  // rounds differ by input and by machine noise, and the pooled percentile
  // averages over both, where a median of per-round percentiles jumps
  // between inputs.
  for (const View& v : kViews) {
    std::vector<double> pooled;
    for (const RoundResult& r : rounds) {
      const std::vector<double>& samples = ViewSamples(r, open, v);
      pooled.insert(pooled.end(), samples.begin(), samples.end());
    }
    values[v.name] = Percentile(pooled, v.q);
    counts[v.name] = pooled.size();
  }
  values["peak_rss_mb"] = peak_rss_mb;
  counts["peak_rss_mb"] = 1;

  std::printf("\nend-to-end (untraced rounds: %zu)\n", n_rounds);
  for (const Metric& m : kEndToEnd) {
    PrintMetric(m.name, values[m.name], m.unit, counts[m.name]);
  }
  // The workload-specific views of the same runs.
  for (const char* name : {"pagein_p99_us", "pageout_p99_us"}) {
    PrintMetric(name, values[name], "us", counts[name]);
  }
  if (open) {
    for (const double q : {0.50, 0.90, 0.99}) {
      for (int j = 0; j < 3; ++j) {
        const std::string name = "open_p" + std::to_string(static_cast<int>(q * 100)) +
                                 "_us.r" + std::to_string(j + 1);
        const std::vector<double> pooled = PoolStep(rounds, &RoundResult::open_us, j);
        PrintMetric(name, Percentile(pooled, q), "us", pooled.size());
      }
    }
    PrintMetric("max_rate_ops_s", values["throughput_ops_s"], "ops/s", n_rounds);
  } else {
    PrintMetric("run_s", Median(Collect(rounds, [](const RoundResult& r) { return r.run_s; })),
                "s", n_rounds);
    const auto faults = Pool(rounds, &RoundResult::fault_us);
    if (!faults.empty()) {
      PrintMetric("fault_p50_us", Percentile(faults, 0.5), "us", faults.size());
      PrintMetric("fault_p99_us", Percentile(faults, 0.99), "us", faults.size());
    }
  }
  const double fail_ratio = attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  PrintMetric("fail_ratio", fail_ratio, "ratio", static_cast<size_t>(attempted));

  MetricMap layer;
  if (flags.trace) {
    std::map<std::string, std::vector<double>> per_key;
    for (const RoundResult& r : traced) {
      for (const auto& [key, value] : r.layer) {
        per_key[key].push_back(value);
      }
    }
    for (const auto& [key, v] : per_key) {
      layer[key] = Median(v);
    }
    ProtoTimings(&layer);
    const double base = PrimaryFigure(flags, untraced);
    layer["trace.overhead_pct"] =
        base > 0 ? 100.0 * (PrimaryFigure(flags, traced) - base) / base : 0.0;
    std::printf("\nper-layer (traced rounds: %zu)\n", traced.size());
    for (const Metric& m : kPerLayer) {
      PrintMetric(m.name, layer[m.name], m.unit, traced.size());
    }
    std::printf("ledger.samples pagein=%.0f pageout=%.0f\n", layer["ledger.samples.pagein"],
                layer["ledger.samples.pageout"]);
  }

  const bool correct = failed == 0 && fingerprint_stable;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  auto emit = [&](const Metric& m, double value) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ", m.name, value,
                m.unit);
    first = false;
  };
  if (flags.trace) {
    for (const Metric& m : kPerLayer) {
      emit(m, layer[m.name]);
    }
  } else {
    for (const Metric& m : kEndToEnd) {
      emit(m, values[m.name]);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
