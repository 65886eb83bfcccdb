// perfbench: one workload run of the repository benchmark.
//
//   perfbench --workload <simulate_cold|xeb_warm|dense_baselines> --seed N
//             --seconds S --trace <0|1> [--quick] [--out-dir DIR] [--build-id ID]
//
// Prints a report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace 1. A traced run also writes
// DIR/<workload>-seed<N>.trace.json (trace events) and .layers.json (the
// aggregated per-layer table, the design checks, and the machine record).
// perfbench/run.py builds this program and is the command to use.

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_support/harness.hpp"
#include "core/backend.hpp"
#include "tensor/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const noisim::core::Backend* b : noisim::core::default_backends())
      out.push_back(noisim::core::backend_name(b->kind()));
    return out;
  }();
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> m;
    m.emplace_back("core.backend.estimate_s", "s");
    for (const char* kind : {"estimate_s", "run_s", "picks", "flops_per_s"})
      for (const std::string& b : backend_names())
        m.emplace_back("core.backend." + std::string(kind) + "." + b,
                       kind == std::string("picks")         ? "count"
                       : kind == std::string("flops_per_s") ? "flop/s"
                                                            : "s");
    m.emplace_back("core.backend.escalations", "count");
    m.emplace_back("tn.plan.compile_s", "s");
    for (const char* s : {"greedy", "pairwise_recursive", "bracket", "alternating", "random_greedy"})
      m.emplace_back(std::string("tn.plan.compile_s.") + s, "s");
    m.emplace_back("tn.plan.mo", "count");
    m.emplace_back("tn.plan.to", "count");
    m.emplace_back("tn.plan.flops", "flop");
    m.emplace_back("tn.plan.flops.greedy", "flop");
    m.emplace_back("tn.plan.compile_batched_s", "s");
    m.emplace_back("tn.plan.compile_share", "ratio");
    m.emplace_back("core.plan_cache.hits", "count");
    m.emplace_back("core.plan_cache.misses", "count");
    m.emplace_back("core.plan_cache.lookup_s", "s");
    m.emplace_back("core.superop.split_s", "s");
    m.emplace_back("core.approx.terms", "count");
    m.emplace_back("tn.exec.replay_s", "s");
    m.emplace_back("tn.exec.flops", "flop");
    m.emplace_back("tn.exec.bytes_moved", "B");
    m.emplace_back("tn.exec.gflops", "GFLOP/s");
    m.emplace_back("tn.exec.seq_flop_fraction", "ratio");
    m.emplace_back("tensor.kernel.gflops", "GFLOP/s");
    m.emplace_back("tensor.kernel.roof_gflops", "GFLOP/s");
    for (const char* t : {"scalar", "avx2", "avx512"})
      m.emplace_back(std::string("tensor.kernel.calls.") + t, "count");
    m.emplace_back("core.sweep.speedup_t", "x");
    m.emplace_back("sim.density.s", "s");
    m.emplace_back("sim.density.flops_per_s", "flop/s");
    m.emplace_back("sim.sv.ns_per_amp_update", "ns");
    m.emplace_back("sim.traj.sample_s", "s");
    m.emplace_back("sim.traj.flops_per_s", "flop/s");
    m.emplace_back("sim.traj.speedup_t", "x");
    m.emplace_back("trace.coverage", "ratio");
    m.emplace_back("trace.overhead", "ratio");
    m.emplace_back("trace.op_s", "s");
    m.emplace_back("trace.ops", "count");
    m.emplace_back("check.failed_ratio", "ratio");
    m.emplace_back("check.err_to_bound.max", "ratio");
    return m;
  }();
  return names;
}

namespace {

/// Name -> (value, unit), in report order.
struct Metrics {
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries;
  void set(const std::string& name, double value, const std::string& unit) {
    entries.push_back({name, value, unit});
  }
};

struct Args {
  std::string workload;
  std::string out_dir = ".";
  std::string build_id = "unknown";
  RunConfig cfg;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a.cfg.quick = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.cfg.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.cfg.seconds = std::stod(value);
      have_seconds = a.cfg.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.cfg.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--build-id") {
      a.build_id = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument("need --workload, --seed, --seconds > 0 and --trace");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string machine_json(const Args& a) {
  namespace tsr = noisim::tsr;
  return std::string("{\"cpu_model\": ") + json_string(noisim::bench::cpu_model()) +
         ", \"nproc\": " + std::to_string(a.cfg.threads) +
         ", \"kernel_tier_detected\": \"" + tsr::kernel_tier_name(tsr::detected_kernel_tier()) +
         "\", \"kernel_tier_active\": \"" + tsr::kernel_tier_name(tsr::active_kernel_tier()) +
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" PERFBENCH_COMPILER
         "\", \"build_id\": " + json_string(a.build_id) + ", \"workload\": " +
         json_string(a.workload) + ", \"seed\": " + std::to_string(a.cfg.seed) + "}";
}

}  // namespace

int run(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  args.cfg.threads = std::max(1u, std::thread::hardware_concurrency());

  Tracer tracer;
  RunResult res;
  if (args.workload == "simulate_cold") {
    res = run_simulate_cold(args.cfg, tracer);
  } else if (args.workload == "xeb_warm") {
    res = run_xeb_warm(args.cfg, tracer);
  } else if (args.workload == "dense_baselines") {
    res = run_dense_baselines(args.cfg, tracer);
  } else {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }

  const OpLog& log = res.log;
  double busy = 0.0;
  for (const double s : log.op_s()) busy += s;
  const double attempted = static_cast<double>(log.attempted());
  const double failed_ratio = attempted > 0 ? static_cast<double>(log.failed()) / attempted : 0.0;
  Metrics metrics;
  if (!args.cfg.trace) {
    metrics.set("setup_s", res.setup_s, "s");
    metrics.set("ops_per_s", busy > 0 ? attempted / busy : 0.0, "1/s");
    metrics.set("op_s.p50", quantile(log.op_s(), 0.5), "s");
    metrics.set("op_s.p90", quantile(log.op_s(), 0.9), "s");
    metrics.set("peak_heap_mb", median(log.peak_heap_mb()), "MB");
  } else {
    res.layers["check.failed_ratio"] = failed_ratio;
    res.layers["check.err_to_bound.max"] = log.err_to_bound_max();
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = res.layers.find(name);
      metrics.set(name, it == res.layers.end() ? 0.0 : it->second, unit);
    }
    for (const auto& entry : res.layers)
      if (std::none_of(layer_metrics().begin(), layer_metrics().end(),
                       [&](const auto& m) { return m.first == entry.first; }))
        std::cerr << "perfbench: undeclared layer metric " << entry.first << "\n";
  }

  // The correctness figures and the process's resident-set high-water mark
  // are reported on every run; they carry no regression bound (see README).
  const std::string machine = machine_json(args);
  std::cout << "machine: " << machine << "\n";
  std::cout << args.workload << (args.cfg.trace ? " (traced)" : "") << ": " << log.attempted()
            << " ops, " << log.failed() << " failed, " << log.checked()
            << " checked against a reference\n";
  std::cout << "  failed_ratio = " << json_number(failed_ratio) << " ratio\n"
            << "  err_to_bound.max = " << json_number(log.err_to_bound_max()) << " ratio\n"
            << "  peak_rss_mb = " << json_number(peak_rss_mb()) << " MB\n";
  for (const Metrics::Entry& e : metrics.entries)
    std::cout << "  " << e.name << " = " << json_number(e.value) << " " << e.unit << "\n";

  if (args.cfg.trace) {
    const std::string stem =
        args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.cfg.seed);
    tracer.write_trace_events(stem + ".trace.json");
    std::ofstream layers(stem + ".layers.json");
    layers << "{\n  \"machine\": " << machine << ",\n  \"checks\": "
           << (res.checks_json.empty() ? "{}" : res.checks_json) << ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics.entries.size(); ++i) {
      const Metrics::Entry& e = metrics.entries[i];
      layers << (i ? ", " : "") << json_string(e.name) << ": " << json_number(e.value);
    }
    layers << "},\n  \"spans\": " << tracer.layer_table_json() << "\n}\n";
    if (!layers) throw std::runtime_error("perfbench: cannot write " + stem + ".layers.json");
    std::cout << "checks: " << (res.checks_json.empty() ? "{}" : res.checks_json) << "\n";
    std::cout << "wrote " << stem << ".trace.json and .layers.json\n";
  }

  std::cout << "{\"correct\": " << (log.failed() == 0 && attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << log.attempted() << ", \"failed\": " << log.failed()
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.entries.size(); ++i) {
    const Metrics::Entry& e = metrics.entries[i];
    std::cout << (i ? ", " : "") << json_string(e.name) << ": {\"value\": "
              << json_number(e.value) << ", \"unit\": " << json_string(e.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
