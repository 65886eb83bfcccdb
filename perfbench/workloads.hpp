#pragma once
// The benchmark's three closed-loop workloads (README.md says why each
// exists). Each runs untraced, giving the end-to-end metrics, or traced
// (cfg.trace), giving the per-layer metrics in RunResult::layers.

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// core::simulate() on a freshly generated noisy circuit per op (1 thread).
RunResult run_simulate_cold(const RunConfig& cfg, Tracer& tr);
/// core::xeb_sweep over fresh bitstrings on one circuit, PlanCache warm.
RunResult run_xeb_warm(const RunConfig& cfg, Tracer& tr);
/// sim::exact_fidelity_mm + sim::trajectories_sv on a fresh small circuit.
RunResult run_dense_baselines(const RunConfig& cfg, Tracer& tr);

/// Every per-layer metric name with its unit, in report order; every traced
/// run reports each of them (0 where the workload never enters the layer).
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// The six backends' display names, in core::BackendKind order.
const std::vector<std::string>& backend_names();

}  // namespace perfbench
