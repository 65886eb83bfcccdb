#pragma once
// Layer probes of the traced run. Each probe calls one layer's public
// entry point on the inputs of the op just measured, outside the op's
// timing, inside a span named after the layer, and adds its counts to the
// run's per-layer sums.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "common.hpp"
#include "core/circuit_network.hpp"
#include "core/plan_cache.hpp"
#include "tn/plan.hpp"

namespace perfbench {

/// Per-layer sums of one traced run, keyed by metric (or helper) name.
using Layers = std::map<std::string, double>;

/// The most likely output bitstring of the noiseless circuit (state-vector
/// argmax), so a fidelity check compares against a value far from zero.
std::uint64_t likely_output(const noisim::qc::Circuit& c);

/// The gate-list skeleton Algorithm 1 plans over: the circuit's gates with
/// one tagged 1-qubit placeholder per noise site (mirrors the skeleton of
/// core/approx.cpp, so the template keys built from it are the ones the
/// library's own sweeps look up -- a drift shows as plan-cache misses).
struct Skeleton {
  std::vector<noisim::qc::Gate> gates;
  std::vector<std::size_t> site_pos;                  // gate index per noise site
  std::vector<const noisim::ch::Channel*> channels;  // channel per noise site
};
Skeleton approx_skeleton(const noisim::ch::NoisyCircuit& nc);

/// Fetch the top-layer template of (skeleton, psi = 0, v) from `cache`,
/// under the library's key, building it on a miss.
std::shared_ptr<const noisim::core::PlanCache::Entry> top_template(
    noisim::core::PlanCache& cache, int n, const Skeleton& sk, std::uint64_t v_bits);

/// Plan compile of the op's amplitude network: the Auto portfolio
/// ("tn.plan.compile"), then each portfolio strategy on its own
/// ("tn.plan.compile.<strategy>"), recording memory-outs and timeouts as
/// outcomes (tn.plan.mo / tn.plan.to) and carrying on. Returns the Auto
/// compile's seconds (0 when it failed).
double probe_compile(Tracer& tr, Layers& L, int n, const Skeleton& sk, std::uint64_t v_bits);

/// compile_batched ("tn.plan.compile_batched") and batched replays
/// ("tn.exec.replay") of the template's plan, varying the noise sites with
/// their SVD factors at Algorithm-1 level `level`; with `outputs` > 0 the
/// output caps vary too, over that many bitstrings per term (the xeb_sweep
/// batch layout).
void probe_replay(Tracer& tr, Layers& L, const noisim::core::AmplitudeTemplate& tmpl,
                  const Skeleton& sk, std::size_t level, std::size_t outputs,
                  std::uint64_t seed);

/// The active kernel tier on the plan's own step shapes ("tensor.kernel").
void probe_kernel(Tracer& tr, Layers& L, const noisim::tn::ContractionPlan& plan);

/// SVD split of every noise channel of the circuit ("core.superop.split").
void probe_split(Tracer& tr, const noisim::ch::NoisyCircuit& nc);

/// Kernel calls by tier from an op's contraction statistics.
void add_kernel_calls(Layers& L, const noisim::tn::ContractStats& stats);

/// Fill the trace.* metrics -- coverage of the "op" spans by their children,
/// the traced op wall, the traced vs untraced op wall (medians) as overhead
/// -- and tensor.kernel.roof_gflops, the active tier's generic kernel on a
/// compute-bound 64x64x64 shape.
void finish_trace(Tracer& tr, std::size_t ops, const std::vector<double>& untraced,
                  std::map<std::string, double>& out);

/// Fill the tn.* / tensor.* / core.superop.* metrics from the sums and
/// spans of a traced run of `ops` ops.
void finish_tn_layers(const Tracer& tr, const Layers& L, std::size_t ops,
                      std::map<std::string, double>& out);

}  // namespace perfbench
