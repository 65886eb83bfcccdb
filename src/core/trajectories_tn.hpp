#pragma once
// TN-based quantum trajectories: the paper's "Traj (TN)" baseline
// (Table III).
//
// For channels that are probabilistic mixtures of unitaries (depolarizing,
// Pauli channels, ...) the Kraus sampling probabilities are state
// independent, so each trajectory reduces to one noiseless amplitude
// evaluation of the circuit with sampled unitary insertions -- computed by
// tensor network contraction, which is what lets this baseline scale past
// the state-vector variant's memory wall.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "core/circuit_network.hpp"
#include "sim/trajectories.hpp"

namespace noisim::core {

class PlanCache;

/// Estimate <v|E(|psi><psi|)|v> with `samples` TN trajectories. Throws
/// LinalgError if any noise channel is not a mixture of unitaries or if a
/// mixture's probabilities do not sum to 1 beyond roundoff (unnormalized
/// channels would silently skew the inverse-CDF sampling).
/// samples == 0 returns the well-defined empty estimate.
sim::TrajectoryResult trajectories_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t samples,
                                      std::mt19937_64& rng, const EvalOptions& eval = {});

/// Non-throwing precheck of trajectories_tn's channel requirements: true iff
/// every noise channel is a mixture of unitaries with probabilities summing
/// to 1 within the engine's tolerance. Backend selection uses this to rule
/// the TN-trajectories backend in or out without paying an exception.
bool trajectories_tn_eligible(const ch::NoisyCircuit& nc);

/// Multithreaded variant on the shared engine (sim/parallel.hpp): each
/// worker owns a private copy of the sampled gate list, so no shared state
/// is mutated; reproducible for a fixed `seed` across thread counts.
/// `plan_cache` (optional) serves the plan-replay template: a plan compiled
/// for the same skeleton by approx_cost_model / approximate_fidelity under
/// the same resolved options is replayed, not recompiled. Results are
/// bit-identical with or without it.
sim::TrajectoryResult trajectories_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t samples,
                                      std::uint64_t seed, const sim::ParallelOptions& popts,
                                      const EvalOptions& eval = {},
                                      PlanCache* plan_cache = nullptr);

/// Estimate <v_t|E(|psi><psi|)|v_t> for EVERY output bitstring in `v_bits`
/// from ONE set of sampled trajectories: each trajectory draws its site
/// unitaries once and scores all K bitstrings on the same sampled circuit
/// -- on the tensor-network path through ONE output-batched plan traversal
/// per sample (the basis caps are the varying slots; the sampled unitaries
/// enter as shared substitutions). Element t is bit-identical to
/// trajectories_tn(nc, psi_bits, v_bits[t], samples, seed, popts, eval):
/// the per-sample draws depend only on (seed, chunk_size). Estimates are
/// correlated across bitstrings (they share the noise realizations), which
/// is exactly what sampling / XEB workloads want. samples == 0 returns K
/// well-defined empty estimates.
std::vector<sim::TrajectoryResult> trajectories_tn_outputs(
    const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
    std::span<const std::uint64_t> v_bits, std::size_t samples, std::uint64_t seed,
    const sim::ParallelOptions& popts, const EvalOptions& eval = {});

/// Sharded variant of trajectories_tn_outputs for very large bitstring
/// sets: the bitstrings are partitioned into shards of `shard_outputs` and
/// the (bitstring-shard x sample-chunk) grid forms a single 2-D work queue
/// (sim::run_trajectories_sharded). Each item draws its chunk's noise
/// realizations once -- the same streams every shard and the unsharded path
/// draw, since the site draws are independent of the scored outputs -- and
/// scores the shard's bitstrings via the shared-substitution output-batched
/// traversals. Element t is bit-identical to trajectories_tn_outputs and to
/// trajectories_tn(nc, psi_bits, v_bits[t], ...) at EVERY thread count and
/// shard size; per-worker transient storage is O(chunk_size x shard)
/// instead of O(chunk_size x K). shard_outputs 0 picks the default: 32
/// (the output-batched traversal width) on the plan-replay path, all K on
/// the other backends (whose per-sample evaluation covers every output in
/// one evolution, so sharding would repeat it).
std::vector<sim::TrajectoryResult> trajectories_tn_sweep(
    const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
    std::span<const std::uint64_t> v_bits, std::size_t samples, std::uint64_t seed,
    const sim::ParallelOptions& popts, const EvalOptions& eval = {},
    std::size_t shard_outputs = 0);

}  // namespace noisim::core
