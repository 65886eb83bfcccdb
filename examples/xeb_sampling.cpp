// Output-bitstring batching walkthrough: score one noisy circuit at many
// sampled output bitstrings and form a linear cross-entropy (XEB) estimate.
//
// Batched APIs, each bit-identical to its per-bitstring loop:
//  * core::batch_amplitudes        -- ideal amplitudes <x|C|0> for every x
//  * core::approximate_fidelity_outputs -- Algorithm-1 A(l) at every x
//  * core::trajectories_tn_sweep  -- trajectory estimates at every x,
//                                     sharing the sampled noise realizations
//  * core::xeb_sweep + core::PlanCache -- the sharded sweep engine for XEB
//    batches arriving over time: explicit output shards fill every worker
//    and repeated calls over one skeleton skip plan recompilation.
//
// Build: cmake --build build --target xeb_sampling
// Run:   build/xeb_sampling [num_bitstrings]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "bench_support/generators.hpp"
#include "core/approx.hpp"
#include "core/plan_cache.hpp"
#include "core/trajectories_tn.hpp"

using namespace noisim;

int main(int argc, char** argv) {
  const int n = 16;  // 4x4 grid
  const std::size_t K = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;

  const qc::Circuit circuit = bench::qaoa(n, 1, 42);
  const ch::NoisyCircuit nc =
      bench::insert_noises(circuit, 4, bench::depolarizing_noise(0.01), 7);
  std::printf("qaoa_%d: %zu gates, depth %zu, %zu depolarizing noises\n", n,
              circuit.size(), circuit.depth(), nc.noise_count());

  // Sampled output bitstrings (uniform here; a real XEB run would replay
  // device measurements).
  std::mt19937_64 rng(1);
  std::vector<std::uint64_t> xs(K);
  for (auto& x : xs) x = rng() & ((std::uint64_t{1} << n) - 1);

  core::EvalOptions eval;
  eval.backend = core::EvalOptions::Backend::TensorNetwork;

  // Ideal probabilities p(x) = |<x|C|0>|^2, one batched traversal.
  const std::vector<cplx> amps = core::batch_amplitudes(n, circuit.gates(), 0, xs,
                                                        /*conjugate=*/false, eval);

  // Noisy probabilities A(1) ~ <x|E(rho)|x>, every Algorithm-1 term
  // evaluated for all K outputs in one sweep.
  core::ApproxOptions aopts;
  aopts.level = 1;
  aopts.eval = eval;
  const core::ApproxBatchResult noisy = core::approximate_fidelity_outputs(nc, 0, xs, aopts);

  // Trajectory estimates sharing one set of sampled noise realizations.
  sim::ParallelOptions popts;
  const std::vector<sim::TrajectoryResult> traj =
      core::trajectories_tn_sweep(nc, 0, xs, 400, 11, popts, eval, /*shard_outputs=*/K);

  std::printf("\n%-18s %-12s %-12s %-18s\n", "bitstring", "p_ideal", "A(1)",
              "trajectories");
  double mean_ideal = 0.0, mean_noisy = 0.0;
  for (std::size_t i = 0; i < K; ++i) {
    const double p = std::norm(amps[i]);
    mean_ideal += p;
    mean_noisy += noisy.values[i];
    std::printf("%0*llx%*s %-12.3e %-12.3e %.3e +- %.1e\n", (n + 3) / 4,
                static_cast<unsigned long long>(xs[i]), 18 - (n + 3) / 4, "", p,
                noisy.values[i], traj[i].mean, traj[i].std_error);
  }
  mean_ideal /= static_cast<double>(K);
  mean_noisy /= static_cast<double>(K);

  const double pow2n = std::ldexp(1.0, n);
  std::printf("\nlinear XEB over the %zu samples:\n", K);
  std::printf("  ideal circuit:  %+.4f\n", pow2n * mean_ideal - 1.0);
  std::printf("  noisy (A(1)):   %+.4f\n", pow2n * mean_noisy - 1.0);
  std::printf("  (uniform samples => ~0; sampling from the device distribution"
              " would push this toward the circuit fidelity)\n");
  std::printf("\nA(1) error bound (Theorem 1): %.3e\n", noisy.error_bound);

  // --- sharded sweeps + plan caching: XEB batches arriving over time ------
  // A device streams measurement batches; every batch probes the SAME
  // circuit skeleton. One PlanCache amortizes the templates and batched
  // plans across batches, and xeb_sweep's 2-D (term-range x output-chunk)
  // queue keeps all workers busy even when terms are few and bitstrings
  // many. Values are bit-identical to per-bitstring approximate_fidelity
  // at any shard size, thread count, or cache state.
  core::PlanCache cache;
  core::SweepOptions sopts;
  sopts.approx = aopts;
  sopts.approx.threads = 4;
  sopts.approx.plan_cache = &cache;
  sopts.shard_outputs = 4;  // 0 = default (32 on the TN path)
  std::printf("\nsweep ladder over 3 arriving batches (shard %zu, %zu threads):\n",
              sopts.shard_outputs, sopts.approx.threads);
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<std::uint64_t> batch_xs(K);
    for (auto& x : batch_xs) x = rng() & ((std::uint64_t{1} << n) - 1);
    const core::ApproxBatchResult r = core::xeb_sweep(nc, 0, batch_xs, sopts);
    double mean = 0.0;
    for (const double v : r.values) mean += v;
    std::printf("  batch %d: XEB %+.4f  plan %.1fms eval %.1fms  cache hits %zu"
                " (plans compiled: %zu)\n",
                batch, pow2n * (mean / static_cast<double>(K)) - 1.0,
                1e3 * r.plan_seconds, 1e3 * r.eval_seconds,
                r.contract_stats.plan_cache_hits, r.contract_stats.plans_compiled);
  }
  std::printf("  (batches 2-3 hit the cache: plan time collapses, nothing recompiles)\n");
  return 0;
}
