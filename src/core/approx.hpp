#pragma once
// Algorithm 1: ApproximationNoisySimulation(E_N, |psi>, |v>, l).
//
// After SVD-splitting every noise superoperator M_{E_s} = sum_i U_i^s (x)
// V_i^s, the l-level approximation A(l) = sum_{u=0..l} T_u substitutes the
// dominant term at all but u noise sites and one of the three subdominant
// terms at the chosen u sites. Every substitution splits the doubled
// diagram into two *independent* single-layer networks (top: U insertions;
// bottom: V insertions), each contracted on its own -- this is what gives
// the method its scalability (Fig. 4).

#include <cstdint>
#include <functional>
#include <span>

#include "channels/noisy_circuit.hpp"
#include "core/circuit_network.hpp"
#include "core/superop.hpp"

namespace noisim::core {

class PlanCache;

struct ApproxOptions {
  std::size_t level = 1;
  EvalOptions eval;
  /// Worker threads for the (independent) term evaluations; 1 = serial,
  /// 0 = NOISIM_THREADS if set, else the hardware thread count (as
  /// sim::ParallelOptions::threads). Results are reduced in deterministic
  /// enumeration order either way.
  std::size_t threads = 1;
  /// Optional progress callback invoked after each term with the number of
  /// terms evaluated so far (benchmarks use it for long sweeps). With
  /// threads > 1 the callback runs on worker threads but calls are
  /// SERIALIZED behind an internal mutex -- never concurrent -- and the
  /// reported counter is incremented inside that lock, so the observed
  /// values are strictly increasing by one (call i sees exactly i). The
  /// callback therefore needs no synchronization of its own; a slow
  /// callback stalls the workers.
  std::function<void(std::size_t)> progress;
  /// Compile each layer's contraction plan once and replay it across all
  /// enumerated terms (every term's single-layer network shares one
  /// topology, differing only in the u inserted noise tensors). Disable to
  /// re-plan every term -- the reference path mirroring the pre-refactor
  /// per-term planning structure, kept for the bench_contract_plan speedup
  /// baseline and equivalence tests; both paths share one planner and
  /// executor, so they produce bit-identical values. Only affects the
  /// tensor-network backend.
  bool reuse_plans = true;
  /// Terms replayed per batched plan traversal (tensor-network backend with
  /// reuse_plans only). Each worker chunks its term range into batches of
  /// this size and executes every batch in ONE plan traversal: steps
  /// outside the noise sites' light cone run once per batch, duplicate
  /// slices are memcpy'd, and per-step dispatch/permutation work amortizes
  /// over the batch -- results stay bit-identical to per-term replay at any
  /// batch size or thread count. <= 1 disables batching (the PR-2 per-term
  /// replay path, kept as the speedup baseline and equivalence reference).
  /// Note the batched workspace grows with the batch size: with
  /// max_workspace_elems set, a batch can exceed a budget the per-term
  /// path fits (MemoryOutError at batched-plan compile time). The
  /// per-replay timeout_seconds budget scales with the batch (k terms get
  /// k replay budgets), so TO behavior does not depend on batch size.
  std::size_t batch_terms = 32;
  /// Optional session-level plan/template cache (core/plan_cache.hpp).
  /// Plans are keyed by topology: within one call the top and bottom
  /// layers share one plan and one batched plan whether or not a cache is
  /// set (uncached calls use a call-local one). When set, approximate_
  /// fidelity / approximate_fidelity_outputs / xeb_sweep also reuse plans
  /// ACROSS calls -- level ladders, accuracy sweeps, XEB batches arriving
  /// over time, other output bitstrings or gate angles over the same
  /// skeleton -- so the planning cost is paid once per topology. Results
  /// are bit-identical with or without a cache (plan compilation is
  /// deterministic); the caller owns the cache and may share one instance
  /// across concurrent calls (PlanCache is thread-safe). Cache traffic is
  /// reported in ContractStats::plan_cache_hits / plan_cache_misses (a
  /// lookup misses exactly when it compiled); calls served from the cache
  /// report plans_compiled == 0. Only consulted on the tensor-network
  /// reuse_plans path.
  PlanCache* plan_cache = nullptr;
  /// Cooperative control (core/run_control.hpp): polled by the sweep work
  /// queue at every item claim, by plan compilation, and at step
  /// granularity inside every plan replay (threaded into each worker
  /// session's workspace). An expired deadline raises TimeoutError and a
  /// cancel raises CancelledError from approximate_fidelity /
  /// approximate_fidelity_outputs; xeb_sweep instead SALVAGES completed
  /// output-chunks on cancel (see ApproxBatchResult::cancelled). A control
  /// that never fires changes nothing: results stay bit-identical to
  /// control == nullptr. Caller-owned; null disables.
  const RunControl* control = nullptr;
};

struct ApproxResult {
  /// A(l): the approximation of <v|E(|psi><psi|)|v> (real part).
  double value = 0.0;
  /// Complex value before dropping the imaginary roundoff.
  cplx raw{0.0, 0.0};
  /// Partial sums A(0), A(1), ..., A(l): level_values[k] = A(k).
  std::vector<double> level_values;
  /// Per-level term sums T_0, ..., T_l.
  std::vector<cplx> term_sums;
  /// Number of single-layer network contractions performed
  /// (2 per enumerated term, matching Theorem 1's cost model).
  std::size_t contractions = 0;
  /// Theorem 1 bound evaluated at the circuit's max noise rate (for
  /// circuits with only 1-qubit noise; otherwise equals tight_error_bound).
  double error_bound = 0.0;
  /// Generalized per-site product bound using the numerically computed
  /// dominant/subdominant norms -- always valid, usually tighter.
  double tight_error_bound = 0.0;
  /// Aggregated tensor-network contraction statistics across all term
  /// evaluations and worker threads (plan compilations, replays, reuse
  /// hits). Zero when the state-vector backend evaluated the terms.
  tn::ContractStats contract_stats;
  /// Wall-clock split of the evaluation: upfront setup (network build +
  /// plan and batched-plan compilation, paid once per sweep) vs the
  /// per-term evaluation loop. Per-term throughput is terms/eval_seconds;
  /// the re-planning reference path plans inside the loop, so its
  /// plan_seconds is 0.
  double plan_seconds = 0.0;
  double eval_seconds = 0.0;
};

/// Run Algorithm 1 on a noisy circuit with computational-basis input and
/// output states.
ApproxResult approximate_fidelity(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  std::uint64_t v_bits, const ApproxOptions& opts = {});

/// approximate_fidelity evaluated at MANY output bitstrings in one sweep
/// (sampling / cross-entropy workloads: the same circuit skeleton probed at
/// every sampled bitstring). Output-independent work is shared:
///  * the term enumeration, SVD splits, templates, and plans are built once;
///  * on the tensor-network fast path the output-basis caps join the noise
///    sites as varying slots of the batched plan, so each chunk of
///    batch_terms terms x (up to 32) outputs executes in ONE traversal --
///    steps outside every cone run once per chunk, noise-cone rows are
///    shared across outputs, cap-cone rows across terms.
/// outputs[o] is bit-identical to approximate_fidelity(nc, psi_bits,
/// v_bits[o], opts) (same enumeration-order reduction per output); the
/// progress callback still counts TERMS, not term x output pairs (a term is
/// reported once its value has been folded for every output). When the
/// combined batch exceeds max_workspace_elems the sweep falls back to
/// per-output plan replay, which is bit-identical too.
///
/// Since the sharded sweep engine this is a thin wrapper over xeb_sweep
/// with the default shard size: work is scheduled as a 2-D (term-range x
/// output-chunk) queue, the output axis is threaded alongside the term
/// axis, and each chunk's per-output level sums are reduced streaming in
/// chunk-ordered term-enumeration order -- peak memory for the value table
/// is O(outputs), not O(terms x outputs). Arbitrarily large v_bits spans
/// are fine in one call; pair with ApproxOptions::plan_cache so repeated
/// calls skip plan recompilation too.
struct ApproxBatchResult {
  /// A(l) per output bitstring (real part of raw[o]).
  std::vector<double> values;
  std::vector<cplx> raw;
  /// Per-output partial sums: level_values[o][u] = A(u) at output o.
  std::vector<std::vector<double>> level_values;
  /// Per-output per-level term sums: term_sums[o][u] = T_u at output o.
  std::vector<std::vector<cplx>> term_sums;
  /// Logical single-layer contractions: 2 per enumerated term per output
  /// (what the per-output reference path would perform; batching shares
  /// work across them without changing the count).
  std::size_t contractions = 0;
  /// Error bounds are output-independent (Theorem 1 bounds the operator
  /// deviation): same meaning as in ApproxResult.
  double error_bound = 0.0;
  double tight_error_bound = 0.0;
  tn::ContractStats contract_stats;
  double plan_seconds = 0.0;
  double eval_seconds = 0.0;
  /// Salvage contract (xeb_sweep only): true when a RunControl cancel
  /// stopped the sweep before every item was folded. Workers stop claiming
  /// items within one work item of the cancel, drain their in-flight item,
  /// and the completed output-chunks are returned: valid[o] != 0 iff output
  /// o's chunk folded its full term range, and every such values[o] /
  /// raw[o] / level_values[o] / term_sums[o] is bitwise equal to the
  /// uncancelled run at the same configuration (the chunk-ordered fold is
  /// deterministic). Outputs with valid[o] == 0 hold partial sums and must
  /// be ignored. A deadline or any worker error still THROWS (TimeoutError
  /// / the worker's exception) -- only an explicit cancel salvages.
  bool cancelled = false;
  /// Per-output validity mask; sized like values, all 1 when !cancelled.
  std::vector<char> valid;
};
ApproxBatchResult approximate_fidelity_outputs(const ch::NoisyCircuit& nc,
                                               std::uint64_t psi_bits,
                                               std::span<const std::uint64_t> v_bits,
                                               const ApproxOptions& opts = {});

/// Sharded XEB sweep: Algorithm 1 scored at an arbitrarily large set of
/// output bitstrings through a single 2-D work queue.
struct SweepOptions {
  /// Term evaluation options (level, backend, threads, batch_terms,
  /// plan_cache) -- identical semantics to approximate_fidelity. The
  /// progress callback counts TERMS: a term is reported once its value has
  /// been folded for every output, so the observed counts are strictly
  /// increasing by one up to the term total exactly like the single-output
  /// sweep's.
  ApproxOptions approx;
  /// Output-shard size: the bitstring set is partitioned into chunks of
  /// this many outputs, and the work queue is the cross product of term
  /// ranges (batch_terms wide) and output chunks -- workers drain (term
  /// range x output chunk) items, so a low-level sweep with few terms and
  /// thousands of bitstrings fills every thread instead of idling on a
  /// term-only partition. 0 picks the default: 32 on the tensor-network
  /// fast path (the batched-traversal knee), the whole set on the
  /// state-vector / re-planning reference paths (whose per-term evaluation
  /// already covers all outputs in one evolution). The shard size never
  /// changes results, only scheduling granularity and transient memory.
  std::size_t shard_outputs = 0;
};

/// Evaluate A(l) at every bitstring of `v_bits` over the 2-D (term-range x
/// output-chunk) work queue described by `opts`. result[o] is bit-identical
/// to approximate_fidelity(nc, psi_bits, v_bits[o], opts.approx) at EVERY
/// thread count, shard size, and plan-cache state: each chunk folds its
/// term values in global term-enumeration order (out-of-order item
/// completions are stash-buffered through a bounded pool and folded in
/// order), so every output reproduces the reference reduction arithmetic
/// exactly. Peak memory for the sweep value table is O(outputs) -- per-chunk
/// running level sums plus a buffer pool of O(threads) in-flight items --
/// never the O(terms x outputs) table the pre-sharding sweep materialized.
ApproxBatchResult xeb_sweep(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::span<const std::uint64_t> v_bits,
                            const SweepOptions& opts = {});

/// Plan-time cost/accuracy model of an Algorithm-1 sweep: what the
/// simulate() front door's TN adapters consult to search the level ladder
/// WITHOUT contracting anything. Built from the same skeleton, boundary-
/// resolved options, and plan-cache key approximate_fidelity itself uses, so
/// a template compiled during estimation is exactly the one the subsequent
/// run replays (estimation pre-warms the cache).
struct ApproxCostModel {
  std::size_t num_sites = 0;
  /// Every noise site is 1-qubit, i.e. the paper's Theorem 1 applies.
  bool all_1q = true;
  double max_rate = 0.0;
  /// Per-site split norms: ||U_0 (x) V_0||_2 and ||M - U_0 (x) V_0||_2.
  std::vector<double> dominant_norms;
  std::vector<double> subdominant_norms;
  /// Per-site Kronecker term count (4 for 1-qubit noise, 16 for 2-qubit).
  std::vector<std::size_t> split_terms;
  /// Cost of ONE single-layer evaluation in complex multiply-adds: the
  /// compiled plan's total_flops on the tensor-network path, the 2^n
  /// gate-sweep model on the state-vector path.
  double layer_flops = 0.0;
  /// Transient memory of one evaluation in complex elements: the plan's
  /// liveness-packed arena high-water mark / the state-vector size.
  std::size_t peak_elems = 0;
  /// Which per-term path the sweep takes for this circuit + options.
  bool tensor_network = false;

  /// Error bound the level-l sweep reports: the generalized per-site product
  /// bound, computed from the same norms fill_error_bounds uses, so it
  /// matches ApproxResult::tight_error_bound exactly.
  double error_bound(std::size_t level) const;
  /// Number of enumerated terms of the level-l sum (sum of elementary
  /// symmetric sums over the per-site subdominant choices; C(N,u) 3^u terms
  /// at level u when every site is 1-qubit). Returned as double -- the count
  /// grows combinatorially.
  double term_count(std::size_t level) const;
  /// Modeled work of the level-l sweep: two single-layer evaluations per
  /// enumerated term (Theorem 1's cost model).
  double sweep_flops(std::size_t level) const { return 2.0 * term_count(level) * layer_flops; }
};

/// Build the cost model for approximate_fidelity(nc, psi_bits, v_bits,
/// opts). On the tensor-network path this compiles (or fetches from
/// opts.plan_cache) the top-layer AmplitudeTemplate under the sweep's own
/// cache key, so MemoryOutError / TimeoutError surface here exactly as they
/// would at the start of the run. opts.level is ignored -- the model answers
/// for every level through error_bound/term_count/sweep_flops.
ApproxCostModel approx_cost_model(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  std::uint64_t v_bits, const ApproxOptions& opts = {});

/// Rewrite <v|E(rho)|v> with v = U_ideal |v_bits> into basis form by
/// appending U_ideal^dagger to the circuit: <v|E(rho)|v> =
/// <v_bits| (U^dag . E)(rho) |v_bits>. Combined with EvalOptions::simplify
/// this is what makes the Table IV level sweep tractable (the appended
/// adjoint cancels against the circuit outside the insertions' light cone).
ch::NoisyCircuit with_ideal_output_projector(const ch::NoisyCircuit& nc);

}  // namespace noisim::core
