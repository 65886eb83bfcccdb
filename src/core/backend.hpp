#pragma once
// Unified backend interface and the budget-driven simulate() front door.
//
// Every engine the repo grew -- exact density matrices, TDD contraction,
// Algorithm-1 tensor-network approximation, and the three trajectory
// baselines -- estimates the same quantity <v|E(|psi><psi|)|v>, but until
// this layer each had its own entry point, option struct, and failure mode,
// and callers had to know which one fits their circuit. core::simulate()
// removes that: it asks every eligible backend for a PLAN-TIME cost
// estimate (flops, transient memory, achievable error bound), picks the
// cheapest configuration that meets the caller's budgets, runs it, and
// escalates to the next candidate if the model was wrong (MemoryOutError /
// TimeoutError at run time).
//
// Estimation is cheap by construction: the Algorithm-1 adapters reuse the
// compiled tn::ContractionPlan's flop/arena accounting through the shared
// PlanCache (so estimating pre-warms exactly the plan the run replays, for
// tn-approx's two layers and tn-trajectories' samples alike),
// trajectory adapters combine sim::hoeffding_samples with closed-form
// per-sample sweep models, and the TDD adapter walks the doubled network's
// sequential absorb order without building a single diagram.
//
// The selection never changes results: run() enters each engine's public
// entry point with the same options a direct caller would pass, so
// simulate()'s value is bit-identical to invoking the chosen backend
// directly with the reported config (a property the test suite asserts).

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "core/approx.hpp"
#include "mps/mps.hpp"
#include "sim/parallel.hpp"

namespace noisim::core {

class PlanCache;

/// The engines simulate() arbitrates between. Enumeration order is the
/// tie-break priority on equal modeled cost: deterministic engines first
/// (their error bounds are certain), samplers last.
enum class BackendKind {
  Density,          ///< sim::exact_fidelity_mm (exact, 4^n memory)
  Tdd,              ///< tdd::exact_fidelity_tdd (exact, diagram-sized)
  TnApprox,         ///< core::approximate_fidelity (Algorithm 1, level ladder)
  TnTrajectories,   ///< core::trajectories_tn (unitary-mixture channels only)
  SvTrajectories,   ///< sim::trajectories_sv
  MpsTrajectories,  ///< mps::trajectories_mps (exact-bond regime only)
};

/// Stable display name ("density", "tdd", "tn-approx", ...).
const char* backend_name(BackendKind kind);

/// Budgets and knobs of one simulate() call. The defaults ask for a 1e-3
/// error bound within 1 GiB of transient complex elements and no deadline.
struct SimulateOptions {
  /// Largest acceptable error bound on the returned value. Deterministic
  /// backends must prove a bound <= this; trajectory backends size their
  /// sample count so the Hoeffding confidence half-width at failure_prob
  /// meets it. Must be positive and finite.
  double error_budget = 1e-3;
  /// Transient memory budget in complex elements (2^26 = 1 GiB). A backend
  /// whose modeled peak exceeds it is not considered. Must be nonzero.
  std::size_t memory_budget = std::size_t{1} << 26;
  /// Wall-clock budget in seconds; 0 disables. Rules out configurations
  /// whose modeled flops cannot finish in time and is threaded into the
  /// engines' own deadline checks (TN replay timeouts, TDD deadline).
  double deadline = 0.0;
  /// Confidence parameter of the trajectory backends' Hoeffding sizing:
  /// the returned half-width holds with probability 1 - failure_prob.
  double failure_prob = 0.01;
  /// Worker threads handed to the engines (1 = serial). Fixed-seed results
  /// are bit-identical at any thread count, so this never changes values.
  std::size_t threads = 1;
  /// RNG seed for the trajectory backends.
  std::uint64_t seed = 12345;
  /// Highest Algorithm-1 level the TnApprox ladder searches.
  std::size_t max_level = 8;
  /// Term-count guard of the ladder: levels whose enumerated term count
  /// exceeds this are not considered (terms are materialized per level).
  double max_terms = 1048576.0;
  /// Sample-count cap of the trajectory backends; a budget needing more
  /// samples than this marks them infeasible.
  std::size_t max_samples = std::size_t{1} << 24;
  /// Evaluation options threaded to the TN engines (contract options,
  /// sv/tn crossover, simplify). Leave default unless forcing a topology.
  EvalOptions eval;
  /// Optional shared plan/template cache. When null, simulate() uses a
  /// call-local cache so estimation still pre-warms the run; pass one to
  /// amortize planning across calls. Never changes results.
  PlanCache* plan_cache = nullptr;
  /// Skip selection and use this backend (still budget-checked: throws
  /// LinalgError if the forced backend is infeasible, naming the reason).
  std::optional<BackendKind> force_backend;
  /// MPS trajectory options. The MPS backend only competes in the exact
  /// regime 2^ceil(n/2) <= mps.max_bond, where no truncation can occur;
  /// raise max_bond to let it bid on wider circuits.
  mps::MpsOptions mps;
  /// Cooperative cancellation / deadline control (core/run_control.hpp),
  /// threaded into every engine simulate() runs: the TN plan executors poll
  /// it per step, the sweep queue per claimed item, and the trajectory
  /// runner per claimed item. An expired deadline raises TimeoutError
  /// (which the escalation ladder treats like any run-time timeout); a
  /// cancel raises CancelledError, which simulate() never absorbs -- it
  /// propagates to the caller. Null disables; a control that never fires
  /// leaves results bit-identical. Caller-owned, must outlive the call.
  const RunControl* control = nullptr;
};

/// One backend's plan-time bid: what it would cost and what it can promise.
/// flops are modeled complex multiply-adds on a commensurate scale across
/// backends (the selection's sort key); peak_elems are transient complex
/// elements (TDD: dense-equivalent upper bound).
struct CostEstimate {
  bool feasible = false;
  /// Why the backend is out (empty when feasible): ineligible circuit,
  /// budget exceeded, plan-time MO/TO, ...
  std::string reason;
  double flops = 0.0;
  std::size_t peak_elems = 0;
  /// Trajectory sample count; 0 for deterministic backends.
  std::size_t samples = 0;
  /// Chosen Algorithm-1 level (TnApprox only).
  std::size_t level = 0;
  /// Error bound the configuration achieves: 0 for exact backends, the
  /// generalized level bound for TnApprox, the Hoeffding half-width at
  /// failure_prob for samplers. Always <= error_budget when feasible.
  double achievable_error = 0.0;
};

/// A backend together with its bid, in the order selection considered it.
struct BackendChoice {
  BackendKind kind = BackendKind::Density;
  CostEstimate estimate;
};

/// What simulate() returns: the value, the bound it achieved, which backend
/// produced it and under which config, plus the full audit trail.
struct SimResult {
  double value = 0.0;
  /// Achieved error bound: exact backends report 0, TnApprox the tight
  /// generalized bound of the executed sweep, samplers the Hoeffding
  /// half-width of the executed sample count.
  double error_bound = 0.0;
  BackendKind backend = BackendKind::Density;
  /// The winning bid (the exact configuration run() executed).
  CostEstimate config;
  /// Every backend's bid in selection order (feasible sorted by modeled
  /// flops first, then the infeasible ones with their reasons).
  std::vector<BackendChoice> considered;
  /// Backends that won selection but failed at run time (MemoryOutError /
  /// TimeoutError), with the error text; selection escalated past them.
  std::vector<std::pair<BackendKind, std::string>> escalations;
  /// Sampler statistics (mean/std_error/samples) when a trajectory backend
  /// ran; empty otherwise.
  sim::TrajectoryResult traj;
  /// TN contraction statistics when the TnApprox backend ran.
  tn::ContractStats stats;
};

/// Uniform adapter over one engine. estimate() must be cheap (plan-time
/// models only, no full contractions or sampling) and never throw for an
/// ineligible circuit -- it reports infeasibility through the estimate.
/// run() enters the engine's public entry point with exactly the options a
/// direct caller would derive from (opts, config), so results are
/// bit-identical to direct invocation.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual BackendKind kind() const = 0;
  virtual CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                std::uint64_t v_bits, const SimulateOptions& opts) const = 0;
  virtual void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
                   const SimulateOptions& opts, const CostEstimate& config,
                   SimResult& out) const = 0;
};

/// The registry simulate() consults, in BackendKind tie-break order.
/// Static storage; the pointers stay valid for the program's lifetime.
const std::vector<const Backend*>& default_backends();

/// The ApproxOptions the TnApprox adapter derives from (opts, level) -- both
/// for estimation and for the run, so plan-cache keys match and tests can
/// reproduce simulate()'s exact direct-invocation arguments.
ApproxOptions tn_approx_options(const SimulateOptions& opts, std::size_t level);

/// Validate budgets up front; throws LinalgError naming the offending field
/// ("simulate: error_budget must be positive and finite", ...).
void validate_simulate_options(const SimulateOptions& opts);

/// The front door: estimate every backend, pick the cheapest feasible
/// configuration, run it, escalate on run-time MO/TO. Throws LinalgError
/// when no backend can meet the budgets (the message lists every backend's
/// reason) or when a forced backend is infeasible.
SimResult simulate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
                   const SimulateOptions& opts = {});

}  // namespace noisim::core
