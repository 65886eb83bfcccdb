#include "core/backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "core/doubled_network.hpp"
#include "core/plan_cache.hpp"
#include "core/trajectories_tn.hpp"
#include "fault/fault.hpp"
#include "mps/mps_trajectories.hpp"
#include "sim/density.hpp"
#include "sim/trajectories.hpp"
#include "tdd/tdd_sim.hpp"

namespace noisim::core {

namespace {

// Deadline checks convert modeled flops to modeled seconds with one
// deliberately conservative throughput constant: selection only needs the
// RELATIVE ordering of backends (all estimates share the scale), and a low
// constant rejects configurations near the wire instead of discovering the
// timeout mid-run.
constexpr double kModelFlopsPerSecond = 2e8;

std::string format_double(double x) {
  std::ostringstream os;
  os.precision(3);
  os << x;
  return os.str();
}

// Shared memory/deadline gate: marks the estimate feasible, or infeasible
// with the violated budget named. Call after flops/peak_elems are filled.
void check_budgets(CostEstimate& est, const SimulateOptions& opts) {
  if (est.peak_elems > opts.memory_budget) {
    est.feasible = false;
    est.reason = "modeled peak " + std::to_string(est.peak_elems) +
                 " elems exceeds memory_budget " + std::to_string(opts.memory_budget);
    return;
  }
  if (opts.deadline > 0.0 && est.flops / kModelFlopsPerSecond > opts.deadline) {
    est.feasible = false;
    est.reason = "modeled time " + format_double(est.flops / kModelFlopsPerSecond) +
                 "s exceeds deadline " + format_double(opts.deadline) + "s";
    return;
  }
  est.feasible = true;
  est.reason.clear();
}

// Shared sampler sizing: Hoeffding sample count for the error budget,
// capped by max_samples, times the engine's per-sample cost model. Peak
// memory scales with the worker count (each worker owns its state).
CostEstimate sampler_estimate(const sim::TrajectoryCost& cost, const SimulateOptions& opts) {
  CostEstimate est;
  const std::size_t needed = sim::hoeffding_samples(opts.error_budget, opts.failure_prob);
  if (needed > opts.max_samples) {
    est.reason = "needs " + std::to_string(needed) + " samples, above max_samples " +
                 std::to_string(opts.max_samples);
    return est;
  }
  est.samples = needed;
  est.achievable_error = sim::hoeffding_accuracy(needed, opts.failure_prob);
  est.flops = cost.per_sample_flops * static_cast<double>(needed);
  const std::size_t workers = std::min<std::size_t>(sim::resolve_threads(opts.threads), needed);
  est.peak_elems = cost.peak_elems * std::max<std::size_t>(workers, 1);
  check_budgets(est, opts);
  return est;
}

sim::ParallelOptions parallel_options(const SimulateOptions& opts) {
  sim::ParallelOptions popts;
  popts.threads = opts.threads;
  popts.control = opts.control;
  return popts;
}

class DensityBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::Density; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t, std::uint64_t,
                        const SimulateOptions& opts) const override {
    CostEstimate est;
    const int n = nc.num_qubits();
    if (n > sim::kDensityMaxQubits) {
      est.reason = "circuit has " + std::to_string(n) + " qubits, density matrices cap at " +
                   std::to_string(sim::kDensityMaxQubits);
      return est;
    }
    est.flops = sim::density_evolution_flops(nc);
    // rho, updated in place, is the only 4^n buffer.
    est.peak_elems = std::size_t{1} << (2 * n);
    check_budgets(est, opts);
    return est;
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate&, SimResult& out) const override {
    out.value = sim::exact_fidelity_mm(nc, psi_bits, v_bits, parallel_options(opts));
    out.error_bound = 0.0;
  }
};

class TddBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::Tdd; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                        std::uint64_t v_bits, const SimulateOptions& opts) const override {
    CostEstimate est;
    const tdd::TddCostProxy proxy =
        tdd::sequential_cost_proxy(doubled_network(nc, psi_bits, v_bits));
    est.flops = proxy.flops;
    est.peak_elems =
        proxy.peak_elems >= static_cast<double>(std::numeric_limits<std::size_t>::max())
            ? std::numeric_limits<std::size_t>::max()
            : static_cast<std::size_t>(proxy.peak_elems);
    check_budgets(est, opts);
    return est;
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate&, SimResult& out) const override {
    tdd::TddSimOptions topts;
    topts.timeout_seconds = opts.deadline;
    out.value = tdd::exact_fidelity_tdd(nc, psi_bits, v_bits, topts);
    out.error_bound = 0.0;
  }
};

class TnApproxBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::TnApprox; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                        std::uint64_t v_bits, const SimulateOptions& opts) const override {
    CostEstimate est;
    const ApproxCostModel model =
        approx_cost_model(nc, psi_bits, v_bits, tn_approx_options(opts, 0));
    est.peak_elems = model.peak_elems;  // level-independent: one layer at a time
    if (est.peak_elems > opts.memory_budget) {
      check_budgets(est, opts);
      return est;
    }
    // Walk the level ladder to the cheapest (lowest) level meeting the
    // error budget; cost grows combinatorially with the level, so the
    // first hit is the best bid.
    const std::size_t top = std::min(opts.max_level, model.num_sites);
    double best_bound = std::numeric_limits<double>::infinity();
    for (std::size_t level = 0; level <= top; ++level) {
      if (model.term_count(level) > opts.max_terms) {
        est.reason = "level " + std::to_string(level) + " needs " +
                     format_double(model.term_count(level)) +
                     " terms, above max_terms (best bound " + format_double(best_bound) + ")";
        return est;
      }
      const double bound = model.error_bound(level);
      best_bound = std::min(best_bound, bound);
      if (bound > opts.error_budget) continue;
      est.level = level;
      est.achievable_error = bound;
      est.flops = model.sweep_flops(level);
      check_budgets(est, opts);
      return est;
    }
    est.reason = "error bound " + format_double(best_bound) + " at level " +
                 std::to_string(top) + " still above error_budget " +
                 format_double(opts.error_budget);
    return est;
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate& config,
           SimResult& out) const override {
    const ApproxResult r =
        approximate_fidelity(nc, psi_bits, v_bits, tn_approx_options(opts, config.level));
    out.value = r.value;
    out.error_bound = r.tight_error_bound;
    out.stats = r.contract_stats;
  }
};

class TnTrajectoriesBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::TnTrajectories; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                        std::uint64_t v_bits, const SimulateOptions& opts) const override {
    CostEstimate est;
    if (!trajectories_tn_eligible(nc)) {
      est.reason = "a channel is not a normalized mixture of unitaries";
      return est;
    }
    if (opts.eval.simplify) {
      est.reason = "eval.simplify is not applied by the trajectories skeleton";
      return est;
    }
    // Each trajectory is ONE single-layer amplitude evaluation of the same
    // topology Algorithm 1 contracts, so the cost model's layer figures
    // apply verbatim (and compiling them pre-warms the shared plan cache).
    const ApproxCostModel model =
        approx_cost_model(nc, psi_bits, v_bits, tn_approx_options(opts, 0));
    sim::TrajectoryCost cost;
    cost.per_sample_flops = model.layer_flops;
    cost.peak_elems = model.peak_elems;
    return sampler_estimate(cost, opts);
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate& config,
           SimResult& out) const override {
    // The same eval estimate() priced (the deadline reaches the replay
    // timeout), so the plan-cache key matches and estimation's plan is
    // replayed here instead of recompiled.
    out.traj = trajectories_tn(nc, psi_bits, v_bits, config.samples, opts.seed,
                               parallel_options(opts), tn_approx_options(opts, 0).eval,
                               opts.plan_cache);
    out.value = out.traj.mean;
    out.error_bound = config.achievable_error;
  }
};

class SvTrajectoriesBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::SvTrajectories; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t, std::uint64_t,
                        const SimulateOptions& opts) const override {
    return sampler_estimate(sim::sv_trajectory_cost(nc), opts);
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate& config,
           SimResult& out) const override {
    out.traj = sim::trajectories_sv(nc, psi_bits, v_bits, config.samples, opts.seed,
                                    parallel_options(opts));
    out.value = out.traj.mean;
    out.error_bound = config.achievable_error;
  }
};

class MpsTrajectoriesBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::MpsTrajectories; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t, std::uint64_t,
                        const SimulateOptions& opts) const override {
    CostEstimate est;
    const int n = nc.num_qubits();
    // Only bid in the exact-bond regime: with chi below 2^ceil(n/2) the
    // SVD truncations would silently void the Hoeffding guarantee.
    const double exact_bond = std::pow(2.0, std::min((n + 1) / 2, 60));
    if (exact_bond > static_cast<double>(opts.mps.max_bond)) {
      est.reason = "mps.max_bond " + std::to_string(opts.mps.max_bond) +
                   " below the exact regime 2^ceil(n/2) = " + format_double(exact_bond);
      return est;
    }
    return sampler_estimate(mps::mps_trajectory_cost(nc, opts.mps), opts);
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate& config,
           SimResult& out) const override {
    out.traj = mps::trajectories_mps(nc, psi_bits, v_bits, config.samples, opts.seed,
                                     parallel_options(opts), opts.mps);
    out.value = out.traj.mean;
    out.error_bound = config.achievable_error;
  }
};

}  // namespace

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Density: return "density";
    case BackendKind::Tdd: return "tdd";
    case BackendKind::TnApprox: return "tn-approx";
    case BackendKind::TnTrajectories: return "tn-trajectories";
    case BackendKind::SvTrajectories: return "sv-trajectories";
    case BackendKind::MpsTrajectories: return "mps-trajectories";
  }
  return "unknown";
}

const std::vector<const Backend*>& default_backends() {
  static const DensityBackend density;
  static const TddBackend tdd_backend;
  static const TnApproxBackend tn_approx;
  static const TnTrajectoriesBackend tn_trajectories;
  static const SvTrajectoriesBackend sv_trajectories;
  static const MpsTrajectoriesBackend mps_trajectories;
  static const std::vector<const Backend*> all{&density,         &tdd_backend,
                                               &tn_approx,       &tn_trajectories,
                                               &sv_trajectories, &mps_trajectories};
  return all;
}

ApproxOptions tn_approx_options(const SimulateOptions& opts, std::size_t level) {
  ApproxOptions a;
  a.level = level;
  a.eval = opts.eval;
  // Thread the wall-clock budget into the TN engine's own deadline unless
  // the caller already set one. Part of the plan-cache key, so estimate and
  // run MUST derive eval through this same helper.
  if (opts.deadline > 0.0 && a.eval.tn.timeout_seconds == 0.0)
    a.eval.tn.timeout_seconds = opts.deadline;
  a.threads = opts.threads;
  a.plan_cache = opts.plan_cache;
  a.control = opts.control;
  return a;
}

void validate_simulate_options(const SimulateOptions& opts) {
  la::detail::require(std::isfinite(opts.error_budget) && opts.error_budget > 0.0,
                      "simulate: error_budget must be positive and finite");
  la::detail::require(opts.memory_budget != 0, "simulate: memory_budget must be nonzero");
  la::detail::require(std::isfinite(opts.deadline) && opts.deadline >= 0.0,
                      "simulate: deadline must be finite and nonnegative");
  la::detail::require(opts.failure_prob > 0.0 && opts.failure_prob < 2.0,
                      "simulate: failure_prob must be in (0, 2)");
  la::detail::require(std::isfinite(opts.max_terms) && opts.max_terms >= 1.0,
                      "simulate: max_terms must be at least 1");
}

SimResult simulate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
                   const SimulateOptions& opts) {
  validate_simulate_options(opts);
  // A pre-cancelled or pre-expired control fails fast, before any backend
  // bids (estimation can compile plans, which is real work).
  if (opts.control) opts.control->poll();

  // A call-local plan cache keeps estimation's compiled templates alive for
  // the run even when the caller shares none; results are bit-identical
  // with or without one (the PlanCache contract), so this is free accuracy.
  SimulateOptions ropts = opts;
  PlanCache local_cache(8);
  if (!ropts.plan_cache) ropts.plan_cache = &local_cache;

  std::vector<const Backend*> pool;
  for (const Backend* b : default_backends())
    if (!ropts.force_backend || b->kind() == *ropts.force_backend) pool.push_back(b);

  std::vector<BackendChoice> bids(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    bids[i].kind = pool[i]->kind();
    try {
      bids[i].estimate = pool[i]->estimate(nc, psi_bits, v_bits, ropts);
    } catch (const std::exception& e) {
      // Plan-time MO/TO (or an engine precondition) rules the backend out;
      // selection proceeds with the others.
      bids[i].estimate = CostEstimate{};
      bids[i].estimate.reason = e.what();
    }
  }

  if (ropts.force_backend && !bids.empty() && !bids.front().estimate.feasible)
    la::detail::fail(std::string("simulate: forced backend ") +
                     backend_name(*ropts.force_backend) + " infeasible: " +
                     bids.front().estimate.reason);

  // Selection order: feasible bids by modeled flops (BackendKind order
  // breaking ties -- deterministic engines first), then the ruled-out bids
  // for the audit trail.
  std::vector<std::size_t> order(bids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const CostEstimate& ea = bids[a].estimate;
    const CostEstimate& eb = bids[b].estimate;
    if (ea.feasible != eb.feasible) return ea.feasible;
    if (!ea.feasible) return false;
    return ea.flops < eb.flops;
  });

  SimResult out;
  for (const std::size_t i : order) out.considered.push_back(bids[i]);

  for (const std::size_t i : order) {
    if (!bids[i].estimate.feasible) break;  // order is feasible-first
    try {
      // Injection site at the winner's entry (run-density, run-tdd, ...):
      // fires before the engine touches its state, so escalation recovers
      // through the next bid exactly as a real first-instruction failure
      // would. The enabled() guard keeps the disarmed path allocation-free.
      if (fault::enabled()) fault::poke(std::string("run-") + backend_name(bids[i].kind));
      pool[i]->run(nc, psi_bits, v_bits, ropts, bids[i].estimate, out);
      out.backend = bids[i].kind;
      out.config = bids[i].estimate;
      return out;
    } catch (const MemoryOutError& e) {
      out.escalations.emplace_back(bids[i].kind, e.what());
    } catch (const TimeoutError& e) {
      out.escalations.emplace_back(bids[i].kind, e.what());
    }
  }

  std::string msg = "simulate: no backend meets the budgets --";
  for (const BackendChoice& c : out.considered) {
    std::string why = c.estimate.reason;
    for (const auto& [kind, err] : out.escalations)
      if (kind == c.kind) why = "run escalated: " + err;
    if (why.empty()) why = "feasible but not reached";
    msg += std::string(" ") + backend_name(c.kind) + ": " + why + ";";
  }
  la::detail::fail(msg);
}

}  // namespace noisim::core
