// simulate_cold: one op is core::simulate() on a freshly generated noisy
// circuit at a fixed error budget, 1 thread, call-local plan cache -- the
// paper's core use, where planning and backend selection dominate.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "bench_support/generators.hpp"
#include "core/backend.hpp"
#include "probes.hpp"
#include "sim/density.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace noisim;

namespace {

constexpr double kErrorBudget = 1e-2;
constexpr std::size_t kClasses = 5;

struct Input {
  ch::NoisyCircuit nc;
  std::uint64_t v = 0;
  std::uint64_t seed = 0;
  /// Checked against the exact density-matrix value (the small class).
  bool checked = false;
};

// Op i draws class i % 5, so every run holds the same class mix:
//  0 wide low-noise qaoa_64,  1 wide low-noise inst_4x4_10,  2 hf_12,
//  3 small 8-qubit circuits, where density and tdd are feasible,
//  4 high-noise qaoa_16, where the samplers win selection.
// hf_12 and the small circuits are scored at their most likely output; the
// 16- and 64-qubit classes, which are unchecked and whose cost does not
// depend on the output, at a random one.
Input make_input(std::uint64_t seed, std::size_t op) {
  Input in;
  in.seed = seed;
  const auto realistic = bench::realistic_noise();
  qc::Circuit c;
  switch (op % kClasses) {
    case 0:
      c = bench::qaoa(64, 1, seed);
      in.nc = bench::insert_noises(c, 4, realistic, seed + 1);
      break;
    case 1:
      c = bench::supremacy_inst(4, 4, 10, seed);
      in.nc = bench::insert_noises(c, 4, realistic, seed + 1);
      break;
    case 2:
      c = bench::hf_vqe(12, seed);
      in.nc = bench::insert_noises(c, 4, realistic, seed + 1);
      in.v = likely_output(c);
      return in;
    case 3:
      switch ((op / kClasses) % 3) {
        case 0: c = bench::hf_vqe(8, seed); break;
        case 1: c = bench::qaoa_grid(2, 4, 1, seed); break;
        default: c = bench::supremacy_inst(2, 4, 8, seed); break;
      }
      in.nc = bench::insert_noises(c, 3, bench::realistic_noise(1e-2), seed + 1);
      in.v = likely_output(c);
      in.checked = true;
      return in;
    default:
      c = bench::qaoa(16, 1, seed);
      in.nc = bench::insert_noises(c, 10, bench::depolarizing_noise(0.1), seed + 1);
      break;
  }
  const int n = c.num_qubits();
  in.v = std::mt19937_64(seed + 2)() >> (64 - n);
  return in;
}

core::SimulateOptions sim_options(std::uint64_t seed) {
  core::SimulateOptions o;
  o.error_budget = kErrorBudget;
  o.threads = 1;
  o.seed = seed;
  return o;
}

// What simulate() does, one public call per span: every backend's
// estimate(), then the winner's run(), escalating on run-time MO/TO. The
// call-local PlanCache is the caller's, so its counters stay readable.
core::SimResult traced_simulate(Tracer& tr, Layers& L, const Input& in, core::PlanCache& cache) {
  core::SimulateOptions opts = sim_options(in.seed);
  opts.plan_cache = &cache;
  const auto& pool = core::default_backends();
  Tracer::Scope op(tr, "op");
  std::vector<core::BackendChoice> bids(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    bids[i].kind = pool[i]->kind();
    Tracer::Scope s(tr, std::string("core.backend.estimate.") + core::backend_name(bids[i].kind));
    try {
      bids[i].estimate = pool[i]->estimate(in.nc, 0, in.v, opts);
    } catch (const std::exception& e) {
      bids[i].estimate = core::CostEstimate{};
      bids[i].estimate.reason = e.what();
    }
  }
  std::vector<std::size_t> order(bids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const core::CostEstimate& ea = bids[a].estimate;
    const core::CostEstimate& eb = bids[b].estimate;
    if (ea.feasible != eb.feasible) return ea.feasible;
    if (!ea.feasible) return false;
    return ea.flops < eb.flops;
  });
  core::SimResult out;
  for (const std::size_t i : order) out.considered.push_back(bids[i]);
  for (const std::size_t i : order) {
    if (!bids[i].estimate.feasible) break;
    const std::string name = core::backend_name(bids[i].kind);
    try {
      Tracer::Scope s(tr, "core.backend.run." + name);
      pool[i]->run(in.nc, 0, in.v, opts, bids[i].estimate, out);
      out.backend = bids[i].kind;
      out.config = bids[i].estimate;
      L["picks." + name] += 1;
      L["est_flops." + name] += bids[i].estimate.flops;
      return out;
    } catch (const MemoryOutError& e) {
      out.escalations.emplace_back(bids[i].kind, e.what());
    } catch (const TimeoutError& e) {
      out.escalations.emplace_back(bids[i].kind, e.what());
    }
  }
  throw LinalgError("simulate_cold: no backend meets the budgets");
}

// The checks every op passes: the reported bound meets the budget, and the
// small circuits' values sit within it of the exact density-matrix value.
bool check(OpLog& log, const Input& in, double reference, const core::SimResult& r) {
  if (!(r.error_bound <= kErrorBudget)) return false;
  if (!in.checked) return true;
  const double err = std::abs(r.value - reference);
  if (r.error_bound == 0.0) return err <= 1e-9;  // exact backends
  log.bound_ratio(err, r.error_bound);
  return err <= r.error_bound + 1e-12;
}

// Layer probes on the op's inputs. The top-layer template comes from the
// op's own call-local cache, where estimation left it: a miss there means
// the benchmark's template key has drifted from the library's. The op's
// planning time is modeled as the probe's Auto compile time times the
// templates the op compiled (its cache's resident entries); a run-side
// compile outside the cache (tn-trajectories) is not counted.
void probe_layers(Tracer& tr, Layers& L, const Input& in, const core::SimResult& r,
                  core::PlanCache& cache) {
  const int n = in.nc.num_qubits();
  probe_split(tr, in.nc);
  if (r.backend == core::BackendKind::TnApprox) {
    core::SimulateOptions opts = sim_options(in.seed);
    opts.plan_cache = &cache;
    const core::ApproxCostModel model =
        core::approx_cost_model(in.nc, 0, in.v, core::tn_approx_options(opts, 0));
    L["approx.ops"] += 1;
    L["core.approx.terms"] += model.term_count(r.config.level);
  }
  if (!core::uses_tensor_network(core::EvalOptions{}, n)) return;
  const Skeleton sk = approx_skeleton(in.nc);
  const std::size_t templates = cache.size();
  L["op.compile_s"] += probe_compile(tr, L, n, sk, in.v) * static_cast<double>(templates);
  const std::size_t misses = cache.misses();
  const auto entry = top_template(cache, n, sk, in.v);
  L["key.misses"] += static_cast<double>(cache.misses() - misses);
  probe_replay(tr, L, entry->tmpl(), sk, r.config.level, 0, in.seed);
  probe_kernel(tr, L, entry->tmpl().plan());
}

void finish_layers(Tracer& tr, Layers& L, RunResult& res) {
  auto& out = res.layers;
  const double nops = std::max<double>(static_cast<double>(res.log.attempted()), 1.0);
  double estimate_s = 0.0;
  for (const std::string& b : backend_names()) {
    const double est = tr.total("core.backend.estimate." + b);
    const double run = tr.total("core.backend.run." + b);
    estimate_s += est;
    out["core.backend.estimate_s." + b] = est / nops;
    out["core.backend.run_s." + b] = run / nops;
    out["core.backend.picks." + b] = L["picks." + b];
    out["core.backend.flops_per_s." + b] = run > 0.0 ? L["est_flops." + b] / run : 0.0;
  }
  out["core.backend.estimate_s"] = estimate_s / nops;
  out["core.backend.escalations"] = L["core.backend.escalations"];
  out["core.plan_cache.hits"] = L["core.plan_cache.hits"];
  out["core.plan_cache.misses"] = L["core.plan_cache.misses"];
  out["core.approx.terms"] = L["approx.ops"] > 0 ? L["core.approx.terms"] / L["approx.ops"] : 0;
  // simulate() enters the sim engines only through these two backends.
  out["sim.density.s"] = out["core.backend.run_s.density"];
  out["sim.density.flops_per_s"] = out["core.backend.flops_per_s.density"];
  out["sim.traj.sample_s"] = out["core.backend.run_s.sv-trajectories"];
  out["sim.traj.flops_per_s"] = out["core.backend.flops_per_s.sv-trajectories"];
  finish_tn_layers(tr, L, res.log.attempted(), out);
  finish_trace(tr, res.log.attempted(), res.log.op_s(), out);
  const double op_wall = tr.total("op");
  out["tn.plan.compile_share"] = op_wall > 0 ? L["op.compile_s"] / op_wall : 0.0;
  res.checks_json = "{\"tn.plan.compile_share\": " + json_number(out["tn.plan.compile_share"]) +
                    ", \"template_key_misses\": " + json_number(L["key.misses"]) + "}";
}

}  // namespace

RunResult run_simulate_cold(const RunConfig& cfg, Tracer& tr) {
  RunResult res;

  // Set-up: one op of every class, kSetups times over on set-up seeds; the
  // median is reported. It lets lazy process state (kernel dispatch,
  // allocator pools) settle before timing -- no plan survives an op.
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t c = 0; c < kClasses; ++c) {
      const Input in = make_input(mix_seed(cfg.seed ^ kSetupStream, rep * kClasses + c), c);
      (void)core::simulate(in.nc, 0, in.v, sim_options(in.seed));
    }
    setups.push_back(seconds_since(t0));
  }
  res.setup_s = median(setups);

  Layers L;
  closed_loop(cfg, cfg.quick ? kClasses : (cfg.trace ? 2 * kClasses : 100),
              [&](std::size_t i) {
    const Input in = make_input(mix_seed(cfg.seed, i), i);
    const double reference = in.checked ? sim::exact_fidelity_mm(in.nc, 0, in.v) : 0.0;
    core::SimResult r;
    res.log.begin_op();
    bool threw = false;
    try {
      r = core::simulate(in.nc, 0, in.v, sim_options(in.seed));
    } catch (const std::exception&) {
      threw = true;
    }
    const double dt = res.log.end_op();
    if (threw) {
      res.log.check(false);
      return dt;
    }
    bool ok = check(res.log, in, reference, r);

    if (cfg.trace) {
      tr.set_op(i);
      core::PlanCache cache(8);
      try {
        const core::SimResult tr_r = traced_simulate(tr, L, in, cache);
        ok = ok && tr_r.backend == r.backend && tr_r.value == r.value;
        L["core.backend.escalations"] += static_cast<double>(tr_r.escalations.size());
        L["core.plan_cache.hits"] += static_cast<double>(cache.hits());
        L["core.plan_cache.misses"] += static_cast<double>(cache.misses());
        add_kernel_calls(L, tr_r.stats);
        probe_layers(tr, L, in, tr_r, cache);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    res.log.check(ok);
    return dt;
  });

  if (cfg.trace) finish_layers(tr, L, res);
  return res;
}

}  // namespace perfbench
