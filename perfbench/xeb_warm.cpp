// xeb_warm: one op is core::xeb_sweep over a fresh batch of sampled
// bitstrings on one fixed circuit, all hardware threads, with a PlanCache
// warmed during set-up -- planning drops out, so the executor, the kernels
// and the sweep scheduler do nearly all the work.

#include <cmath>
#include <memory>
#include <random>
#include <span>

#include "bench_support/generators.hpp"
#include "core/approx.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace noisim;

namespace {

constexpr int kQubits = 36;
constexpr std::size_t kNoises = 6;
constexpr std::size_t kLevel = 2;
// Bitstrings per op: small enough that a run holds >= 100 ops, so
// op_s.p90 has >= 10 samples beyond it.
constexpr std::size_t kOutputs = 64;
// Per op: outputs re-scored by a 1-thread sweep (must match bit for bit),
// and the first kRefOutputs of them scored at level + 1 as the reference
// for err_to_bound.
constexpr std::size_t kChecked = 4;
constexpr std::size_t kRefOutputs = 1;
// Untimed sweeps after set-up: the first sweeps of a process run several
// times slower while the allocator settles, and this workload measures
// the steady state.
constexpr std::size_t kWarmup = 8;

std::vector<std::uint64_t> draw_outputs(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> v(count);
  for (std::uint64_t& b : v) b = rng() & ((std::uint64_t{1} << kQubits) - 1);
  return v;
}

core::SweepOptions sweep_options(core::PlanCache& cache, std::size_t threads,
                                 std::size_t level) {
  core::SweepOptions o;
  o.approx.level = level;
  o.approx.threads = threads;
  o.approx.plan_cache = &cache;
  return o;
}

}  // namespace

RunResult run_xeb_warm(const RunConfig& cfg, Tracer& tr) {
  RunResult res;
  // The one fixed circuit: qaoa_36 with six realistic noises.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(kQubits, 1, 77), kNoises, bench::realistic_noise(), 901);
  const Skeleton sk = approx_skeleton(nc);

  // Set-up: a fresh PlanCache warmed by one sweep (templates and batched
  // plans compile here), kSetups times over; the median is reported and the
  // last cache serves the timed ops.
  std::unique_ptr<core::PlanCache> cache;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    cache = std::make_unique<core::PlanCache>(64);
    (void)core::xeb_sweep(nc, 0, draw_outputs(mix_seed(cfg.seed ^ kSetupStream, rep), kOutputs),
                          sweep_options(*cache, cfg.threads, kLevel));
    setups.push_back(seconds_since(t0));
  }
  res.setup_s = median(setups);
  for (std::size_t w = 0; w < (cfg.quick ? 1 : kWarmup); ++w)
    (void)core::xeb_sweep(nc, 0,
                          draw_outputs(mix_seed(cfg.seed ^ kSetupStream, kSetups + w), kOutputs),
                          sweep_options(*cache, cfg.threads, kLevel));

  // Checks and references run through their own cache, so they never touch
  // the warm cache's entries or its LRU order.
  core::PlanCache check_cache(16);
  Layers L;
  closed_loop(cfg, cfg.quick ? 3 : (cfg.trace ? 10 : 100), [&](std::size_t i) {
    const std::uint64_t seed = mix_seed(cfg.seed, i);
    const std::vector<std::uint64_t> v = draw_outputs(seed, kOutputs);
    core::ApproxBatchResult r;
    res.log.begin_op();
    bool threw = false;
    try {
      r = core::xeb_sweep(nc, 0, v, sweep_options(*cache, cfg.threads, kLevel));
    } catch (const std::exception&) {
      threw = true;
    }
    const double dt = res.log.end_op();
    if (threw) {
      res.log.check(false);
      return dt;
    }

    bool ok = r.values.size() == kOutputs && !r.cancelled;
    std::mt19937_64 pick(seed + 1);
    std::vector<std::size_t> idx(kChecked);
    std::vector<std::uint64_t> sub(kChecked);
    for (std::size_t j = 0; j < kChecked; ++j) {
      idx[j] = pick() % kOutputs;
      sub[j] = v[idx[j]];
    }
    try {
      const core::ApproxBatchResult one =
          core::xeb_sweep(nc, 0, sub, sweep_options(check_cache, 1, kLevel));
      for (std::size_t j = 0; ok && j < kChecked; ++j)
        ok = one.values[j] == r.values[idx[j]] && one.raw[j] == r.raw[idx[j]];
      const core::ApproxBatchResult ref =
          core::xeb_sweep(nc, 0, std::span(sub).first(kRefOutputs),
                          sweep_options(check_cache, cfg.threads, kLevel + 1));
      for (std::size_t j = 0; ok && j < kRefOutputs; ++j) {
        const double err = std::abs(r.values[idx[j]] - ref.values[j]);
        res.log.bound_ratio(err, r.tight_error_bound);
        ok = err <= r.tight_error_bound + ref.tight_error_bound;
      }
    } catch (const std::exception&) {
      ok = false;
    }

    if (cfg.trace) {
      tr.set_op(i);
      try {
        const std::size_t hits = cache->hits(), misses = cache->misses();
        std::shared_ptr<const core::PlanCache::Entry> entry;
        core::ApproxBatchResult rt;
        {
          Tracer::Scope op(tr, "op");
          {
            Tracer::Scope s(tr, "core.plan_cache.lookup");
            entry = top_template(*cache, kQubits, sk, 0);
          }
          Tracer::Scope s(tr, "core.sweep");
          rt = core::xeb_sweep(nc, 0, v, sweep_options(*cache, cfg.threads, kLevel));
        }
        L["core.plan_cache.hits"] += static_cast<double>(cache->hits() - hits);
        L["core.plan_cache.misses"] += static_cast<double>(cache->misses() - misses);
        ok = ok && rt.values == r.values;
        add_kernel_calls(L, rt.contract_stats);

        // The same op at 1 thread: the serial baseline of the speedup,
        // and a bit-identity check over every output.
        {
          Tracer::Scope s(tr, "core.sweep.serial");
          const core::ApproxBatchResult serial =
              core::xeb_sweep(nc, 0, v, sweep_options(*cache, 1, kLevel));
          ok = ok && serial.values == r.values;
        }
        probe_replay(tr, L, entry->tmpl(), sk, kLevel, 32, seed);
        probe_kernel(tr, L, entry->tmpl().plan());
        probe_split(tr, nc);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    res.log.check(ok);
    return dt;
  });

  if (cfg.trace) {
    auto& out = res.layers;
    const double nops = std::max<double>(static_cast<double>(res.log.attempted()), 1.0);
    out["core.plan_cache.hits"] = L["core.plan_cache.hits"];
    out["core.plan_cache.misses"] = L["core.plan_cache.misses"];
    out["core.plan_cache.lookup_s"] = tr.total("core.plan_cache.lookup") / nops;
    const double parallel = tr.total("core.sweep");
    out["core.sweep.speedup_t"] = parallel > 0 ? tr.total("core.sweep.serial") / parallel : 0.0;
    core::ApproxOptions a;
    a.level = kLevel;
    a.plan_cache = &check_cache;
    out["core.approx.terms"] = core::approx_cost_model(nc, 0, 0, a).term_count(kLevel);
    finish_tn_layers(tr, L, res.log.attempted(), out);
    finish_trace(tr, res.log.attempted(), res.log.op_s(), out);
    res.checks_json = "{\"timed_plan_cache_misses\": " + json_number(L["core.plan_cache.misses"]) +
                      ", \"sim_spans\": " + std::to_string(tr.count_prefix("sim.")) + "}";
  }
  return res;
}

}  // namespace perfbench
