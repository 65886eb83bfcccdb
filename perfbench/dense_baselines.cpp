// dense_baselines: one op is the paper's baseline pair on a fresh small
// circuit -- the exact density-matrix value (sim::exact_fidelity_mm) and
// the state-vector trajectories estimate (sim::trajectories_sv) with a
// fixed sample count on all hardware threads. The sim module it exercises
// is never touched by the tensor-network layers.

#include <algorithm>
#include <cmath>

#include "bench_support/generators.hpp"
#include "probes.hpp"
#include "sim/density.hpp"
#include "sim/trajectories.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace noisim;

namespace {

// 8 qubits keeps an op near 0.1 s, so a 10 s run holds >= 100 ops (at
// 10 qubits the density matrix alone takes ~1 s per op).
constexpr int kQubits = 8;
constexpr std::size_t kNoises = 6;
constexpr std::size_t kMinSamples = 2048;
constexpr double kFailureProb = 0.01;
constexpr std::size_t kSvReps = 20;

struct Input {
  ch::NoisyCircuit nc;
  std::uint64_t v = 0;
  std::uint64_t seed = 0;
};

Input make_input(std::uint64_t seed, std::size_t op) {
  qc::Circuit c;
  switch (op % 3) {
    case 0: c = bench::qaoa_grid(2, kQubits / 2, 1, seed); break;
    case 1: c = bench::hf_vqe(kQubits, seed); break;
    default: c = bench::supremacy_inst(2, kQubits / 2, 8, seed); break;
  }
  Input in;
  in.nc = bench::insert_noises(c, kNoises, bench::realistic_noise(2e-2), seed + 1);
  in.v = likely_output(c);
  in.seed = seed;
  return in;
}

}  // namespace

RunResult run_dense_baselines(const RunConfig& cfg, Tracer& tr) {
  RunResult res;
  // Every worker gets several chunks, so the sampler can scale.
  const sim::ParallelOptions par{cfg.threads};
  const std::size_t samples = std::max(kMinSamples, 4 * cfg.threads * par.chunk_size);
  const sim::ParallelOptions serial{1};
  const double half_width = sim::hoeffding_accuracy(samples, kFailureProb);

  // Set-up: one op on a set-up circuit, kSetups times over; median reported.
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const Input in = make_input(mix_seed(cfg.seed ^ kSetupStream, rep), rep);
    (void)sim::exact_fidelity_mm(in.nc, 0, in.v);
    (void)sim::trajectories_sv(in.nc, 0, in.v, samples, in.seed, par);
    setups.push_back(seconds_since(t0));
  }
  res.setup_s = median(setups);

  Layers L;
  closed_loop(cfg, cfg.quick ? 3 : (cfg.trace ? 10 : 100), [&](std::size_t i) {
    const Input in = make_input(mix_seed(cfg.seed, i), i);
    double exact = 0.0;
    sim::TrajectoryResult traj;
    res.log.begin_op();
    bool threw = false;
    try {
      exact = sim::exact_fidelity_mm(in.nc, 0, in.v);
      traj = sim::trajectories_sv(in.nc, 0, in.v, samples, in.seed, par);
    } catch (const std::exception&) {
      threw = true;
    }
    const double dt = res.log.end_op();
    if (threw) {
      res.log.check(false);
      return dt;
    }

    // The trajectories estimate must sit within its Hoeffding half-width
    // of the exact value (v is the likely output, so exact is far from 0).
    const double err = std::abs(traj.mean - exact);
    res.log.bound_ratio(err, half_width);
    bool ok = traj.samples == samples && err <= half_width;

    if (cfg.trace) {
      tr.set_op(i);
      try {
        double tr_exact = 0.0;
        sim::TrajectoryResult tr_traj;
        {
          Tracer::Scope op(tr, "op");
          {
            Tracer::Scope s(tr, "sim.density");
            tr_exact = sim::exact_fidelity_mm(in.nc, 0, in.v);
          }
          Tracer::Scope s(tr, "sim.traj");
          tr_traj = sim::trajectories_sv(in.nc, 0, in.v, samples, in.seed, par);
        }
        ok = ok && tr_exact == exact && tr_traj.mean == traj.mean;
        L["density.flops"] += sim::density_evolution_flops(in.nc);
        L["traj.flops"] +=
            sim::sv_trajectory_cost(in.nc).per_sample_flops * static_cast<double>(samples);

        // The same sampler at 1 thread: the serial baseline of the
        // speedup, and the fixed-seed determinism contract.
        {
          Tracer::Scope s(tr, "sim.traj.serial");
          ok = ok && sim::trajectories_sv(in.nc, 0, in.v, samples, in.seed, serial).mean ==
                         traj.mean;
        }
        const qc::Circuit gates = in.nc.gates_only();
        Tracer::Scope s(tr, "sim.sv.apply_circuit");
        for (std::size_t r = 0; r < kSvReps; ++r) {
          sim::Statevector sv(kQubits);
          sv.apply_circuit(gates);
        }
        L["sv.amp_updates"] += static_cast<double>(kSvReps * gates.size()) *
                               static_cast<double>(std::size_t{1} << kQubits);
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
    const double density = tr.total("sim.density"), traj = tr.total("sim.traj");
    out["sim.density.s"] = density / nops;
    out["sim.density.flops_per_s"] = density > 0 ? L["density.flops"] / density : 0.0;
    out["sim.traj.sample_s"] = traj / nops;
    out["sim.traj.flops_per_s"] = traj > 0 ? L["traj.flops"] / traj : 0.0;
    out["sim.traj.speedup_t"] = traj > 0 ? tr.total("sim.traj.serial") / traj : 0.0;
    const double sv = tr.total("sim.sv.apply_circuit");
    out["sim.sv.ns_per_amp_update"] = L["sv.amp_updates"] > 0 ? sv / L["sv.amp_updates"] * 1e9 : 0;
    finish_trace(tr, res.log.attempted(), res.log.op_s(), out);
    res.checks_json = "{\"tn_spans\": " + std::to_string(tr.count_prefix("tn.")) + "}";
  }
  return res;
}

}  // namespace perfbench
