// Tests for the output-bitstring batching axis: batch_amplitudes /
// AmplitudeTemplate::compile_batched_outputs, approximate_fidelity_outputs,
// trajectories_tn_sweep over one shard -- plus the sampling-path regression tests this
// PR fixes (unnormalized mixtures, zero-sample entry points, progress
// serialization).
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

#include "bench_support/generators.hpp"
#include "bench_support/harness.hpp"
#include "channels/catalog.hpp"
#include "core/approx.hpp"
#include "core/trajectories_tn.hpp"
#include "mps/mps_trajectories.hpp"
#include "sim/trajectories.hpp"

namespace noisim::core {
namespace {

EvalOptions tn_eval() {
  EvalOptions eval;
  eval.backend = EvalOptions::Backend::TensorNetwork;
  return eval;
}

EvalOptions sv_eval() {
  EvalOptions eval;
  eval.backend = EvalOptions::Backend::StateVector;
  return eval;
}

/// The trajectories/approx skeleton topology: the circuit's gates with one
/// identity placeholder per noise site (same shapes as the insertions that
/// replace them). Used to compute per-term plan arenas for the
/// workspace-budget tests.
std::vector<qc::Gate> skeleton_gates(const ch::NoisyCircuit& nc) {
  std::vector<qc::Gate> gates;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    gates.push_back(noise.num_qubits() == 1
                        ? qc::u1q(noise.qubit, la::Matrix::identity(2))
                        : qc::u2q(noise.qubit, noise.qubit2, la::Matrix::identity(4)));
  }
  return gates;
}

std::vector<std::uint64_t> sampled_bitstrings(int n, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint64_t mask = n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  std::vector<std::uint64_t> out(count);
  for (auto& v : out) v = rng() & mask;
  return out;
}

void expect_batch_matches_amplitude(int n, const std::vector<qc::Gate>& gates,
                                    std::span<const std::uint64_t> vb,
                                    const EvalOptions& eval) {
  const std::vector<cplx> batch = batch_amplitudes(n, gates, 0, vb, false, eval);
  ASSERT_EQ(batch.size(), vb.size());
  for (std::size_t t = 0; t < vb.size(); ++t) {
    const cplx ref = amplitude(n, gates, 0, vb[t], false, eval);
    EXPECT_EQ(ref.real(), batch[t].real()) << "bitstring " << t;
    EXPECT_EQ(ref.imag(), batch[t].imag()) << "bitstring " << t;
  }
}

// --- batch_amplitudes ---------------------------------------------------------

TEST(BatchAmplitudes, BitwiseEqualsPerBitstringOnBothBackends) {
  const qc::Circuit c = bench::qaoa(16, 1, 9);
  std::vector<std::uint64_t> vb = sampled_bitstrings(16, 21, 3);
  vb.push_back(vb[4]);  // duplicate inside one batch
  vb.push_back(0);      // all-zeros
  vb.push_back((std::uint64_t{1} << 16) - 1);  // all-ones
  expect_batch_matches_amplitude(16, c.gates(), vb, tn_eval());
  expect_batch_matches_amplitude(16, c.gates(), vb, sv_eval());
}

TEST(BatchAmplitudes, SingleBitstringAndSingleQubit) {
  // K = 1 (degenerate batch) and n = 1 (caps are the whole network).
  const qc::Circuit c16 = bench::qaoa(16, 1, 5);
  const std::vector<std::uint64_t> one{0x2f1bull};
  expect_batch_matches_amplitude(16, c16.gates(), one, tn_eval());

  qc::Circuit c1(1);
  c1.add(qc::h(0)).add(qc::t(0)).add(qc::h(0));
  const std::vector<std::uint64_t> vb{0, 1, 1, 0};
  expect_batch_matches_amplitude(1, c1.gates(), vb, tn_eval());
  expect_batch_matches_amplitude(1, c1.gates(), vb, sv_eval());
}

TEST(BatchAmplitudes, ChunksLargerThanInternalCapacity) {
  // 70 bitstrings stream through capacity-64 chunks: a full chunk plus a
  // ragged tail that does NOT divide the capacity.
  const qc::Circuit c = bench::qaoa(16, 1, 7);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 70, 11);
  expect_batch_matches_amplitude(16, c.gates(), vb, tn_eval());
}

TEST(BatchAmplitudes, EmptyRequestYieldsEmptyResult) {
  const qc::Circuit c = bench::qaoa(16, 1, 7);
  EXPECT_TRUE(batch_amplitudes(16, c.gates(), 0, {}, false, tn_eval()).empty());
}

TEST(BatchedOutputs, PartialBatchesThroughTemplateApi) {
  // k < capacity and k not dividing capacity, straight on the template API.
  const qc::Circuit c = bench::qaoa(16, 1, 13);
  const AmplitudeTemplate tmpl(16, c.gates(), 0, 0, false, tn_eval());
  const tn::BatchedPlan bplan = tmpl.compile_batched_outputs(8);
  AmplitudeTemplate::BatchedSession session(tmpl, bplan);
  AmplitudeTemplate::Session ref_session = tmpl.session();
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 3, 17);
  std::vector<const tsr::Tensor*> ptrs(3 * 16);
  for (std::size_t t = 0; t < 3; ++t)
    tmpl.fill_output_caps(vb[t], std::span(ptrs).subspan(t * 16, 16));
  std::vector<cplx> out(3);
  session.evaluate(std::span<const tsr::Tensor* const>(ptrs), 3, out);
  std::vector<AmplitudeTemplate::Substitution> subs(16);
  std::vector<const tsr::Tensor*> caps(16);
  for (std::size_t t = 0; t < 3; ++t) {
    tmpl.fill_output_caps(vb[t], caps);
    for (int q = 0; q < 16; ++q) subs[static_cast<std::size_t>(q)] = {
        tmpl.node_of_output_cap(q), caps[static_cast<std::size_t>(q)]};
    const cplx ref = ref_session.evaluate(subs);
    EXPECT_EQ(ref, out[t]);
  }
}

TEST(BatchedOutputs, WorkspaceBudgetTripsOnlyTheOutputBatch) {
  // Budget = exactly the per-term plan arena: per-bitstring replay fits,
  // the output batch does not -- MO surfaces at compile time and
  // batch_amplitudes falls back bit-identically.
  const qc::Circuit c = bench::qaoa(16, 1, 19);
  EvalOptions eval = tn_eval();
  eval.tn.greedy_cost_weights = {1.0};
  const AmplitudeTemplate probe(16, c.gates(), 0, 0, false, eval);
  eval.tn.max_workspace_elems = probe.plan().workspace_elems();

  const AmplitudeTemplate tmpl(16, c.gates(), 0, 0, false, eval);
  (void)tmpl.compile_batched_outputs(1);  // capacity 1 matches the per-term arena
  EXPECT_THROW(tmpl.compile_batched_outputs(16), MemoryOutError);
  const bench::RunOutcome out = bench::run_guarded([&] {
    tmpl.compile_batched_outputs(16);
    return 0.0;
  });
  EXPECT_EQ(out.status, bench::RunOutcome::Status::MemoryOut);
  EXPECT_EQ(bench::format_time(out), "MO");

  // The convenience API degrades to per-bitstring replay instead of
  // failing, and stays bitwise-equal to the unbudgeted path.
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 12, 23);
  const std::vector<cplx> budgeted = batch_amplitudes(16, c.gates(), 0, vb, false, eval);
  EvalOptions unbudgeted = eval;
  unbudgeted.tn.max_workspace_elems = 0;
  const std::vector<cplx> full = batch_amplitudes(16, c.gates(), 0, vb, false, unbudgeted);
  for (std::size_t t = 0; t < vb.size(); ++t) EXPECT_EQ(budgeted[t], full[t]);
}

// --- sequential_flop_fraction fallback boundary -------------------------------
//
// output_batch_worthwhile draws the line at 0.999: a compiled batch whose
// schedule is essentially all sequential (per-term) work can only add
// bookkeeping over per-bitstring replay. The two supremacy depths below
// land just under and just over the threshold (0.9989 vs 0.9993 on the
// seeded planner), pinning the policy boundary AND the bit-identity of both
// execution strategies on both sides.

TEST(FlopFraction, JustBelowThresholdKeepsTheBatchedPath) {
  const qc::Circuit c = bench::supremacy_inst(4, 4, 16, 5);
  const AmplitudeTemplate tmpl(16, c.gates(), 0, 0, false, tn_eval());
  const tn::BatchedPlan bp = tmpl.compile_batched_outputs(2);
  EXPECT_GT(bp.sequential_flop_fraction(), 0.99);
  EXPECT_LT(bp.sequential_flop_fraction(), 0.999);
  // The exact branch condition batch_amplitudes / the sweep engine /
  // trajectories_tn_sweep test before keeping their batched plan.
  EXPECT_TRUE(output_batch_worthwhile(bp));
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 2, 71);
  expect_batch_matches_amplitude(16, c.gates(), vb, tn_eval());
}

TEST(FlopFraction, AtOrAboveThresholdFallsBackToPerBitstringReplay) {
  const qc::Circuit c = bench::supremacy_inst(4, 4, 24, 5);
  const AmplitudeTemplate tmpl(16, c.gates(), 0, 0, false, tn_eval());
  const tn::BatchedPlan bp = tmpl.compile_batched_outputs(2);
  EXPECT_GE(bp.sequential_flop_fraction(), 0.999);
  EXPECT_LE(bp.sequential_flop_fraction(), 1.0);
  EXPECT_FALSE(output_batch_worthwhile(bp));
  // The convenience API therefore replays per bitstring -- bit-identically.
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 2, 73);
  expect_batch_matches_amplitude(16, c.gates(), vb, tn_eval());

  // And the rejected batched plan itself still agrees bitwise with session
  // replay: the policy is a performance call, never a correctness one.
  AmplitudeTemplate::BatchedSession batched(tmpl, bp);
  std::vector<const tsr::Tensor*> ptrs(2 * 16);
  for (std::size_t t = 0; t < 2; ++t)
    tmpl.fill_output_caps(vb[t], std::span(ptrs).subspan(t * 16, 16));
  std::vector<cplx> out(2);
  batched.evaluate(std::span<const tsr::Tensor* const>(ptrs), 2, out);
  AmplitudeTemplate::Session session = tmpl.session();
  std::vector<AmplitudeTemplate::Substitution> subs(16);
  std::vector<const tsr::Tensor*> caps(16);
  for (std::size_t t = 0; t < 2; ++t) {
    tmpl.fill_output_caps(vb[t], caps);
    for (int q = 0; q < 16; ++q)
      subs[static_cast<std::size_t>(q)] = {tmpl.node_of_output_cap(q),
                                           caps[static_cast<std::size_t>(q)]};
    EXPECT_EQ(session.evaluate(subs), out[t]);
  }
}

// --- approximate_fidelity_outputs ---------------------------------------------

ch::NoisyCircuit xeb_workload(int n, std::size_t noises, std::uint64_t seed) {
  return bench::insert_noises(bench::qaoa(n, 1, 77), noises,
                              bench::depolarizing_noise(0.01), seed);
}

void expect_outputs_match_per_bitstring(const ch::NoisyCircuit& nc,
                                        std::span<const std::uint64_t> vb,
                                        const ApproxOptions& opts) {
  const ApproxBatchResult batch = approximate_fidelity_outputs(nc, 0, vb, opts);
  ASSERT_EQ(batch.values.size(), vb.size());
  for (std::size_t o = 0; o < vb.size(); ++o) {
    const ApproxResult ref = approximate_fidelity(nc, 0, vb[o], opts);
    EXPECT_EQ(ref.raw.real(), batch.raw[o].real()) << "output " << o;
    EXPECT_EQ(ref.raw.imag(), batch.raw[o].imag()) << "output " << o;
    ASSERT_EQ(ref.level_values.size(), batch.level_values[o].size());
    for (std::size_t u = 0; u < ref.level_values.size(); ++u)
      EXPECT_EQ(ref.level_values[u], batch.level_values[o][u]) << "output " << o;
    EXPECT_EQ(ref.error_bound, batch.error_bound);
    EXPECT_EQ(ref.tight_error_bound, batch.tight_error_bound);
  }
}

TEST(ApproxOutputs, BitIdenticalToPerBitstringLevels0To2) {
  const ch::NoisyCircuit nc = xeb_workload(16, 3, 501);
  // Duplicates, all-zeros, all-ones ride along with the sampled strings.
  std::vector<std::uint64_t> vb = sampled_bitstrings(16, 5, 31);
  vb.push_back(vb[0]);
  vb.push_back(0);
  vb.push_back((std::uint64_t{1} << 16) - 1);
  for (std::size_t level = 0; level <= 2; ++level) {
    ApproxOptions opts;
    opts.level = level;
    opts.eval = tn_eval();
    expect_outputs_match_per_bitstring(nc, vb, opts);
  }
}

TEST(ApproxOutputs, BitIdenticalAcrossThreadCountsAndBatchSizes) {
  const ch::NoisyCircuit nc = xeb_workload(16, 3, 501);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 6, 37);
  ApproxOptions base;
  base.level = 2;
  base.eval = tn_eval();
  const ApproxBatchResult serial = approximate_fidelity_outputs(nc, 0, vb, base);
  for (const std::size_t threads : {4ul}) {
    for (const std::size_t batch_terms : {1ul, 2ul, 7ul, 32ul}) {
      ApproxOptions opts = base;
      opts.threads = threads;
      opts.batch_terms = batch_terms;
      const ApproxBatchResult other = approximate_fidelity_outputs(nc, 0, vb, opts);
      for (std::size_t o = 0; o < vb.size(); ++o) {
        EXPECT_EQ(serial.raw[o].real(), other.raw[o].real());
        EXPECT_EQ(serial.raw[o].imag(), other.raw[o].imag());
      }
    }
  }
}

TEST(ApproxOutputs, ReferencePathsMatchPerBitstring) {
  const ch::NoisyCircuit nc = xeb_workload(16, 2, 503);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 4, 41);
  ApproxOptions replan;
  replan.level = 1;
  replan.eval = tn_eval();
  replan.reuse_plans = false;
  expect_outputs_match_per_bitstring(nc, vb, replan);

  ApproxOptions sv;
  sv.level = 1;
  sv.eval = sv_eval();
  expect_outputs_match_per_bitstring(nc, vb, sv);
}

TEST(ApproxOutputs, WorkspaceBudgetFallsBackBitIdentically) {
  // Budget = the two layers' per-term arenas: the combined terms x outputs
  // batch cannot fit, so the sweep must drop to per-output plan replay and
  // still reproduce every per-bitstring value bit for bit.
  const ch::NoisyCircuit nc = xeb_workload(16, 3, 505);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 5, 43);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  opts.eval.tn.greedy_cost_weights = {1.0};

  const ApproxBatchResult full = approximate_fidelity_outputs(nc, 0, vb, opts);
  // Per-term plans of both layers share the skeleton topology; take the
  // larger arena so the per-output session path fits exactly.
  std::size_t arena = 0;
  for (const bool conj : {false, true}) {
    const tn::Network net = amplitude_network(nc.num_qubits(), skeleton_gates(nc), 0, 0, conj);
    arena = std::max(arena,
                     tn::ContractionPlan::compile(net, opts.eval.tn).workspace_elems());
  }
  ApproxOptions budgeted = opts;
  budgeted.eval.tn.max_workspace_elems = arena;
  const ApproxBatchResult fallback = approximate_fidelity_outputs(nc, 0, vb, budgeted);
  for (std::size_t o = 0; o < vb.size(); ++o) {
    EXPECT_EQ(full.raw[o].real(), fallback.raw[o].real());
    EXPECT_EQ(full.raw[o].imag(), fallback.raw[o].imag());
  }
}

TEST(ApproxOutputs, ConeTrackingPastSixtyFourVaryingSlots) {
  // 64 output caps + 4 noise sites = 68 varying slots: the cone masks are
  // multi-word bitsets, so the row bounds stay tight (a single-word mask
  // limit used to silently degrade exactly this XEB-scale regime) and the
  // batched sweep still reproduces every per-bitstring value bit for bit.
  const ch::NoisyCircuit nc = xeb_workload(64, 4, 601);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(64, 3, 67);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  expect_outputs_match_per_bitstring(nc, vb, opts);
}

TEST(ApproxOutputs, EmptyOutputsReturnBoundsOnly) {
  const ch::NoisyCircuit nc = xeb_workload(16, 2, 507);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, {}, opts);
  EXPECT_TRUE(r.values.empty());
  EXPECT_EQ(r.contractions, 0u);
  EXPECT_GT(r.tight_error_bound, 0.0);
}

TEST(ApproxOutputs, ProgressCountsTermsOnce) {
  const ch::NoisyCircuit nc = xeb_workload(16, 3, 509);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 4, 47);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  std::size_t calls = 0;
  opts.progress = [&](std::size_t done) { calls = done; };
  approximate_fidelity_outputs(nc, 0, vb, opts);
  EXPECT_EQ(calls, 1u + 3u * nc.noise_count());
}

// --- progress serialization (doc'd contract of ApproxOptions::progress) -------

TEST(ApproxProgress, CallsAreSerializedAndStrictlyIncreasing) {
  const ch::NoisyCircuit nc = xeb_workload(16, 4, 511);
  ApproxOptions opts;
  opts.level = 1;
  opts.threads = 4;
  opts.eval = tn_eval();

  std::atomic<int> in_flight{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::size_t> seen;  // protected by the documented serialization
  opts.progress = [&](std::size_t done) {
    if (in_flight.fetch_add(1) != 0) overlapped = true;
    seen.push_back(done);
    std::this_thread::yield();  // widen any race window
    in_flight.fetch_sub(1);
  };
  approximate_fidelity(nc, 0, 0, opts);

  EXPECT_FALSE(overlapped.load());
  ASSERT_EQ(seen.size(), 1u + 3u * nc.noise_count());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

// --- trajectories_tn_sweep, one shard of every output -------------------------

ch::NoisyCircuit traj_workload(std::uint64_t seed) {
  return bench::insert_noises(bench::qaoa(16, 1, 5), 3, bench::depolarizing_noise(0.02),
                              seed);
}

TEST(TrajOutputs, BitIdenticalToPerBitstringRuns) {
  const ch::NoisyCircuit nc = traj_workload(17);
  std::vector<std::uint64_t> vb = sampled_bitstrings(16, 5, 53);
  vb.push_back(vb[1]);  // duplicate
  vb.push_back(0);
  sim::ParallelOptions serial;
  serial.threads = 1;
  sim::ParallelOptions quad;
  quad.threads = 4;

  for (const EvalOptions& eval : {tn_eval(), sv_eval()}) {
    const auto multi = trajectories_tn_sweep(nc, 0, vb, 96, 7, serial, eval, vb.size());
    const auto threaded = trajectories_tn_sweep(nc, 0, vb, 96, 7, quad, eval, vb.size());
    ASSERT_EQ(multi.size(), vb.size());
    for (std::size_t o = 0; o < vb.size(); ++o) {
      const sim::TrajectoryResult ref = trajectories_tn(nc, 0, vb[o], 96, 7, serial, eval);
      EXPECT_EQ(ref.mean, multi[o].mean) << "output " << o;
      EXPECT_EQ(ref.std_error, multi[o].std_error) << "output " << o;
      EXPECT_EQ(multi[o].mean, threaded[o].mean) << "output " << o;
      EXPECT_EQ(multi[o].std_error, threaded[o].std_error) << "output " << o;
    }
  }
}

TEST(TrajOutputs, WorkspaceBudgetFallsBackBitIdentically) {
  const ch::NoisyCircuit nc = traj_workload(19);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 4, 59);
  sim::ParallelOptions serial;
  serial.threads = 1;
  EvalOptions eval = tn_eval();
  eval.tn.greedy_cost_weights = {1.0};
  const auto full = trajectories_tn_sweep(nc, 0, vb, 64, 7, serial, eval, vb.size());

  // Budget = the skeleton's per-term arena: the output batch reports MO at
  // compile time and the per-output session path takes over.
  const tn::Network net = amplitude_network(nc.num_qubits(), skeleton_gates(nc), 0, 0, false);
  EvalOptions budgeted = eval;
  budgeted.tn.max_workspace_elems =
      tn::ContractionPlan::compile(net, eval.tn).workspace_elems();
  const auto fallback = trajectories_tn_sweep(nc, 0, vb, 64, 7, serial, budgeted, vb.size());
  for (std::size_t o = 0; o < vb.size(); ++o) {
    EXPECT_EQ(full[o].mean, fallback[o].mean);
    EXPECT_EQ(full[o].std_error, fallback[o].std_error);
  }
}

TEST(TrajOutputs, ZeroSamplesAndNoOutputs) {
  const ch::NoisyCircuit nc = traj_workload(23);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 3, 61);
  sim::ParallelOptions popts;
  const auto empty = trajectories_tn_sweep(nc, 0, vb, 0, 7, popts, tn_eval(), vb.size());
  ASSERT_EQ(empty.size(), vb.size());
  for (const sim::TrajectoryResult& r : empty) {
    EXPECT_EQ(r.samples, 0u);
    EXPECT_EQ(r.mean, 0.0);
    EXPECT_EQ(r.std_error, 0.0);
  }
  EXPECT_TRUE(trajectories_tn_sweep(nc, 0, {}, 10, 7, popts, tn_eval(), 0).empty());
}

// --- zero-sample entry points (SV / MPS / TN) ---------------------------------

TEST(ZeroSamples, AllBackendsReturnEmptyEstimates) {
  const ch::NoisyCircuit nc = traj_workload(29);
  std::mt19937_64 rng(1);
  sim::ParallelOptions popts;

  const sim::TrajectoryResult tn_direct = trajectories_tn(nc, 0, 0, 0, rng, tn_eval());
  const sim::TrajectoryResult tn_seeded = trajectories_tn(nc, 0, 0, 0, 7, popts, tn_eval());
  const sim::TrajectoryResult sv_direct = sim::trajectories_sv(nc, 0, 0, 0, rng);
  const sim::TrajectoryResult sv_seeded = sim::trajectories_sv(nc, 0, 0, 0, 7, popts);
  const sim::TrajectoryResult mps_direct = mps::trajectories_mps(nc, 0, 0, 0, rng);
  const sim::TrajectoryResult mps_seeded = mps::trajectories_mps(nc, 0, 0, 0, 7, popts);
  for (const sim::TrajectoryResult& r :
       {tn_direct, tn_seeded, sv_direct, sv_seeded, mps_direct, mps_seeded}) {
    EXPECT_EQ(r.samples, 0u);
    EXPECT_EQ(r.mean, 0.0);
    EXPECT_EQ(r.std_error, 0.0);
  }
}

// --- unnormalized mixtures (sample_index regression) --------------------------

TEST(SampleIndex, UnnormalizedMixtureFailsLoudly) {
  // A non-CPTP "channel" whose Kraus set is a mixture of unitaries with
  // probabilities summing to 0.6. Pre-fix, the inverse-CDF fall-through
  // silently sampled the LAST unitary with the missing 0.4 mass; now the
  // skeleton builder rejects the distribution up front.
  const la::Matrix x{{0.0, 1.0}, {1.0, 0.0}};
  std::vector<la::Matrix> kraus{std::sqrt(0.3) * la::Matrix::identity(2),
                                std::sqrt(0.3) * x};
  const ch::Channel bad("unnormalized", std::move(kraus), /*tol=*/0.0);
  ch::NoisyCircuit nc(1);
  nc.add_gate(qc::h(0));
  nc.add_noise(0, bad);
  std::mt19937_64 rng(1);
  EXPECT_THROW(trajectories_tn(nc, 0, 0, 10, rng, sv_eval()), LinalgError);
  sim::ParallelOptions popts;
  EXPECT_THROW(trajectories_tn(nc, 0, 0, 10, 7, popts, sv_eval()), LinalgError);
  const std::vector<std::uint64_t> vb{0, 1};
  EXPECT_THROW(trajectories_tn_sweep(nc, 0, vb, 10, 7, popts, sv_eval(), vb.size()),
               LinalgError);
}

TEST(SampleIndex, RoundoffDeficitIsNormalizedAway) {
  // Probabilities summing to 1 - 1e-10 (inside the roundoff tolerance) are
  // renormalized and sample fine.
  const la::Matrix x{{0.0, 1.0}, {1.0, 0.0}};
  std::vector<la::Matrix> kraus{std::sqrt(0.5) * la::Matrix::identity(2),
                                std::sqrt(0.5 - 1e-10) * x};
  const ch::Channel nearly("nearly-normalized", std::move(kraus), /*tol=*/0.0);
  ch::NoisyCircuit nc(1);
  nc.add_gate(qc::h(0));
  nc.add_noise(0, nearly);
  std::mt19937_64 rng(2);
  const sim::TrajectoryResult r = trajectories_tn(nc, 0, 0, 200, rng, sv_eval());
  EXPECT_EQ(r.samples, 200u);
  EXPECT_GE(r.mean, 0.0);
  EXPECT_LE(r.mean, 1.0 + 1e-12);
}

}  // namespace
}  // namespace noisim::core
