// RunControl coverage: unit semantics (cancel -> CancelledError, deadline ->
// TimeoutError, memory ceiling -> MemoryOutError), run-time enforcement
// inside the plan executor (a deadline that expires AFTER compile throws
// from execute), cooperative cancellation of the trajectory runners and the
// Algorithm-1 sweeps, xeb_sweep's salvage contract (valid outputs bitwise
// equal to the uncancelled run), the density backend's threads and control,
// the never-fires determinism contract, and NOISIM_THREADS validation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>

#include "bench_support/generators.hpp"
#include "core/approx.hpp"
#include "core/backend.hpp"
#include "core/run_control.hpp"
#include "fault/fault.hpp"
#include "sim/parallel.hpp"
#include "support/env.hpp"
#include "tn/contractor.hpp"
#include "tn/plan.hpp"

namespace noisim::core {
namespace {

TEST(RunControl, UnarmedPollIsANoOp) {
  RunControl c;
  EXPECT_NO_THROW(c.poll());
  EXPECT_FALSE(c.cancel_requested());
  EXPECT_FALSE(c.deadline_expired());
  EXPECT_NO_THROW(c.check_memory(std::size_t{1} << 40, "anything"));
}

TEST(RunControl, CancelIsStickyAndRaisesCancelledError) {
  RunControl c;
  c.request_cancel();
  EXPECT_TRUE(c.cancel_requested());
  EXPECT_THROW(c.poll(), CancelledError);
  EXPECT_THROW(c.poll(), CancelledError);  // sticky
  c.reset();
  EXPECT_NO_THROW(c.poll());
}

TEST(RunControl, ExpiredDeadlineRaisesTimeoutError) {
  RunControl c;
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(c.deadline_expired());
  EXPECT_THROW(c.poll(), TimeoutError);
  c.clear_deadline();
  EXPECT_NO_THROW(c.poll());
  // A far-future deadline never fires.
  c.set_deadline_after(3600.0);
  EXPECT_NO_THROW(c.poll());
  // <= 0 clears.
  c.set_deadline_after(0.0);
  EXPECT_FALSE(c.deadline_expired());
}

TEST(RunControl, CancelWinsOverExpiredDeadline) {
  RunControl c;
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  c.request_cancel();
  EXPECT_THROW(c.poll(), CancelledError);
}

TEST(RunControl, MemoryCeilingRaisesMemoryOutErrorNamingTheSubject) {
  RunControl c;
  c.set_memory_ceiling_elems(100);
  EXPECT_NO_THROW(c.check_memory(100, "small arena"));
  try {
    c.check_memory(101, "contraction arena");
    FAIL() << "expected MemoryOutError";
  } catch (const MemoryOutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contraction arena"), std::string::npos) << what;
    EXPECT_NE(what.find("ceiling"), std::string::npos) << what;
  }
  c.set_memory_ceiling_elems(0);
  EXPECT_NO_THROW(c.check_memory(std::size_t{1} << 40, "anything"));
}

// --- run-time enforcement in the plan executor ---------------------------

tn::Network small_network(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss;
  auto random_tensor = [&](std::vector<std::size_t> shape) {
    tsr::Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = cplx{gauss(rng), gauss(rng)};
    return t;
  };
  tn::Network net;
  std::vector<tn::EdgeId> rail;
  for (int i = 0; i < 5; ++i) rail.push_back(net.new_edge());
  net.add_node(random_tensor({2, 2}), {rail[0], rail[1]});
  net.add_node(random_tensor({2, 2, 2}), {rail[1], rail[2], rail[3]});
  net.add_node(random_tensor({2, 2}), {rail[0], rail[2]});
  net.add_node(random_tensor({2, 2}), {rail[3], rail[4]});
  net.add_node(random_tensor({2}), {rail[4]});
  return net;
}

TEST(RunControl, RunTimeDeadlineThrowsFromExecuteNotCompile) {
  // Compile with NO plan-time timeout: the deadline is pure run-time state,
  // enforced by the executor's per-step poll through the workspace.
  const tn::Network net = small_network(7);
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(net);

  RunControl c;
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  tn::PlanWorkspace ws;
  ws.control = &c;
  EXPECT_THROW(plan.execute(net, ws), TimeoutError);

  // Same workspace, cancel instead of deadline.
  c.reset();
  c.request_cancel();
  EXPECT_THROW(plan.execute(net, ws), CancelledError);

  // Memory ceiling below the plan's arena footprint fires before the arena
  // is committed.
  c.reset();
  c.set_memory_ceiling_elems(1);
  EXPECT_THROW(plan.execute(net, ws), MemoryOutError);
}

TEST(RunControl, NeverFiringControlLeavesExecuteBitIdentical) {
  const tn::Network net = small_network(7);
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(net);
  tn::PlanWorkspace bare_ws;
  const tsr::Tensor bare = plan.execute(net, bare_ws);

  RunControl c;
  c.set_deadline_after(3600.0);
  c.set_memory_ceiling_elems(std::size_t{1} << 40);
  tn::PlanWorkspace ws;
  ws.control = &c;
  const tsr::Tensor guarded = plan.execute(net, ws);
  ASSERT_EQ(bare.size(), guarded.size());
  for (std::size_t i = 0; i < bare.size(); ++i) EXPECT_EQ(bare[i], guarded[i]);
}

TEST(RunControl, ContractNetworkHonorsControlThroughContractOptions) {
  const tn::Network net = small_network(11);
  RunControl c;
  c.request_cancel();
  tn::ContractOptions opts;
  opts.control = &c;
  EXPECT_THROW(tn::contract_network(net, opts), CancelledError);
}

// --- trajectory runners --------------------------------------------------

TEST(RunControl, TrajectoryRunnersStopWithinOneChunk) {
  const sim::Sampler sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return u(rng);
  };
  sim::ParallelOptions popts;
  popts.threads = 2;

  RunControl c;
  c.request_cancel();
  popts.control = &c;
  EXPECT_THROW(sim::run_trajectories(1024, 42, sampler, popts), CancelledError);

  c.reset();
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(sim::run_trajectories(1024, 42, sampler, popts), TimeoutError);

  // Never fires -> bit-identical to no control, at any thread count.
  c.reset();
  const sim::TrajectoryResult guarded = sim::run_trajectories(1024, 42, sampler, popts);
  popts.control = nullptr;
  const sim::TrajectoryResult bare = sim::run_trajectories(1024, 42, sampler, popts);
  EXPECT_EQ(guarded.mean, bare.mean);
  EXPECT_EQ(guarded.std_error, bare.std_error);
  EXPECT_EQ(guarded.samples, bare.samples);
}

// --- Algorithm-1 sweeps --------------------------------------------------

ch::NoisyCircuit sweep_circuit() {
  return bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
}

TEST(RunControl, ApproximateFidelityRaisesOnCancelAndIsBitIdenticalOtherwise) {
  const ch::NoisyCircuit nc = sweep_circuit();
  ApproxOptions opts;
  opts.level = 1;
  opts.threads = 2;

  const ApproxResult bare = approximate_fidelity(nc, 0, 0, opts);

  RunControl c;
  opts.control = &c;
  const ApproxResult guarded = approximate_fidelity(nc, 0, 0, opts);
  EXPECT_EQ(guarded.value, bare.value);

  c.request_cancel();
  EXPECT_THROW(approximate_fidelity(nc, 0, 0, opts), CancelledError);

  c.reset();
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(approximate_fidelity(nc, 0, 0, opts), TimeoutError);
}

TEST(RunControl, ApproximateFidelityOutputsRaisesCancelledError) {
  const ch::NoisyCircuit nc = sweep_circuit();
  const std::vector<std::uint64_t> outputs = {0, 1, 2, 3};
  ApproxOptions opts;
  opts.level = 1;
  RunControl c;
  c.request_cancel();
  opts.control = &c;
  EXPECT_THROW(approximate_fidelity_outputs(nc, 0, outputs, opts), CancelledError);
}

TEST(RunControl, PreCancelledXebSweepSalvagesNothingImmediately) {
  const ch::NoisyCircuit nc = sweep_circuit();
  const std::vector<std::uint64_t> outputs = {0, 1, 2, 3, 4, 5, 6, 7};
  SweepOptions sopts;
  sopts.approx.level = 1;
  RunControl c;
  c.request_cancel();
  sopts.approx.control = &c;
  const ApproxBatchResult r = xeb_sweep(nc, 0, outputs, sopts);
  EXPECT_TRUE(r.cancelled);
  ASSERT_EQ(r.valid.size(), outputs.size());
  for (const char v : r.valid) EXPECT_EQ(v, 0);
}

// The acceptance scenario: cancel a qaoa_25 sweep mid-flight from a watcher
// thread. The sweep must return within one work-item bound (enforced here
// by the test completing at all) and every output it reports valid must be
// bitwise equal to the uncancelled run.
TEST(RunControl, MidSweepCancelSalvagesBitIdenticalChunks) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(25, 1, 9), 6, bench::depolarizing_noise(0.05), 31);
  std::vector<std::uint64_t> outputs(64);
  for (std::size_t o = 0; o < outputs.size(); ++o)
    outputs[o] = (o * 2654435761ULL) & ((std::uint64_t{1} << 25) - 1);

  SweepOptions sopts;
  sopts.approx.level = 1;
  sopts.approx.threads = 2;
  sopts.shard_outputs = 8;

  const ApproxBatchResult reference = xeb_sweep(nc, 0, outputs, sopts);
  ASSERT_FALSE(reference.cancelled);

  RunControl c;
  sopts.approx.control = &c;
  std::thread watcher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    c.request_cancel();
  });
  const ApproxBatchResult r = xeb_sweep(nc, 0, outputs, sopts);
  watcher.join();

  ASSERT_EQ(r.valid.size(), outputs.size());
  ASSERT_EQ(r.values.size(), outputs.size());
  std::size_t salvaged = 0;
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    if (!r.valid[o]) continue;
    ++salvaged;
    EXPECT_EQ(r.values[o], reference.values[o]) << "output " << o;
    EXPECT_EQ(r.raw[o], reference.raw[o]) << "output " << o;
    ASSERT_EQ(r.term_sums[o].size(), reference.term_sums[o].size());
    for (std::size_t u = 0; u < r.term_sums[o].size(); ++u)
      EXPECT_EQ(r.term_sums[o][u], reference.term_sums[o][u]) << "output " << o;
  }
  if (!r.cancelled) {
    // The sweep beat the watcher: that is the uncancelled run, in full.
    EXPECT_EQ(salvaged, outputs.size());
  }
  // Error bounds are output-independent and survive any cancel.
  EXPECT_EQ(r.error_bound, reference.error_bound);
  EXPECT_EQ(r.tight_error_bound, reference.tight_error_bound);
}

// --- simulate() front door -----------------------------------------------

TEST(RunControl, SimulatePropagatesCancelWithoutEscalating) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13);
  SimulateOptions opts;
  opts.error_budget = 5e-2;
  RunControl c;
  c.request_cancel();
  opts.control = &c;
  EXPECT_THROW(simulate(nc, 0, 0, opts), CancelledError);

  // Never fires -> bit-identical to no control.
  c.reset();
  const SimResult guarded = simulate(nc, 0, 0, opts);
  opts.control = nullptr;
  const SimResult bare = simulate(nc, 0, 0, opts);
  EXPECT_EQ(guarded.value, bare.value);
  EXPECT_EQ(guarded.backend, bare.backend);
  EXPECT_TRUE(guarded.escalations.empty());
}

TEST(RunControl, DensityBackendHonorsThreadsAndControl) {
  // 8 qubits: above sim::kDensityParallelMinElems, so 4 threads split rho.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(8, 5), 6, bench::depolarizing_noise(0.05), 3);
  SimulateOptions opts;
  opts.force_backend = BackendKind::Density;
  opts.threads = 1;
  const SimResult serial = simulate(nc, 0, 0, opts);
  ASSERT_EQ(serial.backend, BackendKind::Density);
  opts.threads = 4;
  const SimResult parallel = simulate(nc, 0, 0, opts);
  EXPECT_EQ(std::memcmp(&parallel.value, &serial.value, sizeof(double)), 0);

  const Backend* density = nullptr;
  for (const Backend* b : default_backends())
    if (b->kind() == BackendKind::Density) density = b;
  ASSERT_NE(density, nullptr);
  const CostEstimate est = density->estimate(nc, 0, 0, opts);
  RunControl c;
  opts.control = &c;
  // Count sim-phase pokes (one per worker per sweep) without ever firing.
  fault::arm("sim-phase", std::uint64_t{1} << 40);
  SimResult out;
  c.request_cancel();
  EXPECT_THROW(density->run(nc, 0, 0, opts, est, out), CancelledError);
  c.reset();
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(density->run(nc, 0, 0, opts, est, out), TimeoutError);
  // Both stopped at their first sweep's poll, before any op ran.
  EXPECT_EQ(fault::hits("sim-phase"), 0u);
  fault::disarm_all();

  // The process stays reusable, and a control that never fires changes
  // nothing.
  c.reset();
  const SimResult again = simulate(nc, 0, 0, opts);
  EXPECT_EQ(std::memcmp(&again.value, &serial.value, sizeof(double)), 0);
}

// --- NOISIM_THREADS validation -------------------------------------------

struct EnvGuard {
  const char* name;
  std::string saved;
  bool had = false;
  explicit EnvGuard(const char* n) : name(n) {
    if (const char* v = support::env_get(n)) {
      saved = v;
      had = true;
    }
  }
  ~EnvGuard() {
    if (had)
      ::setenv(name, saved.c_str(), 1);
    else
      ::unsetenv(name);
  }
};

TEST(ResolveThreads, RejectsNonNumericAndNonPositiveValuesNamingTheVariable) {
  EnvGuard guard("NOISIM_THREADS");
  // " 5" (leading whitespace) and the 20-digit value (ERANGE saturation)
  // were silently reinterpreted before the strict-grammar fix; both must
  // now fail the same loud way as the always-rejected inputs.
  for (const char* bad : {"abc", "-3", "0", "4x", "", " 5", "\t5", "99999999999999999999"}) {
    ::setenv("NOISIM_THREADS", bad, 1);
    try {
      sim::resolve_threads(0);
      FAIL() << "expected LinalgError for NOISIM_THREADS=\"" << bad << "\"";
    } catch (const LinalgError& e) {
      EXPECT_NE(std::string(e.what()).find("NOISIM_THREADS"), std::string::npos) << e.what();
    }
  }
}

TEST(ParsePositiveInt, StrictGrammarRejectsWhitespaceAndOutOfRangeInput) {
  EXPECT_EQ(support::parse_positive_int("5"), 5);
  EXPECT_EQ(support::parse_positive_int("+12"), 12);
  // Leading whitespace: strtol would skip it; the strict grammar must not.
  EXPECT_FALSE(support::parse_positive_int(" 5").has_value());
  EXPECT_FALSE(support::parse_positive_int("\t5").has_value());
  EXPECT_FALSE(support::parse_positive_int("\n5").has_value());
  // Out-of-range: strtol saturates to LONG_MAX/LONG_MIN with errno ==
  // ERANGE; the grammar rejects instead of handing back the saturated value.
  EXPECT_FALSE(support::parse_positive_int("99999999999999999999").has_value());
  EXPECT_FALSE(support::parse_positive_int("-99999999999999999999").has_value());
  EXPECT_FALSE(support::parse_positive_int(nullptr).has_value());
  EXPECT_FALSE(support::parse_positive_int("5 ").has_value());
}

TEST(ResolveThreads, AcceptsPositiveIntegersAndIgnoresEnvWhenRequested) {
  EnvGuard guard("NOISIM_THREADS");
  ::setenv("NOISIM_THREADS", "5", 1);
  EXPECT_EQ(sim::resolve_threads(0), 5u);
  // An explicit request bypasses the env var entirely (even a bad one).
  ::setenv("NOISIM_THREADS", "abc", 1);
  EXPECT_EQ(sim::resolve_threads(3), 3u);
  ::unsetenv("NOISIM_THREADS");
  EXPECT_GE(sim::resolve_threads(0), 1u);
}

}  // namespace
}  // namespace noisim::core
