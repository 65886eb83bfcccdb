// Property tests for the sharded XEB sweep engine: seeded random small
// circuits x noise models, asserting BITWISE equality of core::xeb_sweep
// against the per-bitstring approximate_fidelity reference across thread
// counts {0 (the default count), 1, 2, 7}, shard sizes {1, 3, K}, plan-cache cold vs warm vs
// disabled, and levels 0-2 -- plus the sharded trajectory sweep against its
// per-bitstring reference and the degenerate (K = 0) inputs of every
// output-batched API.
#include <gtest/gtest.h>

#include <random>

#include "bench_support/generators.hpp"
#include "core/approx.hpp"
#include "core/plan_cache.hpp"
#include "core/trajectories_tn.hpp"

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

/// Seeded random circuit on n qubits: a few layers' worth of 1- and 2-qubit
/// gates drawn from a mixed gate set (Cliffords, rotations, entanglers).
qc::Circuit random_circuit(int n, std::mt19937_64& rng) {
  qc::Circuit c(n);
  std::uniform_int_distribution<int> qubit(0, n - 1);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  const std::size_t count = 3 * static_cast<std::size_t>(n) + rng() % (3 * n);
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng() % 8) {
      case 0: c.add(qc::h(qubit(rng))); break;
      case 1: c.add(qc::t(qubit(rng))); break;
      case 2: c.add(qc::rx(qubit(rng), angle(rng))); break;
      case 3: c.add(qc::rz(qubit(rng), angle(rng))); break;
      case 4: c.add(qc::sqrt_y(qubit(rng))); break;
      default: {
        if (n < 2) {
          c.add(qc::s(qubit(rng)));
          break;
        }
        int a = qubit(rng), b = qubit(rng);
        while (b == a) b = qubit(rng);
        c.add(rng() % 2 ? qc::cz(a, b) : qc::cx(a, b));
        break;
      }
    }
  }
  return c;
}

std::vector<std::uint64_t> random_bitstrings(int n, std::size_t count, std::mt19937_64& rng) {
  const std::uint64_t mask = n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  std::vector<std::uint64_t> out(count);
  for (auto& v : out) v = rng() & mask;
  return out;
}

void expect_sweep_matches_refs(const ApproxBatchResult& sweep,
                               const std::vector<ApproxResult>& refs, const char* what) {
  ASSERT_EQ(sweep.raw.size(), refs.size()) << what;
  for (std::size_t o = 0; o < refs.size(); ++o) {
    EXPECT_EQ(refs[o].raw.real(), sweep.raw[o].real()) << what << " output " << o;
    EXPECT_EQ(refs[o].raw.imag(), sweep.raw[o].imag()) << what << " output " << o;
    ASSERT_EQ(refs[o].level_values.size(), sweep.level_values[o].size()) << what;
    for (std::size_t u = 0; u < refs[o].level_values.size(); ++u)
      EXPECT_EQ(refs[o].level_values[u], sweep.level_values[o][u])
          << what << " output " << o << " level " << u;
    ASSERT_EQ(refs[o].term_sums.size(), sweep.term_sums[o].size()) << what;
    for (std::size_t u = 0; u < refs[o].term_sums.size(); ++u)
      EXPECT_EQ(refs[o].term_sums[u], sweep.term_sums[o][u])
          << what << " output " << o << " level " << u;
  }
}

// --- the randomized property pass ---------------------------------------------

TEST(SweepProperties, RandomCircuitsBitIdenticalAcrossThreadsShardsCacheLevels) {
  constexpr std::size_t kCircuits = 50;
  for (std::size_t i = 0; i < kCircuits; ++i) {
    SCOPED_TRACE("circuit " + std::to_string(i));
    std::mt19937_64 rng(9000 + i);
    const int n = 2 + static_cast<int>(i % 5);  // 2..6 qubits
    const qc::Circuit circuit = random_circuit(n, rng);
    const std::size_t noises = 1 + i % 3;
    const bench::NoiseModel model =
        i % 2 ? bench::depolarizing_noise(0.01 + 0.01 * static_cast<double>(i % 4))
              : bench::realistic_noise();
    const ch::NoisyCircuit nc = bench::insert_noises(circuit, noises, model, 40 + i);

    ApproxOptions base;
    base.level = i % 3;
    base.eval = i % 4 == 3 ? sv_eval() : tn_eval();
    const std::size_t K = 1 + i % 5;
    std::vector<std::uint64_t> vb = random_bitstrings(n, K, rng);
    if (i % 4 == 0 && K >= 2) vb.back() = vb.front();  // duplicate in-batch

    // Per-bitstring reference: the bit-identity anchor for every variant.
    std::vector<ApproxResult> refs;
    refs.reserve(K);
    for (const std::uint64_t v : vb) refs.push_back(approximate_fidelity(nc, 0, v, base));

    PlanCache cache;  // cold on the first variant, warm afterwards
    for (const std::size_t threads : {0ul, 1ul, 2ul, 7ul}) {
      for (const std::size_t shard : {std::size_t{1}, std::size_t{3}, K}) {
        for (const bool cached : {false, true}) {
          SweepOptions sopts;
          sopts.approx = base;
          sopts.approx.threads = threads;
          sopts.approx.plan_cache = cached ? &cache : nullptr;
          sopts.shard_outputs = shard;
          const ApproxBatchResult sweep = xeb_sweep(nc, 0, vb, sopts);
          const std::string what = "threads " + std::to_string(threads) + " shard " +
                                   std::to_string(shard) + (cached ? " cached" : "");
          expect_sweep_matches_refs(sweep, refs, what.c_str());
        }
      }
    }
  }
}

TEST(SweepProperties, LargeBitstringSetWithRaggedShards) {
  // K = 40 across shard 7 (non-dividing, multi-chunk stash/fold) and odd
  // thread counts; compared against approximate_fidelity_outputs (itself
  // anchored to the per-bitstring reference by the suite above and the
  // batch-output tests).
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 501);
  std::mt19937_64 rng(77);
  const std::vector<std::uint64_t> vb = random_bitstrings(16, 40, rng);
  ApproxOptions base;
  base.level = 1;
  base.eval = tn_eval();
  const ApproxBatchResult ref = approximate_fidelity_outputs(nc, 0, vb, base);
  PlanCache cache;
  for (const std::size_t threads : {1ul, 3ul, 7ul}) {
    for (const std::size_t shard : {7ul, 13ul, 40ul}) {
      SweepOptions sopts;
      sopts.approx = base;
      sopts.approx.threads = threads;
      sopts.approx.plan_cache = &cache;
      sopts.shard_outputs = shard;
      const ApproxBatchResult sweep = xeb_sweep(nc, 0, vb, sopts);
      for (std::size_t o = 0; o < vb.size(); ++o) {
        EXPECT_EQ(ref.raw[o].real(), sweep.raw[o].real())
            << "threads " << threads << " shard " << shard << " output " << o;
        EXPECT_EQ(ref.raw[o].imag(), sweep.raw[o].imag())
            << "threads " << threads << " shard " << shard << " output " << o;
      }
    }
  }
}

TEST(SweepProperties, ProgressCountsTermsOnceAcrossShards) {
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 503);
  std::mt19937_64 rng(78);
  const std::vector<std::uint64_t> vb = random_bitstrings(16, 9, rng);
  SweepOptions sopts;
  sopts.approx.level = 1;
  sopts.approx.eval = tn_eval();
  sopts.approx.threads = 4;
  sopts.shard_outputs = 2;  // 5 chunks: every term folds across 5 items
  std::vector<std::size_t> seen;
  std::mutex seen_mutex;
  sopts.approx.progress = [&](std::size_t done) {
    const std::lock_guard<std::mutex> lock(seen_mutex);
    seen.push_back(done);
  };
  xeb_sweep(nc, 0, vb, sopts);
  ASSERT_EQ(seen.size(), 1u + 3u * nc.noise_count());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(SweepProperties, WorkspaceBudgetFallbackStaysBitIdentical) {
  // A budget that admits the per-term plans but not the combined batch:
  // the engine must fall back to per-output session replay and keep every
  // value bit-identical, at any shard size.
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 505);
  std::mt19937_64 rng(79);
  const std::vector<std::uint64_t> vb = random_bitstrings(16, 11, rng);
  ApproxOptions base;
  base.level = 1;
  base.eval = tn_eval();
  base.eval.tn.greedy_cost_weights = {1.0};
  std::vector<ApproxResult> refs;
  for (const std::uint64_t v : vb) refs.push_back(approximate_fidelity(nc, 0, v, base));

  // Budget = the per-term plan arena of the noise skeleton: per-output
  // session replay fits exactly, the combined batch does not.
  std::vector<qc::Gate> skeleton;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      skeleton.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    skeleton.push_back(noise.num_qubits() == 1
                           ? qc::u1q(noise.qubit, la::Matrix::identity(2))
                           : qc::u2q(noise.qubit, noise.qubit2, la::Matrix::identity(4)));
  }
  const tn::Network net = amplitude_network(16, skeleton, 0, 0, false);
  ApproxOptions budgeted = base;
  budgeted.eval.tn.max_workspace_elems =
      tn::ContractionPlan::compile(net, base.eval.tn).workspace_elems();

  for (const std::size_t shard : {3ul, 11ul}) {
    SweepOptions sopts;
    sopts.approx = budgeted;
    sopts.approx.threads = 2;
    sopts.shard_outputs = shard;
    const ApproxBatchResult sweep = xeb_sweep(nc, 0, vb, sopts);
    for (std::size_t o = 0; o < vb.size(); ++o) {
      EXPECT_EQ(refs[o].raw.real(), sweep.raw[o].real()) << "shard " << shard;
      EXPECT_EQ(refs[o].raw.imag(), sweep.raw[o].imag()) << "shard " << shard;
    }
  }
}

// --- sharded trajectory sweep -------------------------------------------------

TEST(SweepProperties, TrajectorySweepBitIdenticalAcrossShardsAndThreads) {
  // A 3x3 grid keeps the per-sample contractions small enough to afford
  // the full shard x thread x backend cross under the sanitizer jobs.
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(9, 1, 5), 3, bench::depolarizing_noise(0.02), 31);
  std::mt19937_64 rng(80);
  std::vector<std::uint64_t> vb = random_bitstrings(9, 5, rng);
  vb.push_back(vb[2]);  // duplicate
  sim::ParallelOptions serial;
  serial.threads = 1;
  sim::ParallelOptions quad;
  quad.threads = 4;
  const std::size_t K = vb.size();

  for (const EvalOptions& eval : {tn_eval(), sv_eval()}) {
    std::vector<sim::TrajectoryResult> refs;
    for (const std::uint64_t v : vb)
      refs.push_back(trajectories_tn(nc, 0, v, 48, 7, serial, eval));
    for (const std::size_t shard : {std::size_t{1}, std::size_t{3}, K}) {
      for (const sim::ParallelOptions& popts : {serial, quad}) {
        const auto sweep = trajectories_tn_sweep(nc, 0, vb, 48, 7, popts, eval, shard);
        ASSERT_EQ(sweep.size(), K);
        for (std::size_t o = 0; o < K; ++o) {
          EXPECT_EQ(refs[o].mean, sweep[o].mean)
              << "shard " << shard << " threads " << popts.threads << " output " << o;
          EXPECT_EQ(refs[o].std_error, sweep[o].std_error)
              << "shard " << shard << " threads " << popts.threads << " output " << o;
        }
      }
    }
  }
}

// --- degenerate inputs across every output-batched API ------------------------

TEST(SweepProperties, EmptyBitstringSpansAreWellDefinedEverywhere) {
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(16, 1, 7), 2, bench::depolarizing_noise(0.01), 11);
  sim::ParallelOptions popts;
  for (const EvalOptions& eval : {tn_eval(), sv_eval()}) {
    // batch_amplitudes: empty result, no compiled capacity-0 plan.
    EXPECT_TRUE(
        batch_amplitudes(16, nc.gates_only().gates(), 0, {}, false, eval).empty());

    // approximate_fidelity_outputs / xeb_sweep: bounds only.
    ApproxOptions aopts;
    aopts.level = 1;
    aopts.eval = eval;
    const ApproxBatchResult outputs = approximate_fidelity_outputs(nc, 0, {}, aopts);
    EXPECT_TRUE(outputs.values.empty());
    EXPECT_TRUE(outputs.raw.empty());
    EXPECT_EQ(outputs.contractions, 0u);
    EXPECT_GT(outputs.tight_error_bound, 0.0);

    SweepOptions sopts;
    sopts.approx = aopts;
    sopts.shard_outputs = 4;
    const ApproxBatchResult sweep = xeb_sweep(nc, 0, {}, sopts);
    EXPECT_TRUE(sweep.values.empty());
    EXPECT_EQ(sweep.contractions, 0u);
    EXPECT_GT(sweep.tight_error_bound, 0.0);

    // Trajectory sweeps: no outputs -> no estimates; zero samples -> K
    // empty estimates (and no capacity-0 plans on either path).
    EXPECT_TRUE(trajectories_tn_sweep(nc, 0, {}, 10, 7, popts, eval).empty());
    const std::vector<std::uint64_t> vb{0, 1, 2};
    const auto zero = trajectories_tn_sweep(nc, 0, vb, 0, 7, popts, eval);
    ASSERT_EQ(zero.size(), vb.size());
    for (const sim::TrajectoryResult& r : zero) {
      EXPECT_EQ(r.samples, 0u);
      EXPECT_EQ(r.mean, 0.0);
      EXPECT_EQ(r.std_error, 0.0);
    }
  }
}

}  // namespace
}  // namespace noisim::core
