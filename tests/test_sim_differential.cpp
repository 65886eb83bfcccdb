// Bitwise differential suite for the sim engines: the fused kernel layer
// (sim/kernels.hpp), the one-pass density engine at every thread count and
// the checkpointed trajectory sampler must reproduce the straightforward
// implementations in sim_reference.hpp to the last bit -- compared with
// memcmp, so signed zeros count too. The phased runner under the density
// engine (sim::run_phases) is covered here as well.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "core/approx.hpp"
#include "fault/fault.hpp"
#include "linalg/qr.hpp"
#include "sim/density.hpp"
#include "sim/sv_sampler.hpp"
#include "sim/trajectories.hpp"
#include "sim_reference.hpp"

namespace noisim::sim {
namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(const cplx* a, const cplx* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(cplx)) == 0;
}

bool same_bits(const TrajectoryResult& a, const TrajectoryResult& b) {
  return a.samples == b.samples && same_bits(a.mean, b.mean) && same_bits(a.std_error, b.std_error);
}

/// a := max(a, v), atomically.
void raise_to(std::atomic<std::size_t>& a, std::size_t v) {
  std::size_t m = a.load();
  while (v > m && !a.compare_exchange_weak(m, v)) {
  }
}

la::Matrix random_matrix(std::size_t dim, std::mt19937_64& rng) {
  std::normal_distribution<double> g(0.0, 1.0);
  la::Matrix m(dim, dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c < dim; ++c) m(r, c) = cplx{g(rng), g(rng)};
  return m;
}

/// A channel whose last Kraus operator is exactly zero (Born probability 0).
ch::Channel flip_with_zero_op(double p) {
  const double a = std::sqrt(1.0 - p), b = std::sqrt(p);
  return ch::Channel("flip+zero", {la::Matrix{{a, 0}, {0, a}}, la::Matrix{{0, b}, {b, 0}},
                                   la::Matrix{{0, 0}, {0, 0}}});
}

/// Seeded random noisy circuit: standard and custom (Haar) 1- and 2-qubit
/// gates, 1- and 2-qubit catalog channels at rates high enough that
/// trajectories diverge often, and the zero-operator channel.
ch::NoisyCircuit random_noisy_circuit(int n, int gates, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> q(0, n - 1);
  std::uniform_int_distribution<int> kind(0, 8);
  std::uniform_int_distribution<int> noise_kind(0, 5);
  std::uniform_real_distribution<double> angle(-3.0, 3.0), rate(0.02, 0.3), coin(0.0, 1.0);
  ch::NoisyCircuit nc(n);
  auto pair = [&] {
    int a = q(rng), b = q(rng);
    if (a == b) b = (a + 1) % n;
    return std::pair{a, b};
  };
  for (int i = 0; i < gates; ++i) {
    switch (kind(rng)) {
      case 0: nc.add_gate(qc::h(q(rng))); break;
      case 1: nc.add_gate(qc::t(q(rng))); break;
      case 2: nc.add_gate(qc::rx(q(rng), angle(rng))); break;
      case 3: nc.add_gate(qc::rz(q(rng), angle(rng))); break;
      case 4: nc.add_gate(qc::u1q(q(rng), la::random_unitary(2, rng))); break;
      case 5: {
        const auto [a, b] = pair();
        nc.add_gate(qc::u2q(a, b, la::random_unitary(4, rng)));
        break;
      }
      case 6: {
        const auto [a, b] = pair();
        nc.add_gate(qc::fsim(a, b, angle(rng), angle(rng)));
        break;
      }
      default: {
        const auto [a, b] = pair();
        nc.add_gate(qc::cx(a, b));
      }
    }
    if (coin(rng) > 0.4) continue;
    switch (noise_kind(rng)) {
      case 0: nc.add_noise(q(rng), ch::depolarizing(rate(rng))); break;
      case 1: nc.add_noise(q(rng), ch::amplitude_damping(rate(rng))); break;
      case 2: nc.add_noise(q(rng), ch::thermal_relaxation(rate(rng), 1.0, 1.2)); break;
      case 3: nc.add_noise(q(rng), flip_with_zero_op(rate(rng))); break;
      default: {
        const auto [a, b] = pair();
        nc.add_noise_2q(a, b, ch::two_qubit_depolarizing(rate(rng)));
      }
    }
  }
  return nc;
}

TEST(KernelDifferential, StatevectorKernelsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    const int n = 2 + static_cast<int>(seed % 5);
    std::uniform_int_distribution<int> q(0, n - 1);
    la::Vector init = la::Vector(std::size_t{1} << n);
    std::normal_distribution<double> g(0.0, 1.0);
    for (std::size_t i = 0; i < init.size(); ++i) init[i] = cplx{g(rng), g(rng)};
    // Exact zeros of both signs exercise the signed-zero arithmetic.
    init[0] = cplx{-0.0, 0.0};
    init[init.size() - 1] = cplx{0.0, -0.0};
    Statevector sv = Statevector::from_vector(n, init);
    reference::State ref(sv.data(), sv.data() + sv.size());

    for (int step = 0; step < 40; ++step) {
      const int a = q(rng);
      if (step % 3 == 0 && n > 1) {
        int b = q(rng);
        if (b == a) b = (a + 1) % n;
        const la::Matrix m = random_matrix(4, rng);
        sv.apply_matrix2(m, a, b);
        reference::kernel2(ref, m, reference::sv_bit(n, a), reference::sv_bit(n, b));
      } else {
        const la::Matrix m = random_matrix(2, rng);
        sv.apply_matrix1(m, a);
        reference::kernel1(ref, m, reference::sv_bit(n, a));
      }
      ASSERT_TRUE(same_bits(sv.data(), ref.data(), ref.size())) << "seed " << seed;
      const la::Matrix e = random_matrix(2, rng);
      const cplx got = sv.expectation1(e, a), want = reference::expectation1(ref, n, e, a);
      ASSERT_TRUE(same_bits(&got, &want, 1)) << "seed " << seed;
    }
    EXPECT_TRUE(same_bits(sv.norm2(), reference::norm2(ref)));
  }
}

TEST(KernelDifferential, SignedZerosMatchReference) {
  // All-zero states keep every product a signed zero, so only the exact
  // operation order -- including each 4x4 row and each Kraus sum starting
  // from +0 -- reproduces the reference's signs.
  std::mt19937_64 rng(11);
  const int n = 4;
  la::Vector zeros(std::size_t{1} << n);
  for (std::size_t i = 0; i < zeros.size(); ++i) zeros[i] = cplx{-0.0, -0.0};
  Statevector sv = Statevector::from_vector(n, zeros);
  reference::State ref(sv.data(), sv.data() + sv.size());
  for (int step = 0; step < 12; ++step) {
    const la::Matrix m2 = random_matrix(2, rng), m4 = random_matrix(4, rng);
    sv.apply_matrix1(m2, step % n);
    reference::kernel1(ref, m2, reference::sv_bit(n, step % n));
    sv.apply_matrix2(m4, step % n, (step + 1) % n);
    reference::kernel2(ref, m4, reference::sv_bit(n, step % n),
                       reference::sv_bit(n, (step + 1) % n));
    ASSERT_TRUE(same_bits(sv.data(), ref.data(), ref.size())) << "step " << step;
  }

  // The same for rho, op by op. Single-operator channels make
  // E X E^dag's own signed zeros visible in the Kraus sum.
  ch::NoisyCircuit nc(3);
  for (int step = 0; step < 4; ++step) {
    nc.add_gate(qc::u1q(step % 3, random_matrix(2, rng)));
    nc.add_noise(step % 3, ch::Channel("unitary", {la::random_unitary(2, rng)}));
    nc.add_gate(qc::u2q(step % 3, (step + 1) % 3, random_matrix(4, rng)));
    nc.add_noise_2q((step + 2) % 3, step % 3,
                    ch::Channel("unitary", {la::random_unitary(4, rng)}));
    nc.add_noise(step % 3, ch::phase_flip(0.3));
  }
  DensityMatrix dm = DensityMatrix::from_statevector(Statevector::from_vector(3, la::Vector(8)));
  const la::Matrix start = dm.to_matrix();
  reference::State rho(start.data(), start.data() + start.rows() * start.cols());
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      dm.apply_gate(*g);
      reference::density_gate(rho, 3, *g);
    } else {
      const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
      if (noise.num_qubits() == 1)
        dm.apply_channel(noise.channel, noise.qubit);
      else
        dm.apply_channel_2q(noise.channel, noise.qubit, noise.qubit2);
      reference::density_channel(rho, 3, noise);
    }
    const la::Matrix got = dm.to_matrix();
    ASSERT_TRUE(same_bits(got.data(), rho.data(), rho.size()));
  }
}

TEST(KernelDifferential, DensityEvolutionMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int n = 2 + static_cast<int>(seed % 4);
    const ch::NoisyCircuit nc = random_noisy_circuit(n, 24, seed);
    ASSERT_GT(nc.noise_count(), 0u);
    const std::uint64_t psi = seed % (std::uint64_t{1} << n);
    DensityMatrix dm = DensityMatrix::from_statevector(Statevector::basis(n, psi));
    dm.evolve(nc);
    reference::State ref = reference::density_basis(n, psi);
    reference::density_evolve(ref, nc);
    const la::Matrix got = dm.to_matrix();
    ASSERT_TRUE(same_bits(got.data(), ref.data(), ref.size())) << "seed " << seed;

    const std::uint64_t v = (seed * 5) % dm.dim();
    EXPECT_TRUE(same_bits(exact_fidelity_mm(nc, psi, v), ref[v * dm.dim() + v].real()));
  }
}

TEST(KernelDifferential, ApplyCircuitMatchesReference) {
  const ch::NoisyCircuit nc = random_noisy_circuit(5, 40, 21);
  const qc::Circuit gates = nc.gates_only();
  Statevector sv = Statevector::basis(5, 0b10110);
  sv.apply_circuit(gates);
  reference::State ref = reference::basis(5, 0b10110);
  for (const qc::Gate& g : gates.gates()) reference::apply_gate_sv(ref, 5, g);
  EXPECT_TRUE(same_bits(sv.data(), ref.data(), ref.size()));
}

// At or above kDensityParallelMinElems, so every thread count > 1 really
// splits rho into sweeps of slices; 3 threads never divide the 16 slices.
TEST(DensityThreads, EvolveIsBitIdenticalAtEveryThreadCount) {
  for (const int n : {6, 7, 9}) {
    ASSERT_GE(std::size_t{1} << (2 * n), kDensityParallelMinElems);
    // Kept short at n = 9 (a 2^18-element rho): the sanitizer jobs run it.
    const ch::NoisyCircuit nc = random_noisy_circuit(n, n == 7 ? 40 : 6, 300 + n);
    ASSERT_GT(nc.noise_count(), 0u);
    const std::uint64_t psi = (std::uint64_t{1} << n) - 3;
    reference::State ref = reference::density_basis(n, psi);
    reference::density_evolve(ref, nc);
    const std::uint64_t v = 5;
    for (const std::size_t threads : {1, 2, 3, 4}) {
      DensityMatrix dm = DensityMatrix::basis(n, psi);
      dm.evolve(nc, ParallelOptions{threads});
      const la::Matrix got = dm.to_matrix();
      ASSERT_TRUE(same_bits(got.data(), ref.data(), ref.size()))
          << "n " << n << " threads " << threads;
      if (n == 7) {
        EXPECT_TRUE(same_bits(exact_fidelity_mm(nc, psi, v, ParallelOptions{threads}),
                              ref[v * dm.dim() + v].real()))
            << "threads " << threads;
      }
    }
  }
}

TEST(DensityThreads, WorkerFaultUnwindsWithoutDeadlockAndLeavesNoTrace) {
  const int n = 7;
  const ch::NoisyCircuit nc = random_noisy_circuit(n, 30, 17);
  reference::State ref = reference::density_basis(n, 9);
  reference::density_evolve(ref, nc);
  for (const std::uint64_t nth : {1, 6, 4 * 10 + 3}) {
    fault::disarm_all();
    fault::arm("sim-phase", nth);
    DensityMatrix dm = DensityMatrix::basis(n, 9);
    EXPECT_THROW(dm.evolve(nc, ParallelOptions{4}), fault::FaultError) << "nth " << nth;
    EXPECT_TRUE(fault::fired("sim-phase"));
    // Every worker leaves in the phase that failed: at most one more poke
    // per sibling, never a further phase.
    EXPECT_EQ(fault::hits("sim-phase"), (nth + 3) / 4 * 4) << "nth " << nth;
    fault::disarm_all();
    DensityMatrix again = DensityMatrix::basis(n, 9);
    again.evolve(nc, ParallelOptions{4});
    const la::Matrix got = again.to_matrix();
    EXPECT_TRUE(same_bits(got.data(), ref.data(), ref.size())) << "nth " << nth;
  }
}

// run_phases on its own: every item of every phase exactly once, phases in
// order under either split, static ranges, one-item claims, and the inline
// / clamped corner cases.
TEST(RunPhases, EveryItemOncePhasesInOrder) {
  const std::vector<std::size_t> items = {7, 0, 1, 13, 4, 2};
  for (const PhaseSplit split : {PhaseSplit::Static, PhaseSplit::Dynamic})
  for (const std::size_t threads : {1, 2, 3, 4, 8}) {
    std::vector<std::vector<std::atomic<int>>> seen;
    for (const std::size_t k : items) seen.emplace_back(k);
    std::vector<std::atomic<std::size_t>> done(items.size());
    std::atomic<bool> ordered{true};
    std::atomic<std::size_t> max_worker{0};
    run_phases(
        threads, items.size(), [&](std::size_t p) { return items[p]; },
        [&](std::size_t p, std::size_t w, std::size_t begin, std::size_t end) {
          if (p > 0 && done[p - 1].load() != items[p - 1]) ordered = false;
          raise_to(max_worker, w);
          EXPECT_LT(begin, end);
          // Dynamic claims are single items once threads are started.
          if (split == PhaseSplit::Dynamic && threads > 1) {
            EXPECT_EQ(end, begin + 1);
          }
          for (std::size_t i = begin; i < end; ++i) seen[p][i].fetch_add(1);
          done[p].fetch_add(end - begin);
        },
        nullptr, split);
    EXPECT_TRUE(ordered.load()) << "threads " << threads;
    // Clamped to the widest phase (13 items).
    EXPECT_LT(max_worker.load(), std::min<std::size_t>(threads, 13));
    for (std::size_t p = 0; p < items.size(); ++p)
      for (std::size_t i = 0; i < items[p]; ++i)
        EXPECT_EQ(seen[p][i].load(), 1) << "threads " << threads << " phase " << p;
  }
}

TEST(RunPhases, StaticBalancedRanges) {
  // 10 items on 4 workers: sizes 3, 3, 2, 2, worker w always owning range w.
  std::vector<std::pair<std::size_t, std::size_t>> ranges(4);
  run_phases(
      4, 1, [](std::size_t) { return std::size_t{10}; },
      [&](std::size_t, std::size_t w, std::size_t begin, std::size_t end) {
        ranges[w] = {begin, end};
      });
  const std::vector<std::pair<std::size_t, std::size_t>> want = {{0, 3}, {3, 6}, {6, 8}, {8, 10}};
  EXPECT_EQ(ranges, want);
}

TEST(RunPhases, EdgeCases) {
  // No items: the body never runs.
  int calls = 0;
  run_phases(
      4, 3, [](std::size_t) { return std::size_t{0}; },
      [&](std::size_t, std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  run_phases(
      4, 0, [](std::size_t) { return std::size_t{5}; },
      [&](std::size_t, std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  // One item, many threads: inline on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  run_phases(
      16, 1, [](std::size_t) { return std::size_t{1}; },
      [&](std::size_t, std::size_t w, std::size_t begin, std::size_t end) {
        EXPECT_EQ(w, 0u);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 1u);
        ran_on = std::this_thread::get_id();
      });
  EXPECT_EQ(ran_on, caller);

  // A single phase with more threads than items: one item per worker.
  std::vector<std::atomic<int>> hit(3);
  run_phases(
      8, 1, [](std::size_t) { return std::size_t{3}; },
      [&](std::size_t, std::size_t w, std::size_t begin, std::size_t end) {
        EXPECT_EQ(end, begin + 1);
        EXPECT_EQ(begin, w);
        hit[begin].fetch_add(1);
      });
  for (const auto& h : hit) EXPECT_EQ(h.load(), 1);
}

TEST(RunPhases, StopsEveryWorkerInTheFailingPhase) {
  for (const PhaseSplit split : {PhaseSplit::Static, PhaseSplit::Dynamic})
  for (const std::size_t threads : {1, 4}) {
    // A body throw in phase 3 on one worker: no worker starts phase 4.
    std::atomic<std::size_t> last_phase{0};
    EXPECT_THROW(run_phases(
                     threads, 10, [](std::size_t) { return std::size_t{64}; },
                     [&](std::size_t p, std::size_t, std::size_t begin, std::size_t) {
                       raise_to(last_phase, p);
                       if (p == 3 && begin == 0) throw std::runtime_error("body");
                     },
                     nullptr, split),
                 std::runtime_error);
    EXPECT_EQ(last_phase.load(), 3u) << "threads " << threads;

    // A cancel requested inside phase 3 is seen by every worker's poll at
    // the start of phase 4.
    core::RunControl control;
    last_phase = 0;
    EXPECT_THROW(run_phases(
                     threads, 10, [](std::size_t) { return std::size_t{64}; },
                     [&](std::size_t p, std::size_t, std::size_t, std::size_t) {
                       raise_to(last_phase, p);
                       if (p == 3) control.request_cancel();
                     },
                     &control, split),
                 CancelledError);
    EXPECT_EQ(last_phase.load(), 3u) << "threads " << threads;

    control.reset();
    control.set_deadline(core::RunControl::Clock::now() - std::chrono::milliseconds(1));
    // An expired deadline stops the run before any body.
    std::atomic<int> ran{0};
    EXPECT_THROW(run_phases(
                     threads, 10, [](std::size_t) { return std::size_t{64}; },
                     [&](std::size_t, std::size_t, std::size_t, std::size_t) { ran.fetch_add(1); },
                     &control, split),
                 TimeoutError);
    EXPECT_EQ(ran.load(), 0);
  }
}

TEST(RunPhases, ApproximateFidelityIsBitIdenticalAcrossThreads) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(9, 1, 5), 4, bench::depolarizing_noise(0.02), 9);
  for (const bool reuse : {true, false}) {
    core::ApproxOptions opts;
    opts.level = 2;
    opts.reuse_plans = reuse;
    opts.threads = 1;
    const core::ApproxResult serial = core::approximate_fidelity(nc, 0, 0, opts);
    opts.threads = 4;
    const core::ApproxResult parallel = core::approximate_fidelity(nc, 0, 0, opts);
    EXPECT_TRUE(same_bits(parallel.value, serial.value)) << "reuse " << reuse;
    ASSERT_EQ(parallel.level_values.size(), serial.level_values.size());
    for (std::size_t u = 0; u < serial.level_values.size(); ++u)
      EXPECT_TRUE(same_bits(parallel.level_values[u], serial.level_values[u]));
    EXPECT_EQ(parallel.contractions, serial.contractions);
  }
}

TEST(KernelDifferential, ZeroProbabilityKrausOperator) {
  // Every noise site carries a zero Kraus operator; with p = 1 the flip
  // operator takes all the weight and the identity-like one none.
  ch::NoisyCircuit nc(3);
  nc.add_gate(qc::h(0)).add_gate(qc::cx(0, 1));
  nc.add_noise(1, flip_with_zero_op(1.0));
  nc.add_gate(qc::rx(2, 0.7));
  nc.add_noise(0, flip_with_zero_op(0.5));
  nc.add_noise(2, flip_with_zero_op(0.0));

  DensityMatrix dm = DensityMatrix::from_statevector(Statevector::basis(3, 0b011));
  dm.evolve(nc);
  reference::State ref = reference::density_basis(3, 0b011);
  reference::density_evolve(ref, nc);
  const la::Matrix got = dm.to_matrix();
  EXPECT_TRUE(same_bits(got.data(), ref.data(), ref.size()));

  std::mt19937_64 a(5), b(5);
  const TrajectoryResult traj = trajectories_sv(nc, 0b011, 0b101, 300, a);
  EXPECT_TRUE(same_bits(traj, reference::trajectories(nc, 0b011, 0b101, 300, b)));
}

TEST(TrajectoryDifferential, SamplerMatchesReferenceAtEveryCheckpointDepth) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const int n = 3 + static_cast<int>(seed % 3);
    const ch::NoisyCircuit nc = random_noisy_circuit(n, 20, seed + 100);
    const std::uint64_t psi = (seed * 3) % (std::uint64_t{1} << n);
    const std::uint64_t v = seed % (std::uint64_t{1} << n);
    const SvProgram prog(nc, psi, v);
    ASSERT_GE(prog.sites(), 3u);
    // Depth 0 replays every level; depth 1 and 2 mix stored and replayed
    // levels; the full depth stores every level.
    for (const std::size_t depth : {std::size_t{0}, std::size_t{1}, std::size_t{2}, prog.sites()}) {
      SvSampler sampler(prog, depth);
      ASSERT_EQ(sampler.stored_levels(), depth);
      std::mt19937_64 rng(seed), ref_rng(seed), fresh_rng(seed);
      for (int s = 0; s < 200; ++s) {
        const double want = reference::sample_trajectory(nc, psi, v, ref_rng);
        ASSERT_TRUE(same_bits(sampler(rng), want)) << "seed " << seed << " depth " << depth;
        ASSERT_TRUE(same_bits(SvSampler(prog, 0)(fresh_rng), want));
      }
      // Same number of draws consumed, so the streams stay in lockstep.
      EXPECT_EQ(rng(), ref_rng());
    }
  }
}

TEST(TrajectoryDifferential, SingleSampleMatchesReference) {
  const ch::NoisyCircuit nc = random_noisy_circuit(4, 16, 77);
  std::mt19937_64 a(9), b(9);
  for (int s = 0; s < 50; ++s)
    ASSERT_TRUE(same_bits(sample_trajectory_sv(nc, 0b0110, 0b0011, a),
                          reference::sample_trajectory(nc, 0b0110, 0b0011, b)));
}

TEST(TrajectoryDifferential, EstimatesMatchReferenceAcrossThreadsAndChunks) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ch::NoisyCircuit nc = random_noisy_circuit(5, 18, seed + 200);
    const std::uint64_t psi = seed, v = seed * 7 % 32;
    for (const std::size_t chunk : {1, 7, 32}) {
      ParallelOptions ref_opts;
      ref_opts.threads = 1;
      ref_opts.chunk_size = chunk;
      const TrajectoryResult want = reference::trajectories(nc, psi, v, 400, seed, ref_opts);
      for (const std::size_t threads : {1, 4}) {
        ParallelOptions opts;
        opts.threads = threads;
        opts.chunk_size = chunk;
        EXPECT_TRUE(same_bits(trajectories_sv(nc, psi, v, 400, seed, opts), want))
            << "seed " << seed << " chunk " << chunk << " threads " << threads;
      }
    }
    std::mt19937_64 a(seed), b(seed);
    EXPECT_TRUE(same_bits(trajectories_sv(nc, psi, v, 400, a),
                          reference::trajectories(nc, psi, v, 400, b)));
  }
}

TEST(TrajectoryDifferential, NoiselessCircuitNeedsNoDraws) {
  ch::NoisyCircuit nc(3);
  nc.add_gate(qc::h(0)).add_gate(qc::cx(0, 2));
  std::mt19937_64 a(3), b(3);
  EXPECT_TRUE(same_bits(trajectories_sv(nc, 0, 0b101, 20, a),
                        reference::trajectories(nc, 0, 0b101, 20, b)));
  EXPECT_EQ(a(), b());
}

TEST(TrajectoryDifferential, CheckpointDepthIsCapped) {
  EXPECT_EQ(sv_checkpoint_levels(8, 6), 6u);
  EXPECT_EQ(sv_checkpoint_levels(16, 100), 64u);
  EXPECT_EQ(sv_checkpoint_levels(20, 10), 4u);
  EXPECT_EQ(sv_checkpoint_levels(22, 10), 1u);
  EXPECT_EQ(sv_checkpoint_levels(23, 10), 0u);
  EXPECT_EQ(sv_checkpoint_levels(26, 10), 0u);

  // Programs are compiled without allocating any state, so the wide cases
  // cost nothing here.
  for (const int n : {21, 23}) {
    ch::NoisyCircuit nc(n);
    for (int q = 0; q < 5; ++q) nc.add_gate(qc::h(q)).add_noise(q, ch::depolarizing(0.01));
    const SvProgram prog(nc, 0, 0);
    const std::size_t levels = sv_checkpoint_levels(n, prog.sites());
    EXPECT_EQ(levels, n == 21 ? 2u : 0u);
    EXPECT_EQ(SvSampler(prog, levels).stored_levels(), levels);
    // The cost model counts the working state plus the checkpoints.
    EXPECT_EQ(sv_trajectory_cost(nc).peak_elems, (std::size_t{1} << n) * (1 + levels));
  }
}

}  // namespace
}  // namespace noisim::sim
