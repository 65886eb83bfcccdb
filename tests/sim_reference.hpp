#pragma once
// Test-only references for the sim engines: the straightforward
// full-range std::complex kernels, the K-copy density channel, the
// replay-every-sample trajectory loop that src/sim/ used before its fused
// kernel layer and checkpointed sampler, and the trajectory runner's
// chunk/merge contract as a serial loop. The differential suite
// (test_sim_differential.cpp) requires the library to match these
// bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "sim/parallel.hpp"

namespace noisim::sim::reference {

using State = std::vector<cplx>;

// Apply a 2x2 / 4x4 matrix at the given bit position(s) of the flat index.
inline void kernel1(State& v, const la::Matrix& m, std::size_t bit) {
  const cplx m00 = m(0, 0), m01 = m(0, 1), m10 = m(1, 0), m11 = m(1, 1);
  const std::size_t size = v.size();
  for (std::size_t i = 0; i < size; ++i) {
    if (i & bit) continue;
    const cplx a0 = v[i], a1 = v[i | bit];
    v[i] = m00 * a0 + m01 * a1;
    v[i | bit] = m10 * a0 + m11 * a1;
  }
}

inline void kernel2(State& v, const la::Matrix& m, std::size_t bit_hi, std::size_t bit_lo) {
  const std::size_t size = v.size();
  for (std::size_t i = 0; i < size; ++i) {
    if (i & (bit_hi | bit_lo)) continue;
    cplx old[4], neu[4];
    for (std::size_t t = 0; t < 4; ++t)
      old[t] = v[i | ((t & 2) ? bit_hi : 0) | ((t & 1) ? bit_lo : 0)];
    for (std::size_t r = 0; r < 4; ++r) {
      neu[r] = cplx{0.0, 0.0};
      for (std::size_t c = 0; c < 4; ++c) neu[r] += m(r, c) * old[c];
    }
    for (std::size_t t = 0; t < 4; ++t)
      v[i | ((t & 2) ? bit_hi : 0) | ((t & 1) ? bit_lo : 0)] = neu[t];
  }
}

inline std::size_t sv_bit(int n, int q) { return std::size_t{1} << (n - 1 - q); }

inline cplx expectation1(const State& v, int n, const la::Matrix& m, int q) {
  const std::size_t bit = sv_bit(n, q);
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i & bit) continue;
    const cplx a0 = v[i], a1 = v[i | bit];
    s += std::conj(a0) * (m(0, 0) * a0 + m(0, 1) * a1);
    s += std::conj(a1) * (m(1, 0) * a0 + m(1, 1) * a1);
  }
  return s;
}

inline double norm2(const State& v) {
  double s = 0.0;
  for (const cplx& a : v) s += std::norm(a);
  return s;
}

inline State basis(int n, std::uint64_t bits) {
  State v(std::size_t{1} << n, cplx{0.0, 0.0});
  v[bits] = cplx{1.0, 0.0};
  return v;
}

inline void apply_gate_sv(State& v, int n, const qc::Gate& g) {
  if (g.num_qubits() == 1)
    kernel1(v, g.matrix(), sv_bit(n, g.qubits[0]));
  else
    kernel2(v, g.matrix(), sv_bit(n, g.qubits[0]), sv_bit(n, g.qubits[1]));
}

// --- density matrix ---------------------------------------------------------

/// |psi><psi| for a basis state, row-major 4^n.
inline State density_basis(int n, std::uint64_t psi_bits) {
  const std::size_t d = std::size_t{1} << n;
  State rho(d * d, cplx{0.0, 0.0});
  rho[psi_bits * d + psi_bits] = cplx{1.0, 0.0};
  return rho;
}

inline void density_gate(State& rho, int n, const qc::Gate& g) {
  const la::Matrix u = g.matrix();
  const int two_n = 2 * n;
  if (g.num_qubits() == 1) {
    kernel1(rho, u, std::size_t{1} << (two_n - 1 - g.qubits[0]));
    kernel1(rho, u.conj(), std::size_t{1} << (n - 1 - g.qubits[0]));
  } else {
    kernel2(rho, u, std::size_t{1} << (two_n - 1 - g.qubits[0]),
            std::size_t{1} << (two_n - 1 - g.qubits[1]));
    kernel2(rho, u.conj(), std::size_t{1} << (n - 1 - g.qubits[0]),
            std::size_t{1} << (n - 1 - g.qubits[1]));
  }
}

inline void density_channel(State& rho, int n, const ch::NoiseOp& noise) {
  State acc(rho.size(), cplx{0.0, 0.0});
  State buf;
  for (const la::Matrix& k : noise.channel.kraus()) {
    buf = rho;
    if (noise.num_qubits() == 1) {
      kernel1(buf, k, std::size_t{1} << (2 * n - 1 - noise.qubit));
      kernel1(buf, k.conj(), std::size_t{1} << (n - 1 - noise.qubit));
    } else {
      kernel2(buf, k, std::size_t{1} << (2 * n - 1 - noise.qubit),
              std::size_t{1} << (2 * n - 1 - noise.qubit2));
      kernel2(buf, k.conj(), std::size_t{1} << (n - 1 - noise.qubit),
              std::size_t{1} << (n - 1 - noise.qubit2));
    }
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += buf[i];
  }
  rho = std::move(acc);
}

inline void density_evolve(State& rho, const ch::NoisyCircuit& nc) {
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op))
      density_gate(rho, nc.num_qubits(), *g);
    else
      density_channel(rho, nc.num_qubits(), std::get<ch::NoiseOp>(op));
  }
}

// --- trajectories -------------------------------------------------------------

/// One trajectory, replaying the whole circuit.
inline double sample_trajectory(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                std::uint64_t v_bits, std::mt19937_64& rng) {
  const int n = nc.num_qubits();
  State sv = basis(n, psi_bits);
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      apply_gate_sv(sv, n, *g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    const auto& kraus = noise.channel.kraus();
    const bool two_qubit = noise.num_qubits() == 2;

    auto born = [&](std::size_t k) {
      if (!two_qubit)
        return expectation1(sv, n, kraus[k].adjoint() * kraus[k], noise.qubit).real();
      State scratch = sv;
      kernel2(scratch, kraus[k], sv_bit(n, noise.qubit), sv_bit(n, noise.qubit2));
      return norm2(scratch);
    };

    double cumulative = 0.0;
    const double u = unif(rng);
    std::size_t chosen = kraus.size() - 1;
    double p_chosen = 0.0;
    for (std::size_t k = 0; k < kraus.size(); ++k) {
      const double pk = born(k);
      cumulative += pk;
      if (u < cumulative) {
        chosen = k;
        p_chosen = pk;
        break;
      }
      p_chosen = pk;
    }
    if (two_qubit)
      kernel2(sv, kraus[chosen], sv_bit(n, noise.qubit), sv_bit(n, noise.qubit2));
    else
      kernel1(sv, kraus[chosen], sv_bit(n, noise.qubit));
    if (p_chosen > 0.0) {
      const double scale = 1.0 / std::sqrt(p_chosen);
      kernel1(sv, la::Matrix{{scale, 0}, {0, scale}}, sv_bit(n, noise.qubit));
    }
  }
  return std::norm(sv[v_bits]);
}

/// The serial-rng estimator.
inline TrajectoryResult trajectories(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                     std::uint64_t v_bits, std::size_t samples,
                                     std::mt19937_64& rng) {
  if (samples == 0) return {};
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const double f = sample_trajectory(nc, psi_bits, v_bits, rng);
    sum += f;
    sum_sq += f * f;
  }
  TrajectoryResult out;
  out.samples = samples;
  out.mean = sum / static_cast<double>(samples);
  if (samples > 1) {
    const double var =
        (sum_sq - sum * sum / static_cast<double>(samples)) / static_cast<double>(samples - 1);
    out.std_error = std::sqrt(std::max(0.0, var) / static_cast<double>(samples));
  }
  return out;
}

/// One trajectory scored for every estimate: values[o] for estimate o.
using Trajectory = std::function<void(std::mt19937_64&, std::span<double>)>;

/// The trajectory runner's contract as a plain serial loop: chunk c holds
/// trajectories [c * chunk_size, (c + 1) * chunk_size) and draws them in
/// order from chunk_rng(seed, c); each (chunk, estimate) pair has its own
/// Welford, and the chunks merge in chunk order. chunk_size must be > 0.
inline std::vector<TrajectoryResult> run_chunks(std::size_t samples, std::size_t num_estimates,
                                                std::uint64_t seed, std::size_t chunk_size,
                                                const Trajectory& trajectory) {
  std::vector<Welford> total(num_estimates);
  std::vector<double> values(num_estimates);
  for (std::size_t c = 0; c * chunk_size < samples; ++c) {
    std::mt19937_64 rng = chunk_rng(seed, c);
    std::vector<Welford> chunk(num_estimates);
    const std::size_t end = std::min(samples, (c + 1) * chunk_size);
    for (std::size_t s = c * chunk_size; s < end; ++s) {
      trajectory(rng, values);
      for (std::size_t o = 0; o < num_estimates; ++o) chunk[o].add(values[o]);
    }
    for (std::size_t o = 0; o < num_estimates; ++o) total[o].merge(chunk[o]);
  }
  std::vector<TrajectoryResult> out(num_estimates);
  for (std::size_t o = 0; o < num_estimates; ++o) {
    out[o].samples = total[o].count;
    out[o].mean = total[o].mean;
    if (total[o].count > 1)
      out[o].std_error = std::sqrt(total[o].variance() / static_cast<double>(total[o].count));
  }
  return out;
}

/// The parallel estimator's seeded streams, drawn serially.
inline TrajectoryResult trajectories(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                     std::uint64_t v_bits, std::size_t samples,
                                     std::uint64_t seed, const ParallelOptions& opts) {
  return run_chunks(samples, 1, seed, opts.chunk_size,
                    [&](std::mt19937_64& rng, std::span<double> values) {
                      values[0] = sample_trajectory(nc, psi_bits, v_bits, rng);
                    })[0];
}

}  // namespace noisim::sim::reference
