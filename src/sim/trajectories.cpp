#include "sim/trajectories.hpp"

#include <cmath>
#include <limits>

#include "sim/sv_sampler.hpp"

namespace noisim::sim {

double sample_trajectory_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::uint64_t v_bits, std::mt19937_64& rng) {
  const SvProgram prog(nc, psi_bits, v_bits);
  return SvSampler(prog, 0)(rng);
}

TrajectoryResult trajectories_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 std::uint64_t v_bits, std::size_t samples,
                                 std::mt19937_64& rng) {
  // Zero samples is a well-defined (empty) estimate, not an error.
  if (samples == 0) return {};
  const SvProgram prog(nc, psi_bits, v_bits);
  SvSampler sampler(prog, sv_checkpoint_levels(prog.num_qubits(), prog.sites()));
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const double f = sampler(rng);
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

TrajectoryResult trajectories_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 std::uint64_t v_bits, std::size_t samples, std::uint64_t seed,
                                 const ParallelOptions& opts) {
  const SvProgram prog(nc, psi_bits, v_bits);
  const std::size_t levels = sv_checkpoint_levels(prog.num_qubits(), prog.sites());
  // One sampler per worker: each owns its checkpoint stack.
  return run_trajectories(
      samples, seed,
      [&](std::size_t) -> Sampler {
        return [sampler = SvSampler(prog, levels)](std::mt19937_64& rng) mutable {
          return sampler(rng);
        };
      },
      opts);
}

std::size_t hoeffding_samples(double accuracy, double failure_prob) {
  la::detail::require(accuracy > 0.0, "hoeffding_samples: accuracy must be positive");
  // ln(2/failure) must be positive: failure_prob >= 2 would yield a
  // non-positive sample count (and a huge bogus value once cast to size_t).
  la::detail::require(failure_prob > 0.0 && failure_prob < 2.0,
                      "hoeffding_samples: failure_prob must be in (0, 2)");
  const double r = std::ceil(std::log(2.0 / failure_prob) / (2.0 * accuracy * accuracy));
  // Saturate: a count past SIZE_MAX (accuracy <~ 1e-10) is unreachable
  // anyway, and casting it would be undefined behaviour.
  constexpr auto kMax = std::numeric_limits<std::size_t>::max();
  if (!(r < static_cast<double>(kMax))) return kMax;
  return static_cast<std::size_t>(r);
}

double hoeffding_accuracy(std::size_t samples, double failure_prob) {
  la::detail::require(samples > 0, "hoeffding_accuracy: samples must be positive");
  la::detail::require(failure_prob > 0.0 && failure_prob < 2.0,
                      "hoeffding_accuracy: failure_prob must be in (0, 2)");
  return std::sqrt(std::log(2.0 / failure_prob) / (2.0 * static_cast<double>(samples)));
}

TrajectoryCost sv_trajectory_cost(const ch::NoisyCircuit& nc) {
  // 2^n clamped so the double model stays finite and the size_t cast below
  // cannot overflow; at such widths every memory budget fails anyway.
  const double dim = std::pow(2.0, std::min(nc.num_qubits(), 62));
  TrajectoryCost out;
  bool scratch_copy = false;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      out.per_sample_flops += (g->num_qubits() == 1 ? 2.0 : 4.0) * dim;
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    const double apply = (noise.num_qubits() == 1 ? 2.0 : 4.0) * dim;
    if (noise.num_qubits() == 2) scratch_copy = true;
    // Born sampling evaluates each candidate (a local expectation or a
    // scratch apply + norm), then applies and renormalizes the winner.
    out.per_sample_flops +=
        (static_cast<double>(noise.channel.kraus().size()) + 2.0) * apply;
  }
  // The working state, the 2-qubit Born scratch, and the checkpoints.
  const double states =
      1.0 + (scratch_copy ? 1.0 : 0.0) +
      static_cast<double>(sv_checkpoint_levels(nc.num_qubits(), nc.noise_count()));
  out.peak_elems = static_cast<std::size_t>(dim * states);
  return out;
}

}  // namespace noisim::sim
