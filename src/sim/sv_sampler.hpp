#pragma once
// The engine behind sim::trajectories_sv (sim/trajectories.hpp): a noisy
// circuit compiled once into a flat state-vector program, and a per-worker
// sampler that reuses the work shared between consecutive trajectories.
//
// SvProgram holds the circuit's ops compiled once (kernels::CompiledOps:
// gate matrices and Kraus operators) plus the 1-qubit Born operators
// E_k^dag E_k (formed as the la::Matrix product k.adjoint() * k, so their
// bits match a direct evaluation). The ops fall into segments: segment j
// is the run of gates before noise site j, segment sites() the trailing
// gates.
//
// SvSampler exploits that at realistic noise rates almost every draw picks
// the same (no-jump) Kraus operator, so consecutive trajectories share a
// long prefix of their Kraus path. It remembers the last path it computed:
// at each noise site ("level") the chosen operator, the Born probabilities
// evaluated so far, and -- for the first stored_levels() levels -- the
// pre-noise state; plus the path's leaf value |<v|psi>|^2. A new sample
// still draws exactly one uniform per noise site, in op order, and picks
// its operator by the same inverse-CDF walk over the same probabilities
// (computing any not yet cached). While its choices match the cached path
// it reuses every level; at the first divergence it recomputes from that
// level's state, storing the new path as it goes. Every sample value is a
// pure function of its draws, so estimates are bitwise those of replaying
// the whole circuit per sample, at any thread count and chunk size.
//
// Stored states are capped at floor(kSvCheckpointElems / 2^n) per sampler
// (64 MiB of amplitudes); a level beyond the cap is rebuilt by replaying
// the cached path forward from the deepest stored level.

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "sim/kernels.hpp"

namespace noisim::sim {

/// Checkpoint budget of one SvSampler, in complex amplitudes.
inline constexpr std::size_t kSvCheckpointElems = std::size_t{1} << 22;

/// Pre-noise states an SvSampler stores for an n-qubit circuit with
/// `sites` noise sites: min(sites, floor(kSvCheckpointElems / 2^n)).
std::size_t sv_checkpoint_levels(int n, std::size_t sites);

class SvProgram {
 public:
  /// Compile `nc` for trajectories from |psi_bits> scored at <v_bits|.
  /// Throws LinalgError for out-of-range basis states or qubits.
  SvProgram(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits);

  int num_qubits() const { return n_; }
  std::size_t dim() const { return std::size_t{1} << n_; }
  std::size_t sites() const { return site_op_.size() - 1; }

 private:
  friend class SvSampler;

  /// state := the pre-noise state at site 0 (|psi> through segment 0).
  void start(std::vector<cplx>& state) const;
  /// Born probability ||E_k psi||^2 of noise site j's operator k;
  /// `scratch` (dim() elements) is used by 2-qubit sites.
  double born(const cplx* state, std::size_t j, std::size_t k, cplx* scratch) const;
  /// Apply operator k of noise site j (Born probability p), renormalize by
  /// 1/sqrt(p) when p > 0, then run the next segment: the pre-noise state
  /// at site j + 1 (or the final state after the last site).
  void advance(cplx* state, std::size_t j, std::size_t k, double p) const;
  /// The sample value |<v|state>|^2 of a final state.
  double leaf(const cplx* state) const { return std::norm(state[v_bits_]); }
  void run_segment(cplx* state, std::size_t segment) const;
  /// Noise site j's op.
  const kernels::CompiledOps::Op& site(std::size_t j) const { return ops_[site_op_[j]]; }
  std::size_t bit(int q) const { return std::size_t{1} << (n_ - 1 - q); }

  int n_ = 0;
  std::uint64_t psi_bits_ = 0, v_bits_ = 0;
  bool two_qubit_noise_ = false;
  kernels::CompiledOps ops_;               // every op, in circuit order
  std::vector<std::size_t> site_op_;       // op index of each site, then ops_.size()
  std::vector<std::vector<kernels::Mat2>> born1_;  // per site; empty for 2-qubit sites
};

class SvSampler {
 public:
  /// A sampler over `prog` (which must outlive it) storing at most
  /// `max_levels` pre-noise states; buffers are allocated on first use.
  SvSampler(const SvProgram& prog, std::size_t max_levels);

  /// One trajectory's value. The first call computes the whole path from
  /// |psi> (a fresh sampler is the uncheckpointed single-sample path);
  /// later calls reuse the cached path where their draws agree with it.
  double operator()(std::mt19937_64& rng);

  std::size_t stored_levels() const { return levels_; }

 private:
  struct Level {
    std::vector<double> probs;  // Born probabilities evaluated so far
    std::size_t choice = 0;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  cplx* checkpoint(std::size_t level) { return ckpt_.data() + level * prog_->dim(); }
  /// The pre-noise state at `level` on the cached path (a checkpoint, or
  /// cur_ after load()).
  const cplx* state_at(std::size_t level);
  /// cur_ := the pre-noise state at `level` on the cached path.
  void load(std::size_t level);

  const SvProgram* prog_;
  std::size_t levels_;
  std::vector<cplx> ckpt_;     // levels_ states of dim() amplitudes
  std::vector<cplx> cur_;      // working state
  std::vector<cplx> scratch_;  // 2-qubit Born scratch
  std::vector<Level> path_;    // the last computed Kraus path
  std::size_t cur_level_ = kNone;  // level whose pre-noise state cur_ holds
  bool have_path_ = false;
  double leaf_ = 0.0;
};

}  // namespace noisim::sim
