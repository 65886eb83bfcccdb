#pragma once
// Exact density-matrix simulation: the paper's "MM-based" accurate baseline.
//
// rho is stored row-major as a 4^n vector; a unitary U acts as
// rho -> U rho U^dagger, a channel as rho -> sum_k E_k rho E_k^dagger.
// Operators are applied locally (row index = "row qubits", column index =
// "column qubits"), so each gate costs O(4^n) instead of dense O(8^n)
// matrix products. The 4^n memory footprint is what makes this method "MO"
// on the paper's larger benchmarks.
//
// Every op is ONE in-place pass of the fused kernel layer
// (sim/kernels.hpp) over rho's 2x2 (1-qubit) or 4x4 (2-qubit) blocks --
// the row and column bits of the target qubits. A gate transforms each
// block's rows by U, then its columns by conj(U). A channel sums
// E_k X E_k^dagger over the block, from +0 in Kraus order, so it needs
// no copy of rho: the only 4^n buffer is rho itself. The results are
// bitwise those of applying the row pass to all of rho, then the column
// pass, then accumulating per-Kraus copies -- each block is closed under
// both passes. density_evolution_flops still models the two passes per
// op (and per Kraus operator) of that formulation on purpose: it prices
// the same multiply-adds, and re-pricing belongs to the calibrated cost
// model, not to a kernel change.
//
// Threads. evolve() compiles the circuit's operators once
// (kernels::CompiledOps) and cuts them, in order, into sweeps: runs of
// consecutive ops that leave at least four high flat-index bits untouched
// (row bits, or the column bit of a low-numbered qubit). Those four bits
// cut rho into 16 slices that no op of the sweep crosses, and each sweep is
// one sim::run_phases phase whose items are its slices: a worker claims a
// slice and runs every op of the sweep on it, block run by block run,
// before it claims the next (PhaseSplit::Dynamic). One barrier per sweep
// instead of per op, and claimed slices instead of fixed ranges, keep a
// worker whose core is taken away from stalling every op. Every block of
// an op lies inside one slice, each element still meets the ops in circuit
// order, and each block's arithmetic -- the same kernel, in the same order
// -- does not depend on which worker runs it or which slice holds it, so
// rho is bit-identical at every thread count and to the one-pass-per-op
// serial path. Matrices below kDensityParallelMinElems elements run on the
// calling thread, one pass per op: there a pass is too short to pay for
// the threads.

#include <cstdint>

#include "channels/noisy_circuit.hpp"
#include "sim/kernels.hpp"
#include "sim/parallel.hpp"
#include "sim/statevector.hpp"

namespace noisim::sim {

class DensityMatrix {
 public:
  /// |0..0><0..0| on n qubits (n <= 13 to bound memory at ~1 GiB).
  explicit DensityMatrix(int n);
  /// |bits><bits| for a computational basis state, qubit 0's bit most
  /// significant.
  static DensityMatrix basis(int n, std::uint64_t bits);
  static DensityMatrix from_statevector(const Statevector& sv);

  int num_qubits() const { return n_; }
  std::size_t dim() const { return std::size_t{1} << n_; }

  /// rho -> U rho U^dagger; throws LinalgError for a qubit out of range.
  void apply_gate(const qc::Gate& g);
  /// rho -> sum_k E_k rho E_k^dagger for a 1-qubit channel on qubit q.
  void apply_channel(const ch::Channel& channel, int q);
  /// 2-qubit channel on (a, b); a indexes the Kraus operators' high bit.
  void apply_channel_2q(const ch::Channel& channel, int a, int b);
  /// Run a whole noisy circuit on opts.threads workers (0 = NOISIM_THREADS,
  /// else the hardware count; see the header comment). opts.control is
  /// polled before every op (before every sweep when split across
  /// threads): a cancel raises CancelledError and an expired deadline
  /// TimeoutError, and rho is then left part-way. chunk_size is unused.
  void evolve(const ch::NoisyCircuit& nc, const ParallelOptions& opts = {});

  cplx element(std::uint64_t row, std::uint64_t col) const;
  double trace() const;
  /// <v|rho|v> for a computational basis state |v_bits>.
  double fidelity_basis(std::uint64_t v_bits) const;
  /// <v|rho|v> for an arbitrary state vector of dimension 2^n.
  double fidelity(const la::Vector& v) const;

  la::Matrix to_matrix() const;

 private:
  // Flat-index masks of qubit q's row and column bits (callers range-check).
  std::size_t row_bit(int q) const { return std::size_t{1} << (2 * n_ - 1 - q); }
  std::size_t col_bit(int q) const { return std::size_t{1} << (n_ - 1 - q); }

  /// Ops [first, end) of a circuit and the flat-index bits none of them
  /// touches that cut rho into the sweep's slices (header comment).
  struct Sweep {
    std::size_t first = 0, end = 0;
    std::size_t slice_mask = 0;  // the slices' fixed bits
    std::size_t slices = 1;      // 2^popcount(slice_mask)
  };

  /// Flat-index mask of qubit q's row and column bits.
  std::size_t qubit_bits(int q) const { return row_bit(q) | col_bit(q); }
  /// Flat-index mask of every bit `op` targets.
  std::size_t op_bits(const kernels::CompiledOps::Op& op) const;
  /// Cut `ops` into sweeps, greedily in op order.
  std::vector<Sweep> plan_sweeps(const kernels::CompiledOps& ops) const;

  /// Run every op of `ops` in order on `threads` workers.
  void run(const kernels::CompiledOps& ops, std::size_t threads,
           const core::RunControl* control = nullptr);
  /// Op `op` on blocks [k_begin, k_end).
  void apply(const kernels::CompiledOps& ops, const kernels::CompiledOps::Op& op,
             std::size_t k_begin, std::size_t k_end);
  /// Op `op` on the blocks of the slice whose `mask` bits equal `value`.
  void apply_slice(const kernels::CompiledOps& ops, const kernels::CompiledOps::Op& op,
                   std::size_t mask, std::size_t value);

  int n_ = 0;
  std::vector<cplx> rho_;  // row-major, size 4^n
};

/// End-to-end exact value of <v|E(|psi><psi|)|v> for basis psi/v
/// (the reference used by the accuracy experiments).
double exact_fidelity_mm(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                         std::uint64_t v_bits, const ParallelOptions& opts = {});

/// Widest circuit DensityMatrix accepts (memory bounded at ~1 GiB).
inline constexpr int kDensityMaxQubits = 13;

/// Smallest rho, in elements, that evolve() splits across threads
/// (4^6: 6 qubits). Measured on a 4-thread Xeon with hf_vqe circuits: 4
/// threads ran 1.05x the serial speed at 5 qubits and 2.3x at 6.
inline constexpr std::size_t kDensityParallelMinElems = std::size_t{1} << 12;

/// Plan-time flop model of DensityMatrix::evolve, in modeled complex
/// multiply-adds: every op touches all 4^n elements twice (row- and
/// column-side local updates); channels repeat that per Kraus operator.
double density_evolution_flops(const ch::NoisyCircuit& nc);

}  // namespace noisim::sim
