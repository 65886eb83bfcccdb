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

#include <cstdint>

#include "channels/noisy_circuit.hpp"
#include "sim/statevector.hpp"

namespace noisim::sim {

class DensityMatrix {
 public:
  /// |0..0><0..0| on n qubits (n <= 13 to bound memory at ~1 GiB).
  explicit DensityMatrix(int n);
  static DensityMatrix from_statevector(const Statevector& sv);

  int num_qubits() const { return n_; }
  std::size_t dim() const { return std::size_t{1} << n_; }

  /// rho -> U rho U^dagger; throws LinalgError for a qubit out of range.
  void apply_gate(const qc::Gate& g);
  /// rho -> sum_k E_k rho E_k^dagger for a 1-qubit channel on qubit q.
  void apply_channel(const ch::Channel& channel, int q);
  /// 2-qubit channel on (a, b); a indexes the Kraus operators' high bit.
  void apply_channel_2q(const ch::Channel& channel, int a, int b);
  /// Run a whole noisy circuit.
  void evolve(const ch::NoisyCircuit& nc);

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

  int n_ = 0;
  std::vector<cplx> rho_;  // row-major, size 4^n
};

/// End-to-end exact value of <v|E(|psi><psi|)|v> for basis psi/v
/// (the reference used by the accuracy experiments).
double exact_fidelity_mm(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                         std::uint64_t v_bits);

/// Widest circuit DensityMatrix accepts (memory bounded at ~1 GiB).
inline constexpr int kDensityMaxQubits = 13;

/// Plan-time flop model of DensityMatrix::evolve, in modeled complex
/// multiply-adds: every op touches all 4^n elements twice (row- and
/// column-side local updates); channels repeat that per Kraus operator.
double density_evolution_flops(const ch::NoisyCircuit& nc);

}  // namespace noisim::sim
