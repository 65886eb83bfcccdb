#pragma once
// Schrodinger state-vector simulator.
//
// Bit convention: qubit 0 is the MOST significant bit of the amplitude
// index, so the state of qubits (q0, q1, ...) is kron(q0, q1, ...). This
// matches qc::circuit_unitary and la::kron throughout the library.
//
// apply_matrix* accept arbitrary (including non-unitary) matrices: the
// trajectories method applies Kraus operators and renormalizes, and the
// paper's approximation algorithm inserts non-unitary SVD factors. They
// (and expectation1 / norm2) run on the fused kernels of sim/kernels.hpp.

#include <cstdint>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "circuit/circuit.hpp"

namespace noisim::sim {

class Statevector {
 public:
  /// |0...0> on n qubits (n <= 26 guarded by allocation size).
  explicit Statevector(int n);
  /// Computational basis state |bits>, bit of qubit 0 most significant.
  static Statevector basis(int n, std::uint64_t bits);
  /// Adopt an explicit amplitude vector (size must be 2^n).
  static Statevector from_vector(int n, const la::Vector& v);

  int num_qubits() const { return n_; }
  std::size_t size() const { return amps_.size(); }
  const cplx* data() const { return amps_.data(); }

  cplx amplitude(std::uint64_t bits) const { return amps_[bits]; }

  /// Apply an arbitrary 2x2 matrix to qubit q.
  void apply_matrix1(const la::Matrix& m, int q);
  /// Apply an arbitrary 4x4 matrix to qubits (a, b); a indexes the
  /// high-order bit of the matrix.
  void apply_matrix2(const la::Matrix& m, int a, int b);
  /// Apply a gate (dispatches on arity).
  void apply_gate(const qc::Gate& g);
  /// Apply every gate of a circuit in order.
  void apply_circuit(const qc::Circuit& c);

  /// <this|other>.
  cplx inner(const Statevector& other) const;
  /// <psi| M_q |psi> for a 2x2 operator M on qubit q (no copy); throws
  /// LinalgError for a qubit out of range.
  cplx expectation1(const la::Matrix& m, int q) const;

  double norm2() const;
  double norm() const;
  void normalize();

  la::Vector to_vector() const;

 private:
  // Flat-index mask of qubit q (callers range-check q).
  std::size_t bit(int q) const { return std::size_t{1} << (n_ - 1 - q); }

  int n_ = 0;
  std::vector<cplx> amps_;
};

/// <v|C|psi> for computational basis states |psi> = |psi_bits>,
/// |v> = |v_bits> (reference amplitude for tests and small benchmarks).
cplx basis_amplitude(const qc::Circuit& c, std::uint64_t psi_bits, std::uint64_t v_bits);

}  // namespace noisim::sim
