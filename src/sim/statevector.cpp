#include "sim/statevector.hpp"

#include <cmath>

#include "sim/kernels.hpp"

namespace noisim::sim {

Statevector::Statevector(int n) : n_(n) {
  la::detail::require(n > 0 && n <= 26, "Statevector: qubit count out of range [1, 26]");
  amps_.assign(std::size_t{1} << n, cplx{0.0, 0.0});
  amps_[0] = cplx{1.0, 0.0};
}

Statevector Statevector::basis(int n, std::uint64_t bits) {
  Statevector sv(n);
  la::detail::require(bits < sv.amps_.size(), "Statevector::basis: bits out of range");
  sv.amps_[0] = cplx{0.0, 0.0};
  sv.amps_[bits] = cplx{1.0, 0.0};
  return sv;
}

Statevector Statevector::from_vector(int n, const la::Vector& v) {
  Statevector sv(n);
  la::detail::require(v.size() == sv.amps_.size(), "Statevector::from_vector: size mismatch");
  for (std::size_t i = 0; i < v.size(); ++i) sv.amps_[i] = v[i];
  return sv;
}

void Statevector::apply_matrix1(const la::Matrix& m, int q) {
  la::detail::require(m.rows() == 2 && m.cols() == 2, "apply_matrix1: need 2x2");
  la::detail::require(q >= 0 && q < n_, "apply_matrix1: qubit out of range");
  kernels::apply1(amps_.data(), amps_.size(), kernels::to_mat2(m), bit(q));
}

void Statevector::apply_matrix2(const la::Matrix& m, int a, int b) {
  la::detail::require(m.rows() == 4 && m.cols() == 4, "apply_matrix2: need 4x4");
  la::detail::require(a >= 0 && a < n_ && b >= 0 && b < n_ && a != b,
                      "apply_matrix2: qubits out of range");
  kernels::apply2(amps_.data(), amps_.size(), kernels::to_mat4(m), bit(a), bit(b));
}

void Statevector::apply_gate(const qc::Gate& g) {
  if (g.num_qubits() == 1)
    apply_matrix1(g.matrix(), g.qubits[0]);
  else
    apply_matrix2(g.matrix(), g.qubits[0], g.qubits[1]);
}

void Statevector::apply_circuit(const qc::Circuit& c) {
  la::detail::require(c.num_qubits() == n_, "apply_circuit: width mismatch");
  const kernels::CompiledOps ops(c.gates());
  for (std::size_t i = 0; i < ops.size(); ++i) kernels::apply(amps_.data(), n_, ops, ops[i]);
}

cplx Statevector::inner(const Statevector& other) const {
  la::detail::require(n_ == other.n_, "Statevector::inner: width mismatch");
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < amps_.size(); ++i) s += std::conj(amps_[i]) * other.amps_[i];
  return s;
}

cplx Statevector::expectation1(const la::Matrix& m, int q) const {
  la::detail::require(m.rows() == 2 && m.cols() == 2, "expectation1: need 2x2");
  la::detail::require(q >= 0 && q < n_, "expectation1: qubit out of range");
  return kernels::expectation1(amps_.data(), amps_.size(), kernels::to_mat2(m), bit(q));
}

double Statevector::norm2() const { return kernels::norm2(amps_.data(), amps_.size()); }

double Statevector::norm() const { return std::sqrt(norm2()); }

void Statevector::normalize() {
  const double n = norm();
  la::detail::require(n > 0.0, "Statevector::normalize: zero state");
  for (cplx& a : amps_) a /= n;
}

la::Vector Statevector::to_vector() const {
  la::Vector v(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) v[i] = amps_[i];
  return v;
}

cplx basis_amplitude(const qc::Circuit& c, std::uint64_t psi_bits, std::uint64_t v_bits) {
  Statevector sv = Statevector::basis(c.num_qubits(), psi_bits);
  sv.apply_circuit(c);
  return sv.amplitude(v_bits);
}

}  // namespace noisim::sim
