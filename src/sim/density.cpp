#include "sim/density.hpp"

#include <cmath>

#include "sim/kernels.hpp"

namespace noisim::sim {

DensityMatrix::DensityMatrix(int n) : n_(n) {
  la::detail::require(n > 0 && n <= kDensityMaxQubits,
                      "DensityMatrix: qubit count out of range [1, 13]");
  rho_.assign(std::size_t{1} << (2 * n), cplx{0.0, 0.0});
  rho_[0] = cplx{1.0, 0.0};
}

DensityMatrix DensityMatrix::from_statevector(const Statevector& sv) {
  DensityMatrix dm(sv.num_qubits());
  const std::size_t d = dm.dim();
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c)
      dm.rho_[r * d + c] = sv.amplitude(r) * std::conj(sv.amplitude(c));
  return dm;
}

void DensityMatrix::apply_gate(const qc::Gate& g) {
  const bool two = g.num_qubits() == 2;
  la::detail::require(g.qubits[0] >= 0 && g.qubits[0] < n_ &&
                          (!two || (g.qubits[1] >= 0 && g.qubits[1] < n_ &&
                                    g.qubits[1] != g.qubits[0])),
                      "DensityMatrix::apply_gate: qubit out of range");
  const la::Matrix u = g.matrix();
  if (!two) {
    const kernels::Mat2 m = kernels::to_mat2(u);
    kernels::conjugate1(rho_.data(), rho_.size(), m, kernels::conj(m), row_bit(g.qubits[0]),
                        col_bit(g.qubits[0]));
  } else {
    const kernels::Mat4 m = kernels::to_mat4(u);
    kernels::conjugate2(rho_.data(), rho_.size(), m, kernels::conj(m), row_bit(g.qubits[0]),
                        row_bit(g.qubits[1]), col_bit(g.qubits[0]), col_bit(g.qubits[1]));
  }
}

void DensityMatrix::apply_channel(const ch::Channel& channel, int q) {
  la::detail::require(channel.dim() == 2, "DensityMatrix::apply_channel: 1-qubit channels only");
  la::detail::require(q >= 0 && q < n_, "DensityMatrix::apply_channel: qubit out of range");
  std::vector<kernels::Mat2> kraus, kraus_conj;
  for (const la::Matrix& k : channel.kraus()) {
    kraus.push_back(kernels::to_mat2(k));
    kraus_conj.push_back(kernels::conj(kraus.back()));
  }
  kernels::channel1(rho_.data(), rho_.size(), kraus, kraus_conj, row_bit(q), col_bit(q));
}

void DensityMatrix::apply_channel_2q(const ch::Channel& channel, int a, int b) {
  la::detail::require(channel.dim() == 4, "DensityMatrix::apply_channel_2q: need dim 4");
  la::detail::require(a >= 0 && a < n_ && b >= 0 && b < n_ && a != b,
                      "DensityMatrix::apply_channel_2q: bad qubits");
  std::vector<kernels::Mat4> kraus, kraus_conj;
  for (const la::Matrix& k : channel.kraus()) {
    kraus.push_back(kernels::to_mat4(k));
    kraus_conj.push_back(kernels::conj(kraus.back()));
  }
  kernels::channel2(rho_.data(), rho_.size(), kraus, kraus_conj, row_bit(a), row_bit(b),
                    col_bit(a), col_bit(b));
}

void DensityMatrix::evolve(const ch::NoisyCircuit& nc) {
  la::detail::require(nc.num_qubits() == n_, "DensityMatrix::evolve: width mismatch");
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      apply_gate(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    if (noise.num_qubits() == 1)
      apply_channel(noise.channel, noise.qubit);
    else
      apply_channel_2q(noise.channel, noise.qubit, noise.qubit2);
  }
}

cplx DensityMatrix::element(std::uint64_t row, std::uint64_t col) const {
  return rho_[row * dim() + col];
}

double DensityMatrix::trace() const {
  const std::size_t d = dim();
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < d; ++i) s += rho_[i * d + i];
  return s.real();
}

double DensityMatrix::fidelity_basis(std::uint64_t v_bits) const {
  return rho_[v_bits * dim() + v_bits].real();
}

double DensityMatrix::fidelity(const la::Vector& v) const {
  const std::size_t d = dim();
  la::detail::require(v.size() == d, "DensityMatrix::fidelity: size mismatch");
  cplx s{0.0, 0.0};
  for (std::size_t r = 0; r < d; ++r) {
    cplx w{0.0, 0.0};
    const cplx* row = rho_.data() + r * d;
    for (std::size_t c = 0; c < d; ++c) w += row[c] * v[c];
    s += std::conj(v[r]) * w;
  }
  return s.real();
}

la::Matrix DensityMatrix::to_matrix() const {
  const std::size_t d = dim();
  la::Matrix m(d, d);
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c) m(r, c) = rho_[r * d + c];
  return m;
}

double exact_fidelity_mm(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                         std::uint64_t v_bits) {
  DensityMatrix dm(nc.num_qubits());
  if (psi_bits != 0) {
    DensityMatrix from = DensityMatrix::from_statevector(
        Statevector::basis(nc.num_qubits(), psi_bits));
    dm = std::move(from);
  }
  dm.evolve(nc);
  return dm.fidelity_basis(v_bits);
}

double density_evolution_flops(const ch::NoisyCircuit& nc) {
  const double dim_sq = std::pow(4.0, std::min(nc.num_qubits(), 31));
  double flops = 0.0;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      // U rho U^dag: one row-side and one column-side local update.
      flops += (g->num_qubits() == 1 ? 2.0 : 4.0) * 2.0 * dim_sq;
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    const double per_kraus = (noise.num_qubits() == 1 ? 2.0 : 4.0) * 2.0 * dim_sq;
    flops += static_cast<double>(noise.channel.kraus().size()) * per_kraus;
  }
  return flops;
}

}  // namespace noisim::sim
