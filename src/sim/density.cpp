#include "sim/density.hpp"

#include <bit>
#include <cmath>

namespace noisim::sim {

namespace {

/// Bits a sweep's slices fix: 16 slices, so 3 or 4 workers split a sweep
/// within one slice of even.
constexpr int kSweepSliceBits = 4;
/// A sweep grows only while its top kSweepSliceBits free bits all sit at or
/// above this flat-index bit, so a slice's blocks come in runs of at least
/// 2^(6 - 4) consecutive blocks (an op removes at most 4 lower bits).
constexpr std::size_t kSweepMinSliceBit = std::size_t{1} << 6;

/// x without the bits of `targets`: the inverse of the kernels' zero
/// insertion, so a flat index maps to its block index.
std::size_t remove_bits(std::size_t x, std::size_t targets) {
  // Highest target first, so the lower ones keep their positions.
  while (targets != 0) {
    const std::size_t bit = std::bit_floor(targets);
    x = ((x >> 1) & ~(bit - 1)) | (x & (bit - 1));
    targets &= ~bit;
  }
  return x;
}

/// The `count` highest bits of `bits`.
std::size_t top_bits(std::size_t bits, int count) {
  std::size_t out = 0;
  for (int i = 0; i < count && bits != 0; ++i) {
    out |= std::bit_floor(bits);
    bits &= ~std::bit_floor(bits);
  }
  return out;
}

/// Slice number s spread over the bits of `mask`, low bit to lowest bit.
std::size_t deposit(std::size_t s, std::size_t mask) {
  std::size_t out = 0;
  for (; mask != 0; mask &= mask - 1, s >>= 1)
    if (s & 1) out |= mask & (~mask + 1);
  return out;
}

}  // namespace

DensityMatrix::DensityMatrix(int n) : n_(n) {
  la::detail::require(n > 0 && n <= kDensityMaxQubits,
                      "DensityMatrix: qubit count out of range [1, 13]");
  rho_.assign(std::size_t{1} << (2 * n), cplx{0.0, 0.0});
  rho_[0] = cplx{1.0, 0.0};
}

DensityMatrix DensityMatrix::basis(int n, std::uint64_t bits) {
  DensityMatrix dm(n);
  la::detail::require(bits < dm.dim(), "DensityMatrix::basis: bits out of range");
  dm.rho_[0] = cplx{0.0, 0.0};
  dm.rho_[bits * dm.dim() + bits] = cplx{1.0, 0.0};
  return dm;
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
  kernels::CompiledOps ops;
  ops.add(g);
  run(ops, 1);
}

void DensityMatrix::apply_channel(const ch::Channel& channel, int q) {
  la::detail::require(channel.dim() == 2, "DensityMatrix::apply_channel: 1-qubit channels only");
  la::detail::require(q >= 0 && q < n_, "DensityMatrix::apply_channel: qubit out of range");
  kernels::CompiledOps ops;
  ops.add(channel, q);
  run(ops, 1);
}

void DensityMatrix::apply_channel_2q(const ch::Channel& channel, int a, int b) {
  la::detail::require(channel.dim() == 4, "DensityMatrix::apply_channel_2q: need dim 4");
  la::detail::require(a >= 0 && a < n_ && b >= 0 && b < n_ && a != b,
                      "DensityMatrix::apply_channel_2q: bad qubits");
  kernels::CompiledOps ops;
  ops.add(channel, a, b);
  run(ops, 1);
}

void DensityMatrix::evolve(const ch::NoisyCircuit& nc, const ParallelOptions& opts) {
  la::detail::require(nc.num_qubits() == n_, "DensityMatrix::evolve: width mismatch");
  const std::size_t threads =
      rho_.size() >= kDensityParallelMinElems ? resolve_threads(opts.threads) : 1;
  run(kernels::CompiledOps(nc), threads, opts.control);
}

std::size_t DensityMatrix::op_bits(const kernels::CompiledOps::Op& op) const {
  return qubit_bits(op.qubit_a) | (op.two ? qubit_bits(op.qubit_b) : 0);
}

std::vector<DensityMatrix::Sweep> DensityMatrix::plan_sweeps(
    const kernels::CompiledOps& ops) const {
  const std::size_t all = rho_.size() - 1;
  const std::size_t eligible = all & ~(kSweepMinSliceBit - 1);
  std::vector<Sweep> sweeps;
  std::size_t touched = 0;
  auto close = [&] {
    Sweep& sw = sweeps.back();
    sw.slice_mask = top_bits(all & ~touched, kSweepSliceBits);
    sw.slices = std::size_t{1} << std::popcount(sw.slice_mask);
  };
  for (std::size_t o = 0; o < ops.size(); ++o) {
    const std::size_t bits = op_bits(ops[o]);
    if (!sweeps.empty() &&
        std::popcount(eligible & ~(touched | bits)) >= kSweepSliceBits) {
      touched |= bits;
      sweeps.back().end = o + 1;
      continue;
    }
    if (!sweeps.empty()) close();
    sweeps.push_back({o, o + 1});
    touched = bits;
  }
  if (!sweeps.empty()) close();
  return sweeps;
}

void DensityMatrix::run(const kernels::CompiledOps& ops, std::size_t threads,
                        const core::RunControl* control) {
  if (threads <= 1) {
    run_phases(
        1, ops.size(),
        [&](std::size_t p) { return rho_.size() / (ops[p].two ? 16 : 4); },
        [&](std::size_t p, std::size_t, std::size_t k_begin, std::size_t k_end) {
          apply(ops, ops[p], k_begin, k_end);
        },
        control);
    return;
  }
  const std::vector<Sweep> sweeps = plan_sweeps(ops);
  run_phases(
      threads, sweeps.size(), [&](std::size_t p) { return sweeps[p].slices; },
      [&](std::size_t p, std::size_t, std::size_t s_begin, std::size_t s_end) {
        const Sweep& sw = sweeps[p];
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const std::size_t value = deposit(s, sw.slice_mask);
          for (std::size_t o = sw.first; o < sw.end; ++o)
            apply_slice(ops, ops[o], sw.slice_mask, value);
        }
      },
      control, PhaseSplit::Dynamic);
}

void DensityMatrix::apply_slice(const kernels::CompiledOps& ops,
                                const kernels::CompiledOps::Op& op, std::size_t mask,
                                std::size_t value) {
  const std::size_t targets = op_bits(op);
  const std::size_t blocks = rho_.size() >> std::popcount(targets);
  const std::size_t fixed = remove_bits(mask, targets), at = remove_bits(value, targets);
  // The slice's blocks come in runs of every block index below the lowest
  // fixed bit; `hold` steps from one run to the next.
  const std::size_t run = fixed != 0 ? (fixed & (~fixed + 1)) : blocks;
  const std::size_t hold = fixed | (run - 1);
  for (std::size_t k = at; k < blocks; k = (((k | hold) + 1) & ~hold) | at)
    apply(ops, op, k, k + run);
}

void DensityMatrix::apply(const kernels::CompiledOps& ops, const kernels::CompiledOps::Op& op,
                          std::size_t k_begin, std::size_t k_end) {
  cplx* rho = rho_.data();
  const int a = op.qubit_a, b = op.qubit_b;
  if (!op.two) {
    if (op.channel)
      kernels::channel1(rho, ops.ops1(op), ops.conj1(op), row_bit(a), col_bit(a), k_begin,
                        k_end);
    else
      kernels::conjugate1(rho, ops.ops1(op)[0], ops.conj1(op)[0], row_bit(a), col_bit(a),
                          k_begin, k_end);
  } else if (op.channel) {
    kernels::channel2(rho, ops.ops2(op), ops.conj2(op), row_bit(a), row_bit(b), col_bit(a),
                      col_bit(b), k_begin, k_end);
  } else {
    kernels::conjugate2(rho, ops.ops2(op)[0], ops.conj2(op)[0], row_bit(a), row_bit(b),
                        col_bit(a), col_bit(b), k_begin, k_end);
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
                         std::uint64_t v_bits, const ParallelOptions& opts) {
  DensityMatrix dm = DensityMatrix::basis(nc.num_qubits(), psi_bits);
  dm.evolve(nc, opts);
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
