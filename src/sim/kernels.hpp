#pragma once
// Fused qubit kernels under the state-vector, density and trajectory
// engines.
//
// Every kernel takes its matrix pre-extracted into a std::array (row-major
// 2x2 or 4x4), so a caller that applies the same operator many times --
// the trajectory sampler, a density channel's Kraus loop -- converts it
// from la::Matrix once. Index tuples are enumerated by bit insertion: the
// k-th tuple's base index is k with a zero inserted at every target bit,
// so no iteration is spent on indices that are skipped.
//
// Arithmetic is explicit real-valued complex multiply-add,
// (a.re b.re - a.im b.im, a.re b.im + a.im b.re), in the operation order of
// the equivalent std::complex expressions (m00 * a0 + m01 * a1; 4x4 rows
// accumulated from +0 in column order; channels summed from +0 in Kraus
// order): for finite values every kernel produces the same bits as that
// std::complex code, signed zeros included (tests/sim_reference.hpp keeps
// it as the reference). This TU must be compiled for the baseline ISA:
// with FMA available (-mfma, -march=native, even -mavx512f) GCC 12's
// complex-multiply vectorizer emits vfmaddsub despite -ffp-contract=off,
// and a fused multiply-add rounds once where these kernels round twice.
//
// Bit convention: a target is given as its single-bit mask in the flat
// index. For a 4x4 matrix, `bit_a` is the mask of the matrix's high-order
// index bit and `bit_b` of its low-order bit (either may be the larger).

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "linalg/matrix.hpp"

namespace noisim::sim::kernels {

using Mat2 = std::array<cplx, 4>;   // row-major 2x2
using Mat4 = std::array<cplx, 16>;  // row-major 4x4

/// Copy a 2x2 (4x4) la::Matrix into a kernel matrix; throws LinalgError on
/// any other shape.
Mat2 to_mat2(const la::Matrix& m);
Mat4 to_mat4(const la::Matrix& m);

/// A circuit's ops compiled once into kernel matrices -- the one place
/// the state-vector, density and trajectory engines turn a qc::Gate or a
/// channel's la::Matrix Kraus operators into Mat2/Mat4. Op i holds its
/// operators (a gate's matrix, or a channel's Kraus operators in order)
/// and their entry-wise conjugates in flat arrays.
class CompiledOps {
 public:
  struct Op {
    bool two = false;      // acts on two qubits
    bool channel = false;  // Kraus operators summed, not a gate
    int qubit_a = 0;       // indexes the operators' high-order bit
    int qubit_b = 0;       // second qubit of a 2-qubit op
    std::size_t first = 0, count = 0;  // operator range in ops1()/ops2()
  };

  CompiledOps() = default;
  explicit CompiledOps(const ch::NoisyCircuit& nc);
  explicit CompiledOps(std::span<const qc::Gate> gates);

  void add(const qc::Gate& g);
  /// A 1- (qubit_b < 0) or 2-qubit channel; throws LinalgError when a Kraus
  /// operator's shape does not match.
  void add(const ch::Channel& channel, int qubit_a, int qubit_b = -1);

  std::size_t size() const { return ops_.size(); }
  const Op& operator[](std::size_t i) const { return ops_[i]; }
  std::span<const Mat2> ops1(const Op& op) const { return {m1_.data() + op.first, op.count}; }
  std::span<const Mat2> conj1(const Op& op) const { return {c1_.data() + op.first, op.count}; }
  std::span<const Mat4> ops2(const Op& op) const { return {m2_.data() + op.first, op.count}; }
  std::span<const Mat4> conj2(const Op& op) const { return {c2_.data() + op.first, op.count}; }

 private:
  void push(const la::Matrix& m);  // one operator of the op being added

  std::vector<Op> ops_;
  std::vector<Mat2> m1_, c1_;
  std::vector<Mat4> m2_, c2_;
};

/// Apply operator k of `op` to an n-qubit state vector (qubit 0 is the
/// most significant index bit).
void apply(cplx* v, int n, const CompiledOps& ops, const CompiledOps::Op& op, std::size_t k = 0);

/// v -> m v on the pair of amplitudes differing in `bit`.
void apply1(cplx* v, std::size_t size, const Mat2& m, std::size_t bit);
/// v -> m v on the quad of amplitudes differing in bit_a, bit_b.
void apply2(cplx* v, std::size_t size, const Mat4& m, std::size_t bit_a, std::size_t bit_b);
/// Out-of-place apply2: out = m in (every element of out is written).
void apply2(const cplx* in, cplx* out, std::size_t size, const Mat4& m, std::size_t bit_a,
            std::size_t bit_b);
/// <v| m_bit |v>, summed over pairs in ascending index order.
cplx expectation1(const cplx* v, std::size_t size, const Mat2& m, std::size_t bit);
/// sum_i |v_i|^2 in index order.
double norm2(const cplx* v, std::size_t size);

/// rho -> m rho m^dag on a row-major density matrix, over its 2x2
/// (1-qubit) / 4x4 (2-qubit) blocks [k_begin, k_end): the row transform by
/// m, then the column transform by conj(m) (`mc`), per block. Block k
/// holds the elements whose index, with the target bits removed, is k; a
/// matrix of `size` elements has size / 4 (size / 16) blocks, and blocks
/// share no element, so disjoint ranges may run concurrently.
void conjugate1(cplx* rho, const Mat2& m, const Mat2& mc, std::size_t row_bit,
                std::size_t col_bit, std::size_t k_begin, std::size_t k_end);
void conjugate2(cplx* rho, const Mat4& m, const Mat4& mc, std::size_t row_a, std::size_t row_b,
                std::size_t col_a, std::size_t col_b, std::size_t k_begin, std::size_t k_end);
/// rho -> sum_k E_k rho E_k^dag on blocks [k_begin, k_end), summed from +0
/// in Kraus order; `kraus_conj[k]` is conj(kraus[k]).
void channel1(cplx* rho, std::span<const Mat2> kraus, std::span<const Mat2> kraus_conj,
              std::size_t row_bit, std::size_t col_bit, std::size_t k_begin, std::size_t k_end);
void channel2(cplx* rho, std::span<const Mat4> kraus, std::span<const Mat4> kraus_conj,
              std::size_t row_a, std::size_t row_b, std::size_t col_a, std::size_t col_b,
              std::size_t k_begin, std::size_t k_end);

}  // namespace noisim::sim::kernels
