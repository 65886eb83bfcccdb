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

#include "linalg/matrix.hpp"

namespace noisim::sim::kernels {

using Mat2 = std::array<cplx, 4>;   // row-major 2x2
using Mat4 = std::array<cplx, 16>;  // row-major 4x4

/// Copy a 2x2 (4x4) la::Matrix into a kernel matrix; throws LinalgError on
/// any other shape.
Mat2 to_mat2(const la::Matrix& m);
Mat4 to_mat4(const la::Matrix& m);
/// Entry-wise conjugate (the column-side factor of rho -> M rho M^dag).
Mat2 conj(const Mat2& m);
Mat4 conj(const Mat4& m);

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

/// rho -> m rho m^dag on a row-major density matrix of `size` elements,
/// one pass over 2x2 (1-qubit) / 4x4 (2-qubit) blocks: the row transform by
/// m, then the column transform by conj(m) (`mc`), per block.
void conjugate1(cplx* rho, std::size_t size, const Mat2& m, const Mat2& mc, std::size_t row_bit,
                std::size_t col_bit);
void conjugate2(cplx* rho, std::size_t size, const Mat4& m, const Mat4& mc, std::size_t row_a,
                std::size_t row_b, std::size_t col_a, std::size_t col_b);
/// rho -> sum_k E_k rho E_k^dag in one block pass, summed from +0 in Kraus
/// order; `kraus_conj[k]` is conj(kraus[k]).
void channel1(cplx* rho, std::size_t size, std::span<const Mat2> kraus,
              std::span<const Mat2> kraus_conj, std::size_t row_bit, std::size_t col_bit);
void channel2(cplx* rho, std::size_t size, std::span<const Mat4> kraus,
              std::span<const Mat4> kraus_conj, std::size_t row_a, std::size_t row_b,
              std::size_t col_a, std::size_t col_b);

}  // namespace noisim::sim::kernels
