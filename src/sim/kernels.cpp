#include "sim/kernels.hpp"

#include <algorithm>

namespace noisim::sim::kernels {

namespace {

// std::complex's a * b and a + b, spelled out: the same IEEE operations
// for finite values, without the NaN-recovery call-out.
inline cplx mul(const cplx& a, const cplx& b) {
  return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
}
inline cplx add(const cplx& a, const cplx& b) { return {a.real() + b.real(), a.imag() + b.imag()}; }

/// k with a zero bit inserted at the position of the single-bit mask `bit`.
inline std::size_t insert_zero(std::size_t k, std::size_t bit) {
  const std::size_t low = bit - 1;
  return ((k & ~low) << 1) | (k & low);
}

/// k with zeros inserted at every mask of `bits` (ascending masks).
template <std::size_t N>
inline std::size_t insert_zeros(std::size_t k, const std::array<std::size_t, N>& bits) {
  for (const std::size_t bit : bits) k = insert_zero(k, bit);
  return k;
}

// (x0, x1) -> m (x0, x1).
inline void pair(const Mat2& m, cplx& x0, cplx& x1) {
  const cplx a0 = x0, a1 = x1;
  x0 = add(mul(m[0], a0), mul(m[1], a1));
  x1 = add(mul(m[2], a0), mul(m[3], a1));
}

// x[t * stride] -> m x, each row accumulated from +0 in column order.
inline void quad(const Mat4& m, cplx* x, std::size_t stride) {
  const cplx old[4] = {x[0], x[stride], x[2 * stride], x[3 * stride]};
  for (std::size_t r = 0; r < 4; ++r) {
    cplx acc{0.0, 0.0};
    for (std::size_t c = 0; c < 4; ++c) acc = add(acc, mul(m[4 * r + c], old[c]));
    x[r * stride] = acc;
  }
}

// Local 2x2 block y[2 * row + col]: rows by m, then columns by mc.
inline void conjugate_block(const Mat2& m, const Mat2& mc, cplx* y) {
  pair(m, y[0], y[2]);
  pair(m, y[1], y[3]);
  pair(mc, y[0], y[1]);
  pair(mc, y[2], y[3]);
}

// Local 4x4 block y[4 * row + col]: rows by m, then columns by mc.
inline void conjugate_block(const Mat4& m, const Mat4& mc, cplx* y) {
  for (std::size_t c = 0; c < 4; ++c) quad(m, y + c, 4);
  for (std::size_t r = 0; r < 4; ++r) quad(mc, y + 4 * r, 1);
}

/// Offsets of a quad's four members; t's bit 1 selects bit_a, bit 0 bit_b.
inline std::array<std::size_t, 4> quad_offsets(std::size_t bit_a, std::size_t bit_b) {
  return {0, bit_b, bit_a, bit_a | bit_b};
}

/// Density-block geometry: the flat offset of local element t and the
/// ascending target masks to insert.
template <std::size_t Elems, std::size_t Bits>
struct Block {
  std::array<std::size_t, Elems> offset;
  std::array<std::size_t, Bits> bits;
};

Block<4, 2> block1_geometry(std::size_t row_bit, std::size_t col_bit) {
  Block<4, 2> b;
  b.offset = {0, col_bit, row_bit, row_bit | col_bit};
  b.bits = {std::min(row_bit, col_bit), std::max(row_bit, col_bit)};
  return b;
}

Block<16, 4> block2_geometry(std::size_t row_a, std::size_t row_b, std::size_t col_a,
                             std::size_t col_b) {
  Block<16, 4> b;
  const std::array<std::size_t, 4> rows = quad_offsets(row_a, row_b);
  const std::array<std::size_t, 4> cols = quad_offsets(col_a, col_b);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) b.offset[4 * r + c] = rows[r] | cols[c];
  b.bits = {row_a, row_b, col_a, col_b};
  std::sort(b.bits.begin(), b.bits.end());
  return b;
}

// One pass of `fn(local block)` over every density block.
template <std::size_t Elems, std::size_t Bits, typename Fn>
void for_each_block(cplx* rho, std::size_t size, const Block<Elems, Bits>& g, Fn&& fn) {
  const std::size_t blocks = size / Elems;
  for (std::size_t k = 0; k < blocks; ++k) {
    cplx* base = rho + insert_zeros(k, g.bits);
    cplx y[Elems];
    for (std::size_t t = 0; t < Elems; ++t) y[t] = base[g.offset[t]];
    fn(y);
    for (std::size_t t = 0; t < Elems; ++t) base[g.offset[t]] = y[t];
  }
}

// sum_k E_k y E_k^dag into y, from +0 in Kraus order.
template <std::size_t Elems, typename Mat>
void kraus_sum(cplx* y, std::span<const Mat> kraus, std::span<const Mat> kraus_conj) {
  cplx acc[Elems];
  for (cplx& a : acc) a = cplx{0.0, 0.0};
  for (std::size_t k = 0; k < kraus.size(); ++k) {
    cplx z[Elems];
    std::copy(y, y + Elems, z);
    conjugate_block(kraus[k], kraus_conj[k], z);
    for (std::size_t t = 0; t < Elems; ++t) acc[t] = add(acc[t], z[t]);
  }
  std::copy(acc, acc + Elems, y);
}

template <typename Mat>
Mat from_matrix(const la::Matrix& m, std::size_t dim, const char* what) {
  la::detail::require(m.rows() == dim && m.cols() == dim, what);
  Mat out;
  std::copy(m.data(), m.data() + dim * dim, out.begin());
  return out;
}

template <typename Mat>
Mat conj_entries(Mat m) {
  for (cplx& x : m) x = std::conj(x);
  return m;
}

}  // namespace

Mat2 to_mat2(const la::Matrix& m) { return from_matrix<Mat2>(m, 2, "kernels::to_mat2: need 2x2"); }
Mat4 to_mat4(const la::Matrix& m) { return from_matrix<Mat4>(m, 4, "kernels::to_mat4: need 4x4"); }
Mat2 conj(const Mat2& m) { return conj_entries(m); }
Mat4 conj(const Mat4& m) { return conj_entries(m); }

void apply1(cplx* v, std::size_t size, const Mat2& matrix, std::size_t bit) {
  const Mat2 m = matrix;  // a local copy cannot alias v, so it stays in registers
  const std::size_t pairs = size >> 1;
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::size_t i = insert_zero(k, bit);
    pair(m, v[i], v[i | bit]);
  }
}

void apply2(cplx* v, std::size_t size, const Mat4& m, std::size_t bit_a, std::size_t bit_b) {
  apply2(v, v, size, m, bit_a, bit_b);
}

void apply2(const cplx* in, cplx* out, std::size_t size, const Mat4& matrix, std::size_t bit_a,
            std::size_t bit_b) {
  const Mat4 m = matrix;
  const std::array<std::size_t, 4> off = quad_offsets(bit_a, bit_b);
  const std::array<std::size_t, 2> bits{std::min(bit_a, bit_b), std::max(bit_a, bit_b)};
  const std::size_t quads = size >> 2;
  for (std::size_t k = 0; k < quads; ++k) {
    const std::size_t i = insert_zeros(k, bits);
    cplx x[4] = {in[i | off[0]], in[i | off[1]], in[i | off[2]], in[i | off[3]]};
    quad(m, x, 1);
    for (std::size_t t = 0; t < 4; ++t) out[i | off[t]] = x[t];
  }
}

cplx expectation1(const cplx* v, std::size_t size, const Mat2& m, std::size_t bit) {
  cplx s{0.0, 0.0};
  const std::size_t pairs = size >> 1;
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::size_t i = insert_zero(k, bit);
    const cplx a0 = v[i], a1 = v[i | bit];
    s = add(s, mul(std::conj(a0), add(mul(m[0], a0), mul(m[1], a1))));
    s = add(s, mul(std::conj(a1), add(mul(m[2], a0), mul(m[3], a1))));
  }
  return s;
}

double norm2(const cplx* v, std::size_t size) {
  double s = 0.0;
  for (std::size_t i = 0; i < size; ++i) s += std::norm(v[i]);
  return s;
}

void conjugate1(cplx* rho, std::size_t size, const Mat2& m, const Mat2& mc, std::size_t row_bit,
                std::size_t col_bit) {
  for_each_block(rho, size, block1_geometry(row_bit, col_bit),
                 [&](cplx* y) { conjugate_block(m, mc, y); });
}

void conjugate2(cplx* rho, std::size_t size, const Mat4& m, const Mat4& mc, std::size_t row_a,
                std::size_t row_b, std::size_t col_a, std::size_t col_b) {
  for_each_block(rho, size, block2_geometry(row_a, row_b, col_a, col_b),
                 [&](cplx* y) { conjugate_block(m, mc, y); });
}

void channel1(cplx* rho, std::size_t size, std::span<const Mat2> kraus,
              std::span<const Mat2> kraus_conj, std::size_t row_bit, std::size_t col_bit) {
  for_each_block(rho, size, block1_geometry(row_bit, col_bit),
                 [&](cplx* y) { kraus_sum<4>(y, kraus, kraus_conj); });
}

void channel2(cplx* rho, std::size_t size, std::span<const Mat4> kraus,
              std::span<const Mat4> kraus_conj, std::size_t row_a, std::size_t row_b,
              std::size_t col_a, std::size_t col_b) {
  for_each_block(rho, size, block2_geometry(row_a, row_b, col_a, col_b),
                 [&](cplx* y) { kraus_sum<16>(y, kraus, kraus_conj); });
}

}  // namespace noisim::sim::kernels
