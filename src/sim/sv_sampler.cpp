#include "sim/sv_sampler.hpp"

#include <algorithm>
#include <cmath>

namespace noisim::sim {

namespace {

/// Inverse-CDF choice over lazily evaluated Born probabilities: `probs`
/// holds the prefix evaluated so far and is extended with born(k) as the
/// walk needs it. Returns the first k with u < p_0 + ... + p_k, or the last
/// operator when rounding leaves u above the total.
template <typename Born>
std::size_t choose_kraus(double u, std::size_t count, std::vector<double>& probs, Born&& born) {
  double cumulative = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    if (k == probs.size()) probs.push_back(born(k));
    cumulative += probs[k];
    if (u < cumulative) return k;
  }
  return count - 1;
}

}  // namespace

std::size_t sv_checkpoint_levels(int n, std::size_t sites) {
  const std::size_t per_level = std::size_t{1} << std::min(n, 62);
  return std::min(sites, kSvCheckpointElems / per_level);
}

SvProgram::SvProgram(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits)
    : n_(nc.num_qubits()), psi_bits_(psi_bits), v_bits_(v_bits) {
  la::detail::require(n_ > 0 && n_ <= 26, "SvProgram: qubit count out of range [1, 26]");
  la::detail::require(psi_bits < dim() && v_bits < dim(), "SvProgram: basis state out of range");
  auto bit = [this](int q) { return std::size_t{1} << (n_ - 1 - q); };
  segment_begin_.push_back(0);
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      Step step;
      step.two = g->num_qubits() == 2;
      step.bit_a = bit(g->qubits[0]);
      if (step.two) {
        step.bit_b = bit(g->qubits[1]);
        step.m2 = kernels::to_mat4(g->matrix());
      } else {
        step.m1 = kernels::to_mat2(g->matrix());
      }
      steps_.push_back(step);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    const auto& kraus = noise.channel.kraus();
    Site site;
    site.two = noise.num_qubits() == 2;
    site.bit_a = bit(noise.qubit);
    site.kraus_count = kraus.size();
    if (site.two) {
      site.bit_b = bit(noise.qubit2);
      two_qubit_noise_ = true;
      for (const la::Matrix& k : kraus) site.kraus2.push_back(kernels::to_mat4(k));
    } else {
      for (const la::Matrix& k : kraus) {
        site.kraus1.push_back(kernels::to_mat2(k));
        site.born1.push_back(kernels::to_mat2(k.adjoint() * k));
      }
    }
    sites_.push_back(std::move(site));
    segment_begin_.push_back(steps_.size());
  }
  segment_begin_.push_back(steps_.size());
}

void SvProgram::run_segment(cplx* state, std::size_t segment) const {
  const std::size_t size = dim();
  for (std::size_t i = segment_begin_[segment]; i < segment_begin_[segment + 1]; ++i) {
    const Step& s = steps_[i];
    if (s.two)
      kernels::apply2(state, size, s.m2, s.bit_a, s.bit_b);
    else
      kernels::apply1(state, size, s.m1, s.bit_a);
  }
}

void SvProgram::start(std::vector<cplx>& state) const {
  state.assign(dim(), cplx{0.0, 0.0});
  state[psi_bits_] = cplx{1.0, 0.0};
  run_segment(state.data(), 0);
}

double SvProgram::born(const cplx* state, std::size_t site, std::size_t k, cplx* scratch) const {
  const Site& s = sites_[site];
  if (!s.two) return kernels::expectation1(state, dim(), s.born1[k], s.bit_a).real();
  kernels::apply2(state, scratch, dim(), s.kraus2[k], s.bit_a, s.bit_b);
  return kernels::norm2(scratch, dim());
}

void SvProgram::advance(cplx* state, std::size_t site, std::size_t k, double p) const {
  const Site& s = sites_[site];
  const std::size_t size = dim();
  if (s.two)
    kernels::apply2(state, size, s.kraus2[k], s.bit_a, s.bit_b);
  else
    kernels::apply1(state, size, s.kraus1[k], s.bit_a);
  if (p > 0.0) {
    // A general 2x2 pass, not a scalar multiply: the 0 * b terms decide
    // the sign of zero amplitudes, which must match a plain
    // diag(scale, scale) application bit for bit.
    const cplx scale{1.0 / std::sqrt(p), 0.0};
    kernels::apply1(state, size, kernels::Mat2{scale, cplx{0.0, 0.0}, cplx{0.0, 0.0}, scale},
                    s.bit_a);
  }
  run_segment(state, site + 1);
}

SvSampler::SvSampler(const SvProgram& prog, std::size_t max_levels)
    : prog_(&prog), levels_(std::min(max_levels, prog.sites())) {}

const cplx* SvSampler::state_at(std::size_t level) {
  if (level < levels_) return checkpoint(level);
  load(level);
  return cur_.data();
}

void SvSampler::load(std::size_t level) {
  if (cur_level_ == level) return;
  const std::size_t dim = prog_->dim();
  if (level < levels_) {
    std::copy(checkpoint(level), checkpoint(level) + dim, cur_.begin());
    cur_level_ = level;
    return;
  }
  // Beyond the stored levels: replay the cached path forward from the
  // deepest stored level, unless cur_ already sits between it and `level`.
  if (cur_level_ == kNone || cur_level_ > level || cur_level_ + 1 < levels_) {
    if (levels_ > 0) {
      std::copy(checkpoint(levels_ - 1), checkpoint(levels_ - 1) + dim, cur_.begin());
      cur_level_ = levels_ - 1;
    } else {
      prog_->start(cur_);
      cur_level_ = 0;
    }
  }
  for (; cur_level_ < level; ++cur_level_) {
    const Level& l = path_[cur_level_];
    prog_->advance(cur_.data(), cur_level_, l.choice, l.probs[l.choice]);
  }
}

double SvSampler::operator()(std::mt19937_64& rng) {
  const SvProgram& prog = *prog_;
  const std::size_t sites = prog.sites();
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  auto choose = [&](std::size_t level, const cplx* state) {
    Level& l = path_[level];
    return choose_kraus(unif(rng), prog.sites_[level].kraus_count, l.probs,
                        [&](std::size_t k) {
                          return prog.born(state ? state : state_at(level), level, k,
                                           scratch_.data());
                        });
  };

  std::size_t j = 0;
  if (have_path_) {
    // Follow the cached path while the draws pick its operators.
    for (; j < sites; ++j) {
      const std::size_t k = choose(j, nullptr);
      if (k != path_[j].choice) {
        load(j);
        path_[j].choice = k;
        break;
      }
    }
    if (j == sites) return leaf_;
  } else {
    ckpt_.resize(levels_ * prog.dim());
    if (prog.two_qubit_noise_) scratch_.resize(prog.dim());
    path_.resize(sites);
    prog.start(cur_);
    if (sites == 0) {
      leaf_ = prog.leaf(cur_.data());
      have_path_ = true;
      return leaf_;
    }
    if (levels_ > 0) std::copy(cur_.begin(), cur_.end(), checkpoint(0));
    path_[0].choice = choose(0, cur_.data());
  }

  // Recompute from level j (cur_ holds its state, its choice is made),
  // storing the new path's levels as they are reached.
  cur_level_ = kNone;
  for (;;) {
    const Level& l = path_[j];
    prog.advance(cur_.data(), j, l.choice, l.probs[l.choice]);
    if (++j == sites) break;
    path_[j].probs.clear();
    if (j < levels_) std::copy(cur_.begin(), cur_.end(), checkpoint(j));
    path_[j].choice = choose(j, cur_.data());
  }
  leaf_ = prog.leaf(cur_.data());
  have_path_ = true;
  return leaf_;
}

}  // namespace noisim::sim
