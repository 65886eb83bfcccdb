#include "core/trajectories_tn.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/plan_cache.hpp"

namespace noisim::core {

namespace {

// Skeleton gate list with one identity placeholder per noise site, plus the
// per-site unitary mixtures. Built once per estimate and shared read-only by
// all workers (each worker samples into its own copy of `gates`). Each
// placeholder has the arity, qubits and gate index of Algorithm 1's
// placeholder for the same site (approx.cpp build_base), so both skeletons
// share one PlanCache::plan_key and one compiled plan.
struct TnSkeleton {
  std::vector<qc::Gate> gates;
  std::vector<std::size_t> site_gate_index;
  std::vector<ch::UnitaryMixture> mixtures;
};

// Mixture probabilities may deviate from sum 1 by roundoff (tiny Kraus
// terms are dropped by unitary_mixture, completeness is validated to 1e-9);
// anything past this is an unnormalized channel, not noise.
constexpr double kMixtureSumTol = 1e-6;

TnSkeleton build_skeleton(const ch::NoisyCircuit& nc) {
  TnSkeleton sk;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      sk.gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    auto mix = noise.channel.unitary_mixture();
    la::detail::require(mix.has_value(),
                        "trajectories_tn: channel is not a mixture of unitaries");
    // Validate and normalize the mixture up front: the inverse-CDF sampler
    // below assumes a probability distribution. An unnormalized mixture
    // (e.g. a non-CPTP Kraus set) used to fall through sample_index and
    // silently sample the LAST unitary with the whole missing mass.
    la::detail::require(!mix->probs.empty(),
                        "trajectories_tn: channel has no unitary component");
    double sum = 0.0;
    for (const double p : mix->probs) {
      la::detail::require(p >= 0.0, "trajectories_tn: negative mixture probability");
      sum += p;
    }
    if (std::abs(sum - 1.0) > kMixtureSumTol)
      la::detail::fail("trajectories_tn: mixture probabilities sum to " +
                       std::to_string(sum) + ", not 1 (unnormalized channel)");
    for (double& p : mix->probs) p /= sum;
    sk.site_gate_index.push_back(sk.gates.size());
    if (noise.num_qubits() == 1)
      sk.gates.push_back(qc::u1q(noise.qubit, la::Matrix::identity(2)));
    else
      sk.gates.push_back(qc::u2q(noise.qubit, noise.qubit2, la::Matrix::identity(4)));
    sk.mixtures.push_back(std::move(*mix));
  }
  return sk;
}

// Inverse-CDF draw from a normalized probability vector. Unlike
// std::discrete_distribution, this carries no state across calls, so the
// engine's per-chunk RNG reseeding fully determines every draw. The
// skeleton builder normalizes every mixture, so running past the last
// bucket can only be top-of-CDF roundoff (u within a few ulp of 1);
// anything bigger means the distribution is corrupted and fails loudly
// instead of silently returning the last index.
std::size_t sample_index(const std::vector<double>& probs, std::mt19937_64& rng) {
  la::detail::require(!probs.empty(), "sample_index: empty probability vector");
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  const double u = unif(rng);
  double cumulative = 0.0;
  for (std::size_t k = 0; k < probs.size(); ++k) {
    cumulative += probs[k];
    if (u < cumulative) return k;
  }
  if (u >= cumulative + 1e-12)
    la::detail::fail("sample_index: cumulative probability " + std::to_string(cumulative) +
                     " leaves the draw uncovered (unnormalized distribution)");
  return probs.size() - 1;  // top-of-CDF rounding only
}

// One trajectory through the per-call-planned path: sample a unitary per
// site into `gates` (a worker-private copy) and evaluate the resulting
// noiseless amplitude from scratch.
double sample_once(const TnSkeleton& sk, std::vector<qc::Gate>& gates, int n,
                   std::uint64_t psi_bits, std::uint64_t v_bits, std::mt19937_64& rng,
                   const EvalOptions& eval) {
  for (std::size_t site = 0; site < sk.mixtures.size(); ++site) {
    const std::size_t k = sample_index(sk.mixtures[site].probs, rng);
    gates[sk.site_gate_index[site]].custom = sk.mixtures[site].unitaries[k];
  }
  return std::norm(amplitude(n, gates, psi_bits, v_bits, false, eval));
}

// Plan-replay machinery for the tensor-network backend: every sample shares
// the skeleton's topology, so the contraction plan is compiled once and
// replayed per trajectory with only the sampled site tensors substituted.
// The template comes from the caller's PlanCache when one is passed (the
// skeleton places each same-arity placeholder where Algorithm 1's skeleton
// does, so a plan compiled for an Algorithm-1 estimate is reused), else from
// a context-local one. When `batch_capacity` > 1 a batched replay is
// compiled on top, executing up to that many samples per plan traversal
// (chunk-at-a-time sampling); if the batched arena exceeds the workspace
// budget the per-sample path fits, the context silently falls back to
// sample-at-a-time replay, which produces bit-identical estimates.
struct TnPlanContext {
  PlanCache local{1};  // declared before entry, which may come from it
  std::shared_ptr<const PlanCache::Entry> entry;
  const AmplitudeTemplate& tmpl;
  std::vector<std::size_t> site_node;
  // Tensorized mixture unitaries per (site, mixture index) -- sampling then
  // allocates nothing per trajectory.
  std::vector<std::vector<tsr::Tensor>> site_tensors;
  std::shared_ptr<const tn::BatchedPlan> bplan;

  TnPlanContext(const ch::NoisyCircuit& nc, const TnSkeleton& sk, std::uint64_t psi_bits,
                std::uint64_t v_bits, const EvalOptions& eval, std::size_t batch_capacity,
                PlanCache* cache)
      : entry((cache ? *cache : local)
                  .amplitude_template(nc.num_qubits(), sk.gates, psi_bits, v_bits,
                                      /*conjugate=*/false,
                                      resolved_eval_options(nc.num_qubits(), sk.gates, eval))),
        tmpl(entry->tmpl()) {
    site_node.reserve(sk.mixtures.size());
    site_tensors.reserve(sk.mixtures.size());
    for (std::size_t site = 0; site < sk.mixtures.size(); ++site) {
      site_node.push_back(tmpl.node_of_gate(sk.site_gate_index[site]));
      const qc::Gate& g = sk.gates[sk.site_gate_index[site]];
      std::vector<tsr::Tensor> tensors;
      tensors.reserve(sk.mixtures[site].unitaries.size());
      for (const la::Matrix& u : sk.mixtures[site].unitaries)
        tensors.push_back(gate_matrix_tensor(u, g.num_qubits()));
      site_tensors.push_back(std::move(tensors));
    }
    if (batch_capacity > 1) {
      // Each site draws from its fixed unitary mixture, which bounds every
      // step's distinct rows by the mixture-size product of its cone.
      std::vector<std::size_t> variant_counts(sk.mixtures.size());
      for (std::size_t site = 0; site < sk.mixtures.size(); ++site)
        variant_counts[site] = sk.mixtures[site].unitaries.size();
      try {
        bplan = entry->batched(
            PlanCache::batched_key(site_node, batch_capacity, variant_counts,
                                   static_cast<std::size_t>(-1), {}),
            [&] {
              return tmpl.compile_batched(site_node, batch_capacity, nullptr, variant_counts);
            });
      } catch (const MemoryOutError&) {
        // Batch-aware workspace budget exceeded; per-sample replay still fits.
      }
    }
  }
};

// One trajectory through the plan-replay path. Draws the same RNG stream in
// the same order as sample_once, so both paths produce identical estimates.
double sample_once_plan(const TnSkeleton& sk, const TnPlanContext& ctx,
                        AmplitudeTemplate::Session& session,
                        std::vector<AmplitudeTemplate::Substitution>& subs,
                        std::mt19937_64& rng) {
  for (std::size_t site = 0; site < sk.mixtures.size(); ++site) {
    const std::size_t k = sample_index(sk.mixtures[site].probs, rng);
    subs[site] = {ctx.site_node[site], &ctx.site_tensors[site][k]};
  }
  return std::norm(session.evaluate(subs));
}

// A whole chunk of trajectories in one batched plan traversal: the per-site
// draws happen sample-by-sample in the same RNG order as sample_once_plan,
// then all sampled networks execute at once (shared gates broadcast,
// repeated unitary draws deduplicated). Each sample's amplitude is
// bit-identical to the per-sample replay.
void sample_chunk_plan(const TnSkeleton& sk, const TnPlanContext& ctx,
                       AmplitudeTemplate::BatchedSession& session,
                       std::vector<const tsr::Tensor*>& ptrs, std::vector<cplx>& amps,
                       std::mt19937_64& rng, std::span<double> out) {
  const std::size_t num_sites = sk.mixtures.size();
  const std::size_t k = out.size();
  for (std::size_t t = 0; t < k; ++t)
    for (std::size_t site = 0; site < num_sites; ++site) {
      const std::size_t j = sample_index(sk.mixtures[site].probs, rng);
      ptrs[t * num_sites + site] = &ctx.site_tensors[site][j];
    }
  session.evaluate(std::span(ptrs).first(k * num_sites), k, amps);
  for (std::size_t t = 0; t < k; ++t) out[t] = std::norm(amps[t]);
}

// Plan reuse applies when the contraction backend runs and the gate list is
// shape-stable per sample (simplify would cancel differently per draw).
bool plan_replay_applies(const EvalOptions& eval, int n) {
  return uses_tensor_network(eval, n) && !eval.simplify;
}

}  // namespace

bool trajectories_tn_eligible(const ch::NoisyCircuit& nc) {
  // Mirrors build_skeleton's channel validation without throwing.
  for (const ch::Op& op : nc.ops()) {
    const ch::NoiseOp* noise = std::get_if<ch::NoiseOp>(&op);
    if (!noise) continue;
    const auto mix = noise->channel.unitary_mixture();
    if (!mix.has_value() || mix->probs.empty()) return false;
    double sum = 0.0;
    for (const double p : mix->probs) {
      if (p < 0.0) return false;
      sum += p;
    }
    if (std::abs(sum - 1.0) > kMixtureSumTol) return false;
  }
  return true;
}

sim::TrajectoryResult trajectories_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t samples,
                                      std::mt19937_64& rng, const EvalOptions& eval) {
  // Zero samples is a well-defined empty estimate; in particular it must
  // not reach the plan context below (a capacity-0 batched plan).
  if (samples == 0) return {};
  const int n = nc.num_qubits();
  TnSkeleton sk = build_skeleton(nc);

  // Batch granularity of the streaming overload; mirrors the parallel
  // engine's default chunk size.
  constexpr std::size_t kStreamBatch = 32;

  std::optional<TnPlanContext> ctx;
  std::optional<AmplitudeTemplate::Session> session;
  std::vector<AmplitudeTemplate::Substitution> subs(sk.mixtures.size());
  std::vector<qc::Gate> gates;
  if (plan_replay_applies(eval, n)) {
    ctx.emplace(nc, sk, psi_bits, v_bits, eval, std::min(kStreamBatch, samples),
                /*cache=*/nullptr);
    if (!ctx->bplan) session.emplace(ctx->tmpl.session());
  } else {
    gates = sk.gates;
  }

  double sum = 0.0, sum_sq = 0.0;
  if (ctx && ctx->bplan) {
    const std::size_t cap = ctx->bplan->capacity();
    AmplitudeTemplate::BatchedSession batched(ctx->tmpl, *ctx->bplan);
    std::vector<const tsr::Tensor*> ptrs(cap * sk.mixtures.size());
    std::vector<cplx> amps(cap);
    std::vector<double> values(cap);
    for (std::size_t s = 0; s < samples; s += cap) {
      const std::size_t k = std::min(cap, samples - s);
      sample_chunk_plan(sk, *ctx, batched, ptrs, amps, rng,
                        std::span<double>(values.data(), k));
      for (std::size_t t = 0; t < k; ++t) {
        sum += values[t];
        sum_sq += values[t] * values[t];
      }
    }
  } else {
    for (std::size_t s = 0; s < samples; ++s) {
      const double f = ctx ? sample_once_plan(sk, *ctx, *session, subs, rng)
                           : sample_once(sk, gates, n, psi_bits, v_bits, rng, eval);
      sum += f;
      sum_sq += f * f;
    }
  }

  sim::TrajectoryResult out;
  out.samples = samples;
  out.mean = sum / static_cast<double>(samples);
  if (samples > 1) {
    const double var =
        (sum_sq - sum * sum / static_cast<double>(samples)) / static_cast<double>(samples - 1);
    out.std_error = std::sqrt(std::max(0.0, var) / static_cast<double>(samples));
  }
  return out;
}

sim::TrajectoryResult trajectories_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t samples,
                                      std::uint64_t seed, const sim::ParallelOptions& popts,
                                      const EvalOptions& eval, PlanCache* plan_cache) {
  // Guard before the plan context: samples == 0 used to compile a
  // capacity-0 batched plan through std::min(chunk_size, samples).
  if (samples == 0) return {};
  const int n = nc.num_qubits();
  const TnSkeleton sk = build_skeleton(nc);

  if (plan_replay_applies(eval, n)) {
    // Shared immutable plans; per-worker sessions (workspace + input table)
    // and substitution buffers, so replays never contend. Whole RNG chunks
    // evaluate through one batched traversal when the batched plan fits the
    // workspace budget; either way the estimate is bit-identical.
    const std::size_t cap = std::min(std::max<std::size_t>(popts.chunk_size, 1), samples);
    const TnPlanContext ctx(nc, sk, psi_bits, v_bits, eval, cap, plan_cache);
    if (ctx.bplan) {
      auto make_sampler = [&](std::size_t) -> sim::ShardChunkSampler {
        auto session =
            std::make_shared<AmplitudeTemplate::BatchedSession>(ctx.tmpl, *ctx.bplan);
        auto ptrs =
            std::make_shared<std::vector<const tsr::Tensor*>>(cap * sk.mixtures.size());
        auto amps = std::make_shared<std::vector<cplx>>(cap);
        return [&sk, &ctx, session, ptrs, amps](std::mt19937_64& rng, std::size_t, std::size_t,
                                                std::size_t, std::span<double> out) {
          sample_chunk_plan(sk, ctx, *session, *ptrs, *amps, rng, out);
        };
      };
      return sim::run_trajectories_sharded(samples, 1, 1, seed, make_sampler, popts)[0];
    }
    auto make_sampler = [&](std::size_t) -> sim::Sampler {
      auto session = std::make_shared<AmplitudeTemplate::Session>(ctx.tmpl.session());
      auto subs = std::make_shared<std::vector<AmplitudeTemplate::Substitution>>(
          sk.mixtures.size());
      return [&sk, &ctx, session, subs](std::mt19937_64& rng) {
        return sample_once_plan(sk, ctx, *session, *subs, rng);
      };
    };
    return sim::run_trajectories(samples, seed, make_sampler, popts);
  }

  auto make_sampler = [&](std::size_t) -> sim::Sampler {
    // Worker-private scratch: the gate list the sampled unitaries land in.
    auto gates = std::make_shared<std::vector<qc::Gate>>(sk.gates);
    return [&sk, gates, n, psi_bits, v_bits, eval](std::mt19937_64& rng) {
      return sample_once(sk, *gates, n, psi_bits, v_bits, rng, eval);
    };
  };
  return sim::run_trajectories(samples, seed, make_sampler, popts);
}

std::vector<sim::TrajectoryResult> trajectories_tn_sweep(
    const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
    std::span<const std::uint64_t> v_bits, std::size_t samples, std::uint64_t seed,
    const sim::ParallelOptions& popts, const EvalOptions& eval,
    std::size_t shard_outputs) {
  const std::size_t K = v_bits.size();
  if (K == 0) return {};
  if (samples == 0) return std::vector<sim::TrajectoryResult>(K);
  const int n = nc.num_qubits();
  const std::size_t nn = static_cast<std::size_t>(n);
  const TnSkeleton sk = build_skeleton(nc);
  const std::size_t num_sites = sk.mixtures.size();
  constexpr std::size_t kOutputBatch = 32;

  if (plan_replay_applies(eval, n)) {
    const std::size_t shard = std::min(K, shard_outputs > 0 ? shard_outputs : kOutputBatch);
    const TnPlanContext ctx(nc, sk, psi_bits, v_bits[0], eval, /*batch_capacity=*/1,
                            /*cache=*/nullptr);

    std::vector<const tsr::Tensor*> caps_of_output(K * nn);
    for (std::size_t o = 0; o < K; ++o)
      ctx.tmpl.fill_output_caps(v_bits[o], std::span(caps_of_output).subspan(o * nn, nn));

    // One traversal covers up to the output-batched width; shards wider
    // than it walk sub-chunks, narrower ones just underfill the plan.
    const std::size_t ocap = std::min(shard, kOutputBatch);
    std::optional<tn::BatchedPlan> obplan;
    try {
      obplan.emplace(ctx.tmpl.compile_batched_outputs(ocap));
      if (!output_batch_worthwhile(*obplan)) obplan.reset();
    } catch (const MemoryOutError&) {
      // Batch-aware workspace budget exceeded; the per-output session
      // replay below fits and produces bit-identical estimates.
    }

    if (obplan) {
      auto make_sampler = [&](std::size_t) -> sim::ShardChunkSampler {
        auto session =
            std::make_shared<AmplitudeTemplate::BatchedSession>(ctx.tmpl, *obplan);
        auto subs = std::make_shared<std::vector<AmplitudeTemplate::Substitution>>(num_sites);
        auto ptrs = std::make_shared<std::vector<const tsr::Tensor*>>(ocap * nn);
        auto amps = std::make_shared<std::vector<cplx>>(ocap);
        return [&sk, &ctx, &caps_of_output, nn, ocap, num_sites, session, subs, ptrs, amps](
                   std::mt19937_64& rng, std::size_t shard_begin, std::size_t shard_count,
                   std::size_t count, std::span<double> out) {
          for (std::size_t s = 0; s < count; ++s) {
            // One draw set per trajectory, in sample order -- the same RNG
            // consumption as every single-output path.
            for (std::size_t site = 0; site < num_sites; ++site) {
              const std::size_t j = sample_index(sk.mixtures[site].probs, rng);
              (*subs)[site] = {ctx.site_node[site], &ctx.site_tensors[site][j]};
            }
            for (std::size_t o0 = 0; o0 < shard_count; o0 += ocap) {
              const std::size_t k = std::min(ocap, shard_count - o0);
              const std::size_t cap0 = (shard_begin + o0) * nn;
              std::copy(caps_of_output.begin() + static_cast<std::ptrdiff_t>(cap0),
                        caps_of_output.begin() + static_cast<std::ptrdiff_t>(cap0 + k * nn),
                        ptrs->begin());
              session->evaluate(*subs, std::span(*ptrs).first(k * nn), k,
                                std::span<cplx>(*amps));
              for (std::size_t t = 0; t < k; ++t)
                out[s * shard_count + o0 + t] = std::norm((*amps)[t]);
            }
          }
        };
      };
      return sim::run_trajectories_sharded(samples, K, shard, seed, make_sampler, popts);
    }

    auto make_sampler = [&](std::size_t) -> sim::ShardChunkSampler {
      auto session = std::make_shared<AmplitudeTemplate::Session>(ctx.tmpl.session());
      auto subs =
          std::make_shared<std::vector<AmplitudeTemplate::Substitution>>(num_sites + nn);
      return [&sk, &ctx, &caps_of_output, nn, num_sites, session, subs](
                 std::mt19937_64& rng, std::size_t shard_begin, std::size_t shard_count,
                 std::size_t count, std::span<double> out) {
        for (std::size_t s = 0; s < count; ++s) {
          for (std::size_t site = 0; site < num_sites; ++site) {
            const std::size_t j = sample_index(sk.mixtures[site].probs, rng);
            (*subs)[site] = {ctx.site_node[site], &ctx.site_tensors[site][j]};
          }
          for (std::size_t o = 0; o < shard_count; ++o) {
            for (std::size_t q = 0; q < nn; ++q)
              (*subs)[num_sites + q] = {ctx.tmpl.node_of_output_cap(static_cast<int>(q)),
                                        caps_of_output[(shard_begin + o) * nn + q]};
            out[s * shard_count + o] = std::norm(session->evaluate(*subs));
          }
        }
      };
    };
    return sim::run_trajectories_sharded(samples, K, shard, seed, make_sampler, popts);
  }

  // Non-replay backends: one evolution scores a whole shard, so the default
  // shard is all K (sharding would repeat the evolution per shard; explicit
  // shards stay bit-identical, just costlier).
  const std::size_t shard = std::min(K, shard_outputs > 0 ? shard_outputs : K);
  auto make_sampler = [&](std::size_t) -> sim::ShardChunkSampler {
    auto gates = std::make_shared<std::vector<qc::Gate>>(sk.gates);
    return [&sk, gates, n, psi_bits, v_bits, eval](std::mt19937_64& rng,
                                                   std::size_t shard_begin,
                                                   std::size_t shard_count,
                                                   std::size_t count, std::span<double> out) {
      for (std::size_t s = 0; s < count; ++s) {
        for (std::size_t site = 0; site < sk.mixtures.size(); ++site) {
          const std::size_t j = sample_index(sk.mixtures[site].probs, rng);
          (*gates)[sk.site_gate_index[site]].custom = sk.mixtures[site].unitaries[j];
        }
        const std::vector<cplx> amps =
            batch_amplitudes(n, *gates, psi_bits, v_bits.subspan(shard_begin, shard_count),
                             /*conjugate=*/false, eval);
        for (std::size_t o = 0; o < shard_count; ++o)
          out[s * shard_count + o] = std::norm(amps[o]);
      }
    };
  };
  return sim::run_trajectories_sharded(samples, K, shard, seed, make_sampler, popts);
}

}  // namespace noisim::core
