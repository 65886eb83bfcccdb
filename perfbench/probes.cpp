#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <span>

#include "core/superop.hpp"
#include "sim/statevector.hpp"
#include "tensor/aligned.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {

using namespace noisim;

namespace {

// Bounds one per-strategy probe compile; a strategy that needs longer is
// recorded as a timeout (the op itself compiles under no deadline).
constexpr double kStrategyTimeout = 2.0;
// Replays per probe; the span total is divided by this count.
constexpr std::size_t kReplays = 5;

constexpr tn::OrderStrategy kStrategies[] = {
    tn::OrderStrategy::Greedy, tn::OrderStrategy::PairwiseRecursive,
    tn::OrderStrategy::Bracket, tn::OrderStrategy::Alternating,
    tn::OrderStrategy::RandomGreedy};

tsr::aligned_vector<cplx> random_buffer(std::size_t elems, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  tsr::aligned_vector<cplx> buf(std::max<std::size_t>(elems, 1));
  for (cplx& x : buf) x = cplx(u(rng), u(rng));
  return buf;
}

double per_op(double sum, std::size_t ops) {
  return ops > 0 ? sum / static_cast<double>(ops) : 0.0;
}

double kernel_roof_gflops(Tracer& tr) {
  constexpr std::size_t d = 64;
  std::mt19937_64 rng(d);
  const tsr::aligned_vector<cplx> a = random_buffer(d * d, rng), b = random_buffer(d * d, rng);
  tsr::aligned_vector<cplx> out(d * d);
  const tsr::KernelTable& kt = tsr::active_kernels();
  constexpr std::size_t reps = 200;
  Tracer::Scope s(tr, "tensor.kernel.roof");
  for (std::size_t r = 0; r < reps; ++r) kt.matmul(a.data(), b.data(), out.data(), d, d, d);
  return 8.0 * static_cast<double>(d * d * d * reps) / s.elapsed() / 1e9;
}

double at(const Layers& L, const std::string& key) {
  const auto it = L.find(key);
  return it == L.end() ? 0.0 : it->second;
}

}  // namespace

std::uint64_t likely_output(const qc::Circuit& c) {
  sim::Statevector sv(c.num_qubits());
  sv.apply_circuit(c);
  std::uint64_t best = 0;
  double best_p = -1.0;
  for (std::uint64_t i = 0; i < sv.size(); ++i) {
    const double p = std::norm(sv.amplitude(i));
    if (p > best_p) {
      best_p = p;
      best = i;
    }
  }
  return best;
}

Skeleton approx_skeleton(const ch::NoisyCircuit& nc) {
  Skeleton sk;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      sk.gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    qc::Gate tag = qc::u1q(noise.qubit, la::Matrix{{2.0, 0.0}, {0.0, 3.0}});
    tag.params = {static_cast<double>(sk.site_pos.size())};
    sk.site_pos.push_back(sk.gates.size());
    sk.channels.push_back(&noise.channel);
    sk.gates.push_back(std::move(tag));
  }
  return sk;
}

std::shared_ptr<const core::PlanCache::Entry> top_template(core::PlanCache& cache, int n,
                                                           const Skeleton& sk,
                                                           std::uint64_t v_bits) {
  const std::string key = core::PlanCache::template_key(
      n, sk.gates, 0, v_bits, /*conjugate=*/false,
      core::resolved_contract_options(n, sk.gates, core::EvalOptions{}));
  return cache.entry(key, [&] {
    return core::AmplitudeTemplate(n, sk.gates, 0, v_bits, false, core::EvalOptions{});
  });
}

double probe_compile(Tracer& tr, Layers& L, int n, const Skeleton& sk, std::uint64_t v_bits) {
  const tn::Network net = core::amplitude_network(n, sk.gates, 0, v_bits);
  const tn::ContractOptions base =
      core::resolved_contract_options(n, sk.gates, core::EvalOptions{});
  L["plan.probes"] += 1;
  double auto_s = 0.0;
  try {
    Tracer::Scope s(tr, "tn.plan.compile");
    const tn::ContractionPlan plan = tn::ContractionPlan::compile(net, base);
    auto_s = s.elapsed();
    L["tn.plan.flops"] += static_cast<double>(plan.total_flops());
  } catch (const MemoryOutError&) {
    L["tn.plan.mo"] += 1;
  } catch (const TimeoutError&) {
    L["tn.plan.to"] += 1;
  }
  for (const tn::OrderStrategy strategy : kStrategies) {
    tn::ContractOptions opts = base;
    opts.strategy = strategy;
    opts.timeout_seconds = kStrategyTimeout;
    try {
      Tracer::Scope s(tr, std::string("tn.plan.compile.") + tn::order_strategy_name(strategy));
      const tn::ContractionPlan plan = tn::ContractionPlan::compile(net, opts);
      if (strategy == tn::OrderStrategy::Greedy)
        L["tn.plan.flops.greedy"] += static_cast<double>(plan.total_flops());
    } catch (const MemoryOutError&) {
      L["tn.plan.mo"] += 1;
    } catch (const TimeoutError&) {
      L["tn.plan.to"] += 1;
    }
  }
  return auto_s;
}

void probe_replay(Tracer& tr, Layers& L, const core::AmplitudeTemplate& tmpl,
                  const Skeleton& sk, std::size_t level, std::size_t outputs,
                  std::uint64_t seed) {
  const std::size_t sites = sk.site_pos.size();
  if (sites == 0) return;
  level = std::max<std::size_t>(level, 1);

  // Top-layer SVD factors of every site (dominant first).
  std::vector<std::vector<tsr::Tensor>> factors(sites);
  for (std::size_t j = 0; j < sites; ++j)
    for (const la::Matrix& u : core::split_noise(*sk.channels[j]).u)
      factors[j].push_back(core::gate_matrix_tensor(u, 1));

  std::vector<std::size_t> slots;
  for (const std::size_t pos : sk.site_pos) slots.push_back(tmpl.node_of_gate(pos));
  std::vector<std::size_t> counts(sites, 4);
  std::vector<char> unconstrained(sites, 0);
  const std::vector<std::size_t> caps = tmpl.output_cap_nodes();
  if (outputs > 0) {
    slots.insert(slots.end(), caps.begin(), caps.end());
    counts.resize(slots.size(), 2);
    unconstrained.resize(slots.size(), 1);
  }
  const std::size_t V = slots.size();

  // Terms 0..: all-dominant, then one site at a time on each subdominant
  // factor -- the head of the Algorithm-1 enumeration at level >= 1.
  const std::size_t terms =
      std::min<std::size_t>(outputs > 0 ? 8 : 32, 1 + 3 * sites);
  const std::size_t k = terms * std::max<std::size_t>(outputs, 1);
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> bits(std::max<std::size_t>(outputs, 1));
  for (std::uint64_t& b : bits) b = rng();
  std::vector<const tsr::Tensor*> ptrs(k * V);
  for (std::size_t t = 0; t < terms; ++t)
    for (std::size_t o = 0; o < bits.size(); ++o) {
      const tsr::Tensor** row = &ptrs[(t * bits.size() + o) * V];
      for (std::size_t j = 0; j < sites; ++j) row[j] = &factors[j][0];
      if (t > 0) row[(t - 1) / 3] = &factors[(t - 1) / 3][1 + (t - 1) % 3];
      if (outputs > 0) tmpl.fill_output_caps(bits[o], std::span(row + sites, caps.size()));
    }

  std::optional<tn::BatchedPlan> bplan;
  {
    Tracer::Scope s(tr, "tn.plan.compile_batched");
    bplan.emplace(tmpl.compile_batched(slots, k, nullptr, counts, level, unconstrained));
  }
  core::AmplitudeTemplate::BatchedSession session(tmpl, *bplan);
  std::vector<cplx> out(k);
  for (std::size_t r = 0; r < kReplays; ++r) {
    Tracer::Scope s(tr, "tn.exec.replay");
    session.evaluate(ptrs, k, out);
  }
  L["tn.exec.replays"] += kReplays;
  L["tn.exec.flops"] += static_cast<double>(session.stats().flops);
  L["tn.exec.bytes_moved"] += static_cast<double>(session.stats().bytes_moved);
  L["tn.exec.seq_flop_fraction"] += bplan->sequential_flop_fraction();
  L["tn.exec.plans"] += 1;
}

void probe_kernel(Tracer& tr, Layers& L, const tn::ContractionPlan& plan) {
  const tsr::KernelTable& kt = tsr::active_kernels();
  std::mt19937_64 rng(plan.total_flops());
  struct Shape {
    tsr::detail::MatmulFn fn;
    std::size_t m, k, n;
    tsr::aligned_vector<cplx> a, b, out;
  };
  std::vector<Shape> shapes;
  double flops = 0.0;
  for (const tn::PlanStep& st : plan.steps()) {
    shapes.push_back({kt.select(st.m, st.k, st.n), st.m, st.k, st.n,
                      random_buffer(st.m * st.k, rng), random_buffer(st.k * st.n, rng),
                      tsr::aligned_vector<cplx>(st.m * st.n)});
    flops += static_cast<double>(st.m * st.k * st.n);
  }
  if (flops == 0.0) return;
  // Enough passes over the schedule for a ~5 ms measurement.
  const std::size_t passes = std::clamp<std::size_t>(
      static_cast<std::size_t>(2e6 / flops), 1, 1000);
  Tracer::Scope s(tr, "tensor.kernel");
  for (std::size_t p = 0; p < passes; ++p)
    for (Shape& sh : shapes) sh.fn(sh.a.data(), sh.b.data(), sh.out.data(), sh.m, sh.k, sh.n);
  L["kernel.seconds"] += s.elapsed();
  L["kernel.flops"] += flops * static_cast<double>(passes);
}

void probe_split(Tracer& tr, const ch::NoisyCircuit& nc) {
  Tracer::Scope s(tr, "core.superop.split");
  for (const ch::Op& op : nc.ops())
    if (const ch::NoiseOp* noise = std::get_if<ch::NoiseOp>(&op))
      (void)core::split_noise(noise->channel);
}

void add_kernel_calls(Layers& L, const tn::ContractStats& stats) {
  L["tensor.kernel.calls.scalar"] += static_cast<double>(stats.kernels_scalar);
  L["tensor.kernel.calls.avx2"] += static_cast<double>(stats.kernels_avx2);
  L["tensor.kernel.calls.avx512"] += static_cast<double>(stats.kernels_avx512);
}

void finish_trace(Tracer& tr, std::size_t ops, const std::vector<double>& untraced,
                  std::map<std::string, double>& out) {
  out["trace.ops"] = static_cast<double>(ops);
  out["trace.op_s"] = per_op(tr.total("op"), ops);
  out["trace.coverage"] = tr.coverage("op");
  const double base = median(untraced);
  out["trace.overhead"] = base > 0.0 ? median(tr.durations("op")) / base - 1.0 : 0.0;
  out["tensor.kernel.roof_gflops"] = kernel_roof_gflops(tr);
}

void finish_tn_layers(const Tracer& tr, const Layers& L, std::size_t ops,
                      std::map<std::string, double>& out) {
  out["tn.plan.compile_s"] = per_op(tr.total("tn.plan.compile"), ops);
  for (const tn::OrderStrategy strategy : kStrategies) {
    const std::string name = std::string("tn.plan.compile.") + tn::order_strategy_name(strategy);
    out[std::string("tn.plan.compile_s.") + tn::order_strategy_name(strategy)] =
        per_op(tr.total(name), ops);
  }
  const double probes = at(L, "plan.probes");
  out["tn.plan.flops"] = probes > 0 ? at(L, "tn.plan.flops") / probes : 0.0;
  out["tn.plan.flops.greedy"] = probes > 0 ? at(L, "tn.plan.flops.greedy") / probes : 0.0;
  out["tn.plan.mo"] = at(L, "tn.plan.mo");
  out["tn.plan.to"] = at(L, "tn.plan.to");
  out["tn.plan.compile_batched_s"] = per_op(tr.total("tn.plan.compile_batched"), ops);

  const double replays = at(L, "tn.exec.replays");
  const double replay_s = tr.total("tn.exec.replay");
  out["tn.exec.replay_s"] = replays > 0 ? replay_s / replays : 0.0;
  out["tn.exec.flops"] = replays > 0 ? at(L, "tn.exec.flops") / replays : 0.0;
  out["tn.exec.bytes_moved"] = replays > 0 ? at(L, "tn.exec.bytes_moved") / replays : 0.0;
  out["tn.exec.gflops"] = replay_s > 0 ? 8.0 * at(L, "tn.exec.flops") / replay_s / 1e9 : 0.0;
  const double plans = at(L, "tn.exec.plans");
  out["tn.exec.seq_flop_fraction"] = plans > 0 ? at(L, "tn.exec.seq_flop_fraction") / plans : 0.0;

  const double ks = at(L, "kernel.seconds");
  out["tensor.kernel.gflops"] = ks > 0 ? 8.0 * at(L, "kernel.flops") / ks / 1e9 : 0.0;
  for (const char* tier : {"scalar", "avx2", "avx512"}) {
    const std::string name = std::string("tensor.kernel.calls.") + tier;
    out[name] = at(L, name);
  }
  out["core.superop.split_s"] = per_op(tr.total("core.superop.split"), ops);
}

}  // namespace perfbench
