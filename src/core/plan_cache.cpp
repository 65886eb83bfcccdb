#include "core/plan_cache.hpp"

#include <algorithm>
#include <cstring>

namespace noisim::core {

namespace {

void put_bytes(std::string& s, const void* p, std::size_t n) {
  s.append(static_cast<const char*>(p), n);
}

void put_u64(std::string& s, std::uint64_t v) { put_bytes(s, &v, sizeof v); }

void put_f64(std::string& s, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(s, bits);
}

void put_matrix(std::string& s, const la::Matrix& m) {
  put_u64(s, m.rows());
  put_u64(s, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) {
      put_f64(s, m(r, c).real());
      put_f64(s, m(r, c).imag());
    }
}

// The resolved contraction options, field by field. RunControl is left out
// on purpose: an armed control never changes what a plan computes, only
// whether it is allowed to finish.
void put_options(std::string& s, const tn::ContractOptions& copts) {
  put_u64(s, static_cast<std::uint64_t>(copts.strategy));
  put_u64(s, copts.max_tensor_elems);
  put_f64(s, copts.timeout_seconds);
  put_u64(s, copts.max_workspace_elems);
  put_u64(s, copts.greedy_cost_weights.size());
  for (const double w : copts.greedy_cost_weights) put_f64(s, w);
  // Portfolio knobs steer which schedule Auto compiles to, so they are
  // part of the resolved-options identity like the greedy ladder above.
  put_u64(s, copts.portfolio ? 1 : 0);
  put_u64(s, copts.portfolio_strategies.size());
  for (const tn::OrderStrategy st : copts.portfolio_strategies)
    put_u64(s, static_cast<std::uint64_t>(st));
  put_u64(s, copts.random_restarts);
  put_u64(s, copts.custom_sequence.size());
  for (const std::size_t q : copts.custom_sequence) put_u64(s, q);
}

}  // namespace

PlanCache::PlanCache(std::size_t max_entries) : max_entries_(max_entries) {
  la::detail::require(max_entries >= 1, "PlanCache: max_entries must be >= 1");
}

std::shared_ptr<const tn::BatchedPlan> PlanCache::Plan::batched(
    const std::string& key, const std::function<tn::BatchedPlan()>& compile,
    bool* hit) const {
  {
    const support::MutexLock lock(mutex_);
    const auto it = batched_.find(key);
    if (it != batched_.end()) {
      owner_->note(true);
      if (hit) *hit = true;
      return it->second;
    }
  }
  // Compile outside the lock (batched compiles can be expensive); a racing
  // thread may compile the same plan -- equal topologies compile to equal
  // plans, so whichever insert wins is interchangeable.
  auto plan = std::make_shared<const tn::BatchedPlan>(compile());
  const support::MutexLock lock(mutex_);
  if (batched_.size() >= kMaxBatchedPlans && !batched_.count(key)) batched_.clear();
  const auto [it, inserted] = batched_.emplace(key, plan);
  owner_->note(false);
  if (hit) *hit = false;
  return inserted ? plan : it->second;
}

std::shared_ptr<const tn::ContractionPlan> PlanCache::compile_plan(
    const tn::Network& net, const tn::ContractOptions& copts, tn::ContractStats* stats) {
  return std::make_shared<const tn::ContractionPlan>(
      tn::ContractionPlan::compile(net, copts, stats));
}

std::shared_ptr<const PlanCache::Entry> PlanCache::find_template(const std::string& key) {
  const support::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  ++hits_;
  return it->second->second;
}

std::shared_ptr<const PlanCache::Entry> PlanCache::insert_template(
    const std::string& key, std::shared_ptr<const Entry> built, bool hit) {
  const support::MutexLock lock(mutex_);
  ++(hit ? hits_ : misses_);
  // On a lost race adopt the winner's entry so all callers share one
  // instance.
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(key, built);
  index_.emplace(key, lru_.begin());
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return built;
}

std::shared_ptr<const PlanCache::Entry> PlanCache::amplitude_template(
    int n, const std::vector<qc::Gate>& skeleton, std::uint64_t psi_bits, std::uint64_t v_bits,
    bool conjugate, const EvalOptions& eval, bool* hit, tn::ContractStats* stats) {
  // An unresolved sequence_for would change the compiled order without
  // changing either key.
  la::detail::require(!eval.sequence_for,
                      "PlanCache::amplitude_template: eval must be boundary-resolved");
  const std::string key = template_key(n, skeleton, psi_bits, v_bits, conjugate, eval.tn);
  if (auto found = find_template(key)) {
    if (hit) *hit = true;
    return found;
  }

  // Template miss: build the network (cheap) on the plan table's plan for
  // this topology, compiling it outside the lock if no live template holds
  // one.
  const std::string pkey = plan_key(n, skeleton, eval.tn);
  std::shared_ptr<const Plan> plan;
  {
    const support::MutexLock lock(mutex_);
    const auto it = plans_.find(pkey);
    if (it != plans_.end()) plan = it->second.lock();
  }
  const bool plan_hit = plan != nullptr;
  AmplitudeTemplate tmpl(
      n, skeleton, psi_bits, v_bits, conjugate, eval,
      [&](const tn::Network& net, const tn::ContractOptions& copts) {
        if (!plan_hit) plan.reset(new Plan(this, compile_plan(net, copts, stats)));
        return plan->plan();
      });
  if (!plan_hit) {
    const support::MutexLock lock(mutex_);
    std::erase_if(plans_, [](const auto& slot) { return slot.second.expired(); });
    plans_.insert_or_assign(pkey, plan);
  }
  if (hit) *hit = plan_hit;
  return insert_template(key, std::shared_ptr<const Entry>(new Entry(plan, std::move(tmpl))),
                         plan_hit);
}

std::shared_ptr<const PlanCache::Entry> PlanCache::entry(
    const std::string& key, const std::function<AmplitudeTemplate()>& build, bool* hit) {
  if (auto found = find_template(key)) {
    if (hit) *hit = true;
    return found;
  }
  AmplitudeTemplate tmpl = build();
  std::shared_ptr<const Plan> plan(new Plan(this, tmpl.shared_plan()));
  if (hit) *hit = false;
  return insert_template(key, std::shared_ptr<const Entry>(new Entry(plan, std::move(tmpl))),
                         false);
}

std::size_t PlanCache::hits() const {
  const support::MutexLock lock(mutex_);
  return hits_;
}

std::size_t PlanCache::misses() const {
  const support::MutexLock lock(mutex_);
  return misses_;
}

std::size_t PlanCache::size() const {
  const support::MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t PlanCache::plans() const {
  const support::MutexLock lock(mutex_);
  return static_cast<std::size_t>(std::count_if(
      plans_.begin(), plans_.end(), [](const auto& slot) { return !slot.second.expired(); }));
}

void PlanCache::clear() {
  const support::MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  plans_.clear();
}

void PlanCache::note(bool hit) {
  const support::MutexLock lock(mutex_);
  if (hit)
    ++hits_;
  else
    ++misses_;
}

std::string PlanCache::template_key(int n, const std::vector<qc::Gate>& skeleton,
                                    std::uint64_t psi_bits, std::uint64_t v_bits,
                                    bool conjugate, const tn::ContractOptions& copts) {
  std::string key;
  key.reserve(64 + skeleton.size() * 48);
  put_u64(key, 2);  // key-format version (2: portfolio knobs added)
  put_u64(key, static_cast<std::uint64_t>(n));
  put_u64(key, psi_bits);
  put_u64(key, v_bits);
  put_u64(key, conjugate ? 1 : 0);
  put_options(key, copts);
  put_u64(key, skeleton.size());
  for (const qc::Gate& g : skeleton) {
    put_u64(key, static_cast<std::uint64_t>(g.kind));
    put_u64(key, static_cast<std::uint64_t>(static_cast<std::int64_t>(g.qubits[0])));
    put_u64(key, static_cast<std::uint64_t>(static_cast<std::int64_t>(g.qubits[1])));
    put_u64(key, g.params.size());
    for (const double p : g.params) put_f64(key, p);
    put_matrix(key, g.custom);
  }
  return key;
}

std::string PlanCache::plan_key(int n, const std::vector<qc::Gate>& skeleton,
                                const tn::ContractOptions& copts) {
  // amplitude_network wires n input caps, one node per gate on its qubits'
  // current edges, and n output caps: arity and qubits fix every edge and
  // every dimension, and nothing else about a gate enters the topology.
  std::string key;
  key.reserve(64 + skeleton.size() * 24);
  put_u64(key, static_cast<std::uint64_t>(n));
  put_options(key, copts);
  put_u64(key, skeleton.size());
  for (const qc::Gate& g : skeleton) {
    const int arity = g.num_qubits();
    put_u64(key, static_cast<std::uint64_t>(arity));
    for (int q = 0; q < arity; ++q)
      put_u64(key, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(g.qubits[static_cast<std::size_t>(q)])));
  }
  return key;
}

std::string PlanCache::batched_key(std::span<const std::size_t> varying_slots,
                                   std::size_t capacity,
                                   std::span<const std::size_t> variant_counts,
                                   std::size_t max_varied_per_term,
                                   std::span<const char> unconstrained) {
  std::string key;
  key.reserve(32 + varying_slots.size() * 17);
  put_u64(key, capacity);
  put_u64(key, max_varied_per_term);
  put_u64(key, varying_slots.size());
  for (const std::size_t s : varying_slots) put_u64(key, s);
  put_u64(key, variant_counts.size());
  for (const std::size_t c : variant_counts) put_u64(key, c);
  put_u64(key, unconstrained.size());
  if (!unconstrained.empty()) put_bytes(key, unconstrained.data(), unconstrained.size());
  return key;
}

}  // namespace noisim::core
