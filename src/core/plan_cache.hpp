#pragma once
// Session-level plan/template cache for Algorithm-1 sweeps.
//
// A contraction plan is a pure function of the network topology and the
// contraction options; tensor values never enter planning. Every amplitude
// network over one circuit skeleton has the same topology whatever its
// basis labels, conjugation, gate parameters or gate matrices -- so the top
// and bottom layers of Algorithm 1, every output bitstring, and a
// trajectory skeleton with the same placeholder placement all replay ONE
// plan. A PlanCache holds two tables:
//
//  * the plan table -- one compiled tn::ContractionPlan per plan_key
//    (qubit count, per-gate arity and qubits, resolved
//    tn::ContractOptions), plus the batched plans compiled from it, keyed
//    on the varying-slot layout, batch capacity, variant counts, per-term
//    deviation bound and unconstrained flags. A different slot layout or
//    capacity (e.g. another approximation level or batch_terms) compiles
//    its own batched plan;
//  * the template table -- one AmplitudeTemplate (network + shared plan)
//    per template_key, which serializes every input of the network byte
//    for byte (gate kinds, qubits, parameters, matrices, basis labels,
//    conjugation, options). A template hit rebuilds nothing; a template
//    miss builds only its network, on top of the plan table's plan.
//
// Both keys are full serializations: lookups compare whole keys, so there
// is no hash-collision failure mode. Equal plan keys mean equal topologies
// under equal options, and plan compilation is deterministic (equal
// topologies compile to equal fingerprints), so results with a cache
// attached equal the cache-free results bit for bit.
//
// Accounting: hits() / misses() count template and batched-plan lookups;
// a lookup misses exactly when it compiled a plan. A template served by
// the plan table (new network, shared plan) is a hit.
//
// Thread safety: all PlanCache methods are safe to call concurrently; the
// tables are mutex-protected and entries are immutable-after-build except
// for the batched-plan memo (itself mutex-protected). Misses compile
// OUTSIDE the cache lock, so two threads racing on the same key may both
// compile; the first insert wins and the loser adopts the winner's entry
// (wasted work, never wrong). Eviction is LRU over template entries; a
// plan lives as long as a template (or a caller) holds it, and an evicted
// entry stays alive for callers still holding its shared_ptr. Entries must
// not outlive the cache that handed them out.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "core/circuit_network.hpp"
#include "support/mutex.hpp"

namespace noisim::core {

class PlanCache {
 public:
  /// `max_entries` bounds the number of RESIDENT template entries; least-
  /// recently-used entries are evicted past the bound. Must be >= 1.
  explicit PlanCache(std::size_t max_entries = 64);

  /// One compiled topology: the per-term plan every template of that
  /// topology replays, plus the batched plans compiled from it. Immutable
  /// except for the internally synchronized batched memo, so it may be used
  /// from many threads at once.
  class Plan {
   public:
    const std::shared_ptr<const tn::ContractionPlan>& plan() const { return plan_; }

    /// Memoized compile_batched: returns the plan cached under `key`, or
    /// runs `compile` and caches its result. `hit` (optional) reports
    /// whether the plan came from the memo; the owning cache's counters are
    /// updated either way. If `compile` throws (e.g. MemoryOutError from a
    /// batch-aware workspace budget) nothing is cached and the exception
    /// propagates -- the next lookup with the same key retries. The memo is
    /// bounded (kMaxBatchedPlans distinct keys; compiled plans are large):
    /// inserting past the bound resets it, so a pathological stream of
    /// distinct capacities recompiles instead of growing without limit.
    std::shared_ptr<const tn::BatchedPlan> batched(
        const std::string& key, const std::function<tn::BatchedPlan()>& compile,
        bool* hit = nullptr) const EXCLUDES(mutex_);

    /// Bound on memoized batched plans per plan (a level ladder or a
    /// handful of K/batch_terms shapes fit comfortably; see batched()).
    static constexpr std::size_t kMaxBatchedPlans = 16;

   private:
    friend class PlanCache;
    Plan(PlanCache* owner, std::shared_ptr<const tn::ContractionPlan> plan)
        : owner_(owner), plan_(std::move(plan)) {}

    PlanCache* const owner_;  // immutable back-pointer (counters only)
    const std::shared_ptr<const tn::ContractionPlan> plan_;
    mutable support::Mutex mutex_;
    mutable std::unordered_map<std::string, std::shared_ptr<const tn::BatchedPlan>> batched_
        GUARDED_BY(mutex_);
  };

  /// One cached template: an AmplitudeTemplate plus the Plan it replays.
  /// Handed out as shared_ptr<const Entry>; safe to share across threads.
  class Entry {
   public:
    const AmplitudeTemplate& tmpl() const { return tmpl_; }
    /// Plan::batched on this entry's plan: every template of one topology
    /// shares the memo.
    std::shared_ptr<const tn::BatchedPlan> batched(
        const std::string& key, const std::function<tn::BatchedPlan()>& compile,
        bool* hit = nullptr) const {
      return plan_->batched(key, compile, hit);
    }

   private:
    friend class PlanCache;
    Entry(std::shared_ptr<const Plan> plan, AmplitudeTemplate tmpl)
        : plan_(std::move(plan)), tmpl_(std::move(tmpl)) {}

    const std::shared_ptr<const Plan> plan_;
    const AmplitudeTemplate tmpl_;
  };

  /// The template for <v| skeleton |psi> (every gate conjugated when
  /// `conjugate`), built on the plan table's plan for the skeleton's
  /// topology -- compiled here on a plan-table miss. `eval` must be
  /// boundary-resolved (resolved_eval_options): eval.tn is the options part
  /// of both keys. `hit` (optional) reports whether the lookup compiled
  /// nothing; `stats` (optional) receives the compile's stats when it did.
  /// MemoryOutError / TimeoutError from the compile propagate and nothing
  /// is cached.
  std::shared_ptr<const Entry> amplitude_template(int n, const std::vector<qc::Gate>& skeleton,
                                                  std::uint64_t psi_bits, std::uint64_t v_bits,
                                                  bool conjugate, const EvalOptions& eval,
                                                  bool* hit = nullptr,
                                                  tn::ContractStats* stats = nullptr)
      EXCLUDES(mutex_);

  /// Look up the template entry for `key`, building it with `build` on a
  /// miss (outside the cache lock). The built template keeps the plan it
  /// compiled itself; it does not join the plan table. `hit` (optional)
  /// reports whether the template was served from the cache. If `build`
  /// throws, nothing is cached and the exception propagates.
  std::shared_ptr<const Entry> entry(const std::string& key,
                                     const std::function<AmplitudeTemplate()>& build,
                                     bool* hit = nullptr) EXCLUDES(mutex_);

  /// Cumulative lookup counters across template AND batched-plan lookups;
  /// a lookup misses exactly when it compiled a plan.
  std::size_t hits() const EXCLUDES(mutex_);
  std::size_t misses() const EXCLUDES(mutex_);
  /// Resident template entries / the eviction bound.
  std::size_t size() const EXCLUDES(mutex_);
  std::size_t max_entries() const { return max_entries_; }
  /// Live plans in the plan table (at most size(): resident templates keep
  /// their plans alive, and same-topology templates share one).
  std::size_t plans() const EXCLUDES(mutex_);
  /// Drop every entry (in-flight shared_ptr holders keep theirs alive).
  /// Counters are preserved.
  void clear() EXCLUDES(mutex_);

  /// The one place src/core compiles a per-term contraction plan: the plan
  /// table's misses and standalone AmplitudeTemplate construction both go
  /// through it.
  static std::shared_ptr<const tn::ContractionPlan> compile_plan(const tn::Network& net,
                                                                 const tn::ContractOptions& copts,
                                                                 tn::ContractStats* stats);

  /// Serialize a template identity into a cache key: every input that
  /// enters AmplitudeTemplate construction, byte for byte (gate kinds,
  /// qubits, parameters, custom matrices, basis labels, conjugation, and
  /// the RESOLVED contraction options -- pass the gate list through
  /// resolved_contract_options first so sequence_for is materialized).
  static std::string template_key(int n, const std::vector<qc::Gate>& skeleton,
                                  std::uint64_t psi_bits, std::uint64_t v_bits,
                                  bool conjugate, const tn::ContractOptions& copts);

  /// Serialize a topology identity into a plan-table key: the qubit count,
  /// each gate's arity and qubits, and the RESOLVED contraction options --
  /// exactly what the amplitude network's topology and its plan depend on.
  static std::string plan_key(int n, const std::vector<qc::Gate>& skeleton,
                              const tn::ContractOptions& copts);

  /// Serialize a compile_batched parameter set into a Plan::batched key.
  static std::string batched_key(std::span<const std::size_t> varying_slots,
                                 std::size_t capacity,
                                 std::span<const std::size_t> variant_counts,
                                 std::size_t max_varied_per_term,
                                 std::span<const char> unconstrained);

 private:
  using Lru = std::list<std::pair<std::string, std::shared_ptr<const Entry>>>;

  void note(bool hit) EXCLUDES(mutex_);
  /// Template-table hit for `key` (touched, counted), or null.
  std::shared_ptr<const Entry> find_template(const std::string& key) EXCLUDES(mutex_);
  /// Insert a freshly built entry (adopting a racing winner's), count the
  /// lookup, and evict past the bound.
  std::shared_ptr<const Entry> insert_template(const std::string& key,
                                               std::shared_ptr<const Entry> built, bool hit)
      EXCLUDES(mutex_);

  mutable support::Mutex mutex_;
  const std::size_t max_entries_;  // immutable eviction bound
  std::size_t hits_ GUARDED_BY(mutex_) = 0;
  std::size_t misses_ GUARDED_BY(mutex_) = 0;
  // LRU order, most recently used first; index_ points into lru_.
  Lru lru_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, Lru::iterator> index_ GUARDED_BY(mutex_);
  // Plan table: owned by the templates built on it, so it never outlives
  // every template of its topology; expired slots are pruned on insert.
  std::unordered_map<std::string, std::weak_ptr<const Plan>> plans_ GUARDED_BY(mutex_);
};

}  // namespace noisim::core
