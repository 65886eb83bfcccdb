#include "core/approx.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "circuit/simplify.hpp"
#include "core/bounds.hpp"
#include "core/plan_cache.hpp"
#include "fault/fault.hpp"
#include "linalg/svd.hpp"
#include "sim/parallel.hpp"
#include "support/mutex.hpp"

namespace noisim::core {

namespace {

// Placeholder matrices for not-yet-assigned noise insertions. Deliberately
// non-unitary so inverse-pair cancellation can never pair them with a gate.
la::Matrix placeholder_1q() { return la::Matrix{{2.0, 0.0}, {0.0, 3.0}}; }
la::Matrix placeholder_2q() {
  la::Matrix m(4, 4);
  m(0, 0) = 2.0;
  m(1, 1) = 3.0;
  m(2, 2) = 5.0;
  m(3, 3) = 7.0;
  return m;
}

struct Site {
  std::size_t arity;  // 1 or 2 qubits
  SplitNoise split;
  double rate;  // noise rate of the channel (for the Theorem-1 bound)
};

struct BaseLists {
  std::vector<qc::Gate> gates;  // circuit gates + tagged placeholders
  std::vector<Site> sites;
};

// Gate-list skeleton with one tagged placeholder per noise site. The tag
// (params[0]) survives simplification, so insertion positions can be
// located after inverse-pair cancellation. The TN-trajectories skeleton
// places its placeholders identically, so the two share a plan.
BaseLists build_base(const ch::NoisyCircuit& nc) {
  BaseLists base;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      base.gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    qc::Gate tag = noise.num_qubits() == 1
                       ? qc::u1q(noise.qubit, placeholder_1q())
                       : qc::u2q(noise.qubit, noise.qubit2, placeholder_2q());
    tag.params = {static_cast<double>(base.sites.size())};
    base.gates.push_back(std::move(tag));

    Site site;
    site.arity = static_cast<std::size_t>(noise.num_qubits());
    site.split = split_noise(noise.channel);
    site.rate = noise.channel.noise_rate();
    const std::size_t want = site.arity == 1 ? 4 : 16;
    la::detail::require(site.split.terms() == want,
                        "approximate_fidelity: unexpected split term count");
    base.sites.push_back(std::move(site));
  }
  return base;
}

// All size-k subsets of {0, ..., n-1} in lexicographic order.
std::vector<std::vector<std::size_t>> combinations(std::size_t n, std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  if (k > n) return out;
  std::vector<std::size_t> cur(k);
  for (std::size_t i = 0; i < k; ++i) cur[i] = i;
  while (true) {
    out.push_back(cur);
    if (k == 0) break;
    std::size_t i = k;
    bool advanced = false;
    while (i-- > 0) {
      if (cur[i] + (k - i) < n) {
        ++cur[i];
        for (std::size_t j = i + 1; j < k; ++j) cur[j] = cur[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  return out;
}

// Indices of the tagged placeholders inside a (possibly simplified) list.
std::vector<std::size_t> locate_sites(const std::vector<qc::Gate>& gates,
                                      std::size_t num_sites) {
  std::vector<std::size_t> pos(num_sites, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const qc::Gate& g = gates[i];
    if ((g.kind == qc::GateKind::U1q || g.kind == qc::GateKind::U2q) && g.params.size() == 1)
      pos[static_cast<std::size_t>(g.params[0])] = i;
  }
  for (std::size_t p : pos)
    la::detail::require(p != static_cast<std::size_t>(-1),
                        "approximate_fidelity: insertion lost during simplification");
  return pos;
}

// One enumerated term: which sites carry which subdominant index.
struct Term {
  std::size_t level;
  std::vector<std::size_t> sites;
  std::vector<std::size_t> term_idx;
};

std::vector<Term> enumerate_terms(const std::vector<Site>& sites, std::size_t level) {
  std::vector<Term> out;
  for (std::size_t u = 0; u <= level; ++u) {
    for (const std::vector<std::size_t>& chosen : combinations(sites.size(), u)) {
      std::vector<std::size_t> idx(u, 1);
      while (true) {
        out.push_back(Term{u, chosen, idx});
        std::size_t pos = 0;
        while (pos < u && idx[pos] + 1 == sites[chosen[pos]].split.terms()) idx[pos++] = 1;
        if (pos == u) break;
        ++idx[pos];
      }
    }
  }
  return out;
}

// Shared progress accounting (the contract ApproxOptions::progress
// documents): the counter is atomic and the possibly-not-thread-safe user
// callback is serialized behind a mutex, incremented inside the lock so
// observed values are strictly increasing by one.
class SerializedProgress {
 public:
  explicit SerializedProgress(const std::function<void(std::size_t)>& callback)
      : callback_(callback) {}
  void note() EXCLUDES(mutex_) {
    if (callback_) {
      const support::MutexLock lock(mutex_);
      callback_(++done_);
    } else {
      ++done_;
    }
  }

 private:
  // Immutable reference; the (possibly not thread-safe) callee is what the
  // mutex serializes, not the member itself.
  const std::function<void(std::size_t)>& callback_;
  std::atomic<std::size_t> done_{0};
  support::Mutex mutex_;
};

// Wall-clock split of a sweep: everything before eval_started() is the
// upfront setup (network build + plan compilation -- or plan-cache lookups
// -- paid once per sweep), everything after is the per-term evaluation loop.
class SweepTimer {
 public:
  SweepTimer(double& plan_seconds, double& eval_seconds)
      : plan_seconds_(plan_seconds), eval_seconds_(eval_seconds) {}
  void eval_started() {
    eval_started_ = Clock::now();
    plan_seconds_ = std::chrono::duration<double>(eval_started_ - setup_started_).count();
  }
  void eval_done() {
    eval_seconds_ = std::chrono::duration<double>(Clock::now() - eval_started_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double& plan_seconds_;
  double& eval_seconds_;
  Clock::time_point setup_started_ = Clock::now();
  Clock::time_point eval_started_{};
};

// Tensorized SVD factors per (site, term index) and the network node each
// site substitutes, shared by both sweeps. The bottom template is built
// with conjugate=true, which conjugates whatever matrix the site gate
// carries; the seed path stored conj(V) there to apply V itself, and
// conj(conj(V)) == V bitwise, so V enters the substitution directly.
struct SiteFactors {
  std::vector<std::size_t> node;                   // network node per site
  std::vector<std::vector<tsr::Tensor>> top, bot;  // U / V factor tensors
};
SiteFactors build_site_factors(const std::vector<Site>& sites,
                               const std::vector<std::size_t>& site_pos,
                               const AmplitudeTemplate& tmpl) {
  SiteFactors f;
  const std::size_t num_sites = sites.size();
  f.node.resize(num_sites);
  f.top.resize(num_sites);
  f.bot.resize(num_sites);
  for (std::size_t s = 0; s < num_sites; ++s) {
    f.node[s] = tmpl.node_of_gate(site_pos[s]);
    const Site& site = sites[s];
    for (std::size_t t = 0; t < site.split.terms(); ++t) {
      f.top[s].push_back(gate_matrix_tensor(site.split.u[t], static_cast<int>(site.arity)));
      f.bot[s].push_back(gate_matrix_tensor(site.split.v[t], static_cast<int>(site.arity)));
    }
  }
  return f;
}

// Error bounds: the paper's Theorem 1 when every site is 1-qubit, and the
// generalized per-site product bound (numerically tight) always.
void fill_error_bounds(const std::vector<Site>& sites, std::size_t level, double max_rate,
                       double& error_bound, double& tight_error_bound) {
  std::vector<double> dominant_norms, subdominant_norms;
  bool all_1q = true;
  for (const Site& s : sites) {
    dominant_norms.push_back(la::spectral_norm(s.split.term(0)));
    subdominant_norms.push_back(s.split.dominant_term_error());
    if (s.arity != 1) all_1q = false;
  }
  tight_error_bound = generalized_error_bound(dominant_norms, subdominant_norms, level);
  error_bound =
      all_1q ? theorem1_error_bound(sites.size(), max_rate, level) : tight_error_bound;
}

// --- plan-cache acquisition ---------------------------------------------------

// The plan source of one call: the caller's ApproxOptions::plan_cache, or a
// call-local cache, so the top and bottom layers share one plan and one
// batched plan either way. Cache traffic is reported only for the caller's
// cache; compiles are always counted.
class CallCache {
 public:
  explicit CallCache(PlanCache* caller)
      : cache_(caller ? *caller : local_), report_(caller != nullptr) {}

  std::shared_ptr<const PlanCache::Entry> acquire_template(
      int n, const std::vector<qc::Gate>& skeleton, std::uint64_t psi_bits,
      std::uint64_t v_bits, bool conjugate, const EvalOptions& eval,
      tn::ContractStats& setup_stats) {
    // `eval` arrives boundary-resolved (resolved_eval_options ran once where
    // the sweep fixed its skeleton), so eval.tn is already in key form.
    bool hit = false;
    auto entry = cache_.amplitude_template(n, skeleton, psi_bits, v_bits, conjugate, eval,
                                           &hit, &setup_stats);
    note(hit, setup_stats);
    return entry;
  }

  std::shared_ptr<const tn::BatchedPlan> acquire_batched(
      const PlanCache::Entry& entry, std::span<const std::size_t> slots, std::size_t capacity,
      std::span<const std::size_t> variant_counts, std::size_t max_varied_per_term,
      std::span<const char> unconstrained, tn::ContractStats& setup_stats) {
    bool hit = false;
    auto plan = entry.batched(
        PlanCache::batched_key(slots, capacity, variant_counts, max_varied_per_term,
                               unconstrained),
        [&] {
          return entry.tmpl().compile_batched(slots, capacity, &setup_stats, variant_counts,
                                              max_varied_per_term, unconstrained);
        },
        &hit);
    note(hit, setup_stats);
    return plan;
  }

 private:
  void note(bool hit, tn::ContractStats& stats) const {
    if (report_) ++(hit ? stats.plan_cache_hits : stats.plan_cache_misses);
  }

  PlanCache local_{2};  // declared before cache_, which may refer to it
  PlanCache& cache_;
  const bool report_;
};

// --- the sharded 2-D sweep engine ---------------------------------------------

// Output-batched traversal bounds shared with the PR-4 paths: up to 32
// outputs per traversal, at most ~256 (term, output) pairs per traversal
// (the measured batched-arena knee on the Fig. 4-style grids).
constexpr std::size_t kOutputChunk = 32;
constexpr std::size_t kMaxPairs = 256;

// One work item evaluates terms [t0, t0 + tcount) at outputs
// [obegin, obegin + ocount): out[t * ocount + o] = term value at output o.
// Every value is bit-identical to the single-output reference's value for
// that (term, output) pair -- batching only shares work, never changes bits.
using ItemEval = std::function<void(std::size_t t0, std::size_t tcount, std::size_t obegin,
                                    std::size_t ocount, std::span<cplx> out,
                                    tn::ContractStats& stats)>;
struct WorkerEval {
  ItemEval eval;
  // Merge any session-held stats into the worker's record (called once,
  // after the worker drains the queue).
  std::function<void(tn::ContractStats&)> flush;
};

// Streaming fold state for one output chunk (guarded by SweepQueue::mutex_).
// The stash is an ORDERED map on purpose: folding walks completed ranges in
// ascending term-enumeration order (lint rule unordered-fold).
struct ChunkFold {
  std::size_t begin = 0, count = 0;  // output range of the chunk
  std::size_t cursor = 0;            // next term range to fold
  std::vector<cplx> sums;            // count x (level + 1), output-major
  std::map<std::size_t, std::size_t> stash;  // completed range -> buffer
};

// Scheduler for the sharded (term-range x output-chunk) work queue: item
// claims, the bounded buffer pool, the cooperative cancel/abort flags, the
// first-exception slot, the per-chunk streaming folds, and the
// outstanding-chunk progress counters all live behind ONE annotated mutex,
// so -Wthread-safety proves every cross-worker access is locked. Workers
// call claim() -- which also polls the RunControl, the poll point of the
// engine's cancellation contract -- evaluate the claimed item into their
// pool buffer WITHOUT the lock (buffer ownership travels with the claim),
// and hand the buffer back through fold_item(). After the join, the owning
// thread runs finish() (stash drain + pool-integrity check + rethrow) and
// moves the fold results out by value via take_folds().
class SweepQueue {
 public:
  SweepQueue(const std::vector<Term>& terms, std::size_t K, std::size_t shard,
             std::size_t level, std::size_t term_batch, std::size_t num_ranges,
             std::size_t num_chunks, std::size_t pool_size, const RunControl* control)
      : terms_(terms),
        num_terms_(terms.size()),
        num_chunks_(num_chunks),
        num_ranges_(num_ranges),
        num_items_(num_ranges * num_chunks),
        level_(level),
        term_batch_(term_batch),
        pool_size_(pool_size),
        control_(control) {
    folds_.resize(num_chunks_);
    for (std::size_t c = 0; c < num_chunks_; ++c) {
      folds_[c].begin = c * shard;
      folds_[c].count = std::min(shard, K - folds_[c].begin);
      folds_[c].sums.assign(folds_[c].count * (level_ + 1), cplx{0.0, 0.0});
    }
    // Outstanding chunk folds per term, for the TERM-counting progress
    // contract: a term is reported once every chunk has folded it.
    term_pending_.assign(num_terms_, num_chunks_);
    free_bufs_.resize(pool_size_);
    for (std::size_t b = 0; b < pool_size_; ++b) free_bufs_[b] = b;
  }

  /// Claim the next (range, chunk) item together with a pool buffer,
  /// blocking while the pool is empty. Polls the RunControl first
  /// (cancellation/deadline at item-claim granularity: a cancel drains the
  /// queue for salvage, a deadline or any other control error aborts).
  /// Returns false when the worker should stop claiming: queue exhausted,
  /// a sibling aborted, or a cancel was observed.
  bool claim(std::size_t* range, std::size_t* chunk, std::size_t* buf) EXCLUDES(mutex_) {
    if (control_) {
      try {
        control_->poll();
      } catch (const CancelledError&) {
        record_cancel();
        return false;
      } catch (...) {
        // A non-cancel control error (deadline, memory ceiling) aborts the
        // sweep; stash the exception OBJECT explicitly so finish() rethrows
        // the TimeoutError/MemoryOutError that actually fired, never a
        // generic "a worker stopped".
        record_abort(std::current_exception());
        return false;
      }
    }
    const support::MutexLock lock(mutex_);
    while (!(aborted_ || cancelled_ || next_item_ >= num_items_ || !free_bufs_.empty()))
      cv_.wait(mutex_);
    if (aborted_ || cancelled_ || next_item_ >= num_items_) return false;
    const std::size_t item = next_item_++;
    *buf = free_bufs_.back();
    free_bufs_.pop_back();
    if (next_item_ >= num_items_) cv_.notify_all();
    // Range-major item order: for any chunk, lower term ranges are
    // dispensed first, so every stashed buffer's predecessor is already in
    // flight -- the fold below always advances.
    *range = item / num_chunks_;
    *chunk = item % num_chunks_;
    return true;
  }

  /// Record the first worker/control exception (passed explicitly, never
  /// fished out of ambient state) and tell siblings to drain; finish()
  /// rethrows exactly that object after the join. The buffer-returning
  /// overload hands the claimed buffer back to the pool (an abandoned item
  /// computes nothing, so its buffer is clean).
  void record_abort(std::exception_ptr err) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    abort_locked(std::move(err));
  }
  void record_abort(std::size_t buf, std::exception_ptr err) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    free_bufs_.push_back(buf);
    abort_locked(std::move(err));
  }

  /// Record an explicit cancel: the queue drains and the caller SALVAGES
  /// completed chunks instead of throwing (xeb_sweep's salvage contract).
  void record_cancel() EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    cancel_locked();
  }
  void record_cancel(std::size_t buf) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    free_bufs_.push_back(buf);
    cancel_locked();
  }

  /// Stash the completed item's buffer and fold every consecutively ready
  /// range in term-enumeration order -- the same arithmetic, in the same
  /// order, as the per-bitstring reference's reduction. Returns how many
  /// terms completed their LAST outstanding chunk (progress accounting;
  /// the caller reports them outside the lock). `buffers` is the pool
  /// storage: the claiming worker wrote values[buf] without the lock, and
  /// this mutex hand-off is what publishes them to whichever worker folds.
  std::size_t fold_item(std::size_t range, std::size_t chunk, std::size_t buf,
                        const std::vector<std::vector<cplx>>& buffers) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    ChunkFold& cf = folds_[chunk];
    cf.stash.emplace(range, buf);
    std::size_t terms_done = 0;
    for (auto it = cf.stash.find(cf.cursor); it != cf.stash.end();
         it = cf.stash.find(cf.cursor)) {
      const std::size_t fbuf = it->second;
      const std::size_t f0 = cf.cursor * term_batch_;
      const std::size_t fcount = std::min(term_batch_, num_terms_ - f0);
      const std::vector<cplx>& fv = buffers[fbuf];
      for (std::size_t t = 0; t < fcount; ++t) {
        const std::size_t u = terms_[f0 + t].level;
        for (std::size_t o = 0; o < cf.count; ++o)
          cf.sums[o * (level_ + 1) + u] += fv[t * cf.count + o];
        if (--term_pending_[f0 + t] == 0) ++terms_done;
      }
      cf.stash.erase(it);
      free_bufs_.push_back(fbuf);
      ++cf.cursor;
    }
    cv_.notify_all();
    return terms_done;
  }

  /// Teardown, called once after every worker joined: stashed buffers whose
  /// predecessor range never arrived (abort / cancel) go back to the pool,
  /// after which every buffer must be accounted for -- a leak here would
  /// strand values across reruns. Rethrows the first worker exception.
  void finish() EXCLUDES(mutex_) {
    std::exception_ptr err;
    {
      const support::MutexLock lock(mutex_);
      for (ChunkFold& cf : folds_) {
        for (const auto& [range, fbuf] : cf.stash) free_bufs_.push_back(fbuf);
        cf.stash.clear();
      }
      la::detail::require(free_bufs_.size() == pool_size_,
                          "sweep_outputs: buffer pool integrity lost during teardown");
      err = abort_error_;
    }
    if (err) std::rethrow_exception(err);
  }

  bool was_cancelled() const EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    return cancelled_;
  }

  /// Move the fold results out (by value, per the no-references-into-
  /// guarded-state convention). Call after finish().
  std::vector<ChunkFold> take_folds() EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    return std::move(folds_);
  }

 private:
  void abort_locked(std::exception_ptr err) REQUIRES(mutex_) {
    aborted_ = true;
    if (!abort_error_) abort_error_ = std::move(err);
    cv_.notify_all();
  }
  void cancel_locked() REQUIRES(mutex_) {
    cancelled_ = true;
    cv_.notify_all();
  }

  const std::vector<Term>& terms_;  // immutable enumeration-order term list
  const std::size_t num_terms_;
  const std::size_t num_chunks_;
  const std::size_t num_ranges_;
  const std::size_t num_items_;
  const std::size_t level_;
  const std::size_t term_batch_;
  const std::size_t pool_size_;
  const RunControl* const control_;  // polled, never written

  mutable support::Mutex mutex_;
  support::CondVar cv_;  // lint: not-guarded(condvar; always signalled with mutex_ held)
  std::size_t next_item_ GUARDED_BY(mutex_) = 0;
  bool aborted_ GUARDED_BY(mutex_) = false;    // worker threw: drain, rethrow after join
  bool cancelled_ GUARDED_BY(mutex_) = false;  // explicit cancel: drain, then SALVAGE
  std::exception_ptr abort_error_ GUARDED_BY(mutex_);
  std::vector<std::size_t> free_bufs_ GUARDED_BY(mutex_);  // bounded buffer pool
  std::vector<ChunkFold> folds_ GUARDED_BY(mutex_);
  std::vector<std::size_t> term_pending_ GUARDED_BY(mutex_);
};

// The engine behind approximate_fidelity_outputs and xeb_sweep: a single
// 2-D (term-range x output-chunk) work queue drained by `threads` workers,
// with a streaming chunk-ordered reduction.
//
//  * Items are dispensed in range-major order together with a buffer from a
//    bounded pool (threads + 2 buffers): a worker only claims an item when
//    a buffer is free, so every in-flight item is actually computing --
//    which is what guarantees the fold below always makes progress and the
//    transient value storage stays O(threads x item), never O(terms x K).
//  * Each chunk folds its term values strictly in global term-enumeration
//    order: completed items land in a per-chunk stash and are folded as
//    soon as they become the chunk's next range, reproducing the reference
//    reduction arithmetic (term_sums[level] += value, term by term) exactly
//    -- at any thread count, shard size, or completion order.
//  * A term's progress callback fires once its value has been folded for
//    every output chunk (term counts stay strictly increasing by one).
ApproxBatchResult sweep_outputs(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                std::span<const std::uint64_t> v_bits,
                                const ApproxOptions& opts, std::size_t shard_outputs) {
  const int n = nc.num_qubits();
  const std::size_t K = v_bits.size();
  BaseLists base = build_base(nc);
  const std::size_t num_sites = base.sites.size();
  const std::size_t level = std::min(opts.level, num_sites);

  ApproxBatchResult result;
  fill_error_bounds(base.sites, level, nc.max_noise_rate(), result.error_bound,
                    result.tight_error_bound);
  // K == 0 is a well-defined empty sweep: bounds only, no compiled plans
  // (a capacity-0 batched plan must never be requested).
  if (K == 0) return result;

  std::vector<qc::Gate> skeleton = base.gates;
  if (opts.eval.simplify) skeleton = qc::cancel_inverse_pairs(std::move(skeleton));
  const std::vector<std::size_t> site_pos = locate_sites(skeleton, num_sites);

  // Resolve the evaluation options once at the sweep boundary: sequence_for
  // is materialized against the final skeleton here and never re-run by the
  // templates, cache keys, or per-term evaluations below.
  EvalOptions eval = resolved_eval_options(n, skeleton, opts.eval);
  eval.simplify = false;  // already applied to the skeleton

  // Cooperative control for this sweep. Threading it through eval.tn covers
  // plan compilation; cached templates null it out of their stored options
  // (circuit_network.cpp), so a PlanCache hit can never replay a dangling
  // pointer -- per-execution polling flows through Session::set_control.
  const RunControl* control = opts.control;
  eval.tn.control = control;

  const std::vector<Term> terms = enumerate_terms(base.sites, level);
  const std::size_t num_terms = terms.size();
  const std::size_t nn = static_cast<std::size_t>(n);

  SerializedProgress progress(opts.progress);
  tn::ContractStats setup_stats;
  SweepTimer timer(result.plan_seconds, result.eval_seconds);

  const bool tn_path = opts.reuse_plans && uses_tensor_network(eval, n);

  // Output shards (work-queue granularity along the bitstring axis). The
  // reference paths default to one shard: their per-term evaluation already
  // covers every output in one evolution / one compiled template, so
  // chunking would only repeat that per-term setup.
  const std::size_t shard =
      std::min(K, shard_outputs > 0 ? shard_outputs : (tn_path ? kOutputChunk : K));
  const std::size_t num_chunks = (K + shard - 1) / shard;

  // Term ranges: batch_terms wide, additionally capped so one batched
  // traversal holds at most kMaxPairs (term, output) pairs.
  const std::size_t out_chunk = std::min(shard, kOutputChunk);
  const std::size_t term_batch =
      std::min({std::max<std::size_t>(opts.batch_terms, 1), num_terms,
                std::max<std::size_t>(kMaxPairs / out_chunk, 1)});
  const std::size_t num_ranges = (num_terms + term_batch - 1) / term_batch;

  // --- per-strategy setup (templates, plans, factor tensors) ---------------
  // A cancel that lands during setup (template/batched-plan compilation
  // polls the control) salvages the well-defined "nothing completed yet"
  // result instead of leaking a throw: cancelled = true, every output
  // invalid. Deadlines and real errors still throw from here.
  auto salvage_empty = [&]() -> ApproxBatchResult {
    result.cancelled = true;
    result.valid.assign(K, 0);
    result.values.assign(K, 0.0);
    result.raw.assign(K, cplx{0.0, 0.0});
    result.term_sums.assign(K, std::vector<cplx>(level + 1, cplx{0.0, 0.0}));
    result.level_values.assign(K, std::vector<double>(level + 1, 0.0));
    return result;
  };

  CallCache plans(opts.plan_cache);
  std::shared_ptr<const PlanCache::Entry> top_at, bot_at;
  std::shared_ptr<const tn::BatchedPlan> bplan;  // shared by both layers
  SiteFactors fac;
  std::vector<const tsr::Tensor*> caps_of_output;
  std::vector<std::size_t> slots, cap_nodes;
  std::size_t V = 0, capacity = 0;

  try {
  if (tn_path) {
    // Canonical v = 0 templates: the output caps are placeholders (always
    // substituted below), so one cached entry serves EVERY bitstring set
    // over this skeleton -- that is what makes the plan cache hit across
    // XEB batches arriving over time. The conjugated bottom layer has the
    // top layer's topology, so both replay one plan.
    top_at = plans.acquire_template(n, skeleton, psi_bits, 0, /*conjugate=*/false, eval,
                                    setup_stats);
    bot_at = plans.acquire_template(n, skeleton, psi_bits, 0, /*conjugate=*/true, eval,
                                    setup_stats);
    fac = build_site_factors(base.sites, site_pos, top_at->tmpl());

    // Per-output cap pointer table (the template's shared <0|/<1| objects,
    // so the executor's pointer compaction shares rows across bitstrings).
    // Basis caps are real, so the same tensors serve the conjugated bottom
    // layer.
    caps_of_output.resize(K * nn);
    for (std::size_t o = 0; o < K; ++o)
      top_at->tmpl().fill_output_caps(v_bits[o],
                                      std::span(caps_of_output).subspan(o * nn, nn));

    // Combined varying slots: the noise sites keep Algorithm 1's per-term
    // deviation promise (<= level), the output caps flip freely.
    cap_nodes = top_at->tmpl().output_cap_nodes();
    slots = fac.node;
    slots.insert(slots.end(), cap_nodes.begin(), cap_nodes.end());
    V = slots.size();
    std::vector<std::size_t> counts(V, 2);
    std::vector<char> unconstrained(V, 0);
    for (std::size_t s = 0; s < num_sites; ++s) counts[s] = base.sites[s].split.terms();
    for (std::size_t v = num_sites; v < V; ++v) unconstrained[v] = 1;
    capacity = term_batch * out_chunk;

    try {
      bplan = plans.acquire_batched(*top_at, slots, capacity, counts, level, unconstrained,
                                    setup_stats);
      if (!output_batch_worthwhile(*bplan)) bplan.reset();
    } catch (const MemoryOutError&) {
      // Combined batch exceeds the workspace budget; the per-output plan
      // replay below fits and is bit-identical.
      bplan.reset();
    }
  }
  } catch (const CancelledError&) {
    return salvage_empty();
  }

  // Per-worker evaluator factory for the three (bit-identical) strategies.
  std::function<WorkerEval(std::size_t)> make_eval;
  if (tn_path && bplan) {
    // Batched traversals: each item covers (term range x <= out_chunk
    // outputs) pairs per traversal -- noise slots level-capped, cap slots
    // unconstrained.
    make_eval = [&](std::size_t) -> WorkerEval {
      auto top_session =
          std::make_shared<AmplitudeTemplate::BatchedSession>(top_at->tmpl(), *bplan);
      auto bot_session =
          std::make_shared<AmplitudeTemplate::BatchedSession>(bot_at->tmpl(), *bplan);
      top_session->set_control(control);
      bot_session->set_control(control);
      auto top_ptrs = std::make_shared<std::vector<const tsr::Tensor*>>(capacity * V);
      auto bot_ptrs = std::make_shared<std::vector<const tsr::Tensor*>>(capacity * V);
      auto top_amp = std::make_shared<std::vector<cplx>>(capacity);
      auto bot_amp = std::make_shared<std::vector<cplx>>(capacity);
      WorkerEval we;
      we.eval = [&, top_session, bot_session, top_ptrs, bot_ptrs, top_amp, bot_amp](
                    std::size_t t0, std::size_t tcount, std::size_t obegin,
                    std::size_t ocount, std::span<cplx> out, tn::ContractStats&) {
        for (std::size_t o0 = 0; o0 < ocount; o0 += out_chunk) {
          const std::size_t oc = std::min(out_chunk, ocount - o0);
          const std::size_t kk = tcount * oc;
          for (std::size_t t = 0; t < tcount; ++t) {
            const Term& term = terms[t0 + t];
            for (std::size_t o = 0; o < oc; ++o) {
              const std::size_t p = (t * oc + o) * V;
              // Dominant factor everywhere, subdominant at the chosen
              // sites; the output chunk's caps in the trailing slots.
              for (std::size_t s = 0; s < num_sites; ++s) {
                (*top_ptrs)[p + s] = &fac.top[s][0];
                (*bot_ptrs)[p + s] = &fac.bot[s][0];
              }
              for (std::size_t c = 0; c < term.sites.size(); ++c) {
                const std::size_t s = term.sites[c];
                (*top_ptrs)[p + s] = &fac.top[s][term.term_idx[c]];
                (*bot_ptrs)[p + s] = &fac.bot[s][term.term_idx[c]];
              }
              for (std::size_t q = 0; q < nn; ++q) {
                const tsr::Tensor* cap = caps_of_output[(obegin + o0 + o) * nn + q];
                (*top_ptrs)[p + num_sites + q] = cap;
                (*bot_ptrs)[p + num_sites + q] = cap;
              }
            }
          }
          top_session->evaluate(
              std::span<const tsr::Tensor* const>(*top_ptrs).first(kk * V), kk, *top_amp);
          bot_session->evaluate(
              std::span<const tsr::Tensor* const>(*bot_ptrs).first(kk * V), kk, *bot_amp);
          for (std::size_t t = 0; t < tcount; ++t)
            for (std::size_t o = 0; o < oc; ++o)
              out[t * ocount + o0 + o] = (*top_amp)[t * oc + o] * (*bot_amp)[t * oc + o];
        }
      };
      we.flush = [top_session, bot_session](tn::ContractStats& stats) {
        stats.merge(top_session->stats());
        stats.merge(bot_session->stats());
      };
      return we;
    };
  } else if (tn_path) {
    // Per-output plan replay: site tensors and the output's caps go in as
    // per-call session substitutions (MO'd or hopeless batched plan).
    make_eval = [&](std::size_t) -> WorkerEval {
      auto top_session = std::make_shared<AmplitudeTemplate::Session>(top_at->tmpl().session());
      auto bot_session = std::make_shared<AmplitudeTemplate::Session>(bot_at->tmpl().session());
      top_session->set_control(control);
      bot_session->set_control(control);
      auto top_subs =
          std::make_shared<std::vector<AmplitudeTemplate::Substitution>>(num_sites + nn);
      auto bot_subs =
          std::make_shared<std::vector<AmplitudeTemplate::Substitution>>(num_sites + nn);
      WorkerEval we;
      we.eval = [&, top_session, bot_session, top_subs, bot_subs](
                    std::size_t t0, std::size_t tcount, std::size_t obegin,
                    std::size_t ocount, std::span<cplx> out, tn::ContractStats&) {
        for (std::size_t t = 0; t < tcount; ++t) {
          const Term& term = terms[t0 + t];
          for (std::size_t s = 0; s < num_sites; ++s) {
            (*top_subs)[s] = {fac.node[s], &fac.top[s][0]};
            (*bot_subs)[s] = {fac.node[s], &fac.bot[s][0]};
          }
          for (std::size_t c = 0; c < term.sites.size(); ++c) {
            const std::size_t s = term.sites[c];
            (*top_subs)[s].second = &fac.top[s][term.term_idx[c]];
            (*bot_subs)[s].second = &fac.bot[s][term.term_idx[c]];
          }
          for (std::size_t o = 0; o < ocount; ++o) {
            for (std::size_t q = 0; q < nn; ++q) {
              const AmplitudeTemplate::Substitution cap{cap_nodes[q],
                                                        caps_of_output[(obegin + o) * nn + q]};
              (*top_subs)[num_sites + q] = cap;
              (*bot_subs)[num_sites + q] = cap;
            }
            const cplx top_amp = top_session->evaluate(*top_subs);
            const cplx bot_amp = bot_session->evaluate(*bot_subs);
            out[t * ocount + o] = top_amp * bot_amp;
          }
        }
      };
      we.flush = [top_session, bot_session](tn::ContractStats& stats) {
        stats.merge(top_session->stats());
        stats.merge(bot_session->stats());
      };
      return we;
    };
  } else {
    // Reference path (state-vector backend, or reuse_plans disabled): each
    // term materializes its gate lists and evaluates the chunk's outputs
    // through batch_amplitudes (one evolution / one template per layer per
    // term per chunk).
    make_eval = [&](std::size_t) -> WorkerEval {
      auto top = std::make_shared<std::vector<qc::Gate>>(skeleton);
      auto bottom = std::make_shared<std::vector<qc::Gate>>(skeleton);
      WorkerEval we;
      we.eval = [&, top, bottom](std::size_t t0, std::size_t tcount, std::size_t obegin,
                                 std::size_t ocount, std::span<cplx> out,
                                 tn::ContractStats& stats) {
        const std::span<const std::uint64_t> chunk_outputs = v_bits.subspan(obegin, ocount);
        for (std::size_t t = 0; t < tcount; ++t) {
          const Term& term = terms[t0 + t];
          for (std::size_t s = 0; s < num_sites; ++s) {
            std::size_t ti = 0;
            for (std::size_t c = 0; c < term.sites.size(); ++c)
              if (term.sites[c] == s) ti = term.term_idx[c];
            (*top)[site_pos[s]].custom = base.sites[s].split.u[ti];
            // The bottom layer is evaluated with conjugate=true (which
            // conjugates every matrix), so store conj(V) to apply V itself.
            (*bottom)[site_pos[s]].custom = base.sites[s].split.v[ti].conj();
          }
          const std::vector<cplx> top_amp = batch_amplitudes(
              n, *top, psi_bits, chunk_outputs, /*conjugate=*/false, eval, &stats);
          const std::vector<cplx> bot_amp = batch_amplitudes(
              n, *bottom, psi_bits, chunk_outputs, /*conjugate=*/true, eval, &stats);
          for (std::size_t o = 0; o < ocount; ++o) out[t * ocount + o] = top_amp[o] * bot_amp[o];
        }
      };
      we.flush = [](tn::ContractStats&) {};
      return we;
    };
  }

  // --- scheduler + streaming fold ------------------------------------------
  const std::size_t num_items = num_ranges * num_chunks;
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(sim::resolve_threads(opts.threads), num_items));
  std::vector<tn::ContractStats> worker_stats(threads);

  // Bounded buffer pool: claiming an item claims a buffer with it, so a
  // stalled chunk can never strand completed-but-unfoldable values beyond
  // the pool -- the O(outputs) table bound of the engine contract. The pool
  // STORAGE lives out here (workers write their claimed slot lock-free);
  // the free list and all other shared scheduler state live inside the
  // annotated SweepQueue above.
  const std::size_t pool_size = std::min(num_items, threads + 2);
  std::vector<std::vector<cplx>> buffers(pool_size);

  SweepQueue queue(terms, K, shard, level, term_batch, num_ranges, num_chunks,
                   pool_size, control);

  timer.eval_started();
  auto worker = [&](std::size_t w) {
    WorkerEval we;
    try {
      we = make_eval(w);  // session construction allocates; it can fail too
    } catch (...) {
      queue.record_abort(std::current_exception());
      return;
    }
    while (true) {
      std::size_t r = 0, c = 0, buf = 0;
      if (!queue.claim(&r, &c, &buf)) break;
      const std::size_t t0 = r * term_batch;
      const std::size_t tcount = std::min(term_batch, num_terms - t0);
      const std::size_t obegin = c * shard;
      const std::size_t ocount = std::min(shard, K - obegin);
      std::vector<cplx>& vbuf = buffers[buf];
      try {
        fault::poke("sweep-worker");
        vbuf.resize(tcount * ocount);
        we.eval(t0, tcount, obegin, ocount, std::span<cplx>(vbuf), worker_stats[w]);
      } catch (const CancelledError&) {
        // Step-granularity cancel inside the plan executor: the claimed item
        // is abandoned (its chunk stays short of num_ranges, so it reports
        // invalid), the buffer goes straight back to the pool, and the queue
        // drains for salvage like the claim-time cancel inside claim().
        queue.record_cancel(buf);
        break;
      } catch (...) {
        queue.record_abort(buf, std::current_exception());
        break;
      }
      std::size_t terms_done = queue.fold_item(r, c, buf, buffers);
      // The user callback runs OUTSIDE the scheduler lock: a slow callback
      // only delays this worker (the documented contract), and a throwing
      // one unwinds after the fold state and buffers are already
      // consistent, so the other workers drain the queue and the exception
      // surfaces through the join below.
      for (; terms_done > 0; --terms_done) progress.note();
    }
    we.flush(worker_stats[w]);
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
      futures.push_back(std::async(std::launch::async, worker, w));
    for (auto& f : futures) f.get();
  }
  queue.finish();
  timer.eval_done();

  // Deterministic stats reduction: setup first, then workers in order.
  result.contract_stats.merge(setup_stats);
  for (const tn::ContractStats& ws : worker_stats) result.contract_stats.merge(ws);

  // Per-output assembly from the streamed level sums -- the same arithmetic,
  // in the same order, as the output's single-output sweep.
  const std::vector<ChunkFold> folds = queue.take_folds();
  result.values.assign(K, 0.0);
  result.raw.assign(K, cplx{0.0, 0.0});
  result.term_sums.assign(K, std::vector<cplx>(level + 1, cplx{0.0, 0.0}));
  result.level_values.assign(K, {});
  result.cancelled = queue.was_cancelled();
  result.valid.assign(K, 1);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const ChunkFold& cf = folds[c];
    // Salvage contract: a chunk's outputs are valid only once every term
    // range has been folded into it -- those sums are then bitwise equal to
    // the uncancelled run's, because the fold order per chunk is fixed.
    const bool chunk_valid = cf.cursor == num_ranges;
    for (std::size_t o = 0; o < cf.count; ++o) {
      const std::size_t go = cf.begin + o;
      if (!chunk_valid) result.valid[go] = 0;
      for (std::size_t u = 0; u <= level; ++u)
        result.term_sums[go][u] = cf.sums[o * (level + 1) + u];
      for (std::size_t u = 0; u <= level; ++u) {
        result.raw[go] += result.term_sums[go][u];
        result.level_values[go].push_back(result.raw[go].real());
      }
      result.values[go] = result.raw[go].real();
    }
  }
  result.contractions = 2 * num_terms * K;
  return result;
}

}  // namespace

double ApproxCostModel::error_bound(std::size_t level) const {
  return generalized_error_bound(dominant_norms, subdominant_norms,
                                 std::min(level, num_sites));
}

double ApproxCostModel::term_count(std::size_t level) const {
  // Elementary symmetric sums over the per-site subdominant choice counts
  // (split_terms[s] - 1): e_u sums the products over every u-subset of
  // sites, so the level-l sweep enumerates sum_{u<=l} e_u terms -- equal to
  // sum_{u<=l} C(N,u) 3^u (contraction_count / 2) when every site is
  // 1-qubit.
  const std::size_t l = std::min(level, num_sites);
  std::vector<double> e(l + 1, 0.0);
  e[0] = 1.0;
  for (std::size_t s = 0; s < num_sites; ++s) {
    const double choices = static_cast<double>(split_terms[s] - 1);
    for (std::size_t u = std::min(l, s + 1); u > 0; --u) e[u] += e[u - 1] * choices;
  }
  double total = 0.0;
  for (const double x : e) total += x;
  return total;
}

ApproxCostModel approx_cost_model(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  std::uint64_t v_bits, const ApproxOptions& opts) {
  const int n = nc.num_qubits();
  BaseLists base = build_base(nc);

  ApproxCostModel model;
  model.num_sites = base.sites.size();
  model.max_rate = nc.max_noise_rate();
  for (const Site& s : base.sites) {
    model.dominant_norms.push_back(la::spectral_norm(s.split.term(0)));
    model.subdominant_norms.push_back(s.split.dominant_term_error());
    model.split_terms.push_back(s.split.terms());
    if (s.arity != 1) model.all_1q = false;
  }

  // Same skeleton pipeline as the sweeps: simplify once, locate the (guarded)
  // insertions, resolve the options at the boundary.
  std::vector<qc::Gate> skeleton = std::move(base.gates);
  if (opts.eval.simplify) skeleton = qc::cancel_inverse_pairs(std::move(skeleton));
  locate_sites(skeleton, model.num_sites);
  EvalOptions eval = resolved_eval_options(n, skeleton, opts.eval);
  eval.simplify = false;

  model.tensor_network = uses_tensor_network(eval, n);
  if (model.tensor_network) {
    // Compile (or fetch) the top-layer template under the sweep's own cache
    // key: the plan's flops/arena ARE the per-layer cost, and a cache miss
    // here is work the run would have paid anyway.
    tn::ContractStats setup_stats;
    CallCache plans(opts.plan_cache);
    const auto top = plans.acquire_template(n, skeleton, psi_bits, v_bits, /*conjugate=*/false,
                                            eval, setup_stats);
    const tn::ContractionPlan& plan = top->tmpl().plan();
    model.layer_flops = static_cast<double>(plan.total_flops());
    model.peak_elems = plan.workspace_elems();
  } else {
    // State-vector path: one forward evolution per layer, a 2x2 (4x4) row
    // update per amplitude per gate.
    const double dim = std::pow(2.0, std::min(n, 62));
    double flops = 0.0;
    for (const qc::Gate& g : skeleton) flops += (g.num_qubits() == 1 ? 2.0 : 4.0) * dim;
    model.layer_flops = flops;
    model.peak_elems = static_cast<std::size_t>(dim);
  }
  return model;
}

ApproxResult approximate_fidelity(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  std::uint64_t v_bits, const ApproxOptions& opts) {
  const int n = nc.num_qubits();
  BaseLists base = build_base(nc);
  const std::size_t num_sites = base.sites.size();
  const std::size_t level = std::min(opts.level, num_sites);

  // Simplify once: every noise site carries an insertion in every term, so
  // the cancellation structure is term-independent.
  std::vector<qc::Gate> skeleton = base.gates;
  if (opts.eval.simplify) skeleton = qc::cancel_inverse_pairs(std::move(skeleton));
  const std::vector<std::size_t> site_pos = locate_sites(skeleton, num_sites);

  // Resolve the evaluation options once at the sweep boundary (see
  // sweep_outputs): downstream resolution sites become pass-throughs.
  EvalOptions eval = resolved_eval_options(n, skeleton, opts.eval);
  eval.simplify = false;  // already applied to the skeleton

  // Cooperative control (see sweep_outputs): plan compiles poll through
  // eval.tn, per-term execution polls through the sessions / workspaces.
  const RunControl* control = opts.control;
  eval.tn.control = control;

  const std::vector<Term> terms = enumerate_terms(base.sites, level);

  ApproxResult result;
  result.term_sums.assign(level + 1, cplx{0.0, 0.0});

  SerializedProgress progress(opts.progress);
  auto note_progress = [&] { progress.note(); };

  std::vector<cplx> values(terms.size());
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(sim::resolve_threads(opts.threads), terms.size()));
  // One static-shard phase over the terms: worker w owns a contiguous,
  // balanced term range, and the reduction below runs on the joined values
  // in enumeration order either way.
  auto run_workers = [&](const std::function<void(std::size_t, std::size_t, std::size_t)>&
                             body) {
    sim::run_phases(
        threads, 1, [&](std::size_t) { return terms.size(); },
        [&](std::size_t, std::size_t w, std::size_t begin, std::size_t end) { body(w, begin, end); });
  };

  std::vector<tn::ContractStats> worker_stats(threads);
  tn::ContractStats setup_stats;
  SweepTimer timer(result.plan_seconds, result.eval_seconds);

  if (opts.reuse_plans && uses_tensor_network(eval, n)) {
    // Plan/execute fast path: every term's top and bottom networks share
    // one topology -- only the tensors at the u chosen noise sites change,
    // and the bottom layer conjugates every tensor. Plan it once (or fetch
    // it from the plan cache), then replay the plan per term and layer with
    // substituted site tensors, one workspace per worker.
    CallCache plans(opts.plan_cache);
    const auto top_at = plans.acquire_template(n, skeleton, psi_bits, v_bits,
                                               /*conjugate=*/false, eval, setup_stats);
    const auto bot_at = plans.acquire_template(n, skeleton, psi_bits, v_bits,
                                               /*conjugate=*/true, eval, setup_stats);
    const AmplitudeTemplate& top_tmpl = top_at->tmpl();
    const AmplitudeTemplate& bot_tmpl = bot_at->tmpl();

    const SiteFactors fac = build_site_factors(base.sites, site_pos, top_tmpl);
    const std::vector<std::size_t>& site_node = fac.node;
    const std::vector<std::vector<tsr::Tensor>>& top_fac = fac.top;
    const std::vector<std::vector<tsr::Tensor>>& bot_fac = fac.bot;

    // Batch size: ApproxOptions::batch_terms clamped to the term count;
    // <= 1 selects the per-term replay reference path below.
    const std::size_t batch =
        std::min(std::max<std::size_t>(opts.batch_terms, 1), terms.size());
    if (batch > 1) {
      // Batched replay: each worker chunks its range and executes every
      // chunk in one plan traversal (shared-cone steps once per chunk,
      // duplicate slices memcpy'd). Bit-identical to the per-term path at
      // any batch size -- the reduction below still runs per term in
      // enumeration order.
      // Each site only ever substitutes one of its split factors, which
      // bounds every step's distinct rows by the variant product of its
      // cone -- most of the batched arena shrinks accordingly.
      std::vector<std::size_t> variant_counts(num_sites);
      for (std::size_t s = 0; s < num_sites; ++s)
        variant_counts[s] = base.sites[s].split.terms();
      // At level l every term deviates from the dominant assignment at u <=
      // l sites, which tightens the batched row bounds substantially.
      // One batched plan serves both layers (they share the per-term plan).
      const std::shared_ptr<const tn::BatchedPlan> bplan =
          plans.acquire_batched(*top_at, site_node, batch, variant_counts, level, {},
                                setup_stats);

      timer.eval_started();
      run_workers([&](std::size_t w, std::size_t begin, std::size_t end) {
        AmplitudeTemplate::BatchedSession top_session(top_tmpl, *bplan);
        AmplitudeTemplate::BatchedSession bot_session(bot_tmpl, *bplan);
        top_session.set_control(control);
        bot_session.set_control(control);
        std::vector<const tsr::Tensor*> top_ptrs(batch * num_sites);
        std::vector<const tsr::Tensor*> bot_ptrs(batch * num_sites);
        std::vector<cplx> top_amp(batch), bot_amp(batch);
        for (std::size_t b0 = begin; b0 < end; b0 += batch) {
          const std::size_t kk = std::min(batch, end - b0);
          for (std::size_t t = 0; t < kk; ++t) {
            const Term& term = terms[b0 + t];
            // Dominant factor everywhere, subdominant at the chosen sites.
            for (std::size_t s = 0; s < num_sites; ++s) {
              top_ptrs[t * num_sites + s] = &top_fac[s][0];
              bot_ptrs[t * num_sites + s] = &bot_fac[s][0];
            }
            for (std::size_t c = 0; c < term.sites.size(); ++c) {
              const std::size_t s = term.sites[c];
              top_ptrs[t * num_sites + s] = &top_fac[s][term.term_idx[c]];
              bot_ptrs[t * num_sites + s] = &bot_fac[s][term.term_idx[c]];
            }
          }
          top_session.evaluate(std::span(top_ptrs).first(kk * num_sites), kk, top_amp);
          bot_session.evaluate(std::span(bot_ptrs).first(kk * num_sites), kk, bot_amp);
          for (std::size_t t = 0; t < kk; ++t) {
            values[b0 + t] = top_amp[t] * bot_amp[t];
            note_progress();
          }
        }
        worker_stats[w].merge(top_session.stats());
        worker_stats[w].merge(bot_session.stats());
      });
      timer.eval_done();
    } else {
      timer.eval_started();
      run_workers([&](std::size_t w, std::size_t begin, std::size_t end) {
        AmplitudeTemplate::Session top_session = top_tmpl.session();
        AmplitudeTemplate::Session bot_session = bot_tmpl.session();
        top_session.set_control(control);
        bot_session.set_control(control);
        std::vector<AmplitudeTemplate::Substitution> top_subs(num_sites), bot_subs(num_sites);
        for (std::size_t i = begin; i < end; ++i) {
          const Term& term = terms[i];
          // Dominant factor everywhere, subdominant at the chosen sites.
          for (std::size_t s = 0; s < num_sites; ++s) {
            top_subs[s] = {site_node[s], &top_fac[s][0]};
            bot_subs[s] = {site_node[s], &bot_fac[s][0]};
          }
          for (std::size_t c = 0; c < term.sites.size(); ++c) {
            const std::size_t s = term.sites[c];
            top_subs[s].second = &top_fac[s][term.term_idx[c]];
            bot_subs[s].second = &bot_fac[s][term.term_idx[c]];
          }
          const cplx top_amp = top_session.evaluate(top_subs);
          const cplx bot_amp = bot_session.evaluate(bot_subs);
          note_progress();
          values[i] = top_amp * bot_amp;
        }
        worker_stats[w].merge(top_session.stats());
        worker_stats[w].merge(bot_session.stats());
      });
      timer.eval_done();
    }
  } else {
    // Reference path (state-vector backend, or reuse_plans disabled):
    // each term materializes its gate lists and evaluates them standalone,
    // re-planning any tensor-network contraction from scratch. Each worker
    // owns private copies of the skeleton.
    auto eval_term = [&](const Term& term, std::vector<qc::Gate>& top,
                         std::vector<qc::Gate>& bottom, tn::ContractStats* stats) {
      if (control) control->poll();  // SV terms have no inner poll points
      for (std::size_t s = 0; s < num_sites; ++s) {
        std::size_t t = 0;
        for (std::size_t c = 0; c < term.sites.size(); ++c)
          if (term.sites[c] == s) t = term.term_idx[c];
        top[site_pos[s]].custom = base.sites[s].split.u[t];
        // The bottom layer is evaluated with conjugate=true (which
        // conjugates every matrix), so store conj(V) to apply V itself.
        bottom[site_pos[s]].custom = base.sites[s].split.v[t].conj();
      }
      const cplx top_amp = amplitude(n, top, psi_bits, v_bits, /*conjugate=*/false, eval, stats);
      const cplx bot_amp = amplitude(n, bottom, psi_bits, v_bits, /*conjugate=*/true, eval, stats);
      note_progress();
      return top_amp * bot_amp;
    };

    timer.eval_started();
    run_workers([&](std::size_t w, std::size_t begin, std::size_t end) {
      std::vector<qc::Gate> top = skeleton, bottom = skeleton;
      for (std::size_t i = begin; i < end; ++i)
        values[i] = eval_term(terms[i], top, bottom, &worker_stats[w]);
    });
    timer.eval_done();
  }

  // Deterministic stats reduction: setup first, then workers in order.
  result.contract_stats.merge(setup_stats);
  for (const tn::ContractStats& ws : worker_stats) result.contract_stats.merge(ws);

  // Deterministic reduction in enumeration order.
  for (std::size_t i = 0; i < terms.size(); ++i) result.term_sums[terms[i].level] += values[i];
  for (std::size_t u = 0; u <= level; ++u) {
    result.raw += result.term_sums[u];
    result.level_values.push_back(result.raw.real());
  }
  result.contractions = 2 * terms.size();
  result.value = result.raw.real();

  fill_error_bounds(base.sites, level, nc.max_noise_rate(), result.error_bound,
                    result.tight_error_bound);
  return result;
}

ApproxBatchResult approximate_fidelity_outputs(const ch::NoisyCircuit& nc,
                                               std::uint64_t psi_bits,
                                               std::span<const std::uint64_t> v_bits,
                                               const ApproxOptions& opts) {
  ApproxBatchResult r = sweep_outputs(nc, psi_bits, v_bits, opts, /*shard_outputs=*/0);
  // This entry point's contract matches approximate_fidelity: a cancel
  // raises. Salvage semantics (partial results + validity mask) are
  // xeb_sweep's contract only.
  if (r.cancelled)
    throw CancelledError("approximate_fidelity_outputs cancelled via RunControl");
  return r;
}

ApproxBatchResult xeb_sweep(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::span<const std::uint64_t> v_bits, const SweepOptions& opts) {
  return sweep_outputs(nc, psi_bits, v_bits, opts.approx, opts.shard_outputs);
}

ch::NoisyCircuit with_ideal_output_projector(const ch::NoisyCircuit& nc) {
  ch::NoisyCircuit out = nc;
  const qc::Circuit inverse = nc.gates_only().adjoint();
  for (const qc::Gate& g : inverse.gates()) out.add_gate(g);
  return out;
}

}  // namespace noisim::core
