#pragma once
// Amplitude evaluation <v| G_d ... G_1 |psi> for gate lists, with two
// backends:
//  * TensorNetwork -- builds the circuit's tensor network and contracts it
//    (the paper's method; scales with treewidth, not qubit count);
//  * StateVector   -- Schrodinger simulation (exact reference, exponential
//    in qubit count but cheap for small circuits).
//
// Gate lists here are plain vectors of qc::Gate so that the approximation
// engine can splice in non-unitary 1-qubit insertions (the SVD factors).

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "tn/contractor.hpp"
#include "tn/plan.hpp"

namespace noisim::core {

struct EvalOptions {
  enum class Backend { Auto, StateVector, TensorNetwork };
  Backend backend = Backend::Auto;
  /// Auto uses the state vector up to this qubit count, TN beyond. For the
  /// paper's shallow benchmark circuits TN contraction beats the 2^n sweep
  /// well before 16 qubits, so the cutoff sits at 12.
  int sv_max_qubits = 12;
  tn::ContractOptions tn;
  /// Run inverse-pair cancellation on the gate list before evaluating
  /// (pays off when the list embeds C then C^dagger around insertions).
  bool simplify = false;
  /// Structure-aware node ordering (e.g. core::make_grid_sweep): called
  /// with the final (post-simplify) gate list; a non-empty result switches
  /// the contraction to Sequential with that absorption order. Ignored by
  /// the state-vector backend.
  std::function<std::vector<std::size_t>(int, const std::vector<qc::Gate>&)> sequence_for;
};

/// Bit of qubit q in an n-qubit basis label: qubit 0 is the most significant
/// bit. For n > 64 only the *last* 64 qubits are addressable through the
/// std::uint64_t label; qubits 0..n-65 are fixed to |0> (which covers the
/// paper's experiments -- they all use |0...0> inputs and outputs).
inline bool basis_bit(std::uint64_t bits, int n, int q) {
  const int shift = n - 1 - q;
  return shift < 64 && ((bits >> shift) & 1);
}

/// Build the tensor network of <v| gates |psi> over n qubits with
/// computational-basis product states |psi_bits>, |v_bits>.
/// If `conjugate` is set every tensor entry is conjugated, which evaluates
/// <v| conj(G_d) ... conj(G_1) |psi> (the bottom layer of the doubled
/// diagram; basis states are real so they are unaffected).
tn::Network amplitude_network(int n, const std::vector<qc::Gate>& gates,
                              std::uint64_t psi_bits, std::uint64_t v_bits,
                              bool conjugate = false);

/// Evaluate <v| gates |psi> (or its conjugated-gates variant).
cplx amplitude(int n, const std::vector<qc::Gate>& gates, std::uint64_t psi_bits,
               std::uint64_t v_bits, bool conjugate = false, const EvalOptions& opts = {},
               tn::ContractStats* stats = nullptr);

/// Evaluate <v_t| gates |psi> for EVERY output bitstring v_t in `v_bits`
/// with the circuit evaluated once: the state-vector backend runs the
/// single forward evolution and reads all amplitudes off the final state;
/// the tensor-network backend compiles the skeleton once and replays it
/// output-batched (the basis caps become varying slots of a
/// tn::BatchedPlan, so steps outside every cap's light cone run once per
/// batch -- see AmplitudeTemplate::compile_batched_outputs). Element t is
/// bit-identical to amplitude(n, gates, psi_bits, v_bits[t], ...) with the
/// same options; if the output-batched workspace exceeds
/// opts.tn.max_workspace_elems the call falls back to per-bitstring plan
/// replay, which is bit-identical too.
std::vector<cplx> batch_amplitudes(int n, const std::vector<qc::Gate>& gates,
                                   std::uint64_t psi_bits,
                                   std::span<const std::uint64_t> v_bits, bool conjugate = false,
                                   const EvalOptions& opts = {},
                                   tn::ContractStats* stats = nullptr);

/// |0> or |1> as a rank-1 tensor (the networks' input/output caps).
tsr::Tensor basis_state_tensor(bool one);

/// A gate matrix as the tensor its network node carries: 2x2 matrices stay
/// rank-2 [out, in]; 4x4 (2-qubit) matrices become the rank-4
/// [out_a, out_b, in_a, in_b] gate tensor. This is the single definition of
/// the node layout amplitude_network uses -- substitution paths (Algorithm-1
/// insertions, trajectory samples) must build their tensors through it.
tsr::Tensor gate_matrix_tensor(const la::Matrix& m, int num_qubits);

/// True iff `opts` resolves to the tensor-network backend for n qubits
/// (explicit TensorNetwork, or Auto past the state-vector cutoff).
inline bool uses_tensor_network(const EvalOptions& opts, int n) {
  return opts.backend == EvalOptions::Backend::TensorNetwork ||
         (opts.backend == EvalOptions::Backend::Auto && n > opts.sv_max_qubits);
}

/// The tn::ContractOptions an AmplitudeTemplate for this gate list would
/// compile under: opts.tn with opts.sequence_for (structure-aware ordering)
/// resolved into a Sequential custom sequence. Plan compilation is a pure
/// function of (network topology, these options), which is what makes the
/// resolved options a valid plan-cache key component (core::PlanCache).
tn::ContractOptions resolved_contract_options(int n, const std::vector<qc::Gate>& gates,
                                              const EvalOptions& opts);

/// `opts` in boundary-resolved form: tn replaced by resolved_contract_options
/// and sequence_for cleared. The evaluation engines (Algorithm-1 sweeps,
/// simulate() adapters) call this ONCE where the gate list is fixed and
/// thread the result through, so a skeleton-walking sequence function never
/// runs per template, per layer, or per call. Idempotent: resolving an
/// already-resolved EvalOptions is a pass-through copy.
EvalOptions resolved_eval_options(int n, const std::vector<qc::Gate>& gates,
                                  const EvalOptions& opts);

/// Caller policy shared by the output-batching paths (batch_amplitudes,
/// approximate_fidelity_outputs, trajectories_tn_sweep): a compiled batch
/// whose schedule is essentially ALL sequential (per-term) work -- the
/// compile-time variant bounds found no step that terms could share -- can
/// only add bookkeeping over plain per-bitstring plan replay, so those
/// callers drop to their (bit-identical) per-bitstring path instead.
inline bool output_batch_worthwhile(const tn::BatchedPlan& bp) {
  return bp.sequential_flop_fraction() < 0.999;
}

/// Plan-once / replay-per-term amplitude evaluation.
///
/// Builds the tensor network of <v| skeleton |psi> once, holds a compiled
/// contraction plan for it, and replays the plan with per-call tensor
/// substitutions at chosen nodes. Every Algorithm-1 term and every TN
/// trajectory sample shares one topology (only the noise-site insertions
/// change), so this turns O(terms x (plan + contract)) into
/// O(plan + terms x contract). The plan is held by shared_ptr: templates of
/// one topology -- the conjugated bottom layer, another output bitstring,
/// other gate matrices -- can replay one plan object (core::PlanCache).
///
/// The template is immutable after construction and safe to share across
/// worker threads; each worker evaluates through its own Session (which
/// owns the plan workspace). A compile during construction raises
/// MemoryOutError / TimeoutError here -- at plan time -- exactly like they
/// would on a first contraction.
class AmplitudeTemplate {
 public:
  /// Supplies the template's plan: called once during construction with
  /// the template's network and resolved options, it returns a plan for
  /// that topology under those options -- compiled for this call, or
  /// shared with same-topology templates.
  using PlanSource = std::function<std::shared_ptr<const tn::ContractionPlan>(
      const tn::Network& net, const tn::ContractOptions& copts)>;

  /// `skeleton` must stay shape-stable under substitution: replacement
  /// tensors carry the same shape as the gate they stand in for.
  /// `opts.sequence_for` (if set) is resolved once against the skeleton.
  /// Compiles the template's own plan (compile_stats() records it).
  AmplitudeTemplate(int n, const std::vector<qc::Gate>& skeleton, std::uint64_t psi_bits,
                    std::uint64_t v_bits, bool conjugate, const EvalOptions& opts);

  /// Like the constructor above, but the plan comes from `plan_source`
  /// (compile_stats() stays empty). Throws LinalgError when the plan's
  /// input count does not match the network.
  AmplitudeTemplate(int n, const std::vector<qc::Gate>& skeleton, std::uint64_t psi_bits,
                    std::uint64_t v_bits, bool conjugate, const EvalOptions& opts,
                    const PlanSource& plan_source);

  /// Network node carrying skeleton gate `gate_index` (for substitutions).
  std::size_t node_of_gate(std::size_t gate_index) const {
    return static_cast<std::size_t>(n_) + gate_index;
  }

  /// Network node carrying qubit q's output cap <v_q| (for substitutions
  /// and output-batched evaluation). Node order is: n input caps, the
  /// skeleton's gates, n output caps.
  std::size_t node_of_output_cap(int q) const {
    return static_cast<std::size_t>(n_) + num_gates_ + static_cast<std::size_t>(q);
  }

  /// The n output-cap nodes in qubit order -- the varying slots
  /// compile_batched_outputs declares.
  std::vector<std::size_t> output_cap_nodes() const;

  /// Shared <0| / <1| cap tensor (same values basis_state_tensor builds).
  /// fill_output_caps hands out these two objects, so the batched
  /// executor's pointer-identity compaction shares rows across bitstrings
  /// that agree on a qubit.
  const tsr::Tensor& output_cap(bool one) const { return one ? cap_one_ : cap_zero_; }

  /// Write the n cap-tensor pointers for output bitstring `v_bits` to
  /// ptrs[0..n): ptrs[q] = &output_cap(bit q of v_bits). The span must
  /// hold at least n entries; extra entries are left untouched (callers
  /// batching terms fill term-major blocks of a larger table).
  void fill_output_caps(std::uint64_t v_bits, std::span<const tsr::Tensor*> ptrs) const;

  const tn::ContractionPlan& plan() const { return *plan_; }
  const std::shared_ptr<const tn::ContractionPlan>& shared_plan() const { return plan_; }
  /// Stats recorded while this template compiled its own plan
  /// (plans_compiled = 1); empty when the plan came from a PlanSource.
  const tn::ContractStats& compile_stats() const { return compile_stats_; }

  /// Compile a batched replay of the template's plan: up to `capacity`
  /// terms differing only at the given (network node) slots execute per
  /// traversal. `variant_counts[v]` (optional) promises at most that many
  /// distinct tensors ever substituted at nodes[v], shrinking the batched
  /// arena to each step's variant product (see
  /// tn::ContractionPlan::compile_batched). Throws MemoryOutError when the
  /// batched arena exceeds the template's max_workspace_elems budget -- the
  /// per-term path may fit a budget its batched counterpart exceeds.
  tn::BatchedPlan compile_batched(std::span<const std::size_t> nodes, std::size_t capacity,
                                  tn::ContractStats* stats = nullptr,
                                  std::span<const std::size_t> variant_counts = {},
                                  std::size_t max_varied_per_term =
                                      static_cast<std::size_t>(-1),
                                  std::span<const char> unconstrained = {}) const {
    return plan_->compile_batched(nodes, capacity, copts_, stats, variant_counts,
                                 max_varied_per_term, unconstrained);
  }

  /// Batched replay across OUTPUT BITSTRINGS: the n output-cap nodes become
  /// the varying slots (2 variants each -- <0| and <1| -- exempt from any
  /// per-term deviation promise, since a bitstring flips caps freely), so
  /// one traversal evaluates the skeleton amplitude at up to `capacity`
  /// output bitstrings. Steps outside every cap's light cone run once per
  /// batch; cap-cone steps store one row per distinct projection of the
  /// batch's bitstrings onto the cone's qubits. Throws MemoryOutError when
  /// the batched arena exceeds the template's max_workspace_elems budget.
  tn::BatchedPlan compile_batched_outputs(std::size_t capacity,
                                          tn::ContractStats* stats = nullptr) const;

  /// (node index, replacement tensor) pair for Session::evaluate.
  using Substitution = std::pair<std::size_t, const tsr::Tensor*>;

  /// Per-thread evaluation state: plan workspace + input pointer table.
  class Session {
   public:
    /// Evaluate the skeleton amplitude with each subs[i].first node's
    /// tensor replaced by *subs[i].second (shapes must match). Replays the
    /// compiled plan; no planning, near-zero allocation in steady state.
    cplx evaluate(std::span<const Substitution> subs);
    /// Cooperative run-time control: every plan replay through this session
    /// polls it at step granularity (tn::PlanWorkspace::control). Sessions
    /// are per-call state, so the control lives here and never on the
    /// (cached, shared) template. Null disables.
    void set_control(const RunControl* control) { ws_.control = control; }
    /// Contraction stats accumulated across evaluate calls.
    const tn::ContractStats& stats() const { return stats_; }

   private:
    friend class AmplitudeTemplate;
    explicit Session(const AmplitudeTemplate& tmpl);
    const AmplitudeTemplate* tmpl_;
    tn::PlanWorkspace ws_;
    std::vector<const tsr::Tensor*> inputs_;
    tn::ContractStats stats_;
  };

  /// A fresh session; the template must outlive it.
  Session session() const { return Session(*this); }

  /// Per-thread batched evaluation state over a compiled BatchedPlan:
  /// workspace plus the shared-input table. Evaluates K same-topology
  /// amplitudes (e.g. K Algorithm-1 terms or K trajectory samples) in one
  /// plan traversal; each amplitude is bit-identical to Session::evaluate
  /// with the same substitutions.
  class BatchedSession {
   public:
    /// Template and batched plan must outlive the session; `bplan` must
    /// have been compiled from a plan of this template's topology (its own,
    /// or one it shares through core::PlanCache).
    BatchedSession(const AmplitudeTemplate& tmpl, const tn::BatchedPlan& bplan);
    /// Evaluate k <= bplan.capacity() amplitudes: ptrs[t * V + v] stands in
    /// at varying node bplan.varying_slots()[v] for term t (V = number of
    /// varying nodes). Writes the k amplitudes to `out`.
    void evaluate(std::span<const tsr::Tensor* const> ptrs, std::size_t k,
                  std::span<cplx> out);
    /// Like evaluate(ptrs, k, out) but with per-call substitutions at
    /// SHARED (non-varying) nodes first: every term of the batch sees
    /// subs[i].first's tensor replaced by *subs[i].second (shapes must
    /// match). This is how one output-batched traversal evaluates a single
    /// Algorithm-1 term or trajectory sample at many bitstrings -- the
    /// term's noise-site tensors go in as shared substitutions, the caps
    /// as varying slots. The substitutions are undone before returning.
    void evaluate(std::span<const Substitution> subs,
                  std::span<const tsr::Tensor* const> ptrs, std::size_t k,
                  std::span<cplx> out);
    /// Cooperative run-time control, polled at step granularity by every
    /// batched replay through this session (see Session::set_control).
    void set_control(const RunControl* control) { ws_.control = control; }
    /// Contraction stats accumulated across evaluate calls.
    const tn::ContractStats& stats() const { return stats_; }

   private:
    const AmplitudeTemplate* tmpl_;
    const tn::BatchedPlan* bplan_;
    tn::PlanWorkspace ws_;
    std::vector<const tsr::Tensor*> shared_;
    tn::ContractStats stats_;
  };

 private:
  // Declaration order matters: compile_stats_ is written while plan_
  // initializes, and plan_ is obtained for net_; copts_ is resolved before
  // plan_ and kept for compile_batched.
  tn::Network net_;
  tn::ContractStats compile_stats_;
  tn::ContractOptions copts_;
  std::shared_ptr<const tn::ContractionPlan> plan_;
  int n_ = 0;
  std::size_t num_gates_ = 0;
  // Shared <0| / <1| caps for output-batched evaluation (see output_cap).
  tsr::Tensor cap_zero_, cap_one_;
};

}  // namespace noisim::core
