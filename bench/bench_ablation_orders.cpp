// Ablation: contraction-order portfolio vs the plain greedy ladder.
//
// DESIGN.md calls the contraction order out as a load-bearing design
// choice: the TN-based methods' feasibility in Table II depends on it.
// PR 10 turned Auto planning into a portfolio search (greedy ladder,
// pairwise-recursive, bracket, alternating, seeded randomized greedy)
// under one shared planning deadline, keeping the minimum-total-flops
// schedule. This bench compiles forced-Greedy and Auto-portfolio plans
// for representative amplitude networks and gates the kept-cheapest
// contract:
//
//   1. portfolio total_flops <= greedy total_flops on EVERY workload
//      (Greedy is in the default subset, so the portfolio can never keep
//      a costlier schedule), and
//   2. the portfolio beats greedy outright on at least one workload:
//      strictly fewer flops (the randomized-greedy restarts win on the
//      deeper hf_vqe / qaoa grids), or compiling at all where the pure
//      greedy ladder memory-outs (the 4x5 supremacy grid).
//
// Plans are pure functions of topology + options, so the recorded plan
// figures are machine-independent; --baseline <json> additionally gates
// every committed workload for EXACT equality against BENCH_orders.json:
// whether each plan compiles, its flops and peak, and the portfolio's
// chosen strategy (a mismatch means plan selection drifted -- a
// determinism bug or an unbaselined planner change). Plan wall times are
// reported and compared informationally (same-CPU only), never gated:
// these are millisecond compiles where timer noise dominates.
//
// Both plans replay to the same amplitude up to float reordering; the
// bench checks agreement to 1e-6 relative as a schedule-sanity guard
// (MO under the laptop-scale execution budget skips the check for that
// workload, flop gates still apply).

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench_common.hpp"
#include "core/circuit_network.hpp"
#include "tn/plan.hpp"

namespace {

using namespace noisim;

struct Workload {
  std::string name;
  qc::Circuit circuit;
};

struct OrderRun {
  std::string name;
  std::size_t nodes = 0;
  bool greedy_ok = false;      // forced-Greedy compiled under the budget
  bool portfolio_ok = false;   // Auto-portfolio compiled under the budget
  std::size_t greedy_flops = 0, portfolio_flops = 0;
  std::size_t greedy_peak = 0, portfolio_peak = 0;
  double greedy_plan_seconds = 0.0, portfolio_plan_seconds = 0.0;
  tn::OrderStrategy chosen = tn::OrderStrategy::Greedy;
  tn::ContractStats portfolio_stats;
  bool value_checked = false;  // execution fit the budget on both plans
  bool value_agrees = true;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The raw value following `"<key>": ` inside the object for
/// `"name": "<name>"` in a BENCH_orders.json text (a number, or a string
/// without its quotes). Empty when the workload or the key is absent.
std::optional<std::string> baseline_field(const std::string& text, const std::string& name,
                                          const std::string& key) {
  const std::size_t at = text.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return std::nullopt;
  const std::size_t object_end = text.find("\"name\": \"", at + 1);
  const std::string key_tag = "\"" + key + "\": ";
  std::size_t value = text.find(key_tag, at);
  if (value == std::string::npos || value > object_end) return std::nullopt;
  value += key_tag.size();
  if (text[value] == '"') {
    const std::size_t close = text.find('"', value + 1);
    return text.substr(value + 1, close - value - 1);
  }
  return text.substr(value, text.find_first_of(",}\n", value) - value);
}

std::string baseline_cpu_model(const std::string& text) {
  const std::string tag = "\"cpu_model\": \"";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t end = text.find('"', at + tag.size());
  return end == std::string::npos ? "" : text.substr(at + tag.size(), end - at - tag.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_orders.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::cerr << "error: --baseline requires a path\n";
        return 2;
      }
      baseline_path = argv[++i];
    } else {
      out_path = arg;
    }
  }

  bench::print_header("Contraction-order ablation: greedy ladder vs Auto portfolio",
                      "DESIGN.md contraction-order feasibility, Table II workloads");

  std::vector<Workload> workloads;
  workloads.push_back({"qaoa_36", bench::qaoa(36, 1, 7)});
  workloads.push_back({"qaoa_64", bench::qaoa(64, 1, 11)});
  workloads.push_back({"hf_vqe_8", bench::hf_vqe(8, 3)});
  workloads.push_back({"hf_vqe_12", bench::hf_vqe(12, 3)});
  workloads.push_back({"inst_4x4_12", bench::supremacy_inst(4, 4, 12, 5)});
  workloads.push_back({"inst_4x5_16", bench::supremacy_inst(4, 5, 16, 5)});
  if (bench::large_mode()) {
    workloads.push_back({"qaoa_121", bench::qaoa(121, 1, 11)});
    workloads.push_back({"inst_5x5_20", bench::supremacy_inst(5, 5, 20, 5)});
  }

  tn::ContractOptions greedy_opts;
  greedy_opts.strategy = tn::OrderStrategy::Greedy;
  greedy_opts.max_tensor_elems = bench::memory_budget();
  tn::ContractOptions portfolio_opts;  // Auto with the portfolio on by default
  portfolio_opts.max_tensor_elems = bench::memory_budget();

  using Clock = std::chrono::steady_clock;
  std::vector<OrderRun> runs;
  bool cheapest_ok = true;    // portfolio <= greedy everywhere
  bool strict_win = false;    // portfolio < greedy somewhere
  for (const Workload& w : workloads) {
    OrderRun run;
    run.name = w.name;
    const tn::Network net =
        core::amplitude_network(w.circuit.num_qubits(), w.circuit.gates(), 0, 0);
    run.nodes = net.num_nodes();
    std::optional<tn::ContractionPlan> greedy_plan, portfolio_plan;
    // Guard the two compiles SEPARATELY: greedy memory-outing while the
    // portfolio survives is a result (the feasibility win on the 4x5
    // grid), not an aborted row. Interleaved best-of-3 compile timings:
    // plans are deterministic, so repeats differ only in wall time and
    // the kept plans are from the final round without loss of generality.
    for (int round = 0; round < 3; ++round) {
      const auto g0 = Clock::now();
      const bench::RunOutcome g = bench::run_guarded([&] {
        greedy_plan = tn::ContractionPlan::compile(net, greedy_opts);
        return 0.0;
      });
      const auto g1 = Clock::now();
      run.portfolio_stats = tn::ContractStats{};
      const bench::RunOutcome p = bench::run_guarded([&] {
        portfolio_plan = tn::ContractionPlan::compile(net, portfolio_opts, &run.portfolio_stats);
        return 0.0;
      });
      const auto p1 = Clock::now();
      run.greedy_ok = g.ok();
      run.portfolio_ok = p.ok();
      const double gs = std::chrono::duration<double>(g1 - g0).count();
      const double ps = std::chrono::duration<double>(p1 - g1).count();
      if (round == 0 || gs < run.greedy_plan_seconds) run.greedy_plan_seconds = gs;
      if (round == 0 || ps < run.portfolio_plan_seconds) run.portfolio_plan_seconds = ps;
      if (!run.greedy_ok && !run.portfolio_ok) break;
    }
    if (run.greedy_ok) {
      run.greedy_flops = greedy_plan->total_flops();
      run.greedy_peak = greedy_plan->peak_elems();
    }
    if (run.portfolio_ok) {
      run.portfolio_flops = portfolio_plan->total_flops();
      run.portfolio_peak = portfolio_plan->peak_elems();
      run.chosen = portfolio_plan->chosen_strategy();
    }
    // Kept-cheapest: Greedy is in the subset, so whenever greedy compiles
    // the portfolio must compile too and never cost more; a greedy MO the
    // portfolio survives is the outright feasibility win.
    if (run.greedy_ok && (!run.portfolio_ok || run.portfolio_flops > run.greedy_flops))
      cheapest_ok = false;
    if (run.portfolio_ok &&
        (!run.greedy_ok || run.portfolio_flops < run.greedy_flops))
      strict_win = true;
    if (run.greedy_ok && run.portfolio_ok) {
      // Schedule-sanity: both plans contract to the same amplitude (up to
      // float reordering). Guarded: an execution MO under the laptop-scale
      // budget skips the check, the flop gates above still apply.
      const bench::RunOutcome exec = bench::run_guarded([&] {
        tn::PlanWorkspace ws;
        const tsr::Tensor g = greedy_plan->execute(net, ws);
        const tsr::Tensor p = portfolio_plan->execute(net, ws);
        const double denom = std::max(std::abs(g[0]), 1e-300);
        return std::abs(g[0] - p[0]) / denom;
      });
      run.value_checked = exec.ok();
      run.value_agrees = !exec.ok() || exec.value < 1e-6;
    }
    runs.push_back(std::move(run));
  }

  bench::Table table({"workload", "nodes", "greedy flops", "portfolio flops", "ratio", "chosen",
                      "greedy plan(s)", "portfolio plan(s)", "value"});
  for (const OrderRun& r : runs) {
    const bool both = r.greedy_ok && r.portfolio_ok;
    const double ratio = both && r.greedy_flops > 0
                             ? static_cast<double>(r.portfolio_flops) /
                                   static_cast<double>(r.greedy_flops)
                             : 0.0;
    table.add_row({r.name, std::to_string(r.nodes),
                   r.greedy_ok ? std::to_string(r.greedy_flops) : "MO",
                   r.portfolio_ok ? std::to_string(r.portfolio_flops) : "MO",
                   both ? bench::fixed(ratio, 3) : "-",
                   r.portfolio_ok ? tn::order_strategy_name(r.chosen) : "-",
                   r.greedy_ok ? bench::sci(r.greedy_plan_seconds) : "-",
                   r.portfolio_ok ? bench::sci(r.portfolio_plan_seconds) : "-",
                   !both              ? "-"
                   : !r.value_checked ? "MO"
                   : r.value_agrees   ? "ok"
                                      : "DISAGREE"});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the portfolio never keeps a schedule costlier than the\n"
            << "greedy ladder's (kept-cheapest under strict comparisons) and beats it\n"
            << "outright where greedy is weak: the randomized restarts find cheaper\n"
            << "orders on the deeper hf_vqe / qaoa grids, and on the 4x5 supremacy\n"
            << "grid the portfolio still compiles where pure greedy memory-outs.\n";

  // Baseline gate (CI): plan selection is a pure function of topology +
  // options, so every committed workload must reproduce EXACTLY on any
  // machine: whether each plan compiles, its flops and peak, and the
  // portfolio's chosen strategy (two plans can tie on flops). A committed
  // plan that no longer compiles is drift too -- that is how a lost
  // feasibility win (greedy MO, portfolio compiles) shows. Plan times are
  // informational (same-CPU note only).
  bool baseline_ok = true;
  bool values_ok = true;
  if (!baseline_path.empty()) {
    const std::string baseline = read_file(baseline_path);
    if (baseline.empty()) {
      std::cout << "cannot read baseline " << baseline_path << "\n";
      baseline_ok = false;
    }
    const std::string base_cpu = baseline_cpu_model(baseline);
    const bool same_machine = base_cpu == bench::cpu_model();
    if (!same_machine)
      std::cout << "baseline recorded on \"" << base_cpu
                << "\" (different CPU) -- plan-time comparison informational only\n";
    const auto str = [](bool b) -> std::string { return b ? "true" : "false"; };
    for (const OrderRun& r : runs) {
      if (!baseline_field(baseline, r.name, "portfolio_ok")) {
        std::cout << "baseline " << r.name << ": not in the committed file (ungated)\n";
        continue;
      }
      std::vector<std::pair<std::string, std::string>> fields = {
          {"greedy_ok", str(r.greedy_ok)},
          {"greedy_flops", std::to_string(r.greedy_flops)},
          {"greedy_peak_elems", std::to_string(r.greedy_peak)},
          {"portfolio_ok", str(r.portfolio_ok)},
          {"portfolio_flops", std::to_string(r.portfolio_flops)},
          {"portfolio_peak_elems", std::to_string(r.portfolio_peak)},
      };
      // A plan that does not compile has no chosen strategy.
      if (r.portfolio_ok) fields.emplace_back("chosen_strategy", tn::order_strategy_name(r.chosen));
      bool drifted = false;
      for (const auto& [key, now] : fields) {
        const std::string committed = baseline_field(baseline, r.name, key).value_or("?");
        if (committed == now) continue;
        drifted = true;
        std::cout << "baseline " << r.name << ": " << key << " " << now << " vs committed "
                  << committed << "  DRIFT (plan selection changed)\n";
      }
      if (!drifted)
        std::cout << "baseline " << r.name << ": portfolio " << r.portfolio_flops
                  << " flops, peak " << r.portfolio_peak << ", "
                  << tn::order_strategy_name(r.chosen) << "  ok\n";
      baseline_ok = baseline_ok && !drifted;
      double base_seconds = 0.0;
      if (const auto s = baseline_field(baseline, r.name, "portfolio_plan_seconds"))
        base_seconds = std::strtod(s->c_str(), nullptr);
      if (same_machine && base_seconds > 0.0)
        std::cout << "         " << r.name << ": portfolio plan time "
                  << bench::sci(r.portfolio_plan_seconds) << "s vs committed "
                  << bench::sci(base_seconds) << "s (informational)\n";
    }
  }
  for (const OrderRun& r : runs) values_ok = values_ok && r.value_agrees;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"ablation_orders\",\n"
      << "  \"machine\": " << bench::machine_json() << ",\n"
      << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const OrderRun& r = runs[i];
    out << "    {\"name\": \"" << r.name << "\", \"nodes\": " << r.nodes
        << ", \"greedy_ok\": " << (r.greedy_ok ? "true" : "false")
        << ", \"portfolio_ok\": " << (r.portfolio_ok ? "true" : "false")
        << ", \"greedy_flops\": " << r.greedy_flops
        << ", \"portfolio_flops\": " << r.portfolio_flops
        << ",\n     \"greedy_peak_elems\": " << r.greedy_peak
        << ", \"portfolio_peak_elems\": " << r.portfolio_peak
        << ", \"chosen_strategy\": \""
        << (r.portfolio_ok ? tn::order_strategy_name(r.chosen) : "-") << "\""
        << ",\n     \"greedy_plan_seconds\": " << bench::sci(r.greedy_plan_seconds)
        << ", \"portfolio_plan_seconds\": " << bench::sci(r.portfolio_plan_seconds)
        << ", \"value_agrees\": " << (r.value_agrees ? "true" : "false")
        << ",\n     \"portfolio_stats\": " << bench::stats_json(r.portfolio_stats) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!cheapest_ok)
    std::cout << "FAIL: portfolio kept a schedule costlier than greedy (kept-cheapest broken)\n";
  if (!strict_win)
    std::cout << "FAIL: portfolio never beat greedy outright (fewer flops or surviving a\n"
                 "      greedy MO was expected on at least one workload)\n";
  if (!values_ok) std::cout << "FAIL: greedy and portfolio plans disagree on an amplitude\n";
  if (!baseline_ok)
    std::cout << "FAIL: plans drifted from the committed baseline (or no longer compile)\n";
  return cheapest_ok && strict_win && values_ok && baseline_ok ? 0 : 1;
}
