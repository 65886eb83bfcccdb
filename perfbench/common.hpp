#pragma once
// Shared pieces of the repository benchmark: run configuration, the op log
// every workload fills, the closed-loop runner, and the span recorder of the
// traced run.
//
// Spans are recorded here, in the benchmark, around the calls it makes into
// the library's public API; nothing inside src/ is instrumented.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 of (seed, index): the per-op input seed. Every op of a run
/// draws fresh inputs, and the same --seed always draws the same ones.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

struct RunConfig {
  std::uint64_t seed = 1;
  /// Summed op time after which the timed loop stops (once min_ops ran).
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizing: few ops, no minimum-sample rule for op_s.p90.
  bool quick = false;
  /// Worker threads of the parallel workloads (hardware threads).
  std::size_t threads = 1;
};

/// Live-heap high-water mark (heap.cpp): restart it at the current live
/// bytes, and read it.
void reset_heap_peak();
std::size_t heap_peak_bytes();

/// Per-run op accounting behind the end-to-end metrics.
class OpLog {
 public:
  /// Start timing an op (restarts the heap high-water mark).
  void begin_op();
  /// Stop timing it: records its wall and peak live heap; returns the wall.
  double end_op();
  /// Count the op as failed unless `ok`.
  void check(bool ok) {
    if (!ok) ++failed_;
  }
  /// Record |value - reference| against the op's reported bound.
  void bound_ratio(double err, double bound);

  const std::vector<double>& op_s() const { return op_s_; }
  const std::vector<double>& peak_heap_mb() const { return peak_heap_mb_; }
  std::size_t attempted() const { return op_s_.size(); }
  std::size_t failed() const { return failed_; }
  std::size_t checked() const { return checked_; }
  /// Largest |value - reference| / reported bound over the checked ops.
  double err_to_bound_max() const { return err_to_bound_max_; }

 private:
  Clock::time_point start_;
  std::vector<double> op_s_, peak_heap_mb_;
  std::size_t failed_ = 0, checked_ = 0;
  double err_to_bound_max_ = 0.0;
};

/// What one workload run hands back to main().
struct RunResult {
  OpLog log;
  double setup_s = 0.0;
  /// Per-layer metrics of the traced run, by name (empty otherwise).
  std::map<std::string, double> layers;
  /// JSON object of the traced run's design checks (empty otherwise).
  std::string checks_json;
};

double median(std::vector<double> v);
/// Nearest-rank quantile q in (0, 1] of v (0 for an empty v).
double quantile(std::vector<double> v, double q);

/// Set-ups per run; the median is reported as setup_s. Set-up inputs come
/// from mix_seed(seed ^ kSetupStream, i), apart from the timed ops' inputs.
inline constexpr std::size_t kSetups = 5;
inline constexpr std::uint64_t kSetupStream = 0x5e7u;

/// Wall cap of a run's timed loop, so a run ends well inside 180 s even on
/// a slow host (setup, checks and probes included).
inline constexpr double kWallCap = 120.0;

/// Closed loop with one client: calls one_op(i) for i = 0, 1, ... until the
/// returned op seconds sum to cfg.seconds and at least min_ops ran, or the
/// loop's own wall reaches kWallCap. one_op does its own input generation
/// and checks outside the timed region.
void closed_loop(const RunConfig& cfg, std::size_t min_ops,
                 const std::function<double(std::size_t)>& one_op);

/// Scoped-span recorder of the traced run (single benchmark thread). Each
/// span keeps its parent, so self time and op coverage can be derived.
class Tracer {
 public:
  struct Span {
    std::string name;
    double begin = 0.0, end = 0.0;  // seconds since the tracer started
    int parent = -1;
    std::size_t op = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    double elapsed() const;

   private:
    Tracer& tracer_;
    int id_;
  };

  void set_op(std::size_t op) { op_ = op; }

  /// Summed duration of every span with exactly this name.
  double total(const std::string& name) const;
  /// Durations of the spans with exactly this name, in order.
  std::vector<double> durations(const std::string& name) const;
  /// Number of spans whose name starts with `prefix`.
  std::size_t count_prefix(const std::string& prefix) const;
  /// Summed duration of the direct children of spans named `parent`, over
  /// the summed duration of those parents.
  double coverage(const std::string& parent) const;

  /// Chrome trace-event JSON of every span.
  void write_trace_events(const std::string& path) const;
  /// Per span name: count, total and self seconds, as a JSON object.
  std::string layer_table_json() const;

 private:
  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
  std::size_t op_ = 0;
};

/// JSON number with every digit; non-finite values become 0.
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
