#pragma once
// Cooperative cancellation / deadline / memory-ceiling control block.
//
// A RunControl is a small, caller-owned object shared (by pointer) between
// the thread that launches a computation and the threads executing it. The
// execution stack polls it at natural quiescent points -- the plan executor
// per contraction step (via tn::PlanWorkspace::control), the sharded sweep
// queue per work-item claim, the trajectory runner per (shard, chunk) item
// -- so a triggered control stops the run within one step/item rather than
// at the next top-level call boundary.
//
// Semantics:
//   * cancel      -- sticky flag; poll() raises CancelledError. Cancel is a
//                    caller decision, so it propagates through simulate()'s
//                    escalation ladder instead of being retried elsewhere.
//   * deadline    -- absolute steady_clock instant; poll() raises
//                    TimeoutError once passed. Unlike the plan-time deadline
//                    in ContractOptions::timeout_seconds (which is baked
//                    into compiled plans and participates in PlanCache
//                    keys), a RunControl deadline is pure run-time state and
//                    never affects plan contents.
//   * memory ceiling -- optional high-water element budget checked by
//                    check_memory() before large arena commitments; raises
//                    MemoryOutError (escalation-eligible in simulate()).
//
// Determinism contract: a control that never fires changes nothing -- every
// result is bit-identical to a run with control == nullptr. All fields are
// atomics, so request_cancel()/set_deadline_*() may race freely with polls
// from worker threads.
//
// This header is a leaf (linalg + <atomic>/<chrono> only) so that tn/ and
// sim/ can accept a const core::RunControl* without depending on core/.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "linalg/complex.hpp"

namespace noisim::core {

class RunControl {
 public:
  using Clock = std::chrono::steady_clock;

  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// Request cancellation. Sticky: every subsequent poll() on any thread
  /// raises CancelledError until reset().
  void request_cancel() noexcept { cancel_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const noexcept {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Arm a wall-clock deadline `seconds` from now (seconds <= 0 clears it).
  void set_deadline_after(double seconds) noexcept {
    if (seconds <= 0.0) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count();
    const auto delta_ns = static_cast<std::int64_t>(seconds * 1e9);
    deadline_ns_.store(now_ns + delta_ns, std::memory_order_relaxed);
  }

  /// Arm an absolute deadline.
  void set_deadline(Clock::time_point when) noexcept {
    deadline_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           when.time_since_epoch())
                           .count(),
                       std::memory_order_relaxed);
  }

  void clear_deadline() noexcept { deadline_ns_.store(0, std::memory_order_relaxed); }

  bool deadline_expired() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return false;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
               .count() >= d;
  }

  /// Arm a high-water memory ceiling in scalar elements (0 disables).
  void set_memory_ceiling_elems(std::size_t elems) noexcept {
    ceiling_elems_.store(elems, std::memory_order_relaxed);
  }

  std::size_t memory_ceiling_elems() const noexcept {
    return ceiling_elems_.load(std::memory_order_relaxed);
  }

  /// Drop every armed condition (useful for test fixtures that reuse one
  /// control across cases; production callers make a fresh control per run).
  void reset() noexcept {
    cancel_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
    ceiling_elems_.store(0, std::memory_order_relaxed);
  }

  /// Raise CancelledError on a requested cancel, TimeoutError on an expired
  /// deadline; otherwise return. Cancel wins over deadline when both fire.
  void poll() const {
    if (cancel_requested())
      throw CancelledError("run cancelled via RunControl");
    if (deadline_expired())
      throw TimeoutError("run exceeded RunControl deadline");
  }

  /// Raise MemoryOutError when `elems` would exceed the armed ceiling.
  /// Checked before arena commitments, not on every small allocation.
  void check_memory(std::size_t elems, const char* what) const {
    const std::size_t ceiling = memory_ceiling_elems();
    if (ceiling != 0 && elems > ceiling)
      throw MemoryOutError(std::string(what) + " needs " + std::to_string(elems) +
                           " elems, above RunControl memory ceiling of " +
                           std::to_string(ceiling));
  }

 private:
  std::atomic<bool> cancel_{false};
  // Deadline as nanoseconds since the steady_clock epoch; 0 = unarmed.
  std::atomic<std::int64_t> deadline_ns_{0};
  std::atomic<std::size_t> ceiling_elems_{0};
};

}  // namespace noisim::core
