#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "linalg/complex.hpp"
#include "support/env.hpp"
#include "support/mutex.hpp"

namespace noisim::sim {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  // Strict validation via the shared parser (support/env.hpp): a value that
  // is set but unusable is a misconfiguration worth failing on, not
  // silently coercing to the hardware default.
  if (const std::optional<std::size_t> env =
          support::env_positive_int("NOISIM_THREADS", "thread count"))
    return *env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void Welford::add(double x) {
  ++count;
  const double delta = x - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (x - mean);
}

void Welford::merge(const Welford& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count), nb = static_cast<double>(other.count);
  const double delta = other.mean - mean;
  const double total = na + nb;
  mean += delta * nb / total;
  m2 += other.m2 + delta * delta * na * nb / total;
  count += other.count;
}

double Welford::variance() const {
  if (count < 2) return 0.0;
  return m2 / static_cast<double>(count - 1);
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shared failure gate for run_phases' workers: the first exception any
/// worker hits is recorded and the abort flag tells siblings to stop
/// claiming items, so a failed run drains within one item per worker
/// instead of computing the whole remaining budget for a result that will
/// be thrown away. Workers never throw out of their thread; the recorded
/// exception is rethrown on the calling thread after every worker joined
/// (threads and accumulators are all settled by then -- no leaks, no torn
/// state).
class AbortGate {
 public:
  bool stopping() const { return abort_.load(std::memory_order_relaxed); }
  void record() noexcept EXCLUDES(mutex_) {
    abort_.store(true, std::memory_order_relaxed);
    const support::MutexLock lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  void rethrow() EXCLUDES(mutex_) {
    // Copy the slot out under the lock (callers run after the join, but the
    // analysis holds every access to the guarded slot to the same rule).
    std::exception_ptr err;
    {
      const support::MutexLock lock(mutex_);
      err = first_error_;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  std::atomic<bool> abort_{false};
  support::Mutex mutex_;
  std::exception_ptr first_error_ GUARDED_BY(mutex_);
};

/// Phase barrier for run_phases. A waiter spins, then yields, and only
/// then sleeps: phases are short, and a worker that blocks in the kernel
/// at every phase end lets its core go idle, so the next phase waits for
/// the wake-up -- on a virtual machine an idle vCPU is descheduled by the
/// host and takes a host reschedule to wake, which made per-phase barrier
/// latency vary from run to run. `done` runs on the last arriver while
/// every other worker waits, before any of them is released.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(std::size_t seats) : seats_(seats), left_(seats) {}

  template <class Done>
  void arrive_and_wait(Done&& done) {
    const std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (arrive(gen, done)) return;
    for (std::size_t round = 0; gen_.load(std::memory_order_acquire) == gen; ++round) {
      if (round < kSpinRounds) {
        spin_pause();
      } else if (round < kSpinRounds + kYieldRounds) {
        std::this_thread::yield();
      } else {
        gen_.wait(gen, std::memory_order_acquire);
      }
    }
  }

  /// Arrive for the current phase and give up the seat for every later one.
  template <class Done>
  void arrive_and_drop(Done&& done) {
    seats_.fetch_sub(1, std::memory_order_relaxed);
    arrive(gen_.load(std::memory_order_acquire), done);
  }

 private:
  static constexpr std::size_t kSpinRounds = 1 << 12;
  static constexpr std::size_t kYieldRounds = 1 << 10;

  static void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  /// True for the last arriver, which runs `done` and opens the next phase.
  template <class Done>
  bool arrive(std::uint32_t gen, Done& done) {
    if (left_.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
    done();
    left_.store(seats_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    gen_.store(gen + 1, std::memory_order_release);
    gen_.notify_all();
    return true;
  }

  std::atomic<std::size_t> seats_;
  std::atomic<std::size_t> left_;
  std::atomic<std::uint32_t> gen_{0};
};

}  // namespace

std::mt19937_64 chunk_rng(std::uint64_t seed, std::uint64_t chunk_index) {
  return std::mt19937_64(splitmix64(seed ^ splitmix64(chunk_index)));
}

void run_phases(std::size_t threads, std::size_t phases, const PhaseItems& items_of,
                const PhaseBody& body, const core::RunControl* control, PhaseSplit split) {
  std::size_t widest = 0;
  for (std::size_t p = 0; p < phases; ++p) widest = std::max(widest, items_of(p));
  threads = std::max<std::size_t>(1, std::min(threads, widest));

  AbortGate gate;
  // Written only by the barrier's completion step, which runs while every
  // worker is blocked in it, so all workers read the same value after it.
  bool stop = false;
  // Next unclaimed item of the current phase (PhaseSplit::Dynamic); reset by
  // the same completion step.
  std::atomic<std::size_t> next{0};
  PhaseBarrier sync(threads);
  auto done = [&] {
    stop = gate.stopping();
    next.store(0, std::memory_order_relaxed);
  };
  auto worker = [&](std::size_t w) {
    for (std::size_t p = 0; p < phases; ++p) {
      if (p > 0) {
        sync.arrive_and_wait(done);
        if (stop) return;
      }
      try {
        if (control) control->poll();
        fault::poke("sim-phase");
        const std::size_t items = items_of(p);
        if (split == PhaseSplit::Dynamic && threads > 1) {
          for (std::size_t i = 0;
               !gate.stopping() && (i = next.fetch_add(1, std::memory_order_relaxed)) < items;)
            body(p, w, i, i + 1);
        } else {
          const std::size_t base = items / threads, extra = items % threads;
          const std::size_t begin = w * base + std::min(w, extra);
          const std::size_t end = begin + base + (w < extra ? 1 : 0);
          if (begin < end) body(p, w, begin, end);
        }
      } catch (...) {
        gate.record();
      }
    }
  };

  // At one worker this is the inline path: no thread, and a one-seat
  // barrier that never waits.
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  try {
    for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(worker, w);
  } catch (...) {
    // A worker that never started can never arrive: drop its seat, and let
    // the recorded error stop the started ones after their first phase.
    gate.record();
    for (std::size_t w = pool.size() + 1; w < threads; ++w) sync.arrive_and_drop(done);
  }
  worker(0);
  for (std::thread& t : pool) t.join();
  gate.rethrow();
}

std::vector<TrajectoryResult> run_trajectories_sharded(
    std::size_t samples, std::size_t num_estimates, std::size_t shard_size,
    std::uint64_t seed, const ShardChunkSamplerFactory& make_sampler,
    const ParallelOptions& opts) {
  la::detail::require(opts.chunk_size > 0, "run_trajectories: chunk_size must be positive");
  std::vector<TrajectoryResult> out(num_estimates);
  if (samples == 0 || num_estimates == 0) return out;

  const std::size_t shard =
      std::min(num_estimates, shard_size > 0 ? shard_size : num_estimates);
  const std::size_t num_shards = (num_estimates + shard - 1) / shard;
  const std::size_t num_chunks = (samples + opts.chunk_size - 1) / opts.chunk_size;
  const std::size_t num_items = num_shards * num_chunks;
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(resolve_threads(opts.threads), num_items));

  // One accumulator per (chunk, estimate): estimate o's stream through
  // chunk c is the same whichever worker or shard scored it, so the
  // chunk-order merge below is independent of the work split.
  std::vector<Welford> chunk_stats(num_chunks * num_estimates);
  // Each worker's sampler and value buffer, built on its first item.
  struct WorkerSlot {
    ShardChunkSampler sampler;
    std::vector<double> values;
  };
  std::vector<WorkerSlot> slots(threads);

  run_phases(
      threads, 1, [num_items](std::size_t) { return num_items; },
      [&](std::size_t, std::size_t w, std::size_t begin, std::size_t end) {
        WorkerSlot& slot = slots[w];
        if (!slot.sampler) {
          slot.sampler = make_sampler(w);
          slot.values.resize(opts.chunk_size * shard);
        }
        for (std::size_t item = begin; item < end; ++item) {
          if (opts.control) opts.control->poll();
          fault::poke("traj-chunk");
          const std::size_t c = item / num_shards;
          const std::size_t shard_begin = (item % num_shards) * shard;
          const std::size_t shard_count = std::min(shard, num_estimates - shard_begin);
          const std::size_t first = c * opts.chunk_size;
          const std::size_t count = std::min(first + opts.chunk_size, samples) - first;
          std::mt19937_64 rng = chunk_rng(seed, c);
          slot.sampler(rng, shard_begin, shard_count, count,
                       std::span<double>(slot.values.data(), count * shard_count));
          for (std::size_t j = 0; j < shard_count; ++j) {
            Welford& stats = chunk_stats[c * num_estimates + shard_begin + j];
            for (std::size_t s = 0; s < count; ++s) stats.add(slot.values[s * shard_count + j]);
          }
        }
      },
      opts.control, PhaseSplit::Dynamic);

  for (std::size_t o = 0; o < num_estimates; ++o) {
    Welford total;
    for (std::size_t c = 0; c < num_chunks; ++c)
      total.merge(chunk_stats[c * num_estimates + o]);
    out[o].samples = total.count;
    out[o].mean = total.mean;
    if (total.count > 1)
      out[o].std_error = std::sqrt(total.variance() / static_cast<double>(total.count));
  }
  return out;
}

TrajectoryResult run_trajectories(std::size_t samples, std::uint64_t seed,
                                  const SamplerFactory& make_sampler,
                                  const ParallelOptions& opts) {
  return run_trajectories_sharded(
      samples, 1, 1, seed,
      [&make_sampler](std::size_t w) -> ShardChunkSampler {
        return [sampler = make_sampler(w)](std::mt19937_64& rng, std::size_t, std::size_t,
                                           std::size_t count, std::span<double> values) {
          for (std::size_t s = 0; s < count; ++s) values[s] = sampler(rng);
        };
      },
      opts)[0];
}

TrajectoryResult run_trajectories(std::size_t samples, std::uint64_t seed,
                                  const Sampler& sampler, const ParallelOptions& opts) {
  return run_trajectories(
      samples, seed, [&sampler](std::size_t) { return sampler; }, opts);
}

}  // namespace noisim::sim
