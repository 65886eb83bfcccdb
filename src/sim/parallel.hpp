#pragma once
// Shared multithreaded Monte-Carlo trajectory engine.
//
// All three trajectory baselines (statevector, MPS, tensor network) draw
// i.i.d. fidelity samples in an outer loop; this engine parallelizes that
// loop while keeping the estimate bit-for-bit reproducible for a fixed seed
// regardless of the number of worker threads:
//
//  * the sample budget is split into fixed-size chunks, and chunk c always
//    draws from its own std::mt19937_64 seeded from splitmix64(seed, c) --
//    the set of random streams is a function of (seed, chunk_size) only,
//    never of the thread count;
//  * idle workers steal the next unclaimed chunk from a shared atomic
//    counter, so uneven per-sample costs (e.g. MPS bond growth) balance
//    out without a static partition;
//  * each chunk accumulates its own Welford mean/M2 and the per-chunk
//    statistics are merged in chunk order (Chan's parallel variance
//    update) after all workers join; the merge order is deterministic, so
//    the floating-point result is too.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <span>

#include "core/run_control.hpp"

namespace noisim::sim {

struct TrajectoryResult {
  double mean = 0.0;       // estimate of <v|E(rho)|v>
  double std_error = 0.0;  // sample standard error of the mean
  std::size_t samples = 0;
};

struct ParallelOptions {
  /// Worker threads; 0 = NOISIM_THREADS env var if set, else
  /// std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Samples per RNG chunk. Part of the reproducibility contract: the same
  /// (seed, chunk_size) pair always draws the same streams, so changing it
  /// changes the (equally valid) estimate.
  std::size_t chunk_size = 32;
  /// Cooperative control (core/run_control.hpp), polled by every worker
  /// once per claimed chunk: a cancel raises CancelledError and an expired
  /// deadline TimeoutError from the runner, within one chunk of the
  /// trigger. Workers that observe a sibling's exception stop claiming
  /// chunks (cooperative drain) and the FIRST exception is rethrown after
  /// all workers join. Null disables; a control that never fires leaves
  /// results bit-identical. Caller-owned.
  const core::RunControl* control = nullptr;
};

/// Resolve ParallelOptions::threads (0 -> env/hardware default).
std::size_t resolve_threads(std::size_t requested);

/// Streaming mean/variance accumulator with a deterministic pairwise merge.
struct Welford {
  std::size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  // sum of squared deviations from the running mean

  void add(double x);
  void merge(const Welford& other);
  /// Unbiased sample variance (n-1 denominator); 0 when count < 2.
  double variance() const;
};

/// Derived RNG for one chunk: decorrelates consecutive chunk indices far
/// better than seeding mt19937_64 with seed + c directly.
std::mt19937_64 chunk_rng(std::uint64_t seed, std::uint64_t chunk_index);

/// One fidelity sample in [0, 1] drawn with the supplied RNG.
using Sampler = std::function<double(std::mt19937_64&)>;
/// Per-worker sampler factory: called once per worker thread so a sampler
/// can own scratch state (e.g. a gate-list copy) without synchronization.
using SamplerFactory = std::function<Sampler(std::size_t worker)>;

/// Fill one chunk's fidelity samples (values.size() <= chunk_size) drawing
/// from `rng` exactly as the per-sample path would, in sample order --
/// backends that evaluate a whole chunk at once (the batched TN plan
/// executor) pre-draw per-sample randomness in order and then fill the
/// values in one shot, which keeps the estimate bit-identical to
/// sample-at-a-time evaluation.
using ChunkSampler = std::function<void(std::mt19937_64&, std::span<double>)>;
/// Per-worker chunk-sampler factory (owns scratch, like SamplerFactory).
using ChunkSamplerFactory = std::function<ChunkSampler(std::size_t worker)>;

/// Run `samples` trajectories with work-stealing over seed-indexed chunks.
/// The result is identical for any `opts.threads` (including 1).
/// samples == 0 returns the well-defined empty estimate (0 samples, mean 0,
/// no error bar) without invoking the sampler.
TrajectoryResult run_trajectories(std::size_t samples, std::uint64_t seed,
                                  const SamplerFactory& make_sampler,
                                  const ParallelOptions& opts = {});

/// Convenience overload for samplers without per-worker scratch.
TrajectoryResult run_trajectories(std::size_t samples, std::uint64_t seed,
                                  const Sampler& sampler, const ParallelOptions& opts = {});

/// Chunk-at-a-time variant of run_trajectories: same chunking, RNG streams,
/// and deterministic Welford merge, but each chunk's samples are produced
/// by one ChunkSampler call (enabling batched evaluation across the chunk).
TrajectoryResult run_trajectories_chunked(std::size_t samples, std::uint64_t seed,
                                          const ChunkSamplerFactory& make_sampler,
                                          const ParallelOptions& opts = {});

/// Fill one chunk's samples for MANY estimates at once:
/// values[s * num_estimates + o] = trajectory s scored for estimate o
/// (s < the passed sample count). Per-sample randomness must be drawn in
/// sample order exactly as the single-estimate path would -- one draw set
/// per trajectory, shared by every estimate -- so each estimate's stream
/// matches its standalone run bit for bit.
using MultiChunkSampler =
    std::function<void(std::mt19937_64&, std::size_t, std::span<double>)>;
/// Per-worker multi-estimate sampler factory (owns scratch).
using MultiChunkSamplerFactory = std::function<MultiChunkSampler(std::size_t worker)>;

/// run_trajectories_chunked over `num_estimates` estimates that share every
/// trajectory's randomness (e.g. one sampled noise realization scored at
/// many output bitstrings). Returns one TrajectoryResult per estimate;
/// estimate o is bit-identical to the single-estimate runner fed stream o
/// (same chunking, same per-chunk Welford accumulation, same chunk-order
/// merge). samples == 0 yields well-defined empty estimates (0 samples,
/// mean 0).
std::vector<TrajectoryResult> run_trajectories_multi(
    std::size_t samples, std::size_t num_estimates, std::uint64_t seed,
    const MultiChunkSamplerFactory& make_sampler, const ParallelOptions& opts = {});

/// Fill one chunk's samples for the estimates of ONE shard:
/// values[s * shard_count + j] = trajectory s scored for estimate
/// shard_begin + j (s < sample_count). Per-sample randomness must be drawn
/// in sample order exactly as the single-estimate path would -- one draw
/// set per trajectory, independent of which shard is being scored -- so
/// every estimate's stream matches its standalone run bit for bit. Shards
/// of the same chunk redraw the same per-sample randomness (draws are cheap
/// next to scoring).
using ShardChunkSampler =
    std::function<void(std::mt19937_64&, std::size_t, std::size_t, std::size_t,
                       std::span<double>)>;
/// Per-worker shard-chunk sampler factory (owns scratch).
using ShardChunkSamplerFactory = std::function<ShardChunkSampler(std::size_t worker)>;

/// run_trajectories_multi over a single 2-D (estimate-shard x sample-chunk)
/// work queue: the estimates are partitioned into shards of `shard_size`
/// (0 = one shard holding all of them) and workers steal (shard, chunk)
/// items, so a sweep with few sample chunks but many estimates fills every
/// thread instead of idling on a chunk-only partition, and a worker's value
/// buffer holds chunk_size x shard_size samples instead of chunk_size x
/// num_estimates. Estimate o is bit-identical to run_trajectories_multi and
/// to the single-estimate runner fed stream o, at every thread count and
/// shard size: per-(estimate, chunk) Welford accumulation and the
/// chunk-order merge are unchanged, and the chunk RNG streams depend only
/// on (seed, chunk_size).
std::vector<TrajectoryResult> run_trajectories_sharded(
    std::size_t samples, std::size_t num_estimates, std::size_t shard_size,
    std::uint64_t seed, const ShardChunkSamplerFactory& make_sampler,
    const ParallelOptions& opts = {});

/// Item count of one phase of run_phases.
using PhaseItems = std::function<std::size_t(std::size_t phase)>;
/// Work on items [begin, end) of `phase`, run by worker `worker`.
using PhaseBody = std::function<void(std::size_t phase, std::size_t worker, std::size_t begin,
                                     std::size_t end)>;

/// How run_phases hands a phase's items to its workers.
enum class PhaseSplit {
  /// Worker w owns the w-th of `threads` contiguous ranges whose sizes
  /// differ by at most one: the item-to-worker map is a pure function of
  /// (items, threads).
  Static,
  /// Workers claim one item at a time from a shared counter, so a worker
  /// that falls behind (its core taken by another process, or its vCPU by
  /// the host) holds up at most the item it is on. For phases of a few
  /// coarse items; which worker runs an item varies from run to run.
  Dynamic,
};

/// Run `phases` phases of independent items, in order, on `threads`
/// workers -- a phased runner for passes whose items may be split anywhere
/// (the density engine's slices, Algorithm 1's terms):
///
///  * `threads` is used as given (no env/hardware resolution); it is
///    clamped to the largest phase's item count. At one worker everything
///    runs inline on the calling thread, one body call per non-empty phase,
///    and no thread is started; callers whose passes are too small to be
///    worth splitting pass 1.
///  * otherwise threads - 1 std::threads are started once per call and the
///    caller is worker 0. `split` decides which worker runs which items.
///    body runs only for non-empty ranges; every phase's items are done
///    before any item of the next one starts (a barrier separates phases;
///    its waiters spin and yield before they sleep).
///  * each worker polls `control` and pokes the `sim-phase` fault site at
///    the start of every phase, before its body. A worker whose poll, poke
///    or body throws records the exception and still arrives at the
///    barrier; the barrier's completion step then stops every worker
///    before the next phase, so all of them leave together without
///    deadlock. The first exception is rethrown after every worker joined.
///
/// Results are bit-identical at any thread count, and under either split,
/// whenever each item's arithmetic does not depend on which worker runs it.
void run_phases(std::size_t threads, std::size_t phases, const PhaseItems& items_of,
                const PhaseBody& body, const core::RunControl* control = nullptr,
                PhaseSplit split = PhaseSplit::Static);

}  // namespace noisim::sim
