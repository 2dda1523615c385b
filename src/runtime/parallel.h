#pragma once
// Block-granular parallel execution runtime. Mirrors the serial SIMT entry
// point of gpu/simt.h (launch) plus a flat parallel_for for the QMC sampling
// sweeps, scheduling work across the shared ThreadPool.
//
// Determinism contract: results and merged performance counters are
// bit-identical to the serial path regardless of thread count.
//  - Blocks are independent (no cross-block data flow within one launch,
//    the CUDA contract), so executing them concurrently cannot change any
//    output value.
//  - Imprecise dispatch keeps working off-main-thread: every shard runs
//    under its own thread-local gpu::FpContext cloned from the caller's
//    active IhwConfig (and open circuit breakers), and the per-shard
//    PerfCounters and fault::FaultCounters are merged into the caller's
//    context with operator+= in ascending shard order -- never in
//    completion order -- once the launch has drained.
//  - Fault injection and the guard stay deterministic under sharding: every
//    unit of work is labelled with its schedule-invariant epoch (linear
//    block / element / chunk index) via gpu::run_epoch, the counter-based
//    fault stream hashes (seed, class, epoch, op index), and the run-level
//    breaker advances only at launch boundaries (gpu::finish_launch) where
//    serial and sharded executions agree on the merged trip counts.
//  - `threads == 1` bypasses the pool entirely and runs the exact serial
//    code path of gpu/simt.h.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "gpu/context.h"
#include "gpu/epoch.h"
#include "gpu/simt.h"

namespace ihw::common {
class Args;
}

namespace ihw::runtime {

/// Hardware concurrency, clamped to >= 1.
int hardware_threads();

/// The process-wide default worker count used when an entry point is called
/// with `threads == 0`. Starts at hardware_threads().
int default_threads();

/// Sets the default worker count; n <= 0 resets to hardware_threads().
void set_default_threads(int n);

/// RAII override of the default worker count (tests, nested tools).
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : prev_(default_threads()) {
    set_default_threads(n);
  }
  ~ScopedThreads() { set_default_threads(prev_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int prev_;
};

/// Reads `--threads=N` (0 or absent = hardware concurrency), installs it as
/// the process default, and returns the resolved count for reporting.
int configure_threads_from_args(const common::Args& args);

/// Runs task(i) for i in [0, n) across the pool with dynamic (work-stealing
/// queue) scheduling -- the driver for coarse, heterogeneous, independent
/// jobs like sweep config points, where static contiguous sharding would
/// leave workers idle behind one slow shard. Unlike parallel_for, tasks are
/// NOT epoch-labelled: each task is expected to build its own FpContext
/// (apps/runner.h run_with_config / run_guarded). Tasks started from a pool
/// worker degrade any nested parallel region to inline serial execution, so
/// a task's result never depends on the thread count. Blocks until every
/// task has finished (a failing task never cancels its siblings); the first
/// exception in *task-index order* -- deterministic, unlike the old
/// completion-order rethrow -- is then rethrown on the caller.
void parallel_tasks(std::size_t n, const std::function<void(std::size_t)>& task,
                    int threads = 0);

/// Fault-isolating variant of parallel_tasks: every task runs to completion
/// regardless of sibling failures, and instead of rethrowing, each task's
/// exception is captured into slot i of the returned vector (nullptr for
/// tasks that returned normally). The sweep grid driver builds its
/// per-point failure containment (FailPolicy::isolate, DESIGN.md §12) on
/// this.
std::vector<std::exception_ptr> parallel_tasks_capture(
    std::size_t n, const std::function<void(std::size_t)>& task,
    int threads = 0);

namespace detail {

/// Number of shards for `work` independent items under a requested thread
/// count (0 = default): never more shards than items, never fewer than 1.
int resolve_shards(int threads, std::uint64_t work);

/// Contiguous range of shard `s` when `n` items are split over `shards`.
inline std::pair<std::uint64_t, std::uint64_t> shard_range(std::uint64_t n,
                                                           int shards, int s) {
  const std::uint64_t k = static_cast<std::uint64_t>(shards);
  const std::uint64_t i = static_cast<std::uint64_t>(s);
  return {n * i / k, n * (i + 1) / k};
}

/// Runs body(s) for s in [0, shards): shard 0 inline on the calling thread,
/// the rest on the global pool. If the caller has an active FpContext, each
/// shard executes under a fresh FpContext cloned from the caller's config,
/// and shard counters merge into the caller's context in shard order after
/// every shard has finished. The first exception thrown by any shard is
/// rethrown on the calling thread. Nested calls (a shard spawning a parallel
/// region) degrade to inline serial execution rather than deadlocking the
/// pool.
void run_sharded(int shards, const std::function<void(int)>& body);

inline gpu::Dim3 delinearize_block(const gpu::Dim3& grid, std::uint64_t lb) {
  const std::uint64_t gx = grid.x, gy = grid.y;
  return gpu::Dim3{static_cast<unsigned>(lb % gx),
                   static_cast<unsigned>((lb / gx) % gy),
                   static_cast<unsigned>(lb / (gx * gy))};
}

}  // namespace detail

/// Parallel mirror of gpu::launch: kernel(ThreadCtx) over the whole grid,
/// scheduled block-granularly over `threads` workers (0 = default).
template <typename K>
void parallel_launch(gpu::Dim3 grid, gpu::Dim3 block, K&& kernel,
                     int threads = 0) {
  const std::uint64_t nblocks = grid.count();
  const int shards = detail::resolve_shards(threads, nblocks);
  if (shards <= 1) {
    gpu::launch(grid, block, std::forward<K>(kernel));  // exact serial path
    return;
  }
  detail::run_sharded(shards, [&](int s) {
    const auto [b0, b1] = detail::shard_range(nblocks, shards, s);
    gpu::ThreadCtx t;
    t.grid_dim = grid;
    t.block_dim = block;
    for (std::uint64_t lb = b0; lb < b1; ++lb) {
      t.block_idx = detail::delinearize_block(grid, lb);
      gpu::run_epoch(lb, [&] {
        for (unsigned tz = 0; tz < block.z; ++tz)
          for (unsigned ty = 0; ty < block.y; ++ty)
            for (unsigned tx = 0; tx < block.x; ++tx) {
              t.thread_idx = {tx, ty, tz};
              kernel(t);
            }
      });
    }
  });
  gpu::finish_launch();
}

/// Flat data-parallel loop: body(i) for i in [0, n), contiguous index ranges
/// per worker. Iterations must be independent (disjoint writes) for the
/// determinism contract to hold -- exactly the block-independence rule, at
/// element granularity.
template <typename Body>
void parallel_for(std::uint64_t n, Body&& body, int threads = 0) {
  const int shards = detail::resolve_shards(threads, n);
  if (shards <= 1) {
    for (std::uint64_t i = 0; i < n; ++i)
      gpu::run_epoch(i, [&] { body(i); });
    gpu::finish_launch();
    return;
  }
  detail::run_sharded(shards, [&](int s) {
    const auto [i0, i1] = detail::shard_range(n, shards, s);
    for (std::uint64_t i = i0; i < i1; ++i)
      gpu::run_epoch(i, [&] { body(i); });
  });
  gpu::finish_launch();
}

/// Chunked driver for the batched SoA path (gpu/batch.h): splits [0, n)
/// into fixed-size chunks, labels each chunk with its schedule-invariant
/// epoch (the chunk index), and runs body(begin, end) -- which is expected
/// to issue span-level batch_* calls over [begin, end) -- across the pool.
/// The chunk decomposition depends only on `chunk`, never on the thread
/// count, so epoch labels (and with them the fault stream and guard/breaker
/// decisions) are identical at any --threads=N. Chunks must write disjoint
/// outputs, the same independence rule as parallel_for.
template <typename Body>
void batch_apply(std::uint64_t n, std::uint64_t chunk, Body&& body,
                 int threads = 0) {
  if (chunk == 0) chunk = 1;
  const std::uint64_t nchunks = (n + chunk - 1) / chunk;
  const int shards = detail::resolve_shards(threads, nchunks);
  if (shards <= 1) {
    for (std::uint64_t c = 0; c < nchunks; ++c)
      gpu::run_epoch(c,
                     [&] { body(c * chunk, std::min(n, (c + 1) * chunk)); });
    gpu::finish_launch();
    return;
  }
  detail::run_sharded(shards, [&](int s) {
    const auto [c0, c1] = detail::shard_range(nchunks, shards, s);
    for (std::uint64_t c = c0; c < c1; ++c)
      gpu::run_epoch(c,
                     [&] { body(c * chunk, std::min(n, (c + 1) * chunk)); });
  });
  gpu::finish_launch();
}

/// Deterministic ordered reduction for stateful consumers (the QMC error
/// sweeps): splits [0, n) into fixed-size chunks, evaluates
/// produce(chunk_begin, chunk_end) -> T concurrently in waves, and feeds each
/// result to consume(T&&) on the calling thread in ascending chunk order.
/// The chunk decomposition depends only on `chunk`, never on the thread
/// count, so a sequentially-dependent consumer (streaming statistics, PMF
/// accumulation) observes the exact stream the serial loop would produce.
template <typename T, typename Produce, typename Consume>
void ordered_chunks(std::uint64_t n, std::uint64_t chunk, Produce&& produce,
                    Consume&& consume, int threads = 0) {
  if (chunk == 0) chunk = 1;
  const std::uint64_t nchunks = (n + chunk - 1) / chunk;
  const int shards = detail::resolve_shards(threads, nchunks);
  if (shards <= 1) {
    for (std::uint64_t c = 0; c < nchunks; ++c) {
      T item{};
      gpu::run_epoch(
          c, [&] { item = produce(c * chunk, std::min(n, (c + 1) * chunk)); });
      consume(std::move(item));
    }
    gpu::finish_launch();
    return;
  }
  std::vector<T> wave(static_cast<std::size_t>(shards));
  for (std::uint64_t c0 = 0; c0 < nchunks; c0 += static_cast<std::uint64_t>(shards)) {
    const int live = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(shards), nchunks - c0));
    detail::run_sharded(live, [&](int s) {
      const std::uint64_t c = c0 + static_cast<std::uint64_t>(s);
      gpu::run_epoch(c, [&] {
        wave[static_cast<std::size_t>(s)] =
            produce(c * chunk, std::min(n, (c + 1) * chunk));
      });
    });
    for (int s = 0; s < live; ++s)
      consume(std::move(wave[static_cast<std::size_t>(s)]));
  }
  gpu::finish_launch();
}

}  // namespace ihw::runtime
