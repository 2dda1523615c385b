// Tests for the parallel execution runtime: thread pool, block-granular
// scheduler, the determinism contract (results and merged counters
// bit-identical to the serial path at any thread count), and the sharded
// counter merge.
#include "apps/hotspot.h"
#include "apps/runner.h"
#include "apps/srad.h"
#include "error/characterize.h"
#include "gpu/context.h"
#include "gpu/simreal.h"
#include "gpu/simt.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace ihw::runtime {
namespace {

using apps::run_with_config_parallel;
using gpu::Dim3;
using gpu::FpContext;
using gpu::OpClass;
using gpu::PerfCounters;
using gpu::ScopedContext;
using gpu::SimFloat;

bool bit_identical(const common::GridF& a, const common::GridF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ThreadPool, LazyStartAndGrowth) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), 0);
  pool.ensure_workers(3);
  EXPECT_EQ(pool.size(), 3);
  pool.ensure_workers(2);  // never shrinks
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, ExecutesSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::atomic<int> done{0};
  for (int i = 1; i <= 100; ++i)
    pool.submit([&, i] {
      sum += i;
      ++done;
    });
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 5, 8}) {
    std::vector<int> hits(1000, 0);
    parallel_for(hits.size(), [&](std::uint64_t i) { ++hits[i]; }, threads);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
        << "threads=" << threads;
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          64,
          [](std::uint64_t i) {
            if (i == 13) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelLaunch, MatchesSerialLaunchOutput) {
  const Dim3 grid(7, 5, 2), block(4, 3, 2);
  const std::uint64_t cells = grid.count() * block.count();
  std::vector<std::uint64_t> serial(cells, 0), par(cells, 0);

  auto body = [&](std::vector<std::uint64_t>& out) {
    return [&out, grid, block](const gpu::ThreadCtx& t) {
      const std::uint64_t b =
          (t.block_idx.z * grid.y + t.block_idx.y) * grid.x + t.block_idx.x;
      out[b * block.count() + t.linear_tid()] = b * 1000 + t.linear_tid();
    };
  };
  gpu::launch(grid, block, body(serial));
  for (int threads : {1, 2, 8}) {
    std::fill(par.begin(), par.end(), 0);
    parallel_launch(grid, block, body(par), threads);
    EXPECT_EQ(serial, par) << "threads=" << threads;
  }
}

// Sharded counters merged in worker order must equal a single context
// counting everything (shard-then-merge == single-context property).
TEST(Counters, ShardThenMergeEqualsSingleContext) {
  constexpr int kOps = 1000;
  auto workload = [](std::uint64_t i) {
    SimFloat a(1.5f + static_cast<float>(i % 7)), b(2.5f);
    volatile float sink = (a * b + a).value();
    (void)sink;
    if (i % 3 == 0) {
      volatile float s2 = rcp(b).value();
      (void)s2;
    }
  };

  FpContext single(IhwConfig::precise());
  {
    ScopedContext scope(single);
    for (std::uint64_t i = 0; i < kOps; ++i) workload(i);
  }

  for (int threads : {2, 4, 8}) {
    FpContext sharded(IhwConfig::precise());
    {
      ScopedContext scope(sharded);
      parallel_for(kOps, workload, threads);
    }
    EXPECT_EQ(single.counters().counts, sharded.counters().counts)
        << "threads=" << threads;
  }
}

// The core determinism guarantee for HotSpot: output buffers and merged
// PerfCounters at 1, 2, and 8 threads are bit-identical to the serial path.
TEST(Determinism, HotspotBitIdenticalAcrossThreadCounts) {
  apps::HotspotParams p;
  p.rows = p.cols = 64;
  p.iterations = 4;
  p.steady_init = false;  // keep the test fast; the kernel path is the same
  const auto input = make_hotspot_input(p, 7);
  const auto cfg = IhwConfig::all_imprecise();

  common::GridF ref;
  PerfCounters ref_counters = run_with_config_parallel(cfg, 1, [&] {
    ref = apps::run_hotspot<SimFloat>(p, input);
  });

  for (int threads : {2, 8}) {
    common::GridF out;
    PerfCounters c = run_with_config_parallel(cfg, threads, [&] {
      out = apps::run_hotspot<SimFloat>(p, input);
    });
    EXPECT_TRUE(bit_identical(ref, out)) << "threads=" << threads;
    EXPECT_EQ(ref_counters.counts, c.counts) << "threads=" << threads;
  }
}

// Fault injection + guard preserve the determinism contract: the injector is
// a pure hash of (seed, class, epoch, op index) and the breaker only opens at
// launch boundaries, so outputs, PerfCounters, AND FaultCounters are
// bit-identical to the serial path at any thread count.
TEST(Determinism, FaultedHotspotBitIdenticalAcrossThreadCounts) {
  apps::HotspotParams p;
  p.rows = p.cols = 64;
  p.iterations = 4;
  p.steady_init = false;
  const auto input = make_hotspot_input(p, 7);
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = fault::FaultConfig::uniform(1e-3);
  cfg.guard.enabled = true;

  common::GridF ref;
  const auto ref_run = apps::run_guarded_parallel(cfg, 1, [&] {
    ref = apps::run_hotspot<SimFloat>(p, input);
  });
  // The faulted config actually exercises the injector and the guard.
  EXPECT_GT(ref_run.faults.total_injected(), 0u);
  EXPECT_GT(ref_run.faults.total_trips(), 0u);

  for (int threads : {2, 8}) {
    common::GridF out;
    const auto run = apps::run_guarded_parallel(cfg, threads, [&] {
      out = apps::run_hotspot<SimFloat>(p, input);
    });
    EXPECT_TRUE(bit_identical(ref, out)) << "threads=" << threads;
    EXPECT_EQ(ref_run.perf.counts, run.perf.counts) << "threads=" << threads;
    EXPECT_EQ(ref_run.faults.injected, run.faults.injected)
        << "threads=" << threads;
    EXPECT_EQ(ref_run.faults.guard_trips, run.faults.guard_trips);
    EXPECT_EQ(ref_run.faults.degraded_epochs, run.faults.degraded_epochs);
    EXPECT_EQ(ref_run.faults.run_degradations, run.faults.run_degradations);
    EXPECT_EQ(ref_run.faults.retried_epochs, run.faults.retried_epochs);
  }
}

TEST(Determinism, SradBitIdenticalAcrossThreadCounts) {
  apps::SradParams p;
  p.rows = p.cols = 64;
  p.roi_r0 = 2;
  p.roi_c0 = 2;
  p.roi_r1 = 30;
  p.roi_c1 = 30;
  p.iterations = 3;
  const auto input = make_srad_input(p, 11);
  const auto cfg = IhwConfig::all_imprecise();

  common::GridF ref;
  PerfCounters ref_counters = run_with_config_parallel(cfg, 1, [&] {
    ref = apps::run_srad<SimFloat>(p, input.image);
  });

  for (int threads : {2, 8}) {
    common::GridF out;
    PerfCounters c = run_with_config_parallel(cfg, threads, [&] {
      out = apps::run_srad<SimFloat>(p, input.image);
    });
    EXPECT_TRUE(bit_identical(ref, out)) << "threads=" << threads;
    EXPECT_EQ(ref_counters.counts, c.counts) << "threads=" << threads;
  }
}

// The chunked QMC sweep feeds its streaming statistics in sample order, so
// the characterization result cannot depend on the thread count either.
TEST(Determinism, CharacterizationSweepThreadInvariant) {
  ScopedThreads serial(1);
  const auto ref = error::characterize32(error::UnitKind::FpMul, 0, 100000);
  for (int threads : {2, 8}) {
    ScopedThreads scoped(threads);
    const auto out = error::characterize32(error::UnitKind::FpMul, 0, 100000);
    EXPECT_EQ(ref.stats.samples(), out.stats.samples());
    EXPECT_EQ(ref.stats.errors(), out.stats.errors());
    // Bit-level: the doubles must match exactly, not approximately.
    EXPECT_EQ(ref.stats.mean_rel(), out.stats.mean_rel());
    EXPECT_EQ(ref.stats.max_rel(), out.stats.max_rel());
    EXPECT_EQ(ref.stats.med(), out.stats.med());
    EXPECT_EQ(ref.pmf.error_rate(), out.pmf.error_rate());
    for (int b = ref.pmf.min_bucket(); b <= ref.pmf.max_bucket(); ++b)
      ASSERT_EQ(ref.pmf.probability(b), out.pmf.probability(b)) << "bucket " << b;
  }
}

// Regression: Dim3::count() used to multiply in unsigned and overflow for
// production-scale grids (65536^2 blocks wraps 32 bits to 0).
TEST(Dim3, CountDoesNotOverflowLargeGrids) {
  const Dim3 g(65536, 65536);
  EXPECT_EQ(g.count(), 4294967296ull);
  const Dim3 h(1u << 20, 1u << 12, 4);
  EXPECT_EQ(h.count(), (1ull << 32) * 4);
}

TEST(Runtime, ThreadDefaultsAndScopedOverride) {
  EXPECT_GE(hardware_threads(), 1);
  const int before = default_threads();
  {
    ScopedThreads scoped(3);
    EXPECT_EQ(default_threads(), 3);
    {
      ScopedThreads nested(1);
      EXPECT_EQ(default_threads(), 1);
    }
    EXPECT_EQ(default_threads(), 3);
  }
  EXPECT_EQ(default_threads(), before);
}

}  // namespace
}  // namespace ihw::runtime
