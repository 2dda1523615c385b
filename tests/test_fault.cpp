// Tests for the fault-injection layer and the online numeric guard:
// deterministic counter-based injector, fault models, GuardedDispatch
// screening, the two-level circuit breaker (epoch-local + run-level), the
// block-granular retry mode, and the end-to-end acceptance property -- under
// a hostile fault rate on one unit class, the guard degrades exactly that
// class and keeps application quality bounded while an unguarded run
// collapses.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "apps/hotspot.h"
#include "apps/runner.h"
#include "fault/guarded_dispatch.h"
#include "fault/injector.h"
#include "fpcore/float_bits.h"
#include "gpu/context.h"
#include "gpu/simreal.h"
#include "quality/grid_metrics.h"
#include "quality/tuner.h"

namespace ihw::fault {
namespace {

using apps::run_guarded_parallel;
using apps::run_with_config_parallel;
using gpu::SimFloat;

// --- injector ---------------------------------------------------------------

TEST(Injector, HashIsPureAndCoordinateSensitive) {
  const std::uint64_t h = fault_hash(42, UnitClass::Mul, 7, 13);
  EXPECT_EQ(h, fault_hash(42, UnitClass::Mul, 7, 13));  // pure function
  EXPECT_NE(h, fault_hash(43, UnitClass::Mul, 7, 13));  // seed matters
  EXPECT_NE(h, fault_hash(42, UnitClass::Add, 7, 13));  // class matters
  EXPECT_NE(h, fault_hash(42, UnitClass::Mul, 8, 13));  // epoch matters
  EXPECT_NE(h, fault_hash(42, UnitClass::Mul, 7, 14));  // op index matters
}

TEST(Injector, FireRateMatchesConfiguredProbability) {
  for (double rate : {0.01, 0.1, 0.5}) {
    int fires = 0;
    const int n = 200000;
    for (int op = 0; op < n; ++op)
      if (fault_fires(fault_hash(99, UnitClass::Mul, 0, op), rate)) ++fires;
    const double measured = static_cast<double>(fires) / n;
    EXPECT_NEAR(measured, rate, rate * 0.05) << "rate=" << rate;
  }
  // Boundary rates never / always fire.
  EXPECT_FALSE(fault_fires(fault_hash(1, UnitClass::Add, 0, 0), 0.0));
  EXPECT_TRUE(fault_fires(fault_hash(1, UnitClass::Add, 0, 0), 1.0));
}

TEST(Injector, EpochsProduceIndependentStreams) {
  // The same op index in different epochs must not fire in lockstep.
  int both = 0, either = 0;
  for (int op = 0; op < 100000; ++op) {
    const bool a = fault_fires(fault_hash(7, UnitClass::Add, 1, op), 0.1);
    const bool b = fault_fires(fault_hash(7, UnitClass::Add, 2, op), 0.1);
    both += (a && b);
    either += (a || b);
  }
  // Independent 10% streams: P(both) ~ 1%, far from P(a) ~ 10%.
  EXPECT_GT(either, 15000);
  EXPECT_LT(both, 2000);
}

TEST(Injector, ApplyFaultModelsCorruptTheSelectedBit) {
  FaultSpec spec;
  spec.bit_lo = spec.bit_hi = 23;  // exponent LSB of a float
  const float v = 1.5f;            // bits 0x3FC00000, bit 23 is set
  spec.model = FaultModel::BitFlip;
  EXPECT_EQ(fp::to_bits(apply_fault(v, spec, 0)),
            fp::to_bits(v) ^ (1u << 23));
  spec.model = FaultModel::StuckAt0;
  EXPECT_EQ(fp::to_bits(apply_fault(v, spec, 0)),
            fp::to_bits(v) & ~(1u << 23));
  spec.model = FaultModel::StuckAt1;
  EXPECT_EQ(fp::to_bits(apply_fault(v, spec, 0)), fp::to_bits(v));  // already 1
  // Bit selection is driven by the hash within [lo, hi], clamped to width.
  spec.model = FaultModel::BitFlip;
  spec.bit_lo = 0;
  spec.bit_hi = 1000;  // clamps to 31
  for (std::uint64_t h : {0ull, 17ull, 31ull, 1234567ull}) {
    const auto delta = fp::to_bits(apply_fault(v, spec, h)) ^ fp::to_bits(v);
    EXPECT_NE(delta, 0u);
    EXPECT_EQ(delta & (delta - 1), 0u) << "exactly one bit flips";
  }
}

// --- GuardedDispatch screening ----------------------------------------------

// High exponent bits [26, 30] by default: every corruption scales the result
// by >= 2^8 (or lands on inf/NaN), far outside any guard tolerance -- the
// tests can then assert trips == injections exactly. (A bit-23 flip only
// halves/doubles, which straddles the 50% tolerance.)
IhwConfig faulted_config(UnitClass cls, double rate,
                         int bit_lo = 26, int bit_hi = 30) {
  IhwConfig cfg = IhwConfig::all_imprecise();
  auto& fs = cfg.faults[cls];
  fs.rate = rate;
  fs.bit_lo = bit_lo;
  fs.bit_hi = bit_hi;
  return cfg;
}

TEST(GuardedDispatch, GuardAloneAcceptsLegitimateImprecision) {
  // The units' intrinsic approximation error (emax 25%) sits inside the
  // default tolerance (50%): the guard must not reject clean imprecise math.
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.guard.enabled = true;
  GuardedDispatch gd(cfg);
  const FpDispatch base(cfg);
  gd.begin_epoch(0);
  for (int i = 0; i < 2000; ++i) {
    const float a = 1.0f + 0.001f * static_cast<float>(i);
    const float b = 1.0f + 0.0009f * static_cast<float>(i);
    ASSERT_EQ(fp::to_bits(gd.op<Op::Mul>(a, b)), fp::to_bits(base.mul(a, b)));
    ASSERT_EQ(fp::to_bits(gd.op<Op::Add>(a, b)), fp::to_bits(base.add(a, b)));
  }
  EXPECT_EQ(gd.counters().total_trips(), 0u);
}

TEST(GuardedDispatch, InjectsAtConfiguredRateAndGuardRecovers) {
  // Exponent-range faults at 20% on Mul; guard recovers every corruption.
  IhwConfig cfg = faulted_config(UnitClass::Mul, 0.2);
  cfg.guard.enabled = true;
  cfg.guard.epoch_trip_limit = 1 << 30;       // keep breakers out of the way
  cfg.guard.run_trip_limit = std::uint64_t(-1);
  GuardedDispatch gd(cfg);
  const FpDispatch base(cfg);
  gd.begin_epoch(0);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const float a = 1.0f + 0.0001f * static_cast<float>(i);
    // Recovery replaces a violating result with the *precise* product.
    const float r = gd.op<Op::Mul>(a, 3.0f);
    const float imp = base.mul(a, 3.0f);
    ASSERT_TRUE(r == imp || r == a * 3.0f) << "i=" << i;
    ASSERT_TRUE(std::isfinite(r));
  }
  const auto& c = gd.counters();
  const auto mul = static_cast<int>(UnitClass::Mul);
  EXPECT_NEAR(static_cast<double>(c.injected[mul]) / n, 0.2, 0.02);
  // Every exponent-bit corruption deviates far beyond 50%: all are caught.
  EXPECT_EQ(c.guard_trips[mul], c.injected[mul]);
  // No other class fired or tripped.
  EXPECT_EQ(c.total_injected(), c.injected[mul]);
  EXPECT_EQ(c.total_trips(), c.guard_trips[mul]);
}

TEST(GuardedDispatch, UnguardedFaultsPassThroughCorrupted) {
  IhwConfig cfg = faulted_config(UnitClass::Mul, 1.0, 30, 30);
  GuardedDispatch gd(cfg);  // guard disabled
  gd.begin_epoch(0);
  // Flipping the exponent MSB of 3.75 (biased exp 128) crushes it to ~1e-38.
  const float r = gd.op<Op::Mul>(1.5f, 2.5f);
  EXPECT_LT(std::fabs(r), 1e-30f);
  EXPECT_GT(gd.counters().total_injected(), 0u);
  EXPECT_EQ(gd.counters().total_trips(), 0u);
}

TEST(GuardedDispatch, PreciseClassesNeverFault) {
  // Faults model voltage-overscaled *imprecise* units; a class on its
  // precise path sits at nominal voltage and must be untouched.
  IhwConfig cfg = faulted_config(UnitClass::Mul, 1.0);
  cfg.mul_mode = MulMode::Precise;
  cfg.guard.enabled = true;
  GuardedDispatch gd(cfg);
  gd.begin_epoch(0);
  for (int i = 0; i < 100; ++i) {
    const float a = 1.0f + 0.01f * static_cast<float>(i);
    ASSERT_EQ(gd.op<Op::Mul>(a, 2.0f), a * 2.0f);
  }
  EXPECT_EQ(gd.counters().total_injected(), 0u);
}

// --- circuit breaker --------------------------------------------------------

TEST(Breaker, EpochLimitDegradesClassForRestOfEpoch) {
  IhwConfig cfg = faulted_config(UnitClass::Mul, 1.0, 28, 30);
  cfg.guard.enabled = true;
  cfg.guard.epoch_trip_limit = 3;
  cfg.guard.run_trip_limit = std::uint64_t(-1);
  GuardedDispatch gd(cfg);
  gd.begin_epoch(0);
  for (int i = 0; i < 50; ++i) gd.op<Op::Mul>(1.5f, 2.5f);
  const auto mul = static_cast<int>(UnitClass::Mul);
  // Exactly epoch_trip_limit violations, then the class went precise (and a
  // precise class neither faults nor trips).
  EXPECT_EQ(gd.counters().guard_trips[mul], 3u);
  EXPECT_EQ(gd.counters().injected[mul], 3u);
  EXPECT_EQ(gd.counters().degraded_epochs[mul], 1u);
  // Inside the degraded epoch, results are exactly precise.
  EXPECT_EQ(gd.op<Op::Mul>(1.5f, 2.5f), 3.75f);
  // A new epoch re-arms the class.
  gd.begin_epoch(1);
  for (int i = 0; i < 50; ++i) gd.op<Op::Mul>(1.5f, 2.5f);
  EXPECT_EQ(gd.counters().guard_trips[mul], 6u);
  EXPECT_EQ(gd.counters().degraded_epochs[mul], 2u);
  // Other classes were never degraded.
  for (int c = 0; c < kNumUnitClasses; ++c) {
    if (c != mul) {
      ASSERT_EQ(gd.counters().degraded_epochs[c], 0u);
    }
  }
}

TEST(Breaker, RunLimitOpensAtLaunchBoundaryAndIsIdempotent) {
  IhwConfig cfg = faulted_config(UnitClass::Mul, 1.0, 28, 30);
  cfg.guard.enabled = true;
  cfg.guard.epoch_trip_limit = 1 << 30;  // isolate the run-level breaker
  cfg.guard.run_trip_limit = 5;
  GuardedDispatch gd(cfg);
  gd.begin_epoch(0);
  for (int i = 0; i < 4; ++i) gd.op<Op::Mul>(1.5f, 2.5f);
  gd.end_launch();  // 4 trips < 5: breaker stays closed
  EXPECT_FALSE(gd.run_degraded(UnitClass::Mul));

  gd.begin_epoch(1);
  for (int i = 0; i < 3; ++i) gd.op<Op::Mul>(1.5f, 2.5f);  // total 7 >= 5
  // Mid-launch the class is still armed; the breaker only opens at the
  // launch boundary (that is what keeps it schedule-invariant).
  EXPECT_FALSE(gd.run_degraded(UnitClass::Mul));
  gd.end_launch();
  EXPECT_TRUE(gd.run_degraded(UnitClass::Mul));
  const auto mul = static_cast<int>(UnitClass::Mul);
  EXPECT_EQ(gd.counters().run_degradations[mul], 1u);
  gd.end_launch();  // idempotent
  gd.end_launch();
  EXPECT_EQ(gd.counters().run_degradations[mul], 1u);
  // Open breaker: the class is precise from now on, even in new epochs.
  gd.begin_epoch(2);
  EXPECT_EQ(gd.op<Op::Mul>(1.5f, 2.5f), 3.75f);
  EXPECT_EQ(gd.counters().guard_trips[mul], 7u);  // no further trips
}

TEST(Breaker, ShardCloneCarriesConfigAndOpenBreakersButNotCounters) {
  IhwConfig cfg = faulted_config(UnitClass::Mul, 1.0, 28, 30);
  cfg.guard.enabled = true;
  cfg.guard.epoch_trip_limit = 1 << 30;
  cfg.guard.run_trip_limit = 2;
  GuardedDispatch gd(cfg);
  gd.begin_epoch(0);
  for (int i = 0; i < 3; ++i) gd.op<Op::Mul>(1.5f, 2.5f);
  gd.end_launch();
  ASSERT_TRUE(gd.run_degraded(UnitClass::Mul));

  GuardedDispatch shard = gd.shard_clone();
  EXPECT_TRUE(shard.run_degraded(UnitClass::Mul));  // breaker state carried
  EXPECT_FALSE(shard.counters().any());             // counters zeroed
  shard.begin_epoch(9);
  EXPECT_EQ(shard.op<Op::Mul>(1.5f, 2.5f), 3.75f);  // degraded in the shard too

  const auto before = gd.counters().guard_trips[static_cast<int>(UnitClass::Mul)];
  gd.merge_counters(shard);
  EXPECT_EQ(gd.counters().guard_trips[static_cast<int>(UnitClass::Mul)], before);
}

TEST(Counters, MergeAndSummary) {
  FaultCounters a, b;
  a.injected[0] = 3;
  a.guard_trips[1] = 2;
  b.injected[0] = 4;
  b.retried_epochs = 5;
  a += b;
  EXPECT_EQ(a.injected[0], 7u);
  EXPECT_EQ(a.guard_trips[1], 2u);
  EXPECT_EQ(a.retried_epochs, 5u);
  EXPECT_EQ(a.total_injected(), 7u);
  EXPECT_EQ(a.total_trips(), 2u);
  EXPECT_TRUE(a.any());
  EXPECT_FALSE(a.summary().empty());
  a.reset();
  EXPECT_FALSE(a.any());
  EXPECT_TRUE(a.summary().empty());
}

// --- end-to-end: graceful degradation on a real app -------------------------

struct HotspotRun {
  common::GridF out;
  FaultCounters faults;
};

HotspotRun run_hotspot_under(const IhwConfig& cfg, int threads) {
  apps::HotspotParams p;
  p.rows = p.cols = 64;
  p.iterations = 4;
  p.steady_init = false;
  const auto input = make_hotspot_input(p, 7);
  HotspotRun r;
  const auto gr = run_guarded_parallel(cfg, threads, [&] {
    r.out = apps::run_hotspot<SimFloat>(p, input);
  });
  r.faults = gr.faults;
  return r;
}

// Acceptance: a hostile fault rate on the multiplier class alone. Unguarded,
// HotSpot's quality collapses; guarded, only the Mul breaker opens, the
// counters record it, and quality stays within a small factor of the
// fault-free imprecise baseline.
TEST(GracefulDegradation, GuardBoundsQualityWhereUnguardedCollapses) {
  const auto precise = run_hotspot_under(IhwConfig::precise(), 1);
  const auto clean = run_hotspot_under(IhwConfig::all_imprecise(), 1);
  const double base_mae = quality::mae(precise.out, clean.out);

  IhwConfig hostile = faulted_config(UnitClass::Mul, 5e-3);
  const auto unguarded = run_hotspot_under(hostile, 1);
  const double unguarded_mae = quality::mae(precise.out, unguarded.out);

  IhwConfig guarded_cfg = hostile;
  guarded_cfg.guard.enabled = true;
  guarded_cfg.guard.run_trip_limit = 16;  // open the Mul breaker quickly
  const auto guarded = run_hotspot_under(guarded_cfg, 1);
  const double guarded_mae = quality::mae(precise.out, guarded.out);

  // Unguarded: exponent-bit corruption destroys the temperature field
  // (possibly all the way to NaN, which is also a collapse).
  EXPECT_TRUE(std::isnan(unguarded_mae) ||
              unguarded_mae > 100.0 * std::max(base_mae, 1e-6))
      << "unguarded_mae=" << unguarded_mae << " base_mae=" << base_mae;
  // Guarded: bounded degradation, within 2x of the fault-free baseline
  // (recovery replaces corrupt products with precise ones).
  EXPECT_LT(guarded_mae, 2.0 * base_mae + 1e-6);

  // The observability trail: faults were injected, the guard caught them,
  // and only the Mul class ever degraded.
  const auto mul = static_cast<int>(UnitClass::Mul);
  EXPECT_GT(guarded.faults.injected[mul], 0u);
  EXPECT_GT(guarded.faults.guard_trips[mul], 0u);
  EXPECT_EQ(guarded.faults.run_degradations[mul], 1u);
  for (int c = 0; c < kNumUnitClasses; ++c) {
    if (c == mul) continue;
    ASSERT_EQ(guarded.faults.injected[c], 0u) << to_string(UnitClass(c));
    ASSERT_EQ(guarded.faults.guard_trips[c], 0u) << to_string(UnitClass(c));
    ASSERT_EQ(guarded.faults.run_degradations[c], 0u);
  }
  // The unguarded run still counts injections (observability without
  // screening overhead on the result path).
  EXPECT_GT(unguarded.faults.injected[mul], 0u);
  EXPECT_EQ(unguarded.faults.guard_trips[mul], 0u);
}

TEST(GracefulDegradation, FaultedRunsAreBitIdenticalAcrossThreads) {
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = FaultConfig::uniform(1e-3);
  cfg.guard.enabled = true;
  const auto ref = run_hotspot_under(cfg, 1);
  for (int threads : {2, 8}) {
    const auto out = run_hotspot_under(cfg, threads);
    ASSERT_EQ(ref.out.size(), out.out.size());
    for (std::size_t i = 0; i < ref.out.size(); ++i)
      ASSERT_EQ(fp::to_bits(ref.out.data()[i]), fp::to_bits(out.out.data()[i]))
          << "threads=" << threads << " i=" << i;
    EXPECT_EQ(ref.faults.injected, out.faults.injected) << "threads=" << threads;
    EXPECT_EQ(ref.faults.guard_trips, out.faults.guard_trips);
    EXPECT_EQ(ref.faults.degraded_epochs, out.faults.degraded_epochs);
    EXPECT_EQ(ref.faults.run_degradations, out.faults.run_degradations);
    EXPECT_EQ(ref.faults.retried_epochs, out.faults.retried_epochs);
  }
}

TEST(GracefulDegradation, RetryModeReExecutesTrippedBlocksDeterministically) {
  IhwConfig cfg = faulted_config(UnitClass::Mul, 5e-3);
  cfg.guard.enabled = true;
  cfg.guard.retry_epoch = true;
  cfg.guard.run_trip_limit = std::uint64_t(-1);  // keep blocks retrying
  const auto ref = run_hotspot_under(cfg, 1);
  EXPECT_GT(ref.faults.retried_epochs, 0u);
  for (int threads : {2, 8}) {
    const auto out = run_hotspot_under(cfg, threads);
    for (std::size_t i = 0; i < ref.out.size(); ++i)
      ASSERT_EQ(fp::to_bits(ref.out.data()[i]), fp::to_bits(out.out.data()[i]))
          << "threads=" << threads;
    EXPECT_EQ(ref.faults.retried_epochs, out.faults.retried_epochs);
  }
}

// The quality tuner under a FaultSpec: with a hostile unguarded fault rate on
// the multiplier, backing off Mul to its precise path (nominal voltage)
// removes the faults, so tuning converges exactly there.
TEST(TunerUnderFaults, BacksOffFaultedClassToMeetConstraint) {
  apps::HotspotParams p;
  p.rows = p.cols = 32;
  p.iterations = 2;
  p.steady_init = false;
  const auto input = make_hotspot_input(p, 7);

  common::GridF precise_out;
  run_with_config_parallel(IhwConfig::precise(), 1, [&] {
    precise_out = apps::run_hotspot<SimFloat>(p, input);
  });

  quality::QualityEval eval = [&](const IhwConfig& c) {
    common::GridF out;
    run_with_config_parallel(c, 1, [&] {
      out = apps::run_hotspot<SimFloat>(p, input);
    });
    return -quality::mae(precise_out, out);  // higher is better
  };

  FaultConfig faults;
  faults[UnitClass::Mul].rate = 5e-3;
  const auto res = quality::tune(eval, /*quality_constraint=*/-0.5,
                                 IhwConfig::all_imprecise(), faults,
                                 GuardPolicy{});  // guard off: tuner must act
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.config.mul_mode, MulMode::Precise);
  // The fault descriptor rides along through every evaluated step.
  EXPECT_DOUBLE_EQ(res.config.faults[UnitClass::Mul].rate, 5e-3);
}

}  // namespace
}  // namespace ihw::fault
