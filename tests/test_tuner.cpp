// Tests for the Fig. 10 iterative quality-tuning loop.
#include "quality/tuner.h"

#include <gtest/gtest.h>

namespace ihw::quality {
namespace {

// Synthetic quality model: each enabled unit costs quality; the multiplier
// mode costs by its error magnitude. Mirrors the error-characterization
// ordering the tuner assumes.
double synthetic_quality(const ihw::IhwConfig& c) {
  double q = 1.0;
  if (c.rsqrt_enabled) q -= 0.15;
  if (c.sqrt_enabled) q -= 0.10;
  switch (c.mul_mode) {
    case ihw::MulMode::ImpreciseSimple: q -= 0.30; break;
    case ihw::MulMode::MitchellLog: q -= 0.20; break;
    case ihw::MulMode::MitchellFull: q -= 0.05; break;
    default: break;
  }
  if (c.log2_enabled) q -= 0.04;
  if (c.div_enabled) q -= 0.03;
  if (c.rcp_enabled) q -= 0.03;
  if (c.fma_enabled) q -= 0.02;
  if (c.add_enabled) q -= 0.01;
  return q;
}

TEST(Tuner, AcceptsAggressiveConfigWhenConstraintLoose) {
  const auto res = tune(synthetic_quality, 0.05, ihw::IhwConfig::all_imprecise());
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.history.size(), 1u);  // first evaluation already passes
  EXPECT_TRUE(res.config.any_enabled());
}

TEST(Tuner, BacksOffUntilConstraintMet) {
  // Constraint 0.80: must disable rsqrt (0.15) and sqrt (0.10) and soften
  // the multiplier before passing.
  const auto res = tune(synthetic_quality, 0.80, ihw::IhwConfig::all_imprecise());
  EXPECT_TRUE(res.satisfied);
  EXPECT_FALSE(res.config.rsqrt_enabled);
  EXPECT_FALSE(res.config.sqrt_enabled);
  EXPECT_GE(res.quality, 0.80);
  EXPECT_GT(res.history.size(), 1u);
  // History qualities are what the evaluator returned.
  for (const auto& step : res.history)
    EXPECT_DOUBLE_EQ(step.quality, synthetic_quality(step.config));
}

TEST(Tuner, SoftensMultiplierBeforeDisablingIt) {
  // A constraint that the full-path multiplier satisfies but the simple one
  // does not: the tuner should land on MitchellFull, not Precise.
  auto eval = [](const ihw::IhwConfig& c) {
    switch (c.mul_mode) {
      case ihw::MulMode::ImpreciseSimple: return 0.5;
      case ihw::MulMode::MitchellFull: return 0.9;
      default: return 1.0;
    }
  };
  auto start = ihw::IhwConfig::mul_only(ihw::MulMode::ImpreciseSimple, 0);
  const auto res = tune(eval, 0.85, start);
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.config.mul_mode, ihw::MulMode::MitchellFull);
}

TEST(Tuner, FallsBackToPreciseWhenOnlyPrecisePasses) {
  auto eval = [](const ihw::IhwConfig& c) {
    return c.any_enabled() ? 0.2 : 1.0;
  };
  const auto res = tune(eval, 0.99, ihw::IhwConfig::all_imprecise());
  EXPECT_TRUE(res.satisfied);
  EXPECT_FALSE(res.config.any_enabled());
}

TEST(Tuner, ReportsUnsatisfiableConstraint) {
  auto eval = [](const ihw::IhwConfig&) { return 0.1; };
  const auto res = tune(eval, 0.99, ihw::IhwConfig::all_imprecise());
  EXPECT_FALSE(res.satisfied);
  EXPECT_FALSE(res.config.any_enabled());  // ended at precise
  EXPECT_GE(res.history.size(), 2u);
}

TEST(Tuner, AdderThresholdRelaxedBeforeDisable) {
  // Quality depends only on TH: passing needs TH >= 16.
  auto eval = [](const ihw::IhwConfig& c) {
    if (!c.add_enabled) return 1.0;
    return c.add_th >= 16 ? 0.95 : 0.5;
  };
  ihw::IhwConfig start;
  start.add_enabled = true;
  start.add_th = 8;
  const auto res = tune(eval, 0.9, start);
  EXPECT_TRUE(res.satisfied);
  EXPECT_TRUE(res.config.add_enabled);  // kept, with a larger threshold
  EXPECT_GE(res.config.add_th, 16);
}

TEST(Tuner, HistoryIsMonotonicallyLessAggressive) {
  const auto res = tune(synthetic_quality, 0.97, ihw::IhwConfig::all_imprecise());
  // Each step disables knobs, so synthetic quality never decreases.
  for (std::size_t i = 1; i < res.history.size(); ++i)
    EXPECT_GE(res.history[i].quality + 1e-12, res.history[i - 1].quality);
}

TEST(Tuner, HistoryNeverRepeatsAConfiguration) {
  // The duplicate-evaluation guarantee: no two history steps may carry an
  // equal IhwConfig, for any constraint (including unsatisfiable ones that
  // walk the whole ladder plus the precise fallback).
  const ihw::IhwConfig starts[] = {
      ihw::IhwConfig::all_imprecise(),
      ihw::IhwConfig::mul_only(ihw::MulMode::ImpreciseSimple, 0),
      ihw::IhwConfig::precise(),
  };
  for (const auto& start : starts) {
    for (const double constraint : {0.05, 0.8, 0.97, 2.0}) {
      const auto res = tune(synthetic_quality, constraint, start);
      for (std::size_t i = 0; i < res.history.size(); ++i)
        for (std::size_t j = i + 1; j < res.history.size(); ++j)
          EXPECT_FALSE(res.history[i].config == res.history[j].config)
              << "duplicate config at steps " << i << " and " << j
              << " (constraint " << constraint << ")";
    }
  }
}

TEST(Tuner, BackoffCandidatesAreUniqueAndStartAtTheStart) {
  const auto start = ihw::IhwConfig::all_imprecise();
  const auto cands = backoff_candidates(start);
  ASSERT_FALSE(cands.empty());
  EXPECT_TRUE(cands.front() == start);
  EXPECT_FALSE(cands.back().any_enabled());  // ladder ends fully precise
  for (std::size_t i = 0; i < cands.size(); ++i)
    for (std::size_t j = i + 1; j < cands.size(); ++j)
      EXPECT_FALSE(cands[i] == cands[j]);
}

TEST(Tuner, FaultModelRidesAlongEveryStep) {
  const auto faults = fault::FaultConfig::uniform(1e-4, 99);
  fault::GuardPolicy guard;
  guard.enabled = true;
  for (const double constraint : {0.5, 0.9, 2.0}) {
    const auto res = tune(synthetic_quality, constraint,
                          ihw::IhwConfig::all_imprecise(), faults, guard);
    ASSERT_FALSE(res.history.empty());
    for (const auto& step : res.history) {
      if (step.config.any_enabled()) {
        EXPECT_TRUE(step.config.faults == faults);
      }
    }
  }
}

}  // namespace
}  // namespace ihw::quality
