// Tests for the future-work extensions the thesis sketches in Ch. 6:
// the iexp2 SFU, Mitchell-algorithm division, and mixed precise/imprecise
// execution (the "integrate a precise mode" direction, exercised through
// ScopedPrecise regions).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "gpu/simreal.h"
#include "ihw/ihw.h"

namespace ihw {
namespace {

TEST(Iexp2, BoundedBySixPointOneFivePercent) {
  common::Xoshiro256 rng(2001);
  double max_rel = 0.0;
  for (int i = 0; i < 300000; ++i) {
    const float x = static_cast<float>(rng.uniform(-20.0, 20.0));
    const double exact = std::exp2(static_cast<double>(x));
    const double approx = iexp2(x);
    const double rel = std::fabs(approx - exact) / exact;
    ASSERT_LE(rel, 0.0616) << "x=" << x;
    max_rel = std::max(max_rel, rel);
  }
  // Worst case at fraction 1/ln2 - 1 ~ 0.4427: (1+f)/2^f - 1 ~ 6.148%.
  EXPECT_GT(max_rel, 0.060);
}

TEST(Iexp2, ExactAtIntegers) {
  for (int k = -20; k <= 20; ++k)
    EXPECT_EQ(iexp2(static_cast<float>(k)), std::ldexp(1.0f, k));
}

TEST(Iexp2, SpecialsAndSaturation) {
  EXPECT_TRUE(std::isnan(iexp2(std::nanf(""))));
  EXPECT_EQ(iexp2(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(iexp2(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_TRUE(std::isinf(iexp2(20000.0f)));
  EXPECT_EQ(iexp2(-20000.0f), 0.0f);
  EXPECT_EQ(iexp2(-300.0f), 0.0f);  // below float range -> flush
}

TEST(Iexp2, InverseOfIlog2WithinCompoundBound) {
  common::Xoshiro256 rng(2002);
  for (int i = 0; i < 100000; ++i) {
    const float x = static_cast<float>(rng.uniform(1.0, 1000.0));
    const float rt = iexp2(ilog2(x));
    // log residual <= 0.087 bits, exp error <= 6.15%: ~12% round-trip.
    ASSERT_NEAR(rt, x, 0.13 * x);
  }
}

TEST(Iexp2, DispatchRoutesByConfig) {
  IhwConfig cfg;
  EXPECT_EQ(FpDispatch{cfg}.op<Op::Exp2>(1.3f), std::exp2(1.3f));
  cfg.exp2_enabled = true;
  EXPECT_EQ(FpDispatch{cfg}.op<Op::Exp2>(1.3f), iexp2(1.3f));
  EXPECT_NE(cfg.describe().find("exp2"), std::string::npos);
}

TEST(MixedPrecision, ScopedPreciseCarvesExactRegions) {
  // The "precise mode integrated into the multiplier" direction: a kernel
  // that computes its quality-critical prefix exactly and only the bulk
  // arithmetic imprecisely.
  gpu::FpContext ctx{IhwConfig::mul_only(MulMode::ImpreciseSimple, 0)};
  gpu::ScopedContext scope(ctx);
  const gpu::SimFloat a(1.75f), b(1.75f);

  gpu::SimFloat critical(0.0f), bulk(0.0f);
  {
    gpu::ScopedPrecise precise;
    critical = a * b;  // coordinates/pointers-style computation
  }
  bulk = a * b;
  EXPECT_EQ(critical.value(), 1.75f * 1.75f);
  EXPECT_EQ(bulk.value(), ifp_mul(1.75f, 1.75f));
  // Nested precise regions restore correctly.
  {
    gpu::ScopedPrecise p1;
    {
      gpu::ScopedPrecise p2;
      EXPECT_EQ((a * b).value(), 1.75f * 1.75f);
    }
    EXPECT_EQ((a * b).value(), 1.75f * 1.75f);
  }
  EXPECT_EQ((a * b).value(), ifp_mul(1.75f, 1.75f));
}

TEST(MixedPrecision, FractionOfPreciseWorkControlsQuality) {
  // Sweeping the precise fraction of a dot product: error decreases
  // monotonically (statistically) as more terms are computed exactly.
  common::Xoshiro256 rng(2005);
  std::vector<float> xs(512), ys(512);
  for (std::size_t i = 0; i < 512; ++i) {
    xs[i] = static_cast<float>(rng.uniform(0.5, 2.0));
    ys[i] = static_cast<float>(rng.uniform(0.5, 2.0));
  }
  double exact = 0.0;
  for (std::size_t i = 0; i < 512; ++i)
    exact += static_cast<double>(xs[i]) * ys[i];

  auto run = [&](int precise_every) {
    gpu::FpContext ctx{IhwConfig::mul_only(MulMode::ImpreciseSimple, 0)};
    gpu::ScopedContext scope(ctx);
    double acc = 0.0;  // accumulate host-side; the muls are under test
    for (std::size_t i = 0; i < 512; ++i) {
      gpu::SimFloat prod(0.0f);
      if (precise_every > 0 && i % static_cast<std::size_t>(precise_every) == 0) {
        gpu::ScopedPrecise p;
        prod = gpu::SimFloat(xs[i]) * gpu::SimFloat(ys[i]);
      } else {
        prod = gpu::SimFloat(xs[i]) * gpu::SimFloat(ys[i]);
      }
      acc += static_cast<double>(prod.value());
    }
    return std::fabs(acc - exact) / exact;
  };

  const double all_imprecise = run(0);
  const double half_precise = run(2);
  const double all_precise_err = run(1);
  EXPECT_LT(half_precise, all_imprecise);
  EXPECT_LT(all_precise_err, 1e-6);
}

}  // namespace
}  // namespace ihw
