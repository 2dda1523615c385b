// Fuzz-style robustness tests: every imprecise unit is fed raw random bit
// patterns (including NaN payloads, infinities, subnormals, and extreme
// exponents) and must uphold its output contract -- well-formed results, the
// flush-to-zero policy, sign rules, and no UB (exercised under the normal
// build; the sweeps are also valuable under sanitizers).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "fpcore/float_bits.h"
#include "ihw/ihw.h"

namespace ihw {
namespace {

float random_bits_float(common::Xoshiro256& rng) {
  return fp::from_bits<float>(static_cast<std::uint32_t>(rng()));
}

double random_bits_double(common::Xoshiro256& rng) {
  return fp::from_bits<double>(rng());
}

// The output contract shared by all units: never a subnormal (flush-to-zero
// designs), i.e. result is NaN, +-inf, +-0, or a normal number.
template <typename T>
::testing::AssertionResult well_formed(T v) {
  if (std::isnan(v) || std::isinf(v) || v == T(0)) {
    return ::testing::AssertionSuccess();
  }
  if (fp::is_subnormal(v))
    return ::testing::AssertionFailure() << "subnormal output " << v;
  return ::testing::AssertionSuccess();
}

constexpr int kIters = 300000;

TEST(FuzzUnits, IfpAddNeverEmitsSubnormals) {
  common::Xoshiro256 rng(1001);
  for (int i = 0; i < kIters; ++i) {
    const float a = random_bits_float(rng);
    const float b = random_bits_float(rng);
    const int th = 1 + static_cast<int>(rng() % 27);
    EXPECT_TRUE(well_formed(ifp_add(a, b, th)));
    EXPECT_TRUE(well_formed(ifp_sub(a, b, th)));
  }
}

TEST(FuzzUnits, MultipliersRespectSignAndContract) {
  common::Xoshiro256 rng(1002);
  for (int i = 0; i < kIters; ++i) {
    const float a = random_bits_float(rng);
    const float b = random_bits_float(rng);
    const int tr = static_cast<int>(rng() % 24);
    const float r[4] = {ifp_mul(a, b), acfp_mul(a, b, AcfpPath::Log, tr),
                        acfp_mul(a, b, AcfpPath::Full, tr),
                        trunc_mul(a, b, tr)};
    for (float v : r) {
      ASSERT_TRUE(well_formed(v));
      if (!std::isnan(v) && !std::isnan(a) && !std::isnan(b) && v != 0.0f) {
        ASSERT_EQ(std::signbit(v), std::signbit(a) != std::signbit(b))
            << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST(FuzzUnits, SfusHandleArbitraryBits) {
  common::Xoshiro256 rng(1003);
  for (int i = 0; i < kIters; ++i) {
    const float x = random_bits_float(rng);
    EXPECT_TRUE(well_formed(ircp(x)));
    EXPECT_TRUE(well_formed(irsqrt(x)));
    EXPECT_TRUE(well_formed(isqrt(x)));
    EXPECT_TRUE(well_formed(ilog2(x)));
    EXPECT_TRUE(well_formed(iexp2(x)));
    const float y = random_bits_float(rng);
    EXPECT_TRUE(well_formed(ifp_div(x, y)));
    EXPECT_TRUE(well_formed(ifp_fma(x, y, x, 8)));
  }
}

TEST(FuzzUnits, DoublePrecisionSweep) {
  common::Xoshiro256 rng(1004);
  for (int i = 0; i < kIters / 2; ++i) {
    const double a = random_bits_double(rng);
    const double b = random_bits_double(rng);
    const int tr = static_cast<int>(rng() % 53);
    EXPECT_TRUE(well_formed(ifp_add(a, b, 8)));
    EXPECT_TRUE(well_formed(ifp_mul(a, b)));
    EXPECT_TRUE(well_formed(acfp_mul(a, b, AcfpPath::Log, tr)));
    EXPECT_TRUE(well_formed(acfp_mul(a, b, AcfpPath::Full, tr)));
    EXPECT_TRUE(well_formed(trunc_mul(a, b, tr)));
    EXPECT_TRUE(well_formed(ircp(a)));
    EXPECT_TRUE(well_formed(ilog2(a)));
  }
}

TEST(FuzzUnits, NanPayloadsAlwaysPropagateAsNan) {
  common::Xoshiro256 rng(1005);
  for (int i = 0; i < 50000; ++i) {
    // Random NaN payloads (quiet and signaling patterns).
    const std::uint32_t payload =
        0x7F800001u | (static_cast<std::uint32_t>(rng()) & 0x807FFFFFu);
    const float nan = fp::from_bits<float>(payload);
    ASSERT_TRUE(std::isnan(nan));
    const float x = random_bits_float(rng);
    EXPECT_TRUE(std::isnan(ifp_add(nan, x, 8)));
    EXPECT_TRUE(std::isnan(ifp_mul(nan, x)));
    EXPECT_TRUE(std::isnan(acfp_mul(nan, x, AcfpPath::Full, 0)));
    EXPECT_TRUE(std::isnan(trunc_mul(nan, x, 5)));
    EXPECT_TRUE(std::isnan(ircp(nan)));
    EXPECT_TRUE(std::isnan(ifp_div(nan, x)));
  }
}

TEST(FuzzUnits, SubnormalOperandsBehaveAsZero) {
  common::Xoshiro256 rng(1006);
  for (int i = 0; i < 50000; ++i) {
    // A random subnormal: zero exponent, nonzero fraction.
    const std::uint32_t bits =
        (static_cast<std::uint32_t>(rng()) & 0x807FFFFFu) | 1u;
    const float sub = fp::from_bits<float>(bits & ~0x7F800000u);
    ASSERT_TRUE(fp::is_subnormal(sub) || sub == 0.0f);
    const float x = 3.25f;
    EXPECT_EQ(ifp_add(sub, x, 8), x);
    EXPECT_EQ(ifp_mul(sub, x), std::signbit(sub) ? -0.0f : 0.0f);
    EXPECT_EQ(acfp_mul(sub, x, AcfpPath::Log, 0),
              std::signbit(sub) ? -0.0f : 0.0f);
  }
}

// --- systematic special-value semantics ------------------------------------
// Every imprecise unit is driven with the full IEEE special-value set: +-0,
// +-inf, NaN, subnormals (largest/smallest), max/min normals. Contracts:
// NaN in -> quiet NaN out (payload never escapes as garbage), inf/zero
// follow the IEEE rules the precise unit would apply, subnormal inputs act
// as signed zero, and no signaling-NaN or subnormal bit pattern escapes.

constexpr float kPInf = std::numeric_limits<float>::infinity();
constexpr float kQNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kMaxN = std::numeric_limits<float>::max();
constexpr float kMinN = std::numeric_limits<float>::min();       // min normal
constexpr float kSub = std::numeric_limits<float>::denorm_min();  // subnormal

const float kSpecials[] = {0.0f,  -0.0f, kPInf,  -kPInf, kQNan, kMaxN,
                           -kMaxN, kMinN, -kMinN, kSub,   -kSub, 1.0f,
                           -1.0f,  3.5f,  -3.5f};

// A NaN result must be quiet: the quiet bit (frac MSB) set, exponent all
// ones -- never a signaling pattern that could trap downstream.
::testing::AssertionResult quiet_nan(float v) {
  const auto bits = fp::to_bits(v);
  if (!std::isnan(v))
    return ::testing::AssertionFailure() << v << " is not NaN";
  if ((bits & 0x00400000u) == 0)
    return ::testing::AssertionFailure()
           << "signaling NaN pattern 0x" << std::hex << bits;
  return ::testing::AssertionSuccess();
}

TEST(SpecialValues, MultipliersFollowIeee) {
  for (float a : kSpecials) {
    for (float b : kSpecials) {
      const float r[4] = {ifp_mul(a, b), acfp_mul(a, b, AcfpPath::Log, 0),
                          acfp_mul(a, b, AcfpPath::Full, 0),
                          trunc_mul(a, b, 0)};
      const bool a0 = fp::flush_subnormal(a) == 0.0f && !std::isnan(a);
      const bool b0 = fp::flush_subnormal(b) == 0.0f && !std::isnan(b);
      for (float v : r) {
        ASSERT_TRUE(well_formed(v)) << "a=" << a << " b=" << b;
        if (std::isnan(a) || std::isnan(b)) {
          ASSERT_TRUE(quiet_nan(v)) << "a=" << a << " b=" << b;
        } else if ((std::isinf(a) && b0) || (std::isinf(b) && a0)) {
          ASSERT_TRUE(quiet_nan(v)) << "inf*0 a=" << a << " b=" << b;
        } else if (std::isinf(a) || std::isinf(b)) {
          ASSERT_TRUE(std::isinf(v)) << "a=" << a << " b=" << b;
          ASSERT_EQ(std::signbit(v), std::signbit(a) != std::signbit(b));
        } else if (a0 || b0) {
          ASSERT_EQ(v, 0.0f) << "a=" << a << " b=" << b;
          ASSERT_EQ(std::signbit(v), std::signbit(a) != std::signbit(b));
        }
      }
    }
  }
}

TEST(SpecialValues, AdderFollowsIeee) {
  for (float a : kSpecials) {
    for (float b : kSpecials) {
      for (int th : {1, 8, 27}) {
        const float s = ifp_add(a, b, th);
        const float d = ifp_sub(a, b, th);
        ASSERT_TRUE(well_formed(s)) << "a=" << a << " b=" << b;
        ASSERT_TRUE(well_formed(d)) << "a=" << a << " b=" << b;
        if (std::isnan(a) || std::isnan(b)) {
          ASSERT_TRUE(quiet_nan(s));
          ASSERT_TRUE(quiet_nan(d));
        } else if (std::isinf(a) && std::isinf(b)) {
          // inf + inf keeps the sign; inf - inf (opposite signs) is NaN.
          if (std::signbit(a) != std::signbit(b)) {
            ASSERT_TRUE(quiet_nan(s));
            ASSERT_TRUE(std::isinf(d));
          } else {
            ASSERT_TRUE(std::isinf(s));
            ASSERT_TRUE(quiet_nan(d));
          }
        } else if (std::isinf(a) || std::isinf(b)) {
          ASSERT_TRUE(std::isinf(s)) << "a=" << a << " b=" << b;
          ASSERT_TRUE(std::isinf(d)) << "a=" << a << " b=" << b;
        }
      }
    }
  }
  // Signed-zero sums, IEEE round-to-nearest rules.
  EXPECT_FALSE(std::signbit(ifp_add(0.0f, 0.0f, 8)));
  EXPECT_FALSE(std::signbit(ifp_add(0.0f, -0.0f, 8)));
  EXPECT_FALSE(std::signbit(ifp_add(-0.0f, 0.0f, 8)));
  EXPECT_TRUE(std::signbit(ifp_add(-0.0f, -0.0f, 8)));
  EXPECT_TRUE(std::signbit(ifp_sub(-0.0f, 0.0f, 8)));
  EXPECT_FALSE(std::signbit(ifp_sub(0.0f, -0.0f, 8)));
  // x + (-x) is +0, and subnormals act as signed zeros.
  EXPECT_EQ(ifp_add(1.5f, -1.5f, 8), 0.0f);
  EXPECT_FALSE(std::signbit(ifp_add(1.5f, -1.5f, 8)));
  EXPECT_TRUE(std::signbit(ifp_add(-kSub, -kSub, 8)));
}

TEST(SpecialValues, SfusFollowDocumentedEdgeRules) {
  for (float x : kSpecials) {
    for (float v : {ircp(x), irsqrt(x), isqrt(x), ilog2(x), iexp2(x)}) {
      ASSERT_TRUE(well_formed(v)) << "x=" << x;
    }
    if (std::isnan(x)) {
      ASSERT_TRUE(quiet_nan(ircp(x)));
      ASSERT_TRUE(quiet_nan(irsqrt(x)));
      ASSERT_TRUE(quiet_nan(isqrt(x)));
      ASSERT_TRUE(quiet_nan(ilog2(x)));
      ASSERT_TRUE(quiet_nan(iexp2(x)));
      ASSERT_TRUE(quiet_nan(ifp_div(x, 2.0f)));
      ASSERT_TRUE(quiet_nan(ifp_div(2.0f, x)));
      ASSERT_TRUE(quiet_nan(ifp_fma(x, 1.0f, 1.0f, 8)));
    }
  }
  // rcp: signed infinities at signed zero, signed zeros at infinity.
  EXPECT_EQ(ircp(0.0f), kPInf);
  EXPECT_EQ(ircp(-0.0f), -kPInf);
  EXPECT_EQ(ircp(kSub), kPInf);  // subnormal flushes to zero first
  EXPECT_EQ(ircp(kPInf), 0.0f);
  EXPECT_TRUE(std::signbit(ircp(-kPInf)));
  // Negative-domain SFUs produce quiet NaN.
  EXPECT_TRUE(quiet_nan(irsqrt(-1.0f)));
  EXPECT_TRUE(quiet_nan(isqrt(-1.0f)));
  EXPECT_TRUE(quiet_nan(ilog2(-1.0f)));
  // Edge singularities.
  EXPECT_EQ(irsqrt(0.0f), kPInf);
  EXPECT_EQ(isqrt(0.0f), 0.0f);
  EXPECT_EQ(ilog2(0.0f), -kPInf);
  EXPECT_EQ(ilog2(kPInf), kPInf);
  EXPECT_EQ(iexp2(-kPInf), 0.0f);
  EXPECT_EQ(iexp2(kPInf), kPInf);
  // Division special quotients.
  EXPECT_TRUE(quiet_nan(ifp_div(0.0f, 0.0f)));
  EXPECT_TRUE(quiet_nan(ifp_div(kPInf, kPInf)));
  EXPECT_EQ(ifp_div(1.0f, 0.0f), kPInf);
  EXPECT_EQ(ifp_div(-1.0f, 0.0f), -kPInf);
  EXPECT_EQ(ifp_div(1.0f, kPInf), 0.0f);
  EXPECT_TRUE(std::signbit(ifp_div(-1.0f, kPInf)));
  // Extreme normals never produce garbage: results saturate or flush.
  EXPECT_TRUE(well_formed(ifp_mul(kMaxN, kMaxN)));   // overflows to +inf
  EXPECT_TRUE(std::isinf(ifp_mul(kMaxN, kMaxN)));
  EXPECT_EQ(ifp_mul(kMinN, kMinN), 0.0f);            // underflow flushes
  EXPECT_TRUE(well_formed(ifp_fma(kMaxN, kMaxN, -kPInf, 8)));
}

TEST(SpecialValues, FmaPropagatesThroughBothStages) {
  // NaN in any operand position survives the mul stage and the add stage.
  EXPECT_TRUE(quiet_nan(ifp_fma(kQNan, 2.0f, 3.0f, 8)));
  EXPECT_TRUE(quiet_nan(ifp_fma(2.0f, kQNan, 3.0f, 8)));
  EXPECT_TRUE(quiet_nan(ifp_fma(2.0f, 3.0f, kQNan, 8)));
  // inf*0 inside the mul stage is NaN regardless of the addend.
  EXPECT_TRUE(quiet_nan(ifp_fma(kPInf, 0.0f, 1.0f, 8)));
  // inf + finite keeps the infinity.
  EXPECT_EQ(ifp_fma(kPInf, 2.0f, -10.0f, 8), kPInf);
}

TEST(FuzzUnits, DispatcherClosedOverRandomConfigs) {
  common::Xoshiro256 rng(1007);
  for (int i = 0; i < 20000; ++i) {
    IhwConfig cfg;
    cfg.add_enabled = rng() & 1;
    cfg.add_th = 1 + static_cast<int>(rng() % 27);
    cfg.mul_mode = static_cast<MulMode>(rng() % 5);
    cfg.mul_trunc = static_cast<int>(rng() % 24);
    cfg.rcp_enabled = rng() & 1;
    cfg.rsqrt_enabled = rng() & 1;
    cfg.sqrt_enabled = rng() & 1;
    cfg.log2_enabled = rng() & 1;
    cfg.div_enabled = rng() & 1;
    cfg.fma_enabled = rng() & 1;
    const FpDispatch d{cfg};
    const float a = random_bits_float(rng);
    const float b = random_bits_float(rng);
    EXPECT_TRUE(well_formed(d.add(a, b)) || !cfg.add_enabled);
    EXPECT_TRUE(well_formed(d.mul(a, b)) || cfg.mul_mode == MulMode::Precise);
    (void)d.op<Op::Div>(a, b);
    (void)d.op<Op::Rcp>(a);
    (void)d.op<Op::Sqrt>(std::fabs(a));
    (void)d.op<Op::Fma>(a, b, a);
  }
}

}  // namespace
}  // namespace ihw
