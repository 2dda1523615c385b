// Tests for IhwConfig factories/description and the FpDispatch routing knob.
#include "ihw/config.h"
#include "ihw/dispatch.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ihw {
namespace {

TEST(IhwConfig, PreciseIsAllOff) {
  const auto c = IhwConfig::precise();
  EXPECT_FALSE(c.any_enabled());
  EXPECT_FALSE(c.mul_imprecise());
  EXPECT_EQ(c.describe(), "precise");
}

TEST(IhwConfig, AllImpreciseEnablesTableOneSet) {
  const auto c = IhwConfig::all_imprecise();
  EXPECT_TRUE(c.add_enabled);
  EXPECT_EQ(c.add_th, kDefaultAddTh);
  EXPECT_EQ(c.mul_mode, MulMode::ImpreciseSimple);
  EXPECT_TRUE(c.rcp_enabled && c.rsqrt_enabled && c.sqrt_enabled);
  EXPECT_TRUE(c.log2_enabled && c.div_enabled && c.fma_enabled);
  EXPECT_TRUE(c.any_enabled());
}

TEST(IhwConfig, RayFactoriesMatchPaperConfigs) {
  const auto a = IhwConfig::ray_conservative();
  EXPECT_TRUE(a.add_enabled && a.rcp_enabled && a.sqrt_enabled);
  EXPECT_FALSE(a.rsqrt_enabled);
  EXPECT_EQ(a.mul_mode, MulMode::Precise);

  const auto b = IhwConfig::ray_with_rsqrt();
  EXPECT_TRUE(b.rsqrt_enabled);

  const auto c = IhwConfig::ray_with_full_path_mul(15);
  EXPECT_EQ(c.mul_mode, MulMode::MitchellFull);
  EXPECT_EQ(c.mul_trunc, 15);
}

TEST(IhwConfig, MulOnlyLeavesEverythingElsePrecise) {
  const auto c = IhwConfig::mul_only(MulMode::MitchellLog, 19);
  EXPECT_EQ(c.mul_mode, MulMode::MitchellLog);
  EXPECT_EQ(c.mul_trunc, 19);
  EXPECT_FALSE(c.add_enabled);
  EXPECT_FALSE(c.rcp_enabled || c.rsqrt_enabled || c.sqrt_enabled ||
               c.log2_enabled || c.div_enabled || c.fma_enabled);
}

TEST(IhwConfig, DescribeNamesEnabledUnits) {
  auto c = IhwConfig::mul_only(MulMode::MitchellFull, 7);
  EXPECT_EQ(c.describe(), "mul(full_path,tr=7)");
  c.rcp_enabled = true;
  EXPECT_NE(c.describe().find("rcp"), std::string::npos);
}

TEST(FpDispatch, PreciseConfigMatchesHostArithmetic) {
  const FpDispatch d{IhwConfig::precise()};
  EXPECT_EQ(d.add(1.5f, 2.25f), 3.75f);
  EXPECT_EQ(d.op<Op::Sub>(1.5f, 2.25f), -0.75f);
  EXPECT_EQ(d.mul(1.5f, 2.0f), 3.0f);
  EXPECT_EQ(d.op<Op::Div>(3.0f, 2.0f), 1.5f);
  EXPECT_EQ(d.op<Op::Rcp>(4.0f), 0.25f);
  EXPECT_EQ(d.op<Op::Sqrt>(9.0f), 3.0f);
  EXPECT_EQ(d.op<Op::Rsqrt>(4.0f), 0.5f);
  EXPECT_FLOAT_EQ(d.op<Op::Log2>(8.0f), 3.0f);
  EXPECT_EQ(d.op<Op::Fma>(2.0f, 3.0f, 1.0f), 7.0f);
}

TEST(MulMode, ToStringIsStable) {
  EXPECT_EQ(to_string(MulMode::Precise), "precise");
  EXPECT_EQ(to_string(MulMode::ImpreciseSimple), "ifpmul");
  EXPECT_EQ(to_string(MulMode::MitchellLog), "log_path");
  EXPECT_EQ(to_string(MulMode::MitchellFull), "full_path");
  EXPECT_EQ(to_string(MulMode::BitTruncated), "bit_trunc");
}

}  // namespace
}  // namespace ihw
