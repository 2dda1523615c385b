// Tests for the error metrics and PMF characterization framework (Ch. 4.2).
#include "error/characterize.h"
#include "error/metrics.h"
#include "error/pmf.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ihw::error {
namespace {

TEST(ErrorStats, AccumulatesAllMetrics) {
  ErrorStats s;
  s.observe(10.0, 10.0);   // no error
  s.observe(10.0, 11.0);   // rel 0.1, abs 1
  s.observe(-4.0, -3.0);   // rel 0.25, abs 1
  s.observe(2.0, 2.0);     // no error
  EXPECT_EQ(s.samples(), 4u);
  EXPECT_EQ(s.errors(), 2u);
  EXPECT_DOUBLE_EQ(s.error_rate(), 0.5);
  EXPECT_DOUBLE_EQ(s.max_rel(), 0.25);
  EXPECT_DOUBLE_EQ(s.mean_rel(), (0.1 + 0.25) / 4.0);
  EXPECT_DOUBLE_EQ(s.med(), 0.5);
  EXPECT_DOUBLE_EQ(s.wed(), 1.0);
}

TEST(ErrorStats, IgnoresNanPairsAndZeroExact) {
  ErrorStats s;
  s.observe(std::nan(""), 1.0);
  s.observe(0.0, 5.0);  // abs error counted, rel skipped
  EXPECT_EQ(s.samples(), 2u);
  EXPECT_DOUBLE_EQ(s.max_rel(), 0.0);
  EXPECT_DOUBLE_EQ(s.wed(), 5.0);
}

TEST(ErrorPmf, BucketsOnCeilLog2OfPercent) {
  ErrorPmf pmf;
  // err% = 3 -> ceil(log2 3) = 2.
  pmf.observe_rel_error(0.03);
  EXPECT_DOUBLE_EQ(pmf.probability(2), 1.0);
  // err% = 4 -> exactly bucket 2 (ceil(2) = 2).
  pmf.observe_rel_error(0.04);
  EXPECT_DOUBLE_EQ(pmf.probability(2), 1.0);
  // err% = 4.01 -> bucket 3.
  pmf.observe_rel_error(0.0401);
  EXPECT_NEAR(pmf.probability(3), 1.0 / 3.0, 1e-12);
}

TEST(ErrorPmf, ZeroErrorsCountTowardRateDenominator) {
  ErrorPmf pmf;
  pmf.observe_rel_error(0.0);
  pmf.observe_rel_error(0.0);
  pmf.observe_rel_error(0.01);
  EXPECT_EQ(pmf.samples(), 3u);
  EXPECT_NEAR(pmf.error_rate(), 1.0 / 3.0, 1e-12);
}

TEST(ErrorPmf, MassEqualsErrorRate) {
  ErrorPmf pmf;
  for (int i = 1; i <= 1000; ++i) pmf.observe_rel_error(i * 1e-5);
  for (int i = 0; i < 500; ++i) pmf.observe_rel_error(0.0);
  double mass = 0.0;
  for (int b = pmf.min_bucket(); b <= pmf.max_bucket(); ++b)
    mass += pmf.probability(b);
  EXPECT_NEAR(mass, pmf.error_rate(), 1e-12);
}

TEST(ErrorPmf, ClampsOutOfRangeBuckets) {
  ErrorPmf pmf(-4, 4);
  pmf.observe_rel_error(1e-12);  // far below min bucket
  pmf.observe_rel_error(1e6);    // far above max bucket
  EXPECT_DOUBLE_EQ(pmf.probability(-4), 0.5);
  EXPECT_DOUBLE_EQ(pmf.probability(4), 0.5);
  EXPECT_EQ(pmf.max_nonzero_bucket(), 4);
}

TEST(ErrorPmf, ToStringListsNonEmptyBuckets) {
  ErrorPmf pmf;
  pmf.observe_rel_error(0.03);
  const auto s = pmf.to_string("unit");
  EXPECT_NE(s.find("unit"), std::string::npos);
  EXPECT_NE(s.find("2^2%"), std::string::npos);
}

TEST(Characterize, UnitBoundsRespectTheory) {
  // Characterization results must stay under the Table 1 analytic bounds.
  struct Case {
    UnitKind kind;
    int param;
    double bound;
  };
  const Case cases[] = {
      {UnitKind::Rcp, 0, 0.0591}, {UnitKind::Rsqrt, 0, 0.1112},
      {UnitKind::Sqrt, 0, 0.1112}, {UnitKind::FpMul, 0, 0.2501},
      {UnitKind::AcfpLog, 0, 0.11112}, {UnitKind::AcfpFull, 0, 0.0206},
      {UnitKind::FpAdd, 8, 0.0079},
  };
  for (const auto& c : cases) {
    const auto res = characterize32(c.kind, c.param, 200000);
    EXPECT_LE(res.stats.max_rel(), c.bound) << res.label;
    EXPECT_GT(res.stats.max_rel(), 0.0) << res.label;
    EXPECT_EQ(res.pmf.samples(), 200000u);
  }
}

TEST(Characterize, SixtyFourBitVariantsWork) {
  const auto res = characterize64(UnitKind::AcfpFull, 0, 100000);
  EXPECT_LE(res.stats.max_rel(), 0.0206);
  const auto res2 = characterize64(UnitKind::AcfpLog, 48, 100000);
  EXPECT_LE(res2.stats.max_rel(), 0.20);
  EXPECT_GT(res2.stats.max_rel(), 0.12);
}

TEST(Characterize, TruncationShiftsPmfRight) {
  const auto a = characterize32(UnitKind::AcfpLog, 0, 150000);
  const auto b = characterize32(UnitKind::AcfpLog, 19, 150000);
  EXPECT_GE(b.pmf.max_nonzero_bucket(), a.pmf.max_nonzero_bucket());
  EXPECT_GT(b.stats.mean_rel(), a.stats.mean_rel());
}

TEST(Characterize, LabelsIncludeParameters) {
  EXPECT_EQ(characterize32(UnitKind::AcfpLog, 19, 10).label, "log_path(19)");
  EXPECT_EQ(characterize32(UnitKind::Rcp, 0, 10).label, "ircp");
}

}  // namespace
}  // namespace ihw::error
