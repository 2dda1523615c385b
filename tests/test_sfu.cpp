// Tests for the linear-approximation special function units (Table 1).
#include "ihw/sfu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bit_patterns.h"
#include "common/rng.h"
#include "sfu_reference.h"

namespace ihw {
namespace {

template <typename T>
class SfuTest : public ::testing::Test {};
using FloatTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(SfuTest, FloatTypes);

template <typename T, typename Op, typename Ref>
double sweep(Op op, Ref ref, double lo, double hi, int n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  double max_rel = 0.0;
  for (int i = 0; i < n; ++i) {
    const T x = static_cast<T>(
        std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform(lo, hi))));
    const double exact = ref(static_cast<double>(x));
    const double approx = static_cast<double>(op(x));
    max_rel = std::max(max_rel, std::fabs(approx - exact) / std::fabs(exact));
  }
  return max_rel;
}

TYPED_TEST(SfuTest, ReciprocalBoundedByTableOne) {
  using T = TypeParam;
  const double e = sweep<T>([](T x) { return ircp(x); },
                            [](double x) { return 1.0 / x; }, -20, 20, 300000, 61);
  EXPECT_LE(e, 0.0590 + 1e-4);
  EXPECT_GT(e, 0.055);  // tight
}

TYPED_TEST(SfuTest, RsqrtBoundedByTableOne) {
  using T = TypeParam;
  const double e = sweep<T>([](T x) { return irsqrt(x); },
                            [](double x) { return 1.0 / std::sqrt(x); }, -20,
                            20, 300000, 62);
  EXPECT_LE(e, 0.1112);
  EXPECT_GT(e, 0.10);
}

TYPED_TEST(SfuTest, SqrtBoundedByTableOne) {
  using T = TypeParam;
  const double e = sweep<T>([](T x) { return isqrt(x); },
                            [](double x) { return std::sqrt(x); }, -20, 20,
                            300000, 63);
  EXPECT_LE(e, 0.1112);
  EXPECT_GT(e, 0.10);
}

TYPED_TEST(SfuTest, DivisionBoundedByTableOne) {
  using T = TypeParam;
  common::Xoshiro256 rng(64);
  double max_rel = 0.0;
  for (int i = 0; i < 300000; ++i) {
    const T a = static_cast<T>(
        std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform(-10, 10))));
    const T b = static_cast<T>(
        std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform(-10, 10))));
    const double exact = static_cast<double>(a) / static_cast<double>(b);
    const double approx = static_cast<double>(ifp_div(a, b));
    max_rel = std::max(max_rel, std::fabs(approx - exact) / std::fabs(exact));
  }
  EXPECT_LE(max_rel, 0.0590 + 1e-4);
}

TYPED_TEST(SfuTest, Log2AbsoluteErrorBoundedAwayFromOne) {
  using T = TypeParam;
  // log2's relative error is unbounded near log2(x)=0; its *absolute* error
  // is the linear-fit residual, bounded by ~0.0861 on m in [1,2)
  // (max |0.9846m - 0.9196 - log2 m|).
  common::Xoshiro256 rng(65);
  double max_abs = 0.0;
  for (int i = 0; i < 300000; ++i) {
    const T x = static_cast<T>(
        std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform(-30, 30))));
    const double exact = std::log2(static_cast<double>(x));
    max_abs = std::max(max_abs,
                       std::fabs(static_cast<double>(ilog2(x)) - exact));
  }
  EXPECT_LE(max_abs, 0.087);
}

TYPED_TEST(SfuTest, Log2ExponentPathIsExact) {
  using T = TypeParam;
  // For x = 2^k the approximation error is the constant fit residual at m=1.
  for (int k = -10; k <= 10; ++k) {
    const T x = static_cast<T>(std::ldexp(1.0, k));
    EXPECT_NEAR(static_cast<double>(ilog2(x)), k + (0.9846 - 0.9196), 1e-6);
  }
}

TYPED_TEST(SfuTest, RsqrtEvenOddExponentSeam) {
  using T = TypeParam;
  // The even/odd exponent split must not create discontinuity blowups at
  // power-of-two boundaries.
  for (int k = -8; k <= 8; ++k) {
    const T lo = static_cast<T>(std::ldexp(0.999999, k));
    const T hi = static_cast<T>(std::ldexp(1.000001, k));
    const double rl = static_cast<double>(irsqrt(lo));
    const double rh = static_cast<double>(irsqrt(hi));
    EXPECT_NEAR(rl, rh, 0.05 * rl);
  }
}

TYPED_TEST(SfuTest, SpecialValues) {
  using T = TypeParam;
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();

  EXPECT_TRUE(std::isnan(ircp(nan)));
  EXPECT_EQ(ircp(T(0)), inf);
  EXPECT_EQ(ircp(-T(0)), -inf);
  EXPECT_EQ(ircp(inf), T(0));
  EXPECT_LT(ircp(T(-2)), T(0));

  EXPECT_TRUE(std::isnan(irsqrt(T(-1))));
  EXPECT_EQ(irsqrt(T(0)), inf);
  EXPECT_EQ(irsqrt(inf), T(0));

  EXPECT_TRUE(std::isnan(isqrt(T(-1))));
  EXPECT_EQ(isqrt(T(0)), T(0));
  EXPECT_EQ(isqrt(inf), inf);

  EXPECT_TRUE(std::isnan(ilog2(T(-1))));
  EXPECT_EQ(ilog2(T(0)), -inf);
  EXPECT_EQ(ilog2(inf), inf);

  EXPECT_TRUE(std::isnan(ifp_div(T(0), T(0))));
  EXPECT_EQ(ifp_div(T(1), T(0)), inf);
  EXPECT_EQ(ifp_div(T(-1), T(0)), -inf);
  EXPECT_EQ(ifp_div(T(1), inf), T(0));
  EXPECT_TRUE(std::isnan(ifp_div(inf, inf)));
}

TYPED_TEST(SfuTest, FmaComposesMulAndAdd) {
  using T = TypeParam;
  common::Xoshiro256 rng(66);
  for (int i = 0; i < 100000; ++i) {
    const T a = static_cast<T>(rng.uniform(0.5, 2.0));
    const T b = static_cast<T>(rng.uniform(0.5, 2.0));
    const T c = static_cast<T>(rng.uniform(0.5, 2.0));
    EXPECT_EQ(ifp_fma(a, b, c, 8), ifp_add(ifp_mul(a, b), c, 8));
  }
}

TEST(Sfu, RcpRangeReductionCoversBothMantissaHalves) {
  // Error character must be consistent at mantissa extremes:
  // x = 2^(e+1) * x', 1/x = 2^-(e+1) * (2.823 - 1.882 x').
  EXPECT_NEAR(ircp(1.0f), (2.823f - 1.882f * 0.5f) / 2.0f, 1e-5);  // x'=0.5
  const float near2 = std::nextafterf(2.0f, 0.0f);                 // x'->1
  EXPECT_NEAR(ircp(near2), (2.823f - 1.882f) / 2.0f, 1e-4);
}

TEST(Sfu, SqrtConsistentWithRsqrtIdentity) {
  // isqrt(x) = x' * irsqrt-segment, so isqrt(x)*irsqrt(x) ~ 1 within the
  // compounded bound.
  common::Xoshiro256 rng(67);
  for (int i = 0; i < 100000; ++i) {
    const float x = static_cast<float>(rng.uniform(0.01, 100.0));
    const double prod = static_cast<double>(isqrt(x)) * irsqrt(x) *
                        (1.0 / static_cast<double>(x)) * std::sqrt(x) *
                        std::sqrt(x);
    EXPECT_NEAR(prod, 1.0, 0.25);
  }
}

/// Every scalar SFU and the divider against the reference model
/// (sfu_reference.h, std::ldexp scaling) over the exhaustive 16-bit
/// patterns and the grid of special values: the exponent-field scaling and
/// the single operand-class test change no bit.
TYPED_TEST(SfuTest, MatchesLdexpReferenceModel) {
  using T = TypeParam;
  namespace ref = sfu_reference;
  const auto expect = [](const char* what, T x, T y, T got, T want) {
    if (fp::to_bits(got) == fp::to_bits(want)) return true;
    ADD_FAILURE() << what << ": x=0x" << std::hex << fp::to_bits(x) << " y=0x"
                  << fp::to_bits(y) << " unit=0x" << fp::to_bits(got)
                  << " reference=0x" << fp::to_bits(want);
    return false;
  };
  const auto check = [&](const std::vector<T>& a, const std::vector<T>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const T x = a[i], y = b[i];
      if (!expect("ircp", x, x, ircp(x), ref::ircp(x)) ||
          !expect("irsqrt", x, x, irsqrt(x), ref::irsqrt(x)) ||
          !expect("isqrt", x, x, isqrt(x), ref::isqrt(x)) ||
          !expect("ilog2", x, x, ilog2(x), ref::ilog2(x)) ||
          !expect("iexp2", x, x, iexp2(x), ref::iexp2(x)) ||
          !expect("ifp_div", x, y, ifp_div(x, y), ref::ifp_div(x, y)))
        return false;
    }
    return true;
  };
  test_operands::for_each_exhaustive_pair<T>(check);
  const auto [sa, sb] = test_operands::special_grid<T>();
  check(sa, sb);
}

}  // namespace
}  // namespace ihw
