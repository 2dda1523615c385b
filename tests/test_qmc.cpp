// Tests for the quasi-Monte-Carlo sequences used in error characterization.
#include "qmc/halton.h"
#include "qmc/sobol.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

namespace ihw::qmc {
namespace {

TEST(Sobol, FirstDimensionIsVanDerCorput) {
  Sobol s(1);
  double p;
  const double expected[] = {0.0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125};
  for (double e : expected) {
    s.next(&p);
    EXPECT_DOUBLE_EQ(p, e);
  }
}

TEST(Sobol, PointsStayInUnitInterval) {
  Sobol s(4);
  double p[4];
  for (int i = 0; i < 100000; ++i) {
    s.next(p);
    for (int d = 0; d < 4; ++d) {
      ASSERT_GE(p[d], 0.0);
      ASSERT_LT(p[d], 1.0);
    }
  }
}

TEST(Sobol, DyadicStratification) {
  // The first 2^k Sobol' points hit every dyadic interval of width 2^-k
  // exactly once in each dimension -- the defining (0,2)-sequence property.
  for (int dims = 1; dims <= 4; ++dims) {
    Sobol s(dims);
    constexpr int k = 8;
    std::vector<std::vector<int>> hits(
        static_cast<std::size_t>(dims), std::vector<int>(1 << k, 0));
    double p[Sobol::kMaxDims];
    for (int i = 0; i < (1 << k); ++i) {
      s.next(p);
      for (int d = 0; d < dims; ++d)
        hits[static_cast<std::size_t>(d)]
            [static_cast<std::size_t>(p[d] * (1 << k))]++;
    }
    for (int d = 0; d < dims; ++d)
      for (int bin = 0; bin < (1 << k); ++bin)
        ASSERT_EQ(hits[static_cast<std::size_t>(d)]
                      [static_cast<std::size_t>(bin)], 1)
            << "dim " << d << " bin " << bin;
  }
}

TEST(Sobol, PairwiseTwoDimensionalUniformity) {
  // 2-D stratification: 2^12 points over a 64x64 grid -> exactly one point
  // per cell for a (0,2)-sequence in base 2.
  Sobol s(2);
  std::array<int, 64 * 64> cells{};
  double p[2];
  for (int i = 0; i < 4096; ++i) {
    s.next(p);
    cells[static_cast<std::size_t>(p[0] * 64) * 64 +
          static_cast<std::size_t>(p[1] * 64)]++;
  }
  for (int c : cells) ASSERT_EQ(c, 1);
}

// seek() must land on the exact state the step-by-step recurrence reaches --
// the parallel error sweeps rely on this to start chunks mid-stream.
TEST(Sobol, SeekMatchesSequentialAdvance) {
  const std::uint64_t offsets[] = {0, 1, 2, 1023, 65536, 65536 * 3 + 17};
  for (std::uint64_t off : offsets) {
    Sobol stepped(4), seeked(4);
    double ps[4], pq[4];
    for (std::uint64_t i = 0; i < off; ++i) stepped.next(ps);
    seeked.seek(off);
    for (int i = 0; i < 8; ++i) {
      stepped.next(ps);
      seeked.next(pq);
      for (int d = 0; d < 4; ++d)
        ASSERT_EQ(ps[d], pq[d]) << "offset " << off << " dim " << d;
    }
  }
}

TEST(Sobol, RejectsBadDimensionCounts) {
  EXPECT_THROW(Sobol(0), std::invalid_argument);
  EXPECT_THROW(Sobol(9), std::invalid_argument);
  EXPECT_NO_THROW(Sobol(8));
}

TEST(Halton, RadicalInverseKnownValues) {
  EXPECT_DOUBLE_EQ(radical_inverse(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(radical_inverse(2, 2), 0.25);
  EXPECT_DOUBLE_EQ(radical_inverse(3, 2), 0.75);
  EXPECT_DOUBLE_EQ(radical_inverse(1, 3), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(radical_inverse(2, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(radical_inverse(3, 3), 1.0 / 9.0);
  EXPECT_DOUBLE_EQ(radical_inverse(0, 5), 0.0);
}

TEST(Halton, SequenceMatchesRadicalInverses) {
  Halton h(3);
  double p[3];
  for (std::uint64_t i = 1; i <= 100; ++i) {
    h.next(p);
    EXPECT_DOUBLE_EQ(p[0], radical_inverse(i, 2));
    EXPECT_DOUBLE_EQ(p[1], radical_inverse(i, 3));
    EXPECT_DOUBLE_EQ(p[2], radical_inverse(i, 5));
  }
}

TEST(Halton, ApproximatelyUniform) {
  Halton h(2);
  double p[2];
  int bins[16] = {0};
  const int n = 16000;
  for (int i = 0; i < n; ++i) {
    h.next(p);
    bins[static_cast<int>(p[0] * 16)]++;
  }
  for (int b : bins) EXPECT_NEAR(b, n / 16, n / 160);
}

TEST(QmcCrossCheck, SobolAndHaltonAgreeOnIntegrals) {
  // Both sequences should integrate x*y over [0,1)^2 to 0.25.
  Sobol s(2);
  Halton h(2);
  double ps[2], ph[2];
  double sum_s = 0.0, sum_h = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    s.next(ps);
    h.next(ph);
    sum_s += ps[0] * ps[1];
    sum_h += ph[0] * ph[1];
  }
  EXPECT_NEAR(sum_s / n, 0.25, 1e-3);
  EXPECT_NEAR(sum_h / n, 0.25, 1e-3);
}

}  // namespace
}  // namespace ihw::qmc
