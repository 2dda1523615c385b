// Tests for the quality metrics: grid metrics, SSIM, Pratt's figure of
// merit, distance transform, and the Sobel edge detector.
#include "quality/grid_metrics.h"
#include "quality/pratt.h"
#include "quality/ssim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pratt_reference.h"

namespace ihw::quality {
namespace {

common::GridF constant_grid(std::size_t n, float v) {
  return common::GridF(n, n, v);
}

TEST(GridMetrics, KnownValues) {
  common::GridF a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b = a;
  EXPECT_DOUBLE_EQ(mae(a, b), 0.0);
  EXPECT_DOUBLE_EQ(mse(a, b), 0.0);
  EXPECT_DOUBLE_EQ(wed(a, b), 0.0);
  b(1, 1) = 6;  // one cell off by 2
  EXPECT_DOUBLE_EQ(mae(a, b), 0.5);
  EXPECT_DOUBLE_EQ(mse(a, b), 1.0);
  EXPECT_DOUBLE_EQ(wed(a, b), 2.0);
}

TEST(GridMetrics, PsnrInfiniteForIdenticalAndFiniteOtherwise) {
  const auto a = constant_grid(8, 10.0f);
  auto b = a;
  EXPECT_TRUE(std::isinf(psnr(a, b, 255.0)));
  b(0, 0) = 11.0f;
  const double p = psnr(a, b, 255.0);
  EXPECT_GT(p, 40.0);
  EXPECT_TRUE(std::isfinite(p));
}

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// A rows x cols grid of values in [-100, 100) with NaN, +inf and -inf
/// scattered in at roughly `special` of the pixels each.
common::GridF noisy_grid(std::size_t rows, std::size_t cols, double special,
                         std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  common::GridF g(rows, cols);
  const float specials[3] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  for (auto& v : g) {
    v = static_cast<float>(rng.uniform(-100.0, 100.0));
    for (float x : specials)
      if (rng.uniform() < special) v = x;
  }
  return g;
}

TEST(GridMetrics, WedMatchesSerialMaxWithNonFinitePixels) {
  const auto serial = [](const common::GridF& a, const common::GridF& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      worst = std::max(
          worst, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
    return worst;
  };
  std::uint64_t seed = 5;
  for (std::size_t cols : {1, 3, 4, 5, 7, 8, 9, 33, 256})
    for (double special : {0.0, 0.01, 0.2, 0.6}) {
      const auto a = noisy_grid(3, cols, special, seed++);
      const auto b = noisy_grid(3, cols, special, seed++);
      EXPECT_EQ(bits(wed(a, b)), bits(serial(a, b)))
          << cols << " cols, special " << special;
    }
  const common::GridF empty;
  EXPECT_EQ(bits(wed(empty, empty)), bits(0.0));
}

/// SSIM one window at a time: the Gaussian-weighted means, then the
/// variances and covariance, summed over the 11 x 11 window in row-major
/// order. The library's row-at-a-time loop must match it bit for bit.
double ssim_window_at_a_time(const common::GridF& ref,
                             const common::GridF& test, double peak) {
  constexpr int kWin = 11;
  const auto rows = static_cast<int>(ref.rows());
  const auto cols = static_cast<int>(ref.cols());
  if (rows < kWin || cols < kWin) return ref.size() ? 1.0 : 0.0;
  const int h = kWin / 2;
  double w[kWin * kWin];
  double norm = 0.0;
  for (int y = -h; y <= h; ++y)
    for (int x = -h; x <= h; ++x) {
      const double g = std::exp(-(x * x + y * y) / (2.0 * 1.5 * 1.5));
      w[(y + h) * kWin + (x + h)] = g;
      norm += g;
    }
  for (auto& v : w) v /= norm;
  const double c1 = (0.01 * peak) * (0.01 * peak);
  const double c2 = (0.03 * peak) * (0.03 * peak);
  const auto at = [](const common::GridF& g, int r, int c) {
    return g(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  };

  double total = 0.0;
  long long windows = 0;
  for (int cy = h; cy < rows - h; ++cy) {
    for (int cx = h; cx < cols - h; ++cx) {
      double mu_x = 0.0, mu_y = 0.0;
      for (int dy = -h; dy <= h; ++dy)
        for (int dx = -h; dx <= h; ++dx) {
          const double wt = w[(dy + h) * kWin + (dx + h)];
          mu_x += wt * at(ref, cy + dy, cx + dx);
          mu_y += wt * at(test, cy + dy, cx + dx);
        }
      double var_x = 0.0, var_y = 0.0, cov = 0.0;
      for (int dy = -h; dy <= h; ++dy)
        for (int dx = -h; dx <= h; ++dx) {
          const double wt = w[(dy + h) * kWin + (dx + h)];
          const double a = at(ref, cy + dy, cx + dx) - mu_x;
          const double b = at(test, cy + dy, cx + dx) - mu_y;
          var_x += wt * a * a;
          var_y += wt * b * b;
          cov += wt * a * b;
        }
      const double s =
          ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) /
          ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2));
      total += s;
      ++windows;
    }
  }
  return windows ? total / static_cast<double>(windows) : 1.0;
}

TEST(Ssim, MatchesWindowAtATimeBitForBit) {
  // The smallest image with a window, one-window-wide strips, non-square
  // images, and images below the window size (no windows).
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {11, 11}, {11, 12}, {12, 11}, {11, 40}, {40, 11}, {23, 57},
      {64, 33}, {96, 96}, {10, 30}, {30, 10}};
  std::uint64_t seed = 81;
  for (const auto& [rows, cols] : shapes) {
    for (double peak : {255.0, 1.0}) {
      common::Xoshiro256 rng(seed++);
      common::GridF a(rows, cols), b(rows, cols);
      for (auto& v : a) v = static_cast<float>(rng.uniform(0, peak));
      // A noisy copy, as the apps score against their reference outputs.
      for (std::size_t i = 0; i < a.size(); ++i)
        b.data()[i] = a.data()[i] +
                      static_cast<float>(rng.uniform(-0.2, 0.2) * peak);
      for (const auto* test : {&a, &b}) {
        const double got = ssim(a, *test, peak);
        const double want = ssim_window_at_a_time(a, *test, peak);
        EXPECT_EQ(bits(got), bits(want))
            << rows << "x" << cols << " peak " << peak << ": " << got
            << " vs " << want;
      }
    }
  }
}

TEST(Ssim, IdenticalImagesScoreOne) {
  common::Xoshiro256 rng(71);
  common::GridF img(32, 32);
  for (auto& v : img) v = static_cast<float>(rng.uniform(0, 255));
  EXPECT_DOUBLE_EQ(ssim(img, img, 255.0), 1.0);
}

TEST(Ssim, DegradesMonotonicallyWithNoise) {
  common::Xoshiro256 rng(72);
  common::GridF img(64, 64);
  for (std::size_t r = 0; r < 64; ++r)
    for (std::size_t c = 0; c < 64; ++c)
      img(r, c) = static_cast<float>(128 + 100 * std::sin(r * 0.3) *
                                               std::cos(c * 0.2));
  double prev = 1.0;
  for (double amp : {5.0, 20.0, 60.0}) {
    common::Xoshiro256 nrng(73);
    auto noisy = img;
    for (auto& v : noisy)
      v += static_cast<float>(nrng.uniform(-amp, amp));
    const double s = ssim(img, noisy, 255.0);
    EXPECT_LT(s, prev);
    EXPECT_GT(s, 0.0);
    prev = s;
  }
}

TEST(Ssim, MeanShiftPenalizedLessThanStructureChange) {
  common::GridF img(48, 48);
  common::Xoshiro256 rng(74);
  for (auto& v : img) v = static_cast<float>(rng.uniform(50, 200));
  auto shifted = img;
  for (auto& v : shifted) v += 10.0f;  // luminance shift
  auto scrambled = img;
  common::Xoshiro256 rng2(75);
  for (auto& v : scrambled) v = static_cast<float>(rng2.uniform(50, 200));
  EXPECT_GT(ssim(img, shifted, 255.0), ssim(img, scrambled, 255.0));
}

TEST(Ssim, RgbUsesLuma) {
  common::RgbImage a(32, 32), b(32, 32);
  common::Xoshiro256 rng(76);
  for (std::size_t i = 0; i < a.pixels.size(); ++i)
    a.pixels[i] = b.pixels[i] = static_cast<std::uint8_t>(rng() & 0xFF);
  EXPECT_DOUBLE_EQ(ssim_rgb(a, b), 1.0);
  const auto l = luma(a);
  EXPECT_EQ(l.rows(), 32u);
  for (auto v : l) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 255.0f);
  }
}

TEST(DistanceTransform, ExactAgainstBruteForce) {
  common::Xoshiro256 rng(77);
  EdgeMap mask(24, 24, 0);
  for (int i = 0; i < 12; ++i)
    mask(static_cast<std::size_t>(rng.uniform(0, 24)),
         static_cast<std::size_t>(rng.uniform(0, 24))) = 1;
  const auto dist = distance_transform(mask);
  for (std::size_t r = 0; r < 24; ++r)
    for (std::size_t c = 0; c < 24; ++c) {
      double best = 1e18;
      for (std::size_t rr = 0; rr < 24; ++rr)
        for (std::size_t cc = 0; cc < 24; ++cc)
          if (mask(rr, cc)) {
            const double dr = static_cast<double>(r) - static_cast<double>(rr);
            const double dc = static_cast<double>(c) - static_cast<double>(cc);
            best = std::min(best, dr * dr + dc * dc);
          }
      ASSERT_NEAR(dist(r, c), std::sqrt(best), 1e-4) << r << "," << c;
    }
}

TEST(DistanceTransform, GridWithNoRowsOrNoColumnsIsEmpty) {
  for (const auto& mask : {EdgeMap(3, 0), EdgeMap(0, 3), EdgeMap()}) {
    const auto dist = distance_transform(mask);
    EXPECT_EQ(dist.rows(), mask.rows());
    EXPECT_EQ(dist.cols(), mask.cols());
    EXPECT_EQ(dist.size(), 0u);
  }
}

TEST(PrattFom, PerfectDetectionScoresOne) {
  EdgeMap ideal(16, 16, 0);
  for (std::size_t c = 2; c < 14; ++c) ideal(8, c) = 1;
  EXPECT_DOUBLE_EQ(pratt_fom(PrattReference(ideal), ideal), 1.0);
}

TEST(PrattFom, EmptyMapsEdgeCases) {
  EdgeMap empty(8, 8, 0);
  EdgeMap some(8, 8, 0);
  some(4, 4) = 1;
  const PrattReference no_edges(empty), one_edge(some);
  EXPECT_DOUBLE_EQ(pratt_fom(no_edges, empty), 1.0);
  EXPECT_DOUBLE_EQ(pratt_fom(no_edges, some), 0.0);
  EXPECT_DOUBLE_EQ(pratt_fom(one_edge, empty), 0.0);
}

TEST(PrattFom, ShiftedEdgePenalizedByDistance) {
  EdgeMap ideal(32, 32, 0), shift1(32, 32, 0), shift3(32, 32, 0);
  for (std::size_t c = 0; c < 32; ++c) {
    ideal(16, c) = 1;
    shift1(17, c) = 1;
    shift3(19, c) = 1;
  }
  const PrattReference ref(ideal);
  const double f1 = pratt_fom(ref, shift1);
  const double f3 = pratt_fom(ref, shift3);
  // d=1 with alpha=1/9: each pixel contributes 1/(1+1/9) = 0.9.
  EXPECT_NEAR(f1, 0.9, 1e-9);
  EXPECT_NEAR(f3, 1.0 / 2.0, 1e-9);  // d=3 -> 1/(1+1) = 0.5
  EXPECT_LT(f3, f1);
}

TEST(PrattFom, OverDetectionDilutesScore) {
  EdgeMap ideal(16, 16, 0), over(16, 16, 0);
  for (std::size_t c = 0; c < 16; ++c) {
    ideal(8, c) = 1;
    over(8, c) = 1;
    over(0, c) = 1;  // spurious far edge
  }
  const double f = pratt_fom(PrattReference(ideal), over);
  EXPECT_LT(f, 0.6);
  EXPECT_GT(f, 0.4);  // the true half still counts fully
}

EdgeMap random_map(std::size_t rows, std::size_t cols, double density,
                   common::Xoshiro256& rng) {
  EdgeMap m(rows, cols, 0);
  for (auto& v : m) v = rng.uniform() < density ? 1 : 0;
  return m;
}

TEST(PrattFom, ReferenceMatchesPerPixelFormulaBitForBit) {
  common::Xoshiro256 rng(19);
  const double densities[] = {0.0, 0.02, 0.5, 1.0};
  for (std::size_t cols : {1, 7, 64, 97})
    for (double ideal_density : densities) {
      const auto ideal = random_map(41, cols, ideal_density, rng);
      const PrattReference ref(ideal);
      for (double detected_density : densities) {
        const auto detected = random_map(41, cols, detected_density, rng);
        for (double alpha : {1.0 / 9.0, 0.37})
          EXPECT_EQ(bits(pratt_fom(ref, detected, alpha)),
                    bits(reference::pratt_fom(ideal, detected, alpha)))
              << cols << " cols, densities " << ideal_density << "/"
              << detected_density << ", alpha " << alpha;
      }
    }
}

TEST(SobelEdges, DetectsAStepEdge) {
  common::GridF img(32, 32, 0.0f);
  for (std::size_t r = 0; r < 32; ++r)
    for (std::size_t c = 16; c < 32; ++c) img(r, c) = 200.0f;
  const auto e = sobel_edges(img, 0.25);
  // Edge pixels cluster around column 15/16.
  std::size_t on = 0, near_edge = 0;
  for (std::size_t r = 1; r < 31; ++r)
    for (std::size_t c = 1; c < 31; ++c)
      if (e(r, c)) {
        ++on;
        if (c >= 14 && c <= 17) ++near_edge;
      }
  EXPECT_GT(on, 0u);
  EXPECT_EQ(on, near_edge);
}

TEST(SobelEdges, FlatImageHasNoEdges) {
  const auto e = sobel_edges(constant_grid(16, 42.0f), 0.25);
  for (auto v : e) EXPECT_EQ(v, 0);
}

TEST(SobelEdges, MatchesScalarReferenceAtEveryWidth) {
  // Besides two fixed thresholds, each finite magnitude of the reference
  // sets one threshold at (or an ulp from) itself, so a magnitude computed
  // one ulp off flips an edge and shows.
  std::uint64_t seed = 300;
  for (std::size_t cols = 3; cols <= 37; ++cols)
    for (std::size_t rows : {3, 4, 11})
      for (double special : {0.0, 0.002, 0.05}) {
        const auto img = noisy_grid(rows, cols, special, seed++);
        float max_mag;
        const auto mag = reference::sobel_magnitude(img, max_mag);
        std::vector<double> thresholds = {0.22, 0.6};
        if (std::isfinite(max_mag) && max_mag > 0.0f)
          for (float m : mag)
            if (m > 0.0f && m < max_mag)
              thresholds.push_back(static_cast<double>(m) / max_mag);
        for (double th : thresholds) {
          const auto got = sobel_edges(img, th);
          const auto want = reference::sobel_edges(img, th);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
              << rows << "x" << cols << ", special " << special << ", th "
              << th;
        }
      }
}

}  // namespace
}  // namespace ihw::quality
