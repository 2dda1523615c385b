#include "quality/grid_metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ihw::quality {

double mae(const common::GridF& ref, const common::GridF& test) {
  assert(ref.size() == test.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    sum += std::fabs(static_cast<double>(ref.data()[i]) - test.data()[i]);
  return ref.size() ? sum / static_cast<double>(ref.size()) : 0.0;
}

double mse(const common::GridF& ref, const common::GridF& test) {
  assert(ref.size() == test.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(ref.data()[i]) - test.data()[i];
    sum += d * d;
  }
  return ref.size() ? sum / static_cast<double>(ref.size()) : 0.0;
}

double wed(const common::GridF& ref, const common::GridF& test) {
  assert(ref.size() == test.size());
  // Four independent running maxima, so no step waits on the one before.
  // Each keeps x only when worst < x, the rule of std::max(worst, x): NaN
  // distances are skipped. Distances are +0 or larger, so merging the lanes
  // in any order gives the value of one serial std::max chain.
  constexpr std::size_t kLanes = 4;
  double lane[kLanes] = {};
  const auto keep_max = [](double& worst, double x) {
    worst = worst < x ? x : worst;
  };
  const float* a = ref.data();
  const float* b = test.data();
  const auto dist = [&](std::size_t i) {
    return std::fabs(static_cast<double>(a[i]) - b[i]);
  };
  const std::size_t n = ref.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    keep_max(lane[0], dist(i));
    keep_max(lane[1], dist(i + 1));
    keep_max(lane[2], dist(i + 2));
    keep_max(lane[3], dist(i + 3));
  }
  for (; i < n; ++i) keep_max(lane[0], dist(i));
  for (std::size_t k = 1; k < kLanes; ++k) keep_max(lane[0], lane[k]);
  return lane[0];
}

double psnr(const common::GridF& ref, const common::GridF& test, double peak) {
  if (peak == 0.0) {
    const auto [lo, hi] = std::minmax_element(ref.begin(), ref.end());
    peak = static_cast<double>(*hi) - static_cast<double>(*lo);
    if (peak == 0.0) peak = 1.0;
  }
  const double m = mse(ref, test);
  if (m == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(peak * peak / m);
}

}  // namespace ihw::quality
