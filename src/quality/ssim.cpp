#include "quality/ssim.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <vector>

namespace ihw::quality {
namespace {

constexpr int kWin = 11;
constexpr double kSigma = 1.5;
constexpr double kK1 = 0.01;
constexpr double kK2 = 0.03;

std::array<double, kWin * kWin> gaussian_window() {
  std::array<double, kWin * kWin> w{};
  const int h = kWin / 2;
  double sum = 0.0;
  for (int y = -h; y <= h; ++y)
    for (int x = -h; x <= h; ++x) {
      const double g = std::exp(-(x * x + y * y) / (2.0 * kSigma * kSigma));
      w[static_cast<std::size_t>((y + h) * kWin + (x + h))] = g;
      sum += g;
    }
  for (auto& v : w) v /= sum;
  return w;
}

}  // namespace

double ssim(const common::GridF& ref, const common::GridF& test, double peak) {
  assert(ref.rows() == test.rows() && ref.cols() == test.cols());
  const auto rows = static_cast<int>(ref.rows());
  const auto cols = static_cast<int>(ref.cols());
  if (rows < kWin || cols < kWin) return ref.size() ? 1.0 : 0.0;

  static const auto w = gaussian_window();
  const double c1 = (kK1 * peak) * (kK1 * peak);
  const double c2 = (kK2 * peak) * (kK2 * peak);
  const int h = kWin / 2;

  // One row of windows at a time, the window index innermost: for each
  // window offset (dy, dx), in order, every window centre of the row takes
  // its term. Each window adds the same terms in the same order as a
  // window-at-a-time loop, so the sums keep their bits, and the inner loops
  // run over contiguous pixels.
  const auto span = static_cast<std::size_t>(cols - 2 * h);
  std::vector<double> sums(5 * span);
  double* __restrict mu_x = sums.data();
  double* __restrict mu_y = mu_x + span;
  double* __restrict var_x = mu_y + span;
  double* __restrict var_y = var_x + span;
  double* __restrict cov = var_y + span;

  double total = 0.0;
  long long windows = 0;
  for (int cy = h; cy < rows - h; ++cy) {
    std::fill(sums.begin(), sums.end(), 0.0);
    // Pixel (cy + dy, cx + dx) of window centre cx = h + j is x[j] below.
    const auto pixels = [&](const common::GridF& g, int dy, int dx) {
      return &g(static_cast<std::size_t>(cy + dy),
                static_cast<std::size_t>(h + dx));
    };
    for (int dy = -h; dy <= h; ++dy)
      for (int dx = -h; dx <= h; ++dx) {
        const double wt =
            w[static_cast<std::size_t>((dy + h) * kWin + (dx + h))];
        const float* __restrict x = pixels(ref, dy, dx);
        const float* __restrict y = pixels(test, dy, dx);
        for (std::size_t j = 0; j < span; ++j) {
          mu_x[j] += wt * x[j];
          mu_y[j] += wt * y[j];
        }
      }
    for (int dy = -h; dy <= h; ++dy)
      for (int dx = -h; dx <= h; ++dx) {
        const double wt =
            w[static_cast<std::size_t>((dy + h) * kWin + (dx + h))];
        const float* __restrict x = pixels(ref, dy, dx);
        const float* __restrict y = pixels(test, dy, dx);
        for (std::size_t j = 0; j < span; ++j) {
          const double a = x[j] - mu_x[j];
          const double b = y[j] - mu_y[j];
          var_x[j] += wt * a * a;
          var_y[j] += wt * b * b;
          cov[j] += wt * a * b;
        }
      }
    for (std::size_t j = 0; j < span; ++j) {
      const double s =
          ((2 * mu_x[j] * mu_y[j] + c1) * (2 * cov[j] + c2)) /
          ((mu_x[j] * mu_x[j] + mu_y[j] * mu_y[j] + c1) *
           (var_x[j] + var_y[j] + c2));
      total += s;
      ++windows;
    }
  }
  return windows ? total / static_cast<double>(windows) : 1.0;
}

common::GridF luma(const common::RgbImage& img) {
  common::GridF out(img.height, img.width);
  for (std::size_t y = 0; y < img.height; ++y)
    for (std::size_t x = 0; x < img.width; ++x) {
      const auto* p = img.at(x, y);
      out(y, x) = 0.299f * p[0] + 0.587f * p[1] + 0.114f * p[2];
    }
  return out;
}

double ssim_rgb(const common::RgbImage& ref, const common::RgbImage& test) {
  return ssim(luma(ref), luma(test), 255.0);
}

}  // namespace ihw::quality
