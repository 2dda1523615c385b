#pragma once
// Plain scalar forms of the Pratt FOM pipeline: a masked per-pixel sum with
// the distance transform built per call, and one Sobel pixel at a time with
// a std::max running maximum. The library's prebuilt PrattReference,
// branch-free sum and vector Sobel must match them bit for bit.
#include <algorithm>
#include <cmath>

#include "quality/pratt.h"

namespace ihw::quality::reference {

inline double pratt_fom(const EdgeMap& ideal, const EdgeMap& detected,
                        double alpha = 1.0 / 9.0) {
  std::size_t n_ideal = 0, n_detected = 0;
  for (auto v : ideal) n_ideal += v ? 1 : 0;
  for (auto v : detected) n_detected += v ? 1 : 0;
  if (n_ideal == 0 && n_detected == 0) return 1.0;
  if (n_ideal == 0 || n_detected == 0) return 0.0;
  const auto dist = distance_transform(ideal);
  double sum = 0.0;
  for (std::size_t r = 0; r < detected.rows(); ++r)
    for (std::size_t c = 0; c < detected.cols(); ++c)
      if (detected(r, c)) {
        const double d = dist(r, c);
        sum += 1.0 / (1.0 + alpha * d * d);
      }
  return sum / static_cast<double>(std::max(n_ideal, n_detected));
}

/// Sobel gradient magnitudes (zero on the border) and their maximum.
inline common::GridF sobel_magnitude(const common::GridF& img,
                                     float& max_mag) {
  const std::size_t rows = img.rows(), cols = img.cols();
  common::GridF mag(rows, cols, 0.0f);
  max_mag = 0.0f;
  for (std::size_t r = 1; r + 1 < rows; ++r)
    for (std::size_t c = 1; c + 1 < cols; ++c) {
      const float gx =
          (img(r - 1, c + 1) + 2.0f * img(r, c + 1) + img(r + 1, c + 1)) -
          (img(r - 1, c - 1) + 2.0f * img(r, c - 1) + img(r + 1, c - 1));
      const float gy =
          (img(r + 1, c - 1) + 2.0f * img(r + 1, c) + img(r + 1, c + 1)) -
          (img(r - 1, c - 1) + 2.0f * img(r - 1, c) + img(r - 1, c + 1));
      const float m = std::sqrt(gx * gx + gy * gy);
      mag(r, c) = m;
      max_mag = std::max(max_mag, m);
    }
  return mag;
}

inline EdgeMap sobel_edges(const common::GridF& img, double rel_threshold) {
  float max_mag;
  const auto mag = sobel_magnitude(img, max_mag);
  EdgeMap edges(img.rows(), img.cols(), 0);
  if (max_mag == 0.0f) return edges;
  const float th = static_cast<float>(rel_threshold) * max_mag;
  for (std::size_t i = 0; i < mag.size(); ++i)
    edges.data()[i] = mag.data()[i] > th ? 1 : 0;
  return edges;
}

}  // namespace ihw::quality::reference
