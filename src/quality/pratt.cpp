#include "quality/pratt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ihw::quality {
namespace {

constexpr float kInf = std::numeric_limits<float>::max() / 4;

// 1-D squared-distance transform (Felzenszwalb & Huttenlocher 2004).
void edt_1d(const std::vector<float>& f, std::vector<float>& d) {
  const int n = static_cast<int>(f.size());
  d.assign(f.size(), 0.0f);
  std::vector<int> v(f.size());
  std::vector<float> z(f.size() + 1);
  int k = 0;
  v[0] = 0;
  z[0] = -kInf;
  z[1] = kInf;
  for (int q = 1; q < n; ++q) {
    float s;
    while (true) {
      const int p = v[static_cast<std::size_t>(k)];
      s = ((f[static_cast<std::size_t>(q)] + q * q) -
           (f[static_cast<std::size_t>(p)] + p * p)) /
          (2.0f * (q - p));
      if (s > z[static_cast<std::size_t>(k)]) break;
      --k;
    }
    ++k;
    v[static_cast<std::size_t>(k)] = q;
    z[static_cast<std::size_t>(k)] = s;
    z[static_cast<std::size_t>(k) + 1] = kInf;
  }
  k = 0;
  for (int q = 0; q < n; ++q) {
    while (z[static_cast<std::size_t>(k) + 1] < q) ++k;
    const int p = v[static_cast<std::size_t>(k)];
    d[static_cast<std::size_t>(q)] =
        (q - p) * (q - p) + f[static_cast<std::size_t>(p)];
  }
}

}  // namespace

common::GridF distance_transform(const EdgeMap& mask) {
  const std::size_t rows = mask.rows(), cols = mask.cols();
  common::GridF sq(rows, cols);
  if (sq.size() == 0) return sq;
  // Initialize: 0 at edge pixels, +inf elsewhere; then 1-D EDT per column,
  // then per row, gives exact squared Euclidean distance.
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      sq(r, c) = mask(r, c) ? 0.0f : kInf;

  std::vector<float> f, d;
  // Columns.
  f.resize(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) f[r] = sq(r, c);
    edt_1d(f, d);
    for (std::size_t r = 0; r < rows; ++r) sq(r, c) = d[r];
  }
  // Rows.
  f.resize(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) f[c] = sq(r, c);
    edt_1d(f, d);
    for (std::size_t c = 0; c < cols; ++c) sq(r, c) = d[c];
  }
  for (auto& v : sq) v = std::sqrt(v);
  return sq;
}

PrattReference::PrattReference(EdgeMap ideal)
    : ideal_(std::move(ideal)), distance_(distance_transform(ideal_)) {
  for (auto v : ideal_) edge_count_ += v ? 1 : 0;
}

double pratt_fom(const PrattReference& ref, const EdgeMap& detected,
                 double alpha) {
  if (ref.edge_count() == 0)
    return std::all_of(detected.begin(), detected.end(),
                       [](std::uint8_t v) { return v == 0; })
               ? 1.0
               : 0.0;
  const std::size_t rows = detected.rows(), cols = detected.cols();
  assert(ref.ideal().rows() == rows && ref.ideal().cols() == cols);
  // Pixels are added in row-major order, as a masked loop over the grid adds
  // them, so the sum keeps that loop's bits. Each row's edge columns are
  // first compacted without a branch: in a noisy map edge pixels fall at
  // random, and a branch per pixel mispredicts on most of them.
  std::vector<std::size_t> hits(cols);
  std::size_t n_detected = 0;
  double sum = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* row = &detected(r, 0);
    std::size_t n = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      hits[n] = c;
      n += row[c] != 0;
    }
    const float* dist = &ref.distance()(r, 0);
    for (std::size_t k = 0; k < n; ++k) {
      const double d = dist[hits[k]];
      sum += 1.0 / (1.0 + alpha * d * d);
    }
    n_detected += n;
  }
  if (n_detected == 0) return 0.0;
  return sum / static_cast<double>(std::max(ref.edge_count(), n_detected));
}

EdgeMap sobel_edges(const common::GridF& img, double rel_threshold) {
  const std::size_t rows = img.rows(), cols = img.cols();
  common::GridF mag(rows, cols, 0.0f);
  // The running maximum keeps m only when max < m, the rule of
  // std::max(max, m): NaN magnitudes are skipped. Magnitudes are +0 or
  // larger, so lanes kept apart and merged at the end give the same value.
  float max_mag = 0.0f;
  const auto keep_max = [](float& max, float m) { max = max < m ? m : max; };
#if defined(__SSE2__)
  // maxps(m, max) is (m > max) ? m : max, the same rule lane-wise.
  __m128 lanes_max = _mm_setzero_ps();
  const __m128 two = _mm_set1_ps(2.0f);
#endif
  for (std::size_t r = 1; r + 1 < rows; ++r) {
    const float* n = &img(r - 1, 0);
    const float* m = &img(r, 0);
    const float* s = &img(r + 1, 0);
    float* out = &mag(r, 0);
    std::size_t c = 1;
#if defined(__SSE2__)
    // Four pixels per step, each with the scalar pixel's operation order;
    // sqrtps is correctly rounded like sqrtss, so the bits match.
    for (; c + 4 < cols; c += 4) {
      const auto ld = [](const float* p) { return _mm_loadu_ps(p); };
      const std::size_t w = c - 1, e = c + 1;
      const __m128 gx = _mm_sub_ps(
          _mm_add_ps(_mm_add_ps(ld(n + e), _mm_mul_ps(two, ld(m + e))), ld(s + e)),
          _mm_add_ps(_mm_add_ps(ld(n + w), _mm_mul_ps(two, ld(m + w))), ld(s + w)));
      const __m128 gy = _mm_sub_ps(
          _mm_add_ps(_mm_add_ps(ld(s + w), _mm_mul_ps(two, ld(s + c))), ld(s + e)),
          _mm_add_ps(_mm_add_ps(ld(n + w), _mm_mul_ps(two, ld(n + c))), ld(n + e)));
      const __m128 v =
          _mm_sqrt_ps(_mm_add_ps(_mm_mul_ps(gx, gx), _mm_mul_ps(gy, gy)));
      _mm_storeu_ps(out + c, v);
      lanes_max = _mm_max_ps(v, lanes_max);
    }
#endif
    for (; c + 1 < cols; ++c) {
      const float gx = (n[c + 1] + 2.0f * m[c + 1] + s[c + 1]) -
                       (n[c - 1] + 2.0f * m[c - 1] + s[c - 1]);
      const float gy = (s[c - 1] + 2.0f * s[c] + s[c + 1]) -
                       (n[c - 1] + 2.0f * n[c] + n[c + 1]);
      out[c] = std::sqrt(gx * gx + gy * gy);
      keep_max(max_mag, out[c]);
    }
  }
#if defined(__SSE2__)
  float lanes[4];
  _mm_storeu_ps(lanes, lanes_max);
  for (float v : lanes) keep_max(max_mag, v);
#endif
  EdgeMap edges(rows, cols, 0);
  if (max_mag == 0.0f) return edges;
  const float th = static_cast<float>(rel_threshold) * max_mag;
  for (std::size_t i = 0; i < mag.size(); ++i)
    edges.data()[i] = mag.data()[i] > th ? 1 : 0;
  return edges;
}

}  // namespace ihw::quality
