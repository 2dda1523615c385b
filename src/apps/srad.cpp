#include "apps/srad.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "gpu/batch.h"
#include "gpu/simt.h"
#include "runtime/parallel.h"

namespace ihw::apps {
namespace {

using gpu::gload;
using gpu::gstore;
using gpu::rcp;

struct Ellipse {
  double cy, cx, ry, rx;
  double indicator(double r, double c) const {
    const double dy = (r - cy) / ry, dx = (c - cx) / rx;
    return dy * dy + dx * dx;
  }
};

// The phantom's two dark cysts.
std::array<Ellipse, 2> cysts_of(const SradParams& p) {
  return {{{p.rows * 0.42, p.cols * 0.38, p.rows * 0.16, p.cols * 0.13},
           {p.rows * 0.68, p.cols * 0.70, p.rows * 0.10, p.cols * 0.15}}};
}

}  // namespace

float srad_intensity(double v) {
  return static_cast<float>(std::fmin(255.0, std::fmax(1.0, v)));
}

common::GridF make_srad_image(const SradParams& p, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  common::GridF image(p.rows, p.cols, 0.0f);
  const auto cysts = cysts_of(p);
  for (std::size_t r = 0; r < p.rows; ++r) {
    for (std::size_t c = 0; c < p.cols; ++c) {
      double base = 150.0;
      for (const auto& e : cysts)
        if (e.indicator(static_cast<double>(r), static_cast<double>(c)) < 1.0)
          base = 55.0;
      // Multiplicative speckle: product of two uniforms approximates the
      // heavy-tailed look of log-compressed ultrasound.
      const double n = (rng.uniform() + rng.uniform() - 1.0) * 0.55;
      image(r, c) = srad_intensity(base * (1.0 + n));
    }
  }
  return image;
}

SradInput make_srad_input(const SradParams& p, std::uint64_t seed) {
  SradInput in;
  in.image = make_srad_image(p, seed);
  quality::EdgeMap ideal(p.rows, p.cols, 0);
  const auto cysts = cysts_of(p);
  // Ideal segmentation: pixels where the cyst indicator crosses 1.
  for (std::size_t r = 1; r + 1 < p.rows; ++r)
    for (std::size_t c = 1; c + 1 < p.cols; ++c)
      for (const auto& e : cysts) {
        const bool inside = e.indicator(static_cast<double>(r), static_cast<double>(c)) < 1.0;
        const bool any_out =
            e.indicator(static_cast<double>(r - 1), static_cast<double>(c)) >= 1.0 ||
            e.indicator(static_cast<double>(r + 1), static_cast<double>(c)) >= 1.0 ||
            e.indicator(static_cast<double>(r), static_cast<double>(c - 1)) >= 1.0 ||
            e.indicator(static_cast<double>(r), static_cast<double>(c + 1)) >= 1.0;
        if (inside && any_out) ideal(r, c) = 1;
      }
  in.ideal_edges = quality::PrattReference(std::move(ideal));
  return in;
}

template <typename Real>
common::GridF run_srad(const SradParams& p, const common::GridF& image) {
  const std::size_t rows = p.rows, cols = p.cols;
  common::Grid<Real> J(rows, cols);
  for (std::size_t i = 0; i < J.size(); ++i) J.data()[i] = Real(image.data()[i]);

  common::Grid<Real> dN(rows, cols), dS(rows, cols), dW(rows, cols),
      dE(rows, cols), coef(rows, cols);

  const Real half(0.5f), quarter(0.25f), sixteenth(1.0f / 16.0f), one(1.0f);
  const Real lambda_q = Real(static_cast<float>(0.25 * p.lambda));

  const gpu::Dim3 block(16, 16);
  const gpu::Dim3 grid(static_cast<unsigned>((cols + 15) / 16),
                       static_cast<unsigned>((rows + 15) / 16));

  for (int it = 0; it < p.iterations; ++it) {
    // Speckle-scale estimate over the homogeneous ROI; Rodinia computes this
    // reduction between kernels -- modeled host-side in full precision.
    double sum = 0.0, sum2 = 0.0;
    std::size_t n = 0;
    for (std::size_t r = p.roi_r0; r < p.roi_r1; ++r)
      for (std::size_t c = p.roi_c0; c < p.roi_c1; ++c) {
        const double v = static_cast<double>(static_cast<float>(J(r, c)));
        sum += v;
        sum2 += v * v;
        ++n;
      }
    const double mean = sum / static_cast<double>(n);
    const double var = sum2 / static_cast<double>(n) - mean * mean;
    const Real q0sqr = Real(static_cast<float>(var / (mean * mean)));
    const Real q0_den = Real(static_cast<float>(
        (var / (mean * mean)) * (1.0 + var / (mean * mean))));

    // Kernel 1: directional derivatives + diffusion coefficient.
    runtime::parallel_launch(grid, block, [&](const gpu::ThreadCtx& tc) {
      const std::size_t c = tc.global_x();
      const std::size_t r = tc.global_y();
      if (r >= rows || c >= cols) return;
      const std::size_t rn = r > 0 ? r - 1 : r;
      const std::size_t rs = r + 1 < rows ? r + 1 : r;
      const std::size_t cw = c > 0 ? c - 1 : c;
      const std::size_t ce = c + 1 < cols ? c + 1 : c;

      const Real jc = gload(J(r, c));
      const Real n_ = gload(J(rn, c)) - jc;
      const Real s_ = gload(J(rs, c)) - jc;
      const Real w_ = gload(J(r, cw)) - jc;
      const Real e_ = gload(J(r, ce)) - jc;

      const Real inv_jc = rcp(jc);
      const Real g2 = (n_ * n_ + s_ * s_ + w_ * w_ + e_ * e_) *
                      (inv_jc * inv_jc);
      const Real l = (n_ + s_ + w_ + e_) * inv_jc;
      const Real num = half * g2 - sixteenth * (l * l);
      const Real den = one + quarter * l;
      const Real qsqr = num * rcp(den * den);
      const Real den2 = (qsqr - q0sqr) * rcp(q0_den);
      Real cc = rcp(one + den2);
      if (cc < Real(0.0f)) cc = Real(0.0f);
      if (cc > one) cc = one;

      gstore(dN(r, c), n_);
      gstore(dS(r, c), s_);
      gstore(dW(r, c), w_);
      gstore(dE(r, c), e_);
      gstore(coef(r, c), cc);
    });

    // Kernel 2: divergence update.
    runtime::parallel_launch(grid, block, [&](const gpu::ThreadCtx& tc) {
      const std::size_t c = tc.global_x();
      const std::size_t r = tc.global_y();
      if (r >= rows || c >= cols) return;
      const std::size_t rs = r + 1 < rows ? r + 1 : r;
      const std::size_t ce = c + 1 < cols ? c + 1 : c;

      const Real cn = gload(coef(r, c));
      const Real cs = gload(coef(rs, c));
      const Real cw = gload(coef(r, c));
      const Real ce_ = gload(coef(r, ce));
      const Real d = cn * gload(dN(r, c)) + cs * gload(dS(r, c)) +
                     cw * gload(dW(r, c)) + ce_ * gload(dE(r, c));
      const Real jc = gload(J(r, c));
      gstore(J(r, c), jc + lambda_q * d);
    });
  }

  common::GridF out(rows, cols);
  for (std::size_t i = 0; i < out.size(); ++i)
    out.data()[i] = static_cast<float>(J.data()[i]);
  return out;
}

common::GridF run_srad_batched(const SradParams& p, const common::GridF& image) {
  auto* ctx = gpu::FpContext::current();
  if (ctx != nullptr && ctx->config().screened()) {
    return run_srad<gpu::SimFloat>(p, image);  // see run_hotspot_batched
  }

  const std::size_t rows = p.rows, cols = p.cols, w = cols;
  common::GridF J = image;
  common::GridF dN(rows, cols), dS(rows, cols), dW(rows, cols), dE(rows, cols),
      coef(rows, cols);

  const float half = 0.5f, quarter = 0.25f, sixteenth = 1.0f / 16.0f,
              one = 1.0f;
  const float lambda_q = static_cast<float>(0.25 * p.lambda);
  constexpr std::uint64_t kRowChunk = 8;

  for (int it = 0; it < p.iterations; ++it) {
    double sum = 0.0, sum2 = 0.0;
    std::size_t n = 0;
    for (std::size_t r = p.roi_r0; r < p.roi_r1; ++r)
      for (std::size_t c = p.roi_c0; c < p.roi_c1; ++c) {
        const double v = static_cast<double>(J(r, c));
        sum += v;
        sum2 += v * v;
        ++n;
      }
    const double mean = sum / static_cast<double>(n);
    const double var = sum2 / static_cast<double>(n) - mean * mean;
    const float q0sqr = static_cast<float>(var / (mean * mean));
    const float q0_den = static_cast<float>(
        (var / (mean * mean)) * (1.0 + var / (mean * mean)));

    // Kernel 1: directional derivatives + diffusion coefficient, row spans.
    runtime::batch_apply(rows, kRowChunk, [&](std::uint64_t r0,
                                              std::uint64_t r1) {
      common::AlignedVector<float> wbuf(w), ebuf(w), inv(w), g2(w), l(w),
          t0(w), t1(w), acc(w);
      for (std::uint64_t r = r0; r < r1; ++r) {
        const std::size_t rn = r > 0 ? r - 1 : r;
        const std::size_t rs = r + 1 < rows ? r + 1 : r;
        const float* jc = &J(r, 0);
        wbuf[0] = jc[0];
        std::copy_n(jc, w - 1, wbuf.data() + 1);
        std::copy_n(jc + 1, w - 1, ebuf.data());
        ebuf[w - 1] = jc[w - 1];

        float* n_ = &dN(r, 0);
        float* s_ = &dS(r, 0);
        float* w_ = &dW(r, 0);
        float* e_ = &dE(r, 0);
        gpu::batch_sub(&J(rn, 0), jc, n_, w);
        gpu::batch_sub(&J(rs, 0), jc, s_, w);
        gpu::batch_sub(wbuf.data(), jc, w_, w);
        gpu::batch_sub(ebuf.data(), jc, e_, w);

        gpu::batch_rcp(jc, inv.data(), w);                    // inv_jc
        gpu::batch_mul(n_, n_, acc.data(), w);                // n^2
        gpu::batch_mac(s_, s_, acc.data(), acc.data(), w);    // + s^2
        gpu::batch_mac(w_, w_, acc.data(), acc.data(), w);    // + w^2
        gpu::batch_mac(e_, e_, acc.data(), acc.data(), w);    // + e^2
        gpu::batch_mul(inv.data(), inv.data(), t0.data(), w);  // inv^2
        gpu::batch_mul(acc.data(), t0.data(), g2.data(), w);

        gpu::batch_add(n_, s_, l.data(), w);                  // l
        gpu::batch_add(l.data(), w_, l.data(), w);
        gpu::batch_add(l.data(), e_, l.data(), w);
        gpu::batch_mul(l.data(), inv.data(), l.data(), w);

        gpu::batch_mul_scalar(g2.data(), half, t0.data(), w);  // num
        gpu::batch_mul(l.data(), l.data(), t1.data(), w);
        gpu::batch_mul_scalar(t1.data(), sixteenth, t1.data(), w);
        gpu::batch_sub(t0.data(), t1.data(), t0.data(), w);

        gpu::batch_mul_scalar(l.data(), quarter, t1.data(), w);  // den
        gpu::batch_add_scalar(t1.data(), one, t1.data(), w);

        gpu::batch_mul(t1.data(), t1.data(), t1.data(), w);   // den^2
        gpu::batch_rcp(t1.data(), t1.data(), w);
        gpu::batch_mul(t0.data(), t1.data(), t0.data(), w);   // qsqr

        gpu::batch_sub_scalar(t0.data(), q0sqr, t0.data(), w);  // den2
        gpu::batch_rcp_scalar(q0_den, t1.data(), w);
        gpu::batch_mul(t0.data(), t1.data(), t0.data(), w);

        gpu::batch_add_scalar(t0.data(), one, t0.data(), w);  // cc
        gpu::batch_rcp(t0.data(), t0.data(), w);
        float* cc = &coef(r, 0);
        for (std::size_t c = 0; c < w; ++c) {
          float v = t0[c];
          if (v < 0.0f) v = 0.0f;
          if (v > one) v = one;
          cc[c] = v;
        }
        gpu::count_mem(5 * w, 5 * w);
        gpu::count_int_ops(10 * w);
      }
    });

    // Kernel 2: divergence update, in-place row spans over J.
    runtime::batch_apply(rows, kRowChunk, [&](std::uint64_t r0,
                                              std::uint64_t r1) {
      common::AlignedVector<float> ebuf(w), d(w);
      for (std::uint64_t r = r0; r < r1; ++r) {
        const std::size_t rs = r + 1 < rows ? r + 1 : r;
        const float* cn = &coef(r, 0);  // cw loads the same word (Rodinia)
        const float* cs = &coef(rs, 0);
        std::copy_n(cn + 1, w - 1, ebuf.data());
        ebuf[w - 1] = cn[w - 1];

        gpu::batch_mul(cn, &dN(r, 0), d.data(), w);
        gpu::batch_mac(cs, &dS(r, 0), d.data(), d.data(), w);
        gpu::batch_mac(cn, &dW(r, 0), d.data(), d.data(), w);
        gpu::batch_mac(ebuf.data(), &dE(r, 0), d.data(), d.data(), w);
        gpu::batch_mac_scalar(d.data(), lambda_q, &J(r, 0), &J(r, 0), w);
        gpu::count_mem(9 * w, w);
        gpu::count_int_ops(10 * w);
      }
    });
  }
  return J;
}

double srad_pratt_fom(const common::GridF& despeckled,
                      const quality::PrattReference& ideal_edges) {
  const auto edges = quality::sobel_edges(despeckled, 0.22);
  return quality::pratt_fom(ideal_edges, edges);
}

template common::GridF run_srad<float>(const SradParams&, const common::GridF&);
template common::GridF run_srad<gpu::SimFloat>(const SradParams&,
                                               const common::GridF&);

}  // namespace ihw::apps
