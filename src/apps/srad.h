#pragma once
// SRAD -- Speckle Reducing Anisotropic Diffusion (Yu & Acton 2002, Rodinia
// port): PDE-based despeckling for ultrasound/radar imagery. Two kernels per
// iteration: (1) directional derivatives + diffusion coefficient from the
// instantaneous coefficient of variation, (2) divergence update. Quality is
// judged as in the original SRAD paper: binary edge maps of the despeckled
// image scored with Pratt's figure of merit against the ideal segmentation.
#include <cstdint>

#include "common/image.h"
#include "gpu/simreal.h"
#include "quality/pratt.h"

namespace ihw::apps {

struct SradParams {
  std::size_t rows = 256;
  std::size_t cols = 256;
  int iterations = 100;
  double lambda = 0.5;
  // Homogeneous region of interest used for the speckle-scale estimate q0.
  std::size_t roi_r0 = 0, roi_r1 = 32, roi_c0 = 0, roi_c1 = 32;
};

struct SradInput {
  common::GridF image;  // speckled intensity image (1..255)
  // Ground-truth segmentation boundary, with its distance transform built
  // once here for every srad_pratt_fom call that scores against it.
  quality::PrattReference ideal_edges;
};

/// Synthesizes an ultrasound-like phantom: dark elliptical cysts on a
/// brighter background, corrupted with multiplicative speckle noise. The
/// ideal edge map traces the true cyst boundaries.
SradInput make_srad_input(const SradParams& p, std::uint64_t seed);

/// make_srad_input(p, seed).image alone, for callers that never score: it
/// skips the ideal map and its distance transform.
common::GridF make_srad_image(const SradParams& p, std::uint64_t seed);

/// An intensity clamped into SRAD's working range [1, 255]. The diffusion
/// takes the reciprocal of every pixel, so one 0 pixel would turn the whole
/// output to NaN; every input image passes its pixels through here.
float srad_intensity(double v);

/// Runs SRAD diffusion; returns the despeckled image.
template <typename Real>
common::GridF run_srad(const SradParams& p, const common::GridF& image);

/// Quality of a despeckled image: its Sobel edge map scored with Pratt's FOM
/// against the input's prebuilt reference.
double srad_pratt_fom(const common::GridF& despeckled,
                      const quality::PrattReference& ideal_edges);

/// Batched SoA port of run_srad: both kernels sweep row spans through the
/// gpu/batch.h fast path. Bit-identical outputs and PerfCounters to
/// run_srad<SimFloat> under an unscreened FpContext; delegates to the scalar
/// path when fault/guard screening is active; matches run_srad<float>
/// without a context.
common::GridF run_srad_batched(const SradParams& p, const common::GridF& image);

extern template common::GridF run_srad<float>(const SradParams&,
                                              const common::GridF&);
extern template common::GridF run_srad<gpu::SimFloat>(const SradParams&,
                                                      const common::GridF&);

}  // namespace ihw::apps
