#pragma once
// Pratt's figure of merit for binary edge maps (Pinho & Almeida's figures of
// merit paper, as used for the SRAD segmentation study of Fig. 16):
//
//   FOM = 1/max(N_ideal, N_detected) * sum_i 1 / (1 + alpha * d_i^2)
//
// where d_i is the Euclidean distance from detected edge pixel i to the
// nearest ideal edge pixel and alpha = 1/9. FOM in (0, 1], 1 = perfect.
#include "common/image.h"

namespace ihw::quality {

/// Binary edge map: nonzero = edge pixel.
using EdgeMap = common::Grid<std::uint8_t>;

/// The ideal side of Pratt's FOM, built once per ideal map so that scoring
/// many detected maps against it does not recompute the distance transform.
class PrattReference {
 public:
  /// An empty 0x0 reference (no edges).
  PrattReference() = default;
  explicit PrattReference(EdgeMap ideal);

  const EdgeMap& ideal() const { return ideal_; }
  /// distance_transform(ideal()).
  const common::GridF& distance() const { return distance_; }
  std::size_t edge_count() const { return edge_count_; }

 private:
  EdgeMap ideal_;
  common::GridF distance_;
  std::size_t edge_count_ = 0;
};

/// Pratt's figure of merit of `detected` against the reference's ideal map.
/// Both maps empty scores 1; exactly one empty scores 0.
double pratt_fom(const PrattReference& ref, const EdgeMap& detected,
                 double alpha = 1.0 / 9.0);

/// Exact Euclidean distance transform (Felzenszwalb & Huttenlocher):
/// distance from each pixel to the nearest nonzero pixel of `mask`.
common::GridF distance_transform(const EdgeMap& mask);

/// Sobel gradient-magnitude edge detector with a relative threshold in
/// (0,1): pixels whose magnitude exceeds threshold * max_magnitude are edges.
/// NaN magnitudes neither raise the maximum nor mark an edge.
EdgeMap sobel_edges(const common::GridF& img, double rel_threshold = 0.25);

}  // namespace ihw::quality
