#pragma once
// Application-level quality metrics over 2-D grids: mean absolute error,
// mean squared error, worst-case error distance, PSNR -- the figures of
// merit used for HotSpot and CP in Ch. 5.
#include "common/image.h"

namespace ihw::quality {

/// Mean absolute error between two same-shaped grids.
double mae(const common::GridF& ref, const common::GridF& test);
/// Mean squared error.
double mse(const common::GridF& ref, const common::GridF& test);
/// Worst-case error distance: max |ref - test|.
double wed(const common::GridF& ref, const common::GridF& test);
/// Peak signal-to-noise ratio in dB for the given dynamic range (0 -> use
/// the reference grid's own range).
double psnr(const common::GridF& ref, const common::GridF& test,
            double peak = 0.0);

}  // namespace ihw::quality
