#pragma once
// Iterative quality-tuning loop (Fig. 10): start from the most aggressive
// IHW configuration, evaluate the application-specific quality metric, and
// back off components in order of their characterized error magnitude until
// the fidelity constraint is met.
#include <functional>
#include <string>
#include <vector>

#include "ihw/config.h"

namespace ihw::quality {

/// Evaluates the application under `cfg` and returns quality (higher=better).
using QualityEval = std::function<double(const ihw::IhwConfig&)>;

struct TuneStep {
  ihw::IhwConfig config;
  double quality = 0.0;
  bool met_constraint = false;
};

struct TuneResult {
  ihw::IhwConfig config;    ///< final accepted configuration
  double quality = 0.0;     ///< its quality
  bool satisfied = false;   ///< constraint achievable at all
  std::vector<TuneStep> history;  ///< every evaluated step, in order
};

/// Runs the tuning loop. The back-off order follows the Ch. 4
/// characterization (largest characterized error magnitude disabled first):
/// rsqrt (11.1%) -> sqrt (11.1%) -> mul (25% / path-dependent) -> log2
/// (unbounded) -> div (5.9%) -> rcp (5.9%) -> fma -> add (0.78%).
/// Returns after the first configuration with quality >= constraint; if even
/// fully precise fails, `satisfied` is false.
TuneResult tune(const QualityEval& eval, double quality_constraint,
                const ihw::IhwConfig& most_aggressive);

/// Tuning under a fault model: every evaluated configuration carries the
/// given FaultConfig and GuardPolicy, so the loop optimizes quality as
/// measured on voltage-overscaled (faulting) hardware with the online guard
/// in whatever state the policy says. The back-off order is unchanged --
/// the loop still converges because degrading a unit to precise also stops
/// its faults (a precise unit runs at nominal voltage).
TuneResult tune(const QualityEval& eval, double quality_constraint,
                const ihw::IhwConfig& most_aggressive,
                const fault::FaultConfig& faults,
                const fault::GuardPolicy& guard);

/// The full candidate ladder tune() walks, pre-materialized: the starting
/// configuration, every distinct back-off step, and the fully precise
/// fallback when the ladder does not already end there. The back-off knobs
/// only inspect configuration state -- never evaluation results -- which is
/// what makes the ladder computable up front. No two entries are equal
/// (DESIGN.md §11: the tuning loop never evaluates the same configuration
/// twice).
std::vector<ihw::IhwConfig> backoff_candidates(
    const ihw::IhwConfig& most_aggressive);

}  // namespace ihw::quality
