#pragma once
// HotSpot (Skadron et al., Rodinia port): iterative thermal simulation of a
// processor floorplan. Each step solves the finite-difference form of the
// heat differential equation on a rows x cols grid of architectural blocks.
// The GPU kernel follows Rodinia's hotspot.cu with fast-math division
// (rcp + mul, as nvcc emits for Fermi), which is what routes SFU work
// through the imprecise reciprocal.
#include <cstdint>
#include <vector>

#include "common/image.h"
#include "gpu/simreal.h"
#include "gpu/simt.h"

namespace ihw::apps {

struct HotspotParams {
  std::size_t rows = 512;
  std::size_t cols = 512;
  int iterations = 60;
  /// Relax the initial field to steady state (Rodinia ships equilibrated
  /// temp_512 inputs). Disable for cold-start transient studies (Fig. 19).
  bool steady_init = true;

  // Rodinia's physical constants.
  double t_chip = 0.0005;      // chip thickness (m)
  double chip_height = 0.016;  // m
  double chip_width = 0.016;   // m
  double k_si = 100.0;         // silicon thermal conductivity
  double spec_heat = 1.75e6;   // silicon specific heat
  double factor_chip = 0.5;
  double amb_temp = 80.0;      // Kelvin offset used by Rodinia
  double max_pd = 3.0e6;       // max power density
  double precision = 0.001;
};

struct HotspotInput {
  common::GridF temp;   // initial temperature field
  common::GridF power;  // per-block power density
};

/// Generates a floorplan-like power map (a few hot blocks on a cool
/// background) and an ambient initial temperature field.
HotspotInput make_hotspot_input(const HotspotParams& p, std::uint64_t seed);

/// The constants of one cell of the steady-state relaxation: tc + sdc * (pw
/// + (tN + tS - 2 tc) / ry + (tW + tE - 2 tc) / rx + (amb - tc) / rz), with
/// the largest stable explicit step folded into sdc.
struct RelaxModel {
  double sdc, amb, rx, ry, rz;
};
RelaxModel relax_model(const HotspotParams& p);

/// One row of one relaxation sweep: all `cols` cells of `out` from the
/// centre row, its north and south rows (the row itself at the grid's edge)
/// and its power row; the edge columns replicate the centre cell for their
/// missing neighbour. The interior runs through the active KernelTable's
/// relax_row_f64 when it has one and through a per-cell divide loop
/// otherwise, with the same bits (DESIGN.md §10).
void relax_row(const RelaxModel& k, const double* row, const double* north,
               const double* south, const float* power, double* out,
               std::size_t cols);

/// The double-precision steady-state field that make_hotspot_input relaxes
/// `in.temp` to when p.steady_init is set, before rounding it to float.
/// Tests pin it bit for bit: the float rounding hides last-bit changes.
std::vector<double> relax_to_steady_state(const HotspotParams& p,
                                          const HotspotInput& in);

/// Runs `p.iterations` simulation steps with the scalar type Real (float for
/// a plain reference, gpu::SimFloat to execute on the instrumented SIMT
/// simulator under the active FpContext). Returns the final temperatures.
template <typename Real>
common::GridF run_hotspot(const HotspotParams& p, const HotspotInput& input);

/// Batched SoA port of run_hotspot: row-span sweeps through the gpu/batch.h
/// fast path (config resolved once per span, branch-free vector-friendly
/// unit kernels, counters bumped per span). Under an active FpContext with
/// no fault/guard screening this is bit-identical to run_hotspot<SimFloat>
/// in both outputs and PerfCounters; with screening active it delegates to
/// the scalar path so per-op fault draws stay bit-identical too. Without a
/// context it matches run_hotspot<float>.
common::GridF run_hotspot_batched(const HotspotParams& p,
                                  const HotspotInput& input);

extern template common::GridF run_hotspot<float>(const HotspotParams&,
                                                 const HotspotInput&);
extern template common::GridF run_hotspot<gpu::SimFloat>(const HotspotParams&,
                                                         const HotspotInput&);

}  // namespace ihw::apps
