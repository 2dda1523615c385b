#include "apps/hotspot.h"

#include <algorithm>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "gpu/batch.h"
#include "ihw/simd/isa.h"
#include "runtime/parallel.h"

namespace ihw::apps {
namespace {

using gpu::gload;
using gpu::gstore;
using gpu::rcp;

// Rodinia's RC model of one grid cell, derived in double on the host, and
// the simulation's time step (precision over the largest slope).
struct RcModel {
  double cap, rx, ry, rz, step;
};

RcModel rc_model(const HotspotParams& p) {
  const double grid_h = p.chip_height / static_cast<double>(p.rows);
  const double grid_w = p.chip_width / static_cast<double>(p.cols);
  return {p.factor_chip * p.spec_heat * p.t_chip * grid_h * grid_w,
          grid_w / (2.0 * p.k_si * p.t_chip * grid_h),
          grid_h / (2.0 * p.k_si * p.t_chip * grid_w),
          p.t_chip / (p.k_si * grid_h * grid_w),
          p.precision / (p.max_pd / (p.factor_chip * p.t_chip * p.spec_heat))};
}

}  // namespace

HotspotInput make_hotspot_input(const HotspotParams& p, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  HotspotInput in;
  in.temp = common::GridF(p.rows, p.cols,
                          static_cast<float>(p.amb_temp) + 236.0f);  // ~316 K
  in.power = common::GridF(p.rows, p.cols, 0.0f);

  // A floorplan-like power map: background logic plus a handful of hot
  // functional blocks (FPUs, register files...) at random placements.
  // Densities are scaled so the steady-state field lands in the 320-350 K
  // band of Rodinia's shipped temp_512 input.
  for (auto& v : in.power) v = 0.001f + 0.001f * rng.uniformf();
  const int blocks = 12;
  for (int b = 0; b < blocks; ++b) {
    // Block extents scale with (and never exceed) the grid.
    const std::size_t h = std::min(
        p.rows, 24 + static_cast<std::size_t>(rng.uniform(0, 64)));
    const std::size_t w = std::min(
        p.cols, 24 + static_cast<std::size_t>(rng.uniform(0, 64)));
    const std::size_t r0 = static_cast<std::size_t>(
        rng.uniform(0, static_cast<double>(p.rows - h)));
    const std::size_t c0 = static_cast<std::size_t>(
        rng.uniform(0, static_cast<double>(p.cols - w)));
    const float density = 0.008f + 0.012f * rng.uniformf();
    for (std::size_t r = r0; r < r0 + h; ++r)
      for (std::size_t c = c0; c < c0 + w; ++c) in.power(r, c) += density;
  }

  // Rodinia ships steady-state temperature inputs (temp_512 matches
  // power_512), so the benchmark measures equilibrium tracking rather than
  // a cold-start transient. Reproduce that: relax the field to (near)
  // steady state with a plain double-precision solver before handing it out.
  if (!p.steady_init) return in;
  const std::vector<double> t = relax_to_steady_state(p, in);
  std::copy(t.begin(), t.end(), in.temp.begin());
  return in;
}

RelaxModel relax_model(const HotspotParams& p) {
  const RcModel m = rc_model(p);
  // Largest stable explicit step (the lateral conductances dominate).
  const double step = 0.9 * m.cap / (2.0 / m.rx + 2.0 / m.ry + 1.0 / m.rz);
  return {step / m.cap, p.amb_temp + 236.0, m.rx, m.ry, m.rz};
}

void relax_row(const RelaxModel& k, const double* row, const double* north,
               const double* south, const float* power, double* out,
               std::size_t cols) {
  if (cols == 0) return;
  const std::size_t last = cols - 1;
  // Cell c with west and east neighbours at w and e.
  const auto cell = [&](std::size_t c, std::size_t w, std::size_t e) {
    const double tc = row[c];
    out[c] = tc + k.sdc * (double{power[c]} +
                           (north[c] + south[c] - 2.0 * tc) / k.ry +
                           (row[w] + row[e] - 2.0 * tc) / k.rx +
                           (k.amb - tc) / k.rz);
  };
  // Edge columns replicate the centre cell for their missing neighbour.
  cell(0, 0, std::min<std::size_t>(1, last));
  if (last > 1) {
    if (auto* kernel = simd::kernels().relax_row_f64)
      kernel(row + 1, north + 1, south + 1, power + 1, out + 1, last - 1,
             k.sdc, k.amb, k.rx, k.ry, k.rz);
    else
      for (std::size_t c = 1; c < last; ++c) cell(c, c - 1, c + 1);
  }
  if (last > 0) cell(last, last - 1, last);
}

std::vector<double> relax_to_steady_state(const HotspotParams& p,
                                          const HotspotInput& in) {
  const RelaxModel k = relax_model(p);
  std::vector<double> t(in.temp.begin(), in.temp.end());
  if (t.empty()) return t;
  std::vector<double> tn(t.size());
  const std::size_t rows = p.rows, cols = p.cols;
  for (int it = 0; it < 3000; ++it) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row = t.data() + r * cols;
      relax_row(k, row, r > 0 ? row - cols : row,
                r + 1 < rows ? row + cols : row, &in.power(r, 0),
                tn.data() + r * cols, cols);
    }
    t.swap(tn);
  }
  return t;
}

template <typename Real>
common::GridF run_hotspot(const HotspotParams& p, const HotspotInput& input) {
  const std::size_t rows = p.rows, cols = p.cols;

  // Host-side (precise) derivation of the Rodinia simulation constants.
  const RcModel m = rc_model(p);
  const Real step_div_cap = Real(static_cast<float>(m.step / m.cap));
  const Real rx_r = Real(static_cast<float>(m.rx));
  const Real ry_r = Real(static_cast<float>(m.ry));
  const Real rz_r = Real(static_cast<float>(m.rz));
  const Real amb = Real(static_cast<float>(p.amb_temp) + 236.0f);
  const Real two = Real(2.0f);

  common::Grid<Real> t(rows, cols), t_next(rows, cols), pow_in(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = Real(input.temp.data()[i]);
    pow_in.data()[i] = Real(input.power.data()[i]);
  }
  // Rodinia divides by the thermal resistances inside the kernel; with
  // fast-math (the Fermi default for this benchmark) nvcc emits rcp + mul,
  // which is what routes this work through the imprecise reciprocal SFU.
  const gpu::Dim3 block(16, 16);
  const gpu::Dim3 grid(static_cast<unsigned>((cols + 15) / 16),
                       static_cast<unsigned>((rows + 15) / 16));

  for (int it = 0; it < p.iterations; ++it) {
    runtime::parallel_launch(grid, block, [&](const gpu::ThreadCtx& tc) {
      const std::size_t c = tc.global_x();
      const std::size_t r = tc.global_y();
      if (r >= rows || c >= cols) return;
      // Neighbour fetch with replicated boundary (Rodinia's behaviour).
      const std::size_t rn = r > 0 ? r - 1 : r;
      const std::size_t rs = r + 1 < rows ? r + 1 : r;
      const std::size_t cw = c > 0 ? c - 1 : c;
      const std::size_t ce = c + 1 < cols ? c + 1 : c;

      const Real tc_ = gload(t(r, c));
      const Real tn = gload(t(rn, c));
      const Real ts = gload(t(rs, c));
      const Real tw = gload(t(r, cw));
      const Real te = gload(t(r, ce));
      const Real pw = gload(pow_in(r, c));

      const Real two_t = two * tc_;
      const Real vert = (tn + ts - two_t) * rcp(ry_r);
      const Real horiz = (tw + te - two_t) * rcp(rx_r);
      const Real sink = (amb - tc_) * rcp(rz_r);
      const Real delta = step_div_cap * (pw + vert + horiz + sink);
      gstore(t_next(r, c), tc_ + delta);
    });
    std::swap(t, t_next);
  }

  common::GridF out(rows, cols);
  for (std::size_t i = 0; i < out.size(); ++i)
    out.data()[i] = static_cast<float>(t.data()[i]);
  return out;
}

common::GridF run_hotspot_batched(const HotspotParams& p,
                                  const HotspotInput& input) {
  auto* ctx = gpu::FpContext::current();
  if (ctx != nullptr && ctx->config().screened()) {
    // Fault injection or guard screening consumes per-op (epoch, op index)
    // labels whose order depends on kernel shape; route through the scalar
    // reference so those runs stay bit-identical to it (DESIGN.md §10).
    return run_hotspot<gpu::SimFloat>(p, input);
  }

  const std::size_t rows = p.rows, cols = p.cols;
  const RcModel m = rc_model(p);
  const float sdc = static_cast<float>(m.step / m.cap);
  const float rx_f = static_cast<float>(m.rx);
  const float ry_f = static_cast<float>(m.ry);
  const float rz_f = static_cast<float>(m.rz);
  const float amb = static_cast<float>(p.amb_temp) + 236.0f;
  const float two = 2.0f;

  common::GridF t = input.temp, t_next(rows, cols);
  const common::GridF& pow_in = input.power;

  constexpr std::uint64_t kRowChunk = 8;  // rows per epoch
  for (int it = 0; it < p.iterations; ++it) {
    runtime::batch_apply(rows, kRowChunk, [&](std::uint64_t r0,
                                              std::uint64_t r1) {
      const std::size_t w = cols;
      common::AlignedVector<float> wbuf(w), ebuf(w), two_t(w), rcpv(w), sum(w),
          vert(w), horiz(w), sink(w);
      for (std::uint64_t r = r0; r < r1; ++r) {
        const std::size_t rn = r > 0 ? r - 1 : r;
        const std::size_t rs = r + 1 < rows ? r + 1 : r;
        const float* tc = &t(r, 0);
        const float* tn = &t(rn, 0);
        const float* ts = &t(rs, 0);
        const float* pw = &pow_in(r, 0);
        float* out = &t_next(r, 0);
        // Shifted neighbour rows with replicated boundary (the gload
        // traffic itself is annotated below; the copies are host moves).
        wbuf[0] = tc[0];
        std::copy_n(tc, w - 1, wbuf.data() + 1);
        std::copy_n(tc + 1, w - 1, ebuf.data());
        ebuf[w - 1] = tc[w - 1];

        // Same per-element operation dag as the scalar kernel, span-wise.
        gpu::batch_mul_scalar(tc, two, two_t.data(), w);     // two * tc
        gpu::batch_add(tn, ts, sum.data(), w);               // tn + ts
        gpu::batch_sub(sum.data(), two_t.data(), sum.data(), w);
        gpu::batch_rcp_scalar(ry_f, rcpv.data(), w);         // rcp(ry)
        gpu::batch_mul(sum.data(), rcpv.data(), vert.data(), w);
        gpu::batch_add(wbuf.data(), ebuf.data(), sum.data(), w);  // tw + te
        gpu::batch_sub(sum.data(), two_t.data(), sum.data(), w);
        gpu::batch_rcp_scalar(rx_f, rcpv.data(), w);         // rcp(rx)
        gpu::batch_mul(sum.data(), rcpv.data(), horiz.data(), w);
        gpu::batch_scalar_sub(amb, tc, sink.data(), w);      // amb - tc
        gpu::batch_rcp_scalar(rz_f, rcpv.data(), w);         // rcp(rz)
        gpu::batch_mul(sink.data(), rcpv.data(), sink.data(), w);
        gpu::batch_add(pw, vert.data(), sum.data(), w);      // pw + vert
        gpu::batch_add(sum.data(), horiz.data(), sum.data(), w);
        gpu::batch_add(sum.data(), sink.data(), sum.data(), w);
        gpu::batch_mac_scalar(sum.data(), sdc, tc, out, w);  // tc + sdc * delta
        gpu::count_mem(6 * w, w);      // 5 stencil + 1 power load, 1 store
        gpu::count_int_ops(7 * w);     // address arithmetic (6 gload+1 gstore)
      }
    });
    std::swap(t, t_next);
  }
  return t;
}

template common::GridF run_hotspot<float>(const HotspotParams&,
                                          const HotspotInput&);
template common::GridF run_hotspot<gpu::SimFloat>(const HotspotParams&,
                                                  const HotspotInput&);

}  // namespace ihw::apps
