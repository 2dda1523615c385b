#include "power/nfm.h"

#include <cmath>

#include "arith/datapath.h"
#include "ihw/op.h"

namespace ihw::power {
namespace {

// ---------------------------------------------------------------------------
// DesignWare (IEEE-754 compliant) absolute operating points, 45 nm.
// DW_fp_mult numbers are the paper's own (Table 4); the rest are assumptions
// consistent with a 45 nm standard-cell flow at GPU pipeline speeds. Only the
// multiplier absolutes are load-bearing -- the Fig. 12 system estimator works
// on per-op *ratios* weighted by the application op mix.
// ---------------------------------------------------------------------------
constexpr double kDwPower[kNumOpKinds] = {
    /*FAdd*/ 18.0,  /*FMul*/ 36.63, /*FFma*/ 45.0, /*FDiv*/ 65.0,
    /*FRcp*/ 27.0,  /*FRsqrt*/ 30.0, /*FSqrt*/ 32.0, /*FLog2*/ 24.0,
    /*IAdd*/ 0.24,  /*IMul*/ 8.50};
constexpr double kDwLatency[kNumOpKinds] = {
    1.40, 1.70, 2.10, 3.20, 2.20, 2.40, 2.60, 2.20, 0.31, 0.93};

// Table 2 normalized metrics of the proposed 32-bit IHW components
// (IHW / DWIP, lower is better). Order matches OpKind.
constexpr double kIhwPowerRatio[kNumOpKinds] = {
    /*ifpadd*/ 0.31, /*ifpmul*/ 0.040, /*ifma*/ 0.08, /*ifpdiv*/ 0.84,
    /*ircp*/ 0.20,   /*irsqrt*/ 0.061, /*isqrt*/ 1.16, /*ilog2*/ 0.30,
    /*int*/ 1.0,     1.0};
constexpr double kIhwLatencyRatio[kNumOpKinds] = {
    0.74, 0.218, 0.70, 0.85, 0.34, 0.109, 0.33, 0.79, 1.0, 1.0};
constexpr double kIhwAreaRatio[kNumOpKinds] = {
    0.39, 0.103, 0.14, 0.64, 0.25, 0.087, 1.04, 0.36, 1.0, 1.0};

// ---------------------------------------------------------------------------
// Multiplier-family power curves, fitted through the published anchors:
//   32-bit: DW 36.63 mW; full path tr0 17.93 mW (Table 4); log path ~26X at
//           tr19; simple ifpmul 0.040 * DW (Table 2); bit-truncation
//           saturating at ~2.3X (Ch. 3.2.2).
//   64-bit: DW 119.9 mW; full path tr0 38.17 mW; log path 49X at tr48.
// Structure: every curve is (fixed infrastructure) + (width-scaled array or
// adder term); see DESIGN.md "Substitutions".
// ---------------------------------------------------------------------------
struct MulFamily {
  double dw_power, dw_latency;
  int frac_bits;          // mantissa fraction width
  double bt_fixed;        // IEEE infrastructure the truncation baseline keeps
  double exp_overhead;    // exponent/special/pack logic of the MA designs
  double frac_adder;      // full-width fraction adder of the log path
  double full_scale;      // width-scaled MA + Add1/Add3 logic of the full path
  double ma_latency;      // latency of the single-adder (log/simple) datapath
  double full_latency;    // same-delay full-path latency (Table 4)
};

constexpr MulFamily kMul32{36.63, 1.70, 23, 15.70, 1.225, 0.2304, 16.705,
                           0.371, 1.70};
constexpr MulFamily kMul64{119.9, 2.00, 52, 51.50, 2.400, 0.5090, 35.770,
                           0.436, 2.00};

UnitMetrics mul_metrics(const MulFamily& f, MulMode mode, int trunc) {
  const int fb = f.frac_bits;
  if (trunc < 0) trunc = 0;
  if (trunc > fb) trunc = fb;
  const double frac_kept = static_cast<double>(fb - trunc) / fb;
  switch (mode) {
    case MulMode::Precise:
      return {f.dw_power, f.dw_latency, 1.0};
    case MulMode::ImpreciseSimple: {
      // One (fb+2)-bit carry-save adder plus exponent/pack logic; no
      // rounding, no normalization shifter.
      const double p = f.exp_overhead + f.frac_adder;
      return {p, f.ma_latency, 0.103};
    }
    case MulMode::MitchellLog: {
      const double p = f.exp_overhead + f.frac_adder * frac_kept;
      return {p, f.ma_latency, 0.103 * (0.4 + 0.6 * frac_kept)};
    }
    case MulMode::MitchellFull: {
      // Three adders + priority encoders + alignment shifters; scales
      // slightly super-linearly with active width (the encoders and
      // shifters shrink too).
      const double p = f.exp_overhead + f.full_scale * std::pow(frac_kept, 1.35);
      const double area = (f.exp_overhead + f.full_scale * frac_kept) /
                          (f.exp_overhead + f.full_scale) * 0.42;
      return {p, f.full_latency, area};
    }
    case MulMode::BitTruncated: {
      // Exact array with product columns below 2*trunc removed; the IEEE
      // exponent/normalize/round infrastructure cannot shrink, which is why
      // the reduction saturates (~2.3X) -- the paper's key comparison point.
      const int n = fb + 1;
      const long long total = arith::array_cell_count(n, n, 0);
      const long long kept = arith::array_cell_count(n, n, 2 * trunc);
      const double p = f.bt_fixed + (f.dw_power - f.bt_fixed) *
                                        static_cast<double>(kept) /
                                        static_cast<double>(total);
      return {p, f.dw_latency,
              0.45 + 0.55 * static_cast<double>(kept) / static_cast<double>(total)};
    }
  }
  return {f.dw_power, f.dw_latency, 1.0};
}

}  // namespace

UnitClass unit_class(OpKind op) {
  switch (op) {
    case OpKind::FAdd:
    case OpKind::FMul:
    case OpKind::FFma:
      return UnitClass::FPU;
    case OpKind::FDiv:
    case OpKind::FRcp:
    case OpKind::FRsqrt:
    case OpKind::FSqrt:
    case OpKind::FLog2:
      return UnitClass::SFU;
    default:
      return UnitClass::INT;
  }
}

std::string to_string(OpKind op) {
  switch (op) {
    case OpKind::FAdd: return "fadd";
    case OpKind::FMul: return "fmul";
    case OpKind::FFma: return "ffma";
    case OpKind::FDiv: return "fdiv";
    case OpKind::FRcp: return "frcp";
    case OpKind::FRsqrt: return "frsqrt";
    case OpKind::FSqrt: return "fsqrt";
    case OpKind::FLog2: return "flog2";
    case OpKind::IAdd: return "iadd";
    case OpKind::IMul: return "imul";
    default: return "?";
  }
}

SynthesisDb::SynthesisDb() {
  for (int i = 0; i < kNumOpKinds; ++i) {
    dwip_[i] = {kDwPower[i], kDwLatency[i], 1.0};
    ihw_[i] = {kDwPower[i] * kIhwPowerRatio[i],
               kDwLatency[i] * kIhwLatencyRatio[i], kIhwAreaRatio[i]};
  }
}

UnitMetrics SynthesisDb::dwip(OpKind op) const {
  return dwip_[static_cast<int>(op)];
}

UnitMetrics SynthesisDb::ihw(OpKind op, int add_th) const {
  UnitMetrics m = ihw_[static_cast<int>(op)];
  if (op == OpKind::FAdd && add_th != kDefaultAddTh) {
    // The adder datapath is a TH-bit shifter + (TH+1)-bit adder: power and
    // area scale roughly linearly in TH around the TH=8 anchor.
    const double scale = 0.55 + 0.45 * static_cast<double>(add_th) / 8.0;
    m.power_mw *= scale;
    m.area *= scale;
  }
  return m;
}

UnitMetrics SynthesisDb::multiplier(MulMode mode, int trunc, bool is64) const {
  return mul_metrics(is64 ? kMul64 : kMul32, mode, trunc);
}

UnitMetrics SynthesisDb::for_config(OpKind op, const IhwConfig& cfg) const {
  // A unit is priced as imprecise when its op-table row is enabled.
  const auto priced = [&](bool on) { return on ? ihw(op, add_th(cfg)) : dwip(op); };
  switch (op) {
    case OpKind::FAdd: return priced(OpRow<Op::Add>::enabled(cfg));
    case OpKind::FMul:
      return multiplier(cfg.mul_mode, cfg.mul_trunc, /*is64=*/false);
    case OpKind::FFma: return priced(OpRow<Op::Fma>::enabled(cfg));
    case OpKind::FDiv: return priced(OpRow<Op::Div>::enabled(cfg));
    case OpKind::FRcp: return priced(OpRow<Op::Rcp>::enabled(cfg));
    case OpKind::FRsqrt: return priced(OpRow<Op::Rsqrt>::enabled(cfg));
    case OpKind::FSqrt: return priced(OpRow<Op::Sqrt>::enabled(cfg));
    case OpKind::FLog2: return priced(OpRow<Op::Log2>::enabled(cfg));
    default: return dwip(op);
  }
}

NormalizedNfm normalized(const UnitMetrics& ihw, const UnitMetrics& dwip) {
  return {ihw.power_mw / dwip.power_mw, ihw.latency_ns / dwip.latency_ns,
          ihw.area / dwip.area, ihw.energy_pj() / dwip.energy_pj(),
          ihw.edp() / dwip.edp()};
}

}  // namespace ihw::power
