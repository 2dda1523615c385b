#pragma once
// The op table: one compile-time row per floating-point operation class,
// the software form of the per-unit enable knob the paper added to
// GPGPU-Sim (Ch. 5.1). A row holds the class's arity, enable predicate,
// precise (host IEEE-754) fallback, imprecise scalar and span entry points,
// fault UnitClass and PerfCounters class(es); FpDispatch, GuardedDispatch,
// gpu::batch and SimReal each keep one body templated on Op that reads them
// (DESIGN.md §10). Fma and Mac are the composite (`unfused`) rows: with their
// fused unit off they run the configured mul unit, then the add unit.
#include <cmath>
#include <cstddef>

#include "fault/spec.h"
#include "gpu/counters.h"
#include "ihw/batch.h"
#include "ihw/config.h"

namespace ihw {

enum class Op { Add, Sub, Mul, Div, Rcp, Rsqrt, Sqrt, Log2, Exp2, Fma, Mac };
inline constexpr int kNumOps = static_cast<int>(Op::Mac) + 1;

/// TH of the imprecise adder with TH < 1 clamped to 1. The adder units and
/// spans clamp TH themselves (lanes::add_th); the fused mac kernels read
/// th < 1 as a precise accumulate (the GEMM accumulator policies rely on
/// that), so the Mac row clamps before it calls them.
inline int add_th(const IhwConfig& c) { return c.add_th < 1 ? 1 : c.add_th; }

template <Op O> struct OpRow;

/// The shape of a one-unit row; `On` is the unit's enable flag (Mul, whose
/// knob is a MulMode, defines its own `enabled`).
template <int Arity, bool IhwConfig::*On, fault::UnitClass U, gpu::OpClass C,
          bool Unfused = false>
struct OpUnit {
  static constexpr int arity = Arity;
  static constexpr fault::UnitClass unit = U;
  static constexpr gpu::OpClass counters[] = {C};
  static constexpr bool unfused = Unfused;
  static bool enabled(const IhwConfig& c) { return c.*On; }
  using Cfg = const IhwConfig&;
};

template <>
struct OpRow<Op::Add> : OpUnit<2, &IhwConfig::add_enabled,
                               fault::UnitClass::Add, gpu::OpClass::FAdd> {
  template <typename T> static T precise(T a, T b) { return a + b; }
  template <typename T>
  static T imprecise(Cfg c, T a, T b) { return ifp_add(a, b, c.add_th); }
  template <typename T>
  static void imprecise_n(Cfg c, T* o, std::size_t n, const T* a, const T* b) {
    batch::ifp_add_n(a, b, o, n, c.add_th);
  }
};

template <>
struct OpRow<Op::Sub> : OpUnit<2, &IhwConfig::add_enabled,
                               fault::UnitClass::Add, gpu::OpClass::FAdd> {
  template <typename T> static T precise(T a, T b) { return a - b; }
  template <typename T>
  static T imprecise(Cfg c, T a, T b) { return ifp_sub(a, b, c.add_th); }
  template <typename T>
  static void imprecise_n(Cfg c, T* o, std::size_t n, const T* a, const T* b) {
    batch::ifp_sub_n(a, b, o, n, c.add_th);
  }
};

/// The multiplier: MulMode picks the datapath, mul_trunc its truncation.
template <>
struct OpRow<Op::Mul> : OpUnit<2, nullptr, fault::UnitClass::Mul, gpu::OpClass::FMul> {
  static bool enabled(Cfg c) { return c.mul_imprecise(); }
  template <typename T> static T precise(T a, T b) { return a * b; }
  template <typename T>
  static T imprecise(Cfg c, T a, T b) {
    const int tr = c.mul_trunc;
    switch (c.mul_mode) {
      case MulMode::ImpreciseSimple: return ifp_mul(a, b);
      case MulMode::MitchellLog: return acfp_mul(a, b, AcfpPath::Log, tr);
      case MulMode::MitchellFull: return acfp_mul(a, b, AcfpPath::Full, tr);
      case MulMode::BitTruncated: return trunc_mul(a, b, tr);
      case MulMode::Precise: break;
    }
    return a * b;
  }
  template <typename T>
  static void imprecise_n(Cfg c, T* o, std::size_t n, const T* a, const T* b) {
    const int tr = c.mul_trunc;
    switch (c.mul_mode) {
      case MulMode::ImpreciseSimple: return batch::ifp_mul_n(a, b, o, n);
      case MulMode::MitchellLog: return batch::acfp_mul_n(a, b, o, n, AcfpPath::Log, tr);
      case MulMode::MitchellFull: return batch::acfp_mul_n(a, b, o, n, AcfpPath::Full, tr);
      case MulMode::BitTruncated: return batch::trunc_mul_n(a, b, o, n, tr);
      case MulMode::Precise: break;
    }
  }
};

template <>
struct OpRow<Op::Div> : OpUnit<2, &IhwConfig::div_enabled,
                               fault::UnitClass::Div, gpu::OpClass::FDiv> {
  template <typename T> static T precise(T a, T b) { return a / b; }
  template <typename T> static T imprecise(Cfg, T a, T b) { return ifp_div(a, b); }
  template <typename T>
  static void imprecise_n(Cfg, T* o, std::size_t n, const T* a, const T* b) {
    batch::ifp_div_n(a, b, o, n);
  }
};

template <>
struct OpRow<Op::Rcp> : OpUnit<1, &IhwConfig::rcp_enabled,
                               fault::UnitClass::Rcp, gpu::OpClass::FRcp> {
  template <typename T> static T precise(T x) { return T(1) / x; }
  template <typename T> static T imprecise(Cfg, T x) { return ircp(x); }
  template <typename T>
  static void imprecise_n(Cfg, T* o, std::size_t n, const T* x) { batch::ircp_n(x, o, n); }
};

template <>
struct OpRow<Op::Rsqrt> : OpUnit<1, &IhwConfig::rsqrt_enabled,
                                 fault::UnitClass::Rsqrt, gpu::OpClass::FRsqrt> {
  template <typename T> static T precise(T x) { return T(1) / std::sqrt(x); }
  template <typename T> static T imprecise(Cfg, T x) { return irsqrt(x); }
  template <typename T>
  static void imprecise_n(Cfg, T* o, std::size_t n, const T* x) { batch::irsqrt_n(x, o, n); }
};

template <>
struct OpRow<Op::Sqrt> : OpUnit<1, &IhwConfig::sqrt_enabled,
                                fault::UnitClass::Sqrt, gpu::OpClass::FSqrt> {
  template <typename T> static T precise(T x) { return std::sqrt(x); }
  template <typename T> static T imprecise(Cfg, T x) { return isqrt(x); }
  template <typename T>
  static void imprecise_n(Cfg, T* o, std::size_t n, const T* x) { batch::isqrt_n(x, o, n); }
};

template <>
struct OpRow<Op::Log2> : OpUnit<1, &IhwConfig::log2_enabled,
                                fault::UnitClass::Log2, gpu::OpClass::FLog2> {
  template <typename T> static T precise(T x) { return std::log2(x); }
  template <typename T> static T imprecise(Cfg, T x) { return ilog2(x); }
  template <typename T>
  static void imprecise_n(Cfg, T* o, std::size_t n, const T* x) { batch::ilog2_n(x, o, n); }
};

/// exp2 counts in the FLog2 class: the ex2 unit shares the SFU's log stage,
/// and PerfCounters has one transcendental class.
template <>
struct OpRow<Op::Exp2> : OpUnit<1, &IhwConfig::exp2_enabled,
                                fault::UnitClass::Exp2, gpu::OpClass::FLog2> {
  template <typename T> static T precise(T x) { return std::exp2(x); }
  template <typename T> static T imprecise(Cfg, T x) { return iexp2(x); }
  template <typename T>
  static void imprecise_n(Cfg, T* o, std::size_t n, const T* x) { batch::iexp2_n(x, o, n); }
};

/// The fused imprecise multiply-add unit.
template <>
struct OpRow<Op::Fma> : OpUnit<3, &IhwConfig::fma_enabled, fault::UnitClass::Fma,
                               gpu::OpClass::FFma, /*Unfused=*/true> {
  template <typename T> static T precise(T a, T b, T c) { return a * b + c; }
  template <typename T>
  static T imprecise(Cfg g, T a, T b, T c) { return ifp_fma(a, b, c, g.add_th); }
  template <typename T>
  static void imprecise_n(Cfg g, T* o, std::size_t n, const T* a, const T* b, const T* c) {
    batch::ifp_fma_n(a, b, c, o, n, g.add_th);
  }
};

/// add(mul(a, b), c) through the mul unit, then the add unit: two ops, two
/// fault classes, two counters. With both units imprecise the span runs the
/// fused *_mac_n kernel of the configured multiplier.
template <>
struct OpRow<Op::Mac> {
  using Cfg = const IhwConfig&;
  static constexpr int arity = 3;
  static constexpr gpu::OpClass counters[] = {gpu::OpClass::FMul, gpu::OpClass::FAdd};
  static constexpr bool unfused = true;
  static bool enabled(Cfg g) { return g.add_enabled && g.mul_imprecise(); }
  template <typename T>
  static T precise(T a, T b, T c) { return static_cast<T>(static_cast<T>(a * b) + c); }
  template <typename T>
  static T imprecise(Cfg g, T a, T b, T c) {
    return OpRow<Op::Add>::imprecise(g, OpRow<Op::Mul>::imprecise(g, a, b), c);
  }
  template <typename T>
  static void imprecise_n(Cfg g, T* o, std::size_t n, const T* a, const T* b, const T* c) {
    const int tr = g.mul_trunc, th = add_th(g);
    switch (g.mul_mode) {
      case MulMode::ImpreciseSimple: return batch::ifp_mac_n(a, b, c, o, n, th);
      case MulMode::MitchellLog:
        return batch::acfp_mac_n(a, b, c, o, n, AcfpPath::Log, tr, th);
      case MulMode::MitchellFull:
        return batch::acfp_mac_n(a, b, c, o, n, AcfpPath::Full, tr, th);
      case MulMode::BitTruncated: return batch::trunc_mac_n(a, b, c, o, n, tr, th);
      case MulMode::Precise: break;  // not enabled: the Mac row never runs it
    }
  }
};

}  // namespace ihw
