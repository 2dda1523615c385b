// Batch bit-identity for the SoA fast path (DESIGN.md §10): every adder and
// multiplier span across its parameter space against the structural
// datapath models, every SFU span against the reference model, every op-table
// row through every layer (values + counters, unscreened and screened), the
// multi-op guarded/faulted screen, runtime::batch_apply across thread
// counts, and the batched app ports against their scalar SimReal
// references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <cmath>
#include <limits>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/cp.h"
#include "apps/hotspot.h"
#include "apps/srad.h"
#include "arith/datapath.h"
#include "bit_patterns.h"
#include "fault/guarded_dispatch.h"
#include "gpu/batch.h"
#include "gpu/context.h"
#include "gpu/simreal.h"
#include "ihw/batch.h"
#include "ihw/dispatch.h"
#include "ihw/op.h"
#include "ihw/simd/isa.h"
#include "runtime/parallel.h"
#include "sfu_reference.h"

namespace ihw {
namespace {

using fault::FaultConfig;
using fault::GuardedDispatch;
using fault::UnitClass;
using gpu::FpContext;
using gpu::OpClass;
using gpu::ScopedContext;
using gpu::SimFloat;
using simd::IsaLevel;
using simd::ScopedIsa;
using test_operands::fuzz_operands;

template <typename T>
bool same_bits(T a, T b) {
  fp::BitsOf<T> x, y;
  std::memcpy(&x, &a, sizeof(T));
  std::memcpy(&y, &b, sizeof(T));
  return x == y;
}

/// Positive operands in a numerically tame range (for SFU / guard paths).
template <typename T>
std::vector<T> positive_operands(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::uniform_int_distribution<int> expo(-6, 6);
  std::vector<T> v(n);
  for (auto& x : v)
    x = static_cast<T>(std::ldexp(mant(rng), expo(rng)));
  return v;
}

/// Bitwise equality, except any-NaN == any-NaN. The imprecise units emit a
/// canonical qNaN (strictly checked by the BatchUnits tests), but the
/// *precise* hardware path propagates whichever operand's payload lands in
/// the destination register -- x86 addss/addps payload selection follows
/// operand allocation, which differs between the out-of-line scalar call and
/// the inlined span loop. C++ does not pin this, so dispatch-level tests use
/// this comparator.
template <typename T>
bool same_value(T a, T b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return same_bits(a, b);
}

constexpr std::size_t kN = 20000;

// --- unit-kernel bit-identity ----------------------------------------------

template <typename T>
void expect_span_matches(const char* what, const std::vector<T>& got,
                         const std::vector<T>& want) {
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " diverges at " << i << ": got " << got[i] << " want "
        << want[i];
}

/// Span against the structural datapath model (arith/datapath), the
/// independent oracle of every adder and multiplier lane.
template <typename T, typename Oracle>
void expect_span_matches_oracle(const char* what, const std::vector<T>& a,
                                const std::vector<T>& b,
                                const std::vector<T>& got, Oracle oracle) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    const T want = oracle(a[i], b[i]);
    ASSERT_TRUE(same_bits(got[i], want))
        << what << " diverges at " << i << ": a=" << a[i] << " b=" << b[i]
        << " got " << got[i] << " want " << want;
  }
}

template <typename T>
void run_adder_sweep() {
  const auto a = fuzz_operands<T>(kN, 1), b = fuzz_operands<T>(kN, 2);
  std::vector<T> out(kN);
  for (int th : {1, 2, 4, 8, 12, 23, 27, 52, 56, 0, -3, 99}) {
    batch::ifp_add_n(a.data(), b.data(), out.data(), kN, th);
    expect_span_matches_oracle("ifp_add_n", a, b, out, [&](T x, T y) {
      return arith::structural_ifp_add(x, y, th);
    });
    batch::ifp_sub_n(a.data(), b.data(), out.data(), kN, th);
    expect_span_matches_oracle("ifp_sub_n", a, b, out, [&](T x, T y) {
      return arith::structural_ifp_add(x, y, th, /*subtract=*/true);
    });
  }
}

TEST(BatchUnits, AdderThSweepFloat) { run_adder_sweep<float>(); }
TEST(BatchUnits, AdderThSweepDouble) { run_adder_sweep<double>(); }

template <typename T>
void run_mul_sweep() {
  const auto a = fuzz_operands<T>(kN, 3), b = fuzz_operands<T>(kN, 4);
  std::vector<T> out(kN);
  batch::ifp_mul_n(a.data(), b.data(), out.data(), kN);
  expect_span_matches_oracle("ifp_mul_n", a, b, out, [](T x, T y) {
    return arith::structural_ifp_mul(x, y);
  });

  for (int tr : {0, 1, 8, 12, 23, 31, 52, 60, -2}) {
    for (AcfpPath path : {AcfpPath::Log, AcfpPath::Full}) {
      batch::acfp_mul_n(a.data(), b.data(), out.data(), kN, path, tr);
      expect_span_matches_oracle("acfp_mul_n", a, b, out, [&](T x, T y) {
        return arith::structural_acfp_mul(x, y, path, tr);
      });
    }
    batch::trunc_mul_n(a.data(), b.data(), out.data(), kN, tr);
    expect_span_matches_oracle("trunc_mul_n", a, b, out, [&](T x, T y) {
      return arith::structural_trunc_mul(x, y, tr);
    });
  }
}

TEST(BatchUnits, MulModesFloat) { run_mul_sweep<float>(); }
TEST(BatchUnits, MulModesDouble) { run_mul_sweep<double>(); }

/// The Mitchell full path against the structural model on fractions picked
/// by leading-one position: every (k1, k2) pair, each with a single-bit,
/// all-ones and random tail, plus zero. Random bit patterns almost never
/// have a short fraction, so this is what reaches the cross term's long
/// shifts and its zero-fraction rule.
template <typename T>
void run_full_path_leading_ones() {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  constexpr int FB = Tr::frac_bits;
  std::mt19937_64 rng(9);
  std::vector<B> fracs = {0};
  for (int k = 0; k < FB; ++k) {
    const B one = B{1} << k;
    fracs.push_back(one);
    fracs.push_back(one | (one - 1));
    fracs.push_back(one | (static_cast<B>(rng()) & (one - 1)));
  }
  std::vector<T> a, b;
  for (B fa : fracs) {
    for (B fb : fracs) {
      a.push_back(fp::from_bits<T>((static_cast<B>(Tr::bias) << FB) | fa));
      b.push_back(fp::from_bits<T>((static_cast<B>(Tr::bias - 5) << FB) | fb));
    }
  }
  const std::size_t n = a.size();
  std::vector<T> out(n);
  for (int tr : {0, 3, FB / 2}) {
    batch::acfp_mul_n(a.data(), b.data(), out.data(), n, AcfpPath::Full, tr);
    expect_span_matches_oracle("acfp_mul_n(full)", a, b, out, [&](T x, T y) {
      return arith::structural_acfp_mul(x, y, AcfpPath::Full, tr);
    });
  }
}

TEST(BatchUnits, FullPathLeadingOnesFloat) {
  run_full_path_leading_ones<float>();
}
TEST(BatchUnits, FullPathLeadingOnesDouble) {
  run_full_path_leading_ones<double>();
}

/// Every SFU span and the divider span against the reference model
/// (sfu_reference.h), which scales with std::ldexp where the units and the
/// SIMD kernels scale in the exponent field; the fma span against the
/// structural adder fed by the structural multiplier.
template <typename T>
void run_sfu_sweep() {
  const auto a = fuzz_operands<T>(kN, 5), b = fuzz_operands<T>(kN, 6);
  std::vector<T> out(kN);
  const auto unary = [&](const char* what, auto span, auto ref) {
    span(a.data(), out.data(), kN);
    expect_span_matches_oracle(what, a, a, out, [&](T x, T) { return ref(x); });
  };
  unary("ircp_n", batch::ircp_n<T>, sfu_reference::ircp<T>);
  unary("irsqrt_n", batch::irsqrt_n<T>, sfu_reference::irsqrt<T>);
  unary("isqrt_n", batch::isqrt_n<T>, sfu_reference::isqrt<T>);
  unary("ilog2_n", batch::ilog2_n<T>, sfu_reference::ilog2<T>);
  unary("iexp2_n", batch::iexp2_n<T>, sfu_reference::iexp2<T>);
  batch::ifp_div_n(a.data(), b.data(), out.data(), kN);
  expect_span_matches_oracle("ifp_div_n", a, b, out, sfu_reference::ifp_div<T>);

  const auto c = fuzz_operands<T>(kN, 7);
  for (int th : {4, 8, 23}) {
    batch::ifp_fma_n(a.data(), b.data(), c.data(), out.data(), kN, th);
    for (std::size_t i = 0; i < kN; ++i) {
      const T want = arith::structural_ifp_add(
          arith::structural_ifp_mul(a[i], b[i]), c[i], th);
      ASSERT_TRUE(same_bits(out[i], want))
          << "ifp_fma_n diverges at " << i << ": got " << out[i] << " want "
          << want;
    }
  }
}

TEST(BatchUnits, SfuAndFmaFloat) { run_sfu_sweep<float>(); }
TEST(BatchUnits, SfuAndFmaDouble) { run_sfu_sweep<double>(); }

template <typename T>
void expect_span_matches_value(const char* what, const std::vector<T>& got,
                               const std::vector<T>& want) {
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_value(got[i], want[i]))
        << what << " diverges at " << i << ": got " << got[i] << " want "
        << want[i];
}

// --- guarded/faulted spans --------------------------------------------------

IhwConfig faulted_guarded_config() {
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = FaultConfig::uniform(0.05, 1234);
  cfg.guard.enabled = true;
  return cfg;
}

void expect_fault_counters_eq(const fault::FaultCounters& a,
                              const fault::FaultCounters& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.guard_trips, b.guard_trips);
  EXPECT_EQ(a.degraded_epochs, b.degraded_epochs);
  EXPECT_EQ(a.run_degradations, b.run_degradations);
  EXPECT_EQ(a.retried_epochs, b.retried_epochs);
  EXPECT_EQ(a.nonfinite_flags, b.nonfinite_flags);
}

TEST(BatchGuarded, ScreenedSpanMatchesScalarScreen) {
  const IhwConfig cfg = faulted_guarded_config();
  const auto a = positive_operands<float>(kN, 11),
             b = positive_operands<float>(kN, 12),
             c = positive_operands<float>(kN, 13);
  std::vector<float> out(kN), ref(kN);

  GuardedDispatch scalar(cfg), batched(cfg);
  // A multi-op "kernel": per element mul, add, fma, rcp. Span-at-a-time
  // execution assigns each class the same per-class (epoch, op index)
  // sequence as element-at-a-time execution, so fault draws and guard
  // decisions are identical (DESIGN.md §10).
  scalar.begin_epoch(3);
  std::vector<float> m1(kN), s1(kN), f1(kN), r1(kN);
  for (std::size_t i = 0; i < kN; ++i) m1[i] = scalar.op<Op::Mul>(a[i], b[i]);
  for (std::size_t i = 0; i < kN; ++i) s1[i] = scalar.op<Op::Add>(m1[i], c[i]);
  for (std::size_t i = 0; i < kN; ++i)
    f1[i] = scalar.op<Op::Fma>(a[i], b[i], c[i]);
  for (std::size_t i = 0; i < kN; ++i) r1[i] = scalar.op<Op::Rcp>(a[i]);
  scalar.end_launch();

  batched.begin_epoch(3);
  std::vector<float> m2(kN), s2(kN), f2(kN), r2(kN);
  batched.mul_n(a.data(), b.data(), m2.data(), kN);
  batched.add_n(m2.data(), c.data(), s2.data(), kN);
  batched.op_n<Op::Fma>(f2.data(), kN, a.data(), b.data(), c.data());
  batched.rcp_n(a.data(), r2.data(), kN);
  batched.end_launch();

  expect_span_matches("guarded mul", m2, m1);
  expect_span_matches("guarded add", s2, s1);
  expect_span_matches("guarded fma", f2, f1);
  expect_span_matches("guarded rcp", r2, r1);
  EXPECT_GT(scalar.counters().total_injected(), 0u);
  expect_fault_counters_eq(scalar.counters(), batched.counters());
}

// --- context-level batch ops ------------------------------------------------

TEST(BatchContext, NoContextFallbackIsPreciseAndUncounted) {
  const auto a = positive_operands<float>(kN, 16),
             b = positive_operands<float>(kN, 17);
  std::vector<float> out(kN);
  gpu::batch_mul(a.data(), b.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_TRUE(same_bits(out[i], a[i] * b[i]));
}

// --- batch_apply: thread-count invariance under faults ----------------------

TEST(BatchApply, ThreadCountInvariantUnderFaultsAndGuard) {
  const IhwConfig cfg = faulted_guarded_config();
  const std::uint64_t n = 40000, chunk = 1024;
  const auto a = positive_operands<float>(static_cast<std::size_t>(n), 18),
             b = positive_operands<float>(static_cast<std::size_t>(n), 19);

  auto sweep = [&](int threads, std::vector<float>* out, FpContext* ctx) {
    ScopedContext active(*ctx);
    runtime::batch_apply(
        n, chunk,
        [&](std::uint64_t i0, std::uint64_t i1) {
          gpu::batch_mul(a.data() + i0, b.data() + i0, out->data() + i0,
                         static_cast<std::size_t>(i1 - i0));
          gpu::batch_add(a.data() + i0, out->data() + i0, out->data() + i0,
                         static_cast<std::size_t>(i1 - i0));
        },
        threads);
  };

  FpContext c1(cfg), c4(cfg);
  std::vector<float> o1(static_cast<std::size_t>(n)),
      o4(static_cast<std::size_t>(n));
  sweep(1, &o1, &c1);
  sweep(4, &o4, &c4);

  expect_span_matches("batch_apply", o4, o1);
  EXPECT_EQ(c1.counters().counts, c4.counters().counts);
  EXPECT_GT(c1.fault_counters().total_injected(), 0u);
  expect_fault_counters_eq(c1.fault_counters(), c4.fault_counters());
}

// --- app ports ---------------------------------------------------------------

template <typename Scalar, typename Batched>
void expect_app_identical(const IhwConfig& cfg, Scalar&& scalar,
                          Batched&& batched) {
  FpContext ref_ctx(cfg), ctx(cfg);
  common::GridF want, got;
  {
    ScopedContext active(ref_ctx);
    want = scalar();
  }
  {
    ScopedContext active(ctx);
    got = batched();
  }
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_TRUE(same_bits(want.data()[i], got.data()[i]))
        << "grid diverges at " << i;
  EXPECT_EQ(ctx.counters().counts, ref_ctx.counters().counts);
  expect_fault_counters_eq(ref_ctx.fault_counters(), ctx.fault_counters());
}

TEST(BatchApps, HotspotMatchesScalarSimReal) {
  apps::HotspotParams p;
  p.rows = 48;
  p.cols = 40;
  p.iterations = 3;
  p.steady_init = false;
  const auto input = apps::make_hotspot_input(p, 7);
  expect_app_identical(
      IhwConfig::all_imprecise(),
      [&] { return apps::run_hotspot<SimFloat>(p, input); },
      [&] { return apps::run_hotspot_batched(p, input); });
}

TEST(BatchApps, SradMatchesScalarSimReal) {
  apps::SradParams p;
  p.rows = 40;
  p.cols = 36;
  p.iterations = 2;
  const auto input = apps::make_srad_input(p, 11);
  expect_app_identical(
      IhwConfig::all_imprecise(),
      [&] { return apps::run_srad<SimFloat>(p, input.image); },
      [&] { return apps::run_srad_batched(p, input.image); });
}

TEST(BatchApps, CpMatchesScalarSimReal) {
  apps::CpParams p;
  p.grid = 24;
  p.natoms = 16;
  const auto atoms = apps::make_cp_atoms(p, 13);
  expect_app_identical(
      IhwConfig::all_imprecise(),
      [&] { return apps::run_cp<SimFloat>(p, atoms); },
      [&] { return apps::run_cp_batched(p, atoms); });
}

TEST(BatchApps, PreciseConfigAlsoIdentical) {
  apps::HotspotParams p;
  p.rows = 33;  // odd sizes exercise span edges
  p.cols = 31;
  p.iterations = 2;
  p.steady_init = false;
  const auto input = apps::make_hotspot_input(p, 21);
  expect_app_identical(
      IhwConfig::precise(),
      [&] { return apps::run_hotspot<SimFloat>(p, input); },
      [&] { return apps::run_hotspot_batched(p, input); });
}

TEST(BatchApps, ScreenedRunsDelegateToScalarPath) {
  apps::HotspotParams p;
  p.rows = 32;
  p.cols = 32;
  p.iterations = 2;
  p.steady_init = false;
  const auto input = apps::make_hotspot_input(p, 23);
  expect_app_identical(
      faulted_guarded_config(),
      [&] { return apps::run_hotspot<SimFloat>(p, input); },
      [&] { return apps::run_hotspot_batched(p, input); });
}

TEST(BatchApps, NoContextMatchesPlainFloat) {
  apps::CpParams p;
  p.grid = 16;
  p.natoms = 12;
  const auto atoms = apps::make_cp_atoms(p, 29);
  const auto want = apps::run_cp<float>(p, atoms);
  const auto got = apps::run_cp_batched(p, atoms);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_TRUE(same_bits(want.data()[i], got.data()[i]));
}

// --- SimReal compound assignments (single-lookup fast path) -----------------

TEST(SimRealCompound, MatchesBinaryOperatorAndCountsOnce) {
  const IhwConfig cfg = IhwConfig::all_imprecise();
  FpContext ctx(cfg);
  ScopedContext active(ctx);

  SimFloat x(1.375f), y(2.5f);
  SimFloat via_binary = x + y;
  const std::uint64_t adds_before = ctx.counters()[OpClass::FAdd];
  SimFloat via_compound = x;
  via_compound += y;
  EXPECT_EQ(ctx.counters()[OpClass::FAdd], adds_before + 1);
  EXPECT_TRUE(same_bits(via_compound.value(), via_binary.value()));

  SimFloat d = x;
  d -= y;
  EXPECT_TRUE(same_bits(d.value(), (x - y).value()));
  SimFloat m = x;
  m *= y;
  EXPECT_TRUE(same_bits(m.value(), (x * y).value()));
  SimFloat q = x;
  q /= y;
  EXPECT_TRUE(same_bits(q.value(), (x / y).value()));
}

// --- the op table: every layer against every other -------------------------
// One grid over Op x {float, double} x configs x {unscreened, faults,
// faults + guard}: a SimReal loop, gpu::batch<O>, GuardedDispatch::op_n<O>
// and (unscreened) FpDispatch::op<O> must agree element for element, with
// equal PerfCounters and FaultCounters, and unscreened they must equal an
// oracle written directly against the scalar units.

/// Random bit patterns (every IEEE special class) then tame positives.
template <typename T>
std::vector<T> mixed_operands(std::size_t n, std::uint64_t seed) {
  std::vector<T> v = fuzz_operands<T>(n / 2, seed);
  const auto tame = positive_operands<T>(n - n / 2, seed + 1000);
  v.insert(v.end(), tame.begin(), tame.end());
  return v;
}

/// Calls f with the first OpRow<O>::arity of (a, b, c).
template <Op O, typename F, typename U>
decltype(auto) with_arity(F&& f, U a, U b, U c) {
  constexpr int kArity = OpRow<O>::arity;
  if constexpr (kArity == 1) return f(a);
  else if constexpr (kArity == 2) return f(a, b);
  else return f(a, b, c);
}

/// The SimReal spelling of each op, as app kernels write it.
template <Op O, typename S>
S sim_op(S a, S b, S c) {
  if constexpr (O == Op::Add) return a + b;
  else if constexpr (O == Op::Sub) return a - b;
  else if constexpr (O == Op::Mul) return a * b;
  else if constexpr (O == Op::Div) return a / b;
  else if constexpr (O == Op::Rcp) return rcp(a);
  else if constexpr (O == Op::Rsqrt) return rsqrt(a);
  else if constexpr (O == Op::Sqrt) return sqrt(a);
  else if constexpr (O == Op::Log2) return log2(a);
  else if constexpr (O == Op::Exp2) return exp2(a);
  else if constexpr (O == Op::Fma) return fma_op(a, b, c);
  else return a * b + c;
}

/// Routing oracle: each op written against the scalar units and the config
/// knobs, independently of the op table.
template <Op O, typename T>
T unit_reference(const IhwConfig& c, T a, T b, T x) {
  const auto mul = [&](T p, T q) -> T {
    switch (c.mul_mode) {
      case MulMode::Precise: return p * q;
      case MulMode::ImpreciseSimple: return ifp_mul(p, q);
      case MulMode::MitchellLog:
        return acfp_mul(p, q, AcfpPath::Log, c.mul_trunc);
      case MulMode::MitchellFull:
        return acfp_mul(p, q, AcfpPath::Full, c.mul_trunc);
      case MulMode::BitTruncated: return trunc_mul(p, q, c.mul_trunc);
    }
    return p * q;
  };
  const auto add = [&](T p, T q) {
    return c.add_enabled ? ifp_add(p, q, c.add_th) : p + q;
  };
  if constexpr (O == Op::Add) return add(a, b);
  else if constexpr (O == Op::Sub)
    return c.add_enabled ? ifp_sub(a, b, c.add_th) : a - b;
  else if constexpr (O == Op::Mul) return mul(a, b);
  else if constexpr (O == Op::Div) return c.div_enabled ? ifp_div(a, b) : a / b;
  else if constexpr (O == Op::Rcp) return c.rcp_enabled ? ircp(a) : T(1) / a;
  else if constexpr (O == Op::Rsqrt)
    return c.rsqrt_enabled ? irsqrt(a) : T(1) / std::sqrt(a);
  else if constexpr (O == Op::Sqrt)
    return c.sqrt_enabled ? isqrt(a) : std::sqrt(a);
  else if constexpr (O == Op::Log2)
    return c.log2_enabled ? ilog2(a) : std::log2(a);
  else if constexpr (O == Op::Exp2)
    return c.exp2_enabled ? iexp2(a) : std::exp2(a);
  else if constexpr (O == Op::Fma)
    return c.fma_enabled ? ifp_fma(a, b, x, c.add_th) : add(mul(a, b), x);
  else return add(mul(a, b), x);
}

/// The PerfCounters classes op O bumps per element and the fault classes
/// it may draw from, written independently of the table.
struct Accounting {
  std::vector<OpClass> counted;
  std::vector<UnitClass> faulted;
};
Accounting accounting(Op o) {
  switch (o) {
    case Op::Add:
    case Op::Sub: return {{OpClass::FAdd}, {UnitClass::Add}};
    case Op::Mul: return {{OpClass::FMul}, {UnitClass::Mul}};
    case Op::Div: return {{OpClass::FDiv}, {UnitClass::Div}};
    case Op::Rcp: return {{OpClass::FRcp}, {UnitClass::Rcp}};
    case Op::Rsqrt: return {{OpClass::FRsqrt}, {UnitClass::Rsqrt}};
    case Op::Sqrt: return {{OpClass::FSqrt}, {UnitClass::Sqrt}};
    case Op::Log2: return {{OpClass::FLog2}, {UnitClass::Log2}};
    case Op::Exp2: return {{OpClass::FLog2}, {UnitClass::Exp2}};
    case Op::Fma:
      return {{OpClass::FFma}, {UnitClass::Fma, UnitClass::Mul, UnitClass::Add}};
    case Op::Mac: return {{OpClass::FMul, OpClass::FAdd}, {UnitClass::Mul, UnitClass::Add}};
  }
  return {};
}

/// precise; all_imprecise; the adder alone at th 4; each MulMode alone at
/// trunc 0 and 8 (and MitchellFull at 44, a truncation only double takes);
/// and every unit on (exp2 too) at add_th 0, 1, 8, 27, with the fused Fma
/// on and off.
template <typename T>
std::vector<IhwConfig> parity_grid() {
  IhwConfig add_only = IhwConfig::precise();
  add_only.add_enabled = true;
  add_only.add_th = 4;
  std::vector<IhwConfig> grid = {IhwConfig::precise(),
                                 IhwConfig::all_imprecise(), add_only};
  for (MulMode m : {MulMode::ImpreciseSimple, MulMode::MitchellLog,
                    MulMode::MitchellFull, MulMode::BitTruncated})
    for (int tr : {0, 8}) grid.push_back(IhwConfig::mul_only(m, tr));
  if constexpr (std::is_same_v<T, double>)
    grid.push_back(IhwConfig::mul_only(MulMode::MitchellFull, 44));
  for (int th : {0, 1, 8, 27}) {
    for (bool fma : {true, false}) {
      IhwConfig c = IhwConfig::all_imprecise();
      c.exp2_enabled = true;
      c.add_th = th;
      c.fma_enabled = fma;
      grid.push_back(c);
    }
  }
  return grid;
}

enum class Screen { kOff, kFaults, kGuard };

/// Returns the run's fault counters, so the grid can check that its
/// screened modes really inject and trip.
template <Op O, typename T>
fault::FaultCounters check_parity(IhwConfig cfg, Screen mode) {
  if (mode != Screen::kOff) cfg.faults = FaultConfig::uniform(1e-3, 77);
  cfg.guard.enabled = mode == Screen::kGuard;
  SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(O) << ", "
                                  << cfg.describe() << " th=" << cfg.add_th
                                  << ", screen mode " << static_cast<int>(mode));
  constexpr std::size_t n = 4096;
  const auto a = mixed_operands<T>(n, 31), b = mixed_operands<T>(n, 32),
             c = mixed_operands<T>(n, 33);
  std::vector<T> sim(n), bat(n), grd(n);

  FpContext sim_ctx(cfg), bat_ctx(cfg);
  {
    ScopedContext active(sim_ctx);
    using S = gpu::SimReal<T>;
    for (std::size_t i = 0; i < n; ++i)
      sim[i] = sim_op<O>(S(a[i]), S(b[i]), S(c[i])).value();
  }
  {
    ScopedContext active(bat_ctx);
    with_arity<O>([&](auto... in) { gpu::batch<O>(bat.data(), n, in...); },
                  a.data(), b.data(), c.data());
  }
  GuardedDispatch gd(cfg);
  with_arity<O>([&](auto... in) { gd.op_n<O>(grd.data(), n, in...); },
                a.data(), b.data(), c.data());

  expect_span_matches_value("gpu::batch", bat, sim);
  expect_span_matches_value("GuardedDispatch::op_n", grd, sim);
  EXPECT_EQ(bat_ctx.counters().counts, sim_ctx.counters().counts);
  const Accounting acc = accounting(O);
  gpu::PerfCounters want;
  for (OpClass k : acc.counted) want.bump(k, n);
  EXPECT_EQ(sim_ctx.counters().counts, want.counts);
  for (int u = 0; u < fault::kNumUnitClasses; ++u) {
    const auto uc = static_cast<UnitClass>(u);
    if (std::find(acc.faulted.begin(), acc.faulted.end(), uc) != acc.faulted.end())
      continue;
    EXPECT_EQ(sim_ctx.fault_counters()[uc], 0u) << fault::to_string(uc);
    EXPECT_EQ(sim_ctx.fault_counters().guard_trips[u], 0u) << fault::to_string(uc);
  }
  expect_fault_counters_eq(bat_ctx.fault_counters(), sim_ctx.fault_counters());
  expect_fault_counters_eq(gd.counters(), sim_ctx.fault_counters());
  if (mode != Screen::kOff) return sim_ctx.fault_counters();

  const FpDispatch d(cfg);
  std::vector<T> fpd(n), ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    fpd[i] = with_arity<O>([&](auto... x) { return d.op<O>(x...); }, a[i],
                           b[i], c[i]);
    ref[i] = unit_reference<O>(cfg, a[i], b[i], c[i]);
  }
  expect_span_matches_value("FpDispatch::op", fpd, sim);
  expect_span_matches_value("unit reference", ref, sim);
  return sim_ctx.fault_counters();
}

template <typename T, int... I>
void check_every_op(const IhwConfig& cfg, Screen mode,
                    fault::FaultCounters* total,
                    std::integer_sequence<int, I...>) {
  ((*total += check_parity<static_cast<Op>(I), T>(cfg, mode)), ...);
}

template <typename T>
void run_parity_grid() {
  for (Screen mode : {Screen::kOff, Screen::kFaults, Screen::kGuard}) {
    fault::FaultCounters total;
    for (const IhwConfig& cfg : parity_grid<T>())
      check_every_op<T>(cfg, mode, &total,
                        std::make_integer_sequence<int, kNumOps>{});
    EXPECT_EQ(total.total_injected() > 0, mode != Screen::kOff);
    EXPECT_EQ(total.total_trips() > 0, mode == Screen::kGuard);
  }
}

TEST(OpTable, EveryLayerAgreesFloat) { run_parity_grid<float>(); }
TEST(OpTable, EveryLayerAgreesDouble) { run_parity_grid<double>(); }

/// add_th <= 0: the scalar adder clamps TH to 1, while the fused mac kernels
/// read th < 1 as a precise accumulate. Every multiply-accumulate path must
/// clamp alike.
template <typename T>
void run_mac_th_clamp() {
  const auto a = mixed_operands<T>(kN, 41), b = mixed_operands<T>(kN, 42),
             c = mixed_operands<T>(kN, 43);
  for (int th : {-3, 0}) {
    for (MulMode m : {MulMode::ImpreciseSimple, MulMode::MitchellLog,
                      MulMode::MitchellFull, MulMode::BitTruncated}) {
      IhwConfig cfg = IhwConfig::mul_only(m, 0);
      cfg.add_enabled = true;
      cfg.add_th = th;
      const FpDispatch d(cfg);
      std::vector<T> span(kN), scalar(kN), batched(kN), sim(kN);
      d.mac_n(a.data(), b.data(), c.data(), span.data(), kN);
      for (std::size_t i = 0; i < kN; ++i)
        scalar[i] = d.add(d.mul(a[i], b[i]), c[i]);
      FpContext ctx(cfg);
      ScopedContext active(ctx);
      gpu::batch_mac(a.data(), b.data(), c.data(), batched.data(), kN);
      using S = gpu::SimReal<T>;
      for (std::size_t i = 0; i < kN; ++i)
        sim[i] = (S(a[i]) * S(b[i]) + S(c[i])).value();
      expect_span_matches("FpDispatch::mac_n", span, scalar);
      expect_span_matches("gpu::batch_mac", batched, scalar);
      expect_span_matches("SimReal mac", sim, scalar);
    }
  }
}

TEST(OpTable, MacAddThBelowOneClampsLikeScalarFloat) {
  run_mac_th_clamp<float>();
}
TEST(OpTable, MacAddThBelowOneClampsLikeScalarDouble) {
  run_mac_th_clamp<double>();
}

// --- precise rows on the kernel table ---------------------------------------
// A precise float span runs the kernel table's precise_f32 lane of its row
// (op.h): each lane must give the scalar row's bits on every operand class,
// every span length up to 40 (every ragged tail of both vector widths) and
// with `out` aliasing each input, at every ISA level the host runs.

/// Every IEEE class a precise lane must carry through, both signs of each:
/// zeros, the smallest and a mid-range subnormal, FLT_MIN, FLT_MAX,
/// infinities, quiet and signalling NaNs with payloads, and plain normals.
/// The negative operands put sqrt and rsqrt on their NaN path.
std::vector<float> precise_classes() {
  using L = std::numeric_limits<float>;
  std::vector<float> v;
  for (float x : {0.0f, L::denorm_min(), 3.0e-39f, L::min(), L::max(),
                  L::infinity(), 1.0f, 1.5f, 0.1f, 3.0f, 7.0e20f, 2.5e-30f,
                  L::quiet_NaN(), fp::from_bits<float>(0x7FC12345u),
                  fp::from_bits<float>(0x7F800001u)}) {
    v.push_back(x);
    v.push_back(-x);
  }
  return v;
}

/// Operand spans for the precise rows: every class against every class in
/// (a, b), with c cycling through the classes at another stride, then
/// fuzzed bit patterns and positive normals, whose roundings tell a
/// twice-rounded mac from a fused one and 1/sqrt(x) from sqrt(1/x).
struct PreciseOperands {
  std::vector<float> a, b, c;
};

PreciseOperands precise_operands() {
  const std::vector<float> cls = precise_classes();
  const std::size_t k = cls.size();
  PreciseOperands in;
  for (std::size_t i = 0; i < k * k; ++i) {
    in.a.push_back(cls[i % k]);
    in.b.push_back(cls[i / k]);
    in.c.push_back(cls[(i * 7 + i / k) % k]);
  }
  for (std::uint64_t seed : {51, 52}) {
    const auto a = mixed_operands<float>(2048, seed),
               b = mixed_operands<float>(2048, seed + 10),
               c = mixed_operands<float>(2048, seed + 20);
    in.a.insert(in.a.end(), a.begin(), a.end());
    in.b.insert(in.b.end(), b.begin(), b.end());
    in.c.insert(in.c.end(), c.begin(), c.end());
  }
  return in;
}

/// Runs span(out, len, in...) on [off, off + len) of the operands into a
/// buffer of exactly len elements: prefilled with a sentinel when alias is
/// 0, else a copy of input alias - 1 passed in that input's place. The
/// result is checked against `want` with same_value: bits on every lane
/// that is not NaN, and any NaN where the scalar row gives a NaN.
template <Op O, typename Span>
testing::AssertionResult precise_span_matches(const Span& span,
                                              const PreciseOperands& in,
                                              const std::vector<float>& want,
                                              std::size_t off, std::size_t len,
                                              int alias) {
  const float* x[3] = {in.a.data() + off, in.b.data() + off,
                       in.c.data() + off};
  std::vector<float> out(len, -7.0f);
  if (alias > 0) {
    std::copy_n(x[alias - 1], len, out.data());
    x[alias - 1] = out.data();
  }
  with_arity<O>([&](auto... p) { span(out.data(), len, p...); }, x[0], x[1],
                x[2]);
  for (std::size_t i = 0; i < len; ++i) {
    if (!same_value(out[i], want[off + i]))
      return testing::AssertionFailure()
             << "off " << off << " len " << len << " alias " << alias
             << " lane " << i << ": a=" << in.a[off + i]
             << " b=" << in.b[off + i] << " c=" << in.c[off + i] << " got "
             << out[i] << " want " << want[off + i];
  }
  return testing::AssertionSuccess();
}

/// One precise row through precise_n<O> and FpDispatch::op_n under
/// the precise config, at every ISA level the host runs: the whole operand
/// set as one span, then eight spans of every length 1..40 at spread
/// offsets, each with a separate out and with out aliasing every input.
template <Op O>
void check_precise_row(const PreciseOperands& in) {
  using R = OpRow<O>;
  SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(O));
  const std::size_t n = in.a.size();
  std::vector<float> want(n);
  for (std::size_t i = 0; i < n; ++i)
    want[i] = with_arity<O>([](auto... x) { return R::precise(x...); },
                            in.a[i], in.b[i], in.c[i]);
  const FpDispatch d(IhwConfig::precise());
  const auto row = [](float* o, std::size_t m, auto... p) {
    precise_n<O>(o, m, p...);
  };
  const auto dispatch = [&d](float* o, std::size_t m, auto... p) {
    d.op_n<O>(o, m, p...);
  };
  for (IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (!simd::isa_supported(level)) continue;
    ScopedIsa isa(level);
    SCOPED_TRACE(simd::isa_name(level));
    if (level != IsaLevel::kScalar) {
      EXPECT_NE(simd::kernels().precise_f32, nullptr);
    }
    for (int alias = 0; alias <= R::arity; ++alias) {
      ASSERT_TRUE(precise_span_matches<O>(row, in, want, 0, n, alias));
      ASSERT_TRUE(precise_span_matches<O>(dispatch, in, want, 0, n, alias));
      for (std::size_t len = 1; len <= 40; ++len) {
        for (std::size_t k = 0; k < 8; ++k) {
          const std::size_t off = (k * 997 + len * 31) % (n - len);
          ASSERT_TRUE(precise_span_matches<O>(row, in, want, off, len, alias));
          ASSERT_TRUE(
              precise_span_matches<O>(dispatch, in, want, off, len, alias));
        }
      }
    }
  }
}

TEST(BatchPrecise, MatchesScalarRow) {
  const PreciseOperands in = precise_operands();
  check_precise_row<Op::Add>(in);
  check_precise_row<Op::Sub>(in);
  check_precise_row<Op::Mul>(in);
  check_precise_row<Op::Div>(in);
  check_precise_row<Op::Rcp>(in);
  check_precise_row<Op::Rsqrt>(in);
  check_precise_row<Op::Sqrt>(in);
  check_precise_row<Op::Mac>(in);
  check_precise_row<Op::Fma>(in);
}

}  // namespace
}  // namespace ihw
