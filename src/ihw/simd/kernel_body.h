#pragma once
// The span kernels of the SIMD backends, written once (DESIGN.md §15).
//
// Kernels<T> is the whole datapath of every KernelTable entry, evaluated per
// lane with selects in the lanes' precedence order (ihw/lanes.h). Every unit
// kernel -- the adder, the multipliers and the SFUs -- follows its lane op
// for op, so their bits match by construction; tests/test_simd.cpp checks
// bit identity with the lanes input-exhaustively. The relaxation row has no
// lane: it matches the divide loop of apps::relax_row by Markstein's
// theorem, and test_simd checks it on every row length up to 40 and on
// 10^7 fuzzed quotients. The precise rows are the host's own correctly
// rounded float instructions, so they match OpRow<O>::precise by IEEE 754;
// test_batch checks them on every span length up to 40.
// T is an ISA shim -- kernels_avx2.cpp, kernels_avx512.cpp -- that supplies
// the lane vector V, the compare-result type M and about 25 always-inline
// intrinsic wrappers:
//
//   load store set1 and_ or_ xor_ add sub srli slli srlv sllv max min
//   eq gt mand mor mandnot none sel zero_if add_carry ps_bits mul_rz
//   add_ps sub_ps mul_ps div_ps sqrt_ps add_cut seg_dp, and kLanes (lanes
//   per V)
//
// and, for the double-precision work (relax_row_f64 and the wide GEMM
// accumulator), the double lane vector D, its compare result DM and a dozen
// wrappers:
//
//   loadd stored set1d addd subd muld divd fmad fnmad widen widen2 narrow2
//   in_window dmand all seld, and kDLanes (lanes per D)
//
// Only a shim's translation unit includes this header, after <immintrin.h>
// and with its own -m flags. Everything here sits in an anonymous namespace,
// so each ISA's instantiation has internal linkage and can never be merged
// with another ISA's copy at link time; the only symbols an ISA object
// exports are its KernelTable.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "ihw/simd/isa.h"

/// Spelling of a shim member: forced inline so every wrapper compiles to the
/// bare intrinsic inside the kernel loop.
#define IHW_SHIM [[gnu::always_inline]] static

namespace ihw::simd {
namespace {

constexpr int FB = 23;
constexpr std::uint32_t kExpMask = 0xFFu;
constexpr std::uint32_t kFracMask = 0x7FFFFFu;
constexpr std::uint32_t kSignMask = 0x80000000u;
constexpr std::uint32_t kHidden = 0x800000u;
constexpr std::uint32_t kOneBits = 0x3F800000u;  // 1.0f
constexpr std::uint32_t kInfBits = 0x7F800000u;
constexpr std::uint32_t kQnanBits = 0x7FC00000u;
constexpr int kBias = 127;
// Table 1 segment coefficients of the SFUs (ihw/sfu.cpp).
constexpr double kRcpA = 2.823, kRcpB = 1.882;
constexpr double kRsqA = 2.08, kRsqB = 1.1911;

template <class T>
struct Kernels {
  using V = typename T::V;
  using M = typename T::M;

  /// Per-lane IEEE fields and class masks shared by every kernel.
  struct Fields {
    V e;     // biased exponent field
    V frac;  // raw fraction field
    M is_nan, is_inf, is_zero;  // is_zero: after flush (e == 0)
  };

  static Fields fields(V bits) {
    const V expm = T::set1(kExpMask);
    Fields f;
    f.e = T::and_(T::srli(bits, FB), expm);
    f.frac = T::and_(bits, T::set1(kFracMask));
    const M is_expmax = T::eq(f.e, expm);
    const M frac_zero = T::eq(f.frac, T::set1(0));
    f.is_nan = T::mandnot(frac_zero, is_expmax);
    f.is_inf = T::mand(is_expmax, frac_zero);
    f.is_zero = T::eq(f.e, T::set1(0));
    return f;
  }

  /// Subnormal-flushed fraction (e == 0 lanes read as 0).
  static V flushed(const Fields& f) { return T::zero_if(f.is_zero, f.frac); }

  /// Shared special-value select chain of the three multiplier datapaths
  /// (mirrors lanes::mul_specials in lanes.h).
  static V mul_specials(V sign, const Fields& A, const Fields& B, V core) {
    const M any_zero = T::mor(A.is_zero, B.is_zero);
    const M any_inf = T::mor(A.is_inf, B.is_inf);
    const V qnan = T::set1(kQnanBits);
    V r = T::sel(core, sign, any_zero);
    r = T::sel(r, T::or_(sign, T::set1(kInfBits)), any_inf);
    r = T::sel(r, qnan, T::mand(any_inf, any_zero));
    return T::sel(r, qnan, T::mor(A.is_nan, B.is_nan));
  }

  /// Biased exponent of a product before its carry: ea + eb - bias.
  static V exp_sum(const Fields& A, const Fields& B) {
    return T::add(T::add(A.e, B.e), T::set1(-kBias));
  }

  /// Sign bit of the product of the lane bit patterns.
  static V sign_of(V ab, V bb) {
    return T::and_(T::xor_(ab, bb), T::set1(kSignMask));
  }

  /// A multiplier core before the special-value chain (lanes::mul_lane):
  /// sign | biased | frac inside the exponent window, the signed zero where
  /// the biased exponent underflows (<= 0) and the signed infinity where it
  /// overflows (>= 255). A lane outside the window never shows its fields,
  /// so `biased` needs no mask.
  static V core_result(V sign, V biased, V frac) {
    V r = T::zero_if(T::gt(T::set1(1), biased),
                     T::or_(T::slli(biased, FB), frac));
    r = T::sel(r, T::set1(kInfBits), T::gt(biased, T::set1(kExpMask - 1)));
    return T::or_(sign, r);
  }

  /// Core of ifp_mul and the Mitchell full path (lanes::carry_core) from the
  /// product's sign, its biased exponent before the carry and the
  /// significand sum s: 2^FB + s normalizes by one right shift when it
  /// reaches 2^(FB+1).
  static V carry_core(V sign, V e, V s) {
    const M cin = T::gt(s, T::set1(kHidden - 1));
    const V frac = T::sel(s, T::srli(T::sub(s, T::set1(kHidden)), 1), cin);
    return core_result(sign, T::add_carry(e, cin), frac);
  }

  /// Core of the Mitchell log path: as carry_core, but with no
  /// normalization shift -- the 2^x ~ 1+x antilog reinterprets the overflow.
  static V log_core(V sign, V e, V s) {
    const M cin = T::gt(s, T::set1(kHidden - 1));
    const V frac = T::sel(s, T::sub(s, T::set1(kHidden)), cin);
    return core_result(sign, T::add_carry(e, cin), frac);
  }

  /// A fraction field as the bits of the float 1.f, trunc_core's operand.
  static V one_f(V f) { return T::or_(f, T::set1(kOneBits)); }

  /// Core of trunc_mul from the two significands as the bits of 1.fa and
  /// 1.fb (one_f). Their product rounded toward zero keeps exactly the 24
  /// significant bits of the 48-bit significand product that the lane's
  /// shift by FB, or FB + 1 where it carries, keeps; its exponent field less
  /// the bias is the carry.
  static V trunc_core(V sign, V e, V xa, V xb, V keep) {
    const V p = T::mul_rz(xa, xb);
    const V frac = T::and_(T::and_(p, T::set1(kFracMask)), keep);
    return core_result(
        sign, T::add(e, T::sub(T::srli(p, FB), T::set1(kBias))), frac);
  }

  // --- ifp_mul, acfp_mul (Mitchell log and full paths), trunc_mul -----------

  static V ifp_mul(V ab, V bb) {
    const Fields A = fields(ab), B = fields(bb);
    const V sign = sign_of(ab, bb);
    return mul_specials(
        sign, A, B,
        carry_core(sign, exp_sum(A, B), T::add(flushed(A), flushed(B))));
  }

  static V acfp_log(V ab, V bb, V keep) {
    const Fields A = fields(ab), B = fields(bb);
    const V sign = sign_of(ab, bb);
    const V s = T::add(T::and_(flushed(A), keep), T::and_(flushed(B), keep));
    return mul_specials(sign, A, B, log_core(sign, exp_sum(A, B), s));
  }

  /// One operand's half of Mitchell's MA cross term (mitchell_cross) on its
  /// keep-masked fraction f: l, the exponent field of the exact int->float
  /// convert of f, which is kBias + k for a leading one at bit k and 0 for a
  /// zero f, and x' = (f - 2^k) << (FB-1-k), the leading one moved to bit
  /// FB-1 and masked off.
  struct CrossHalf {
    V l, x;
  };

  static CrossHalf cross_half(V f) {
    const V l = T::srli(T::ps_bits(f), FB);
    return {l, T::and_(T::sllv(f, T::sub(T::set1(FB - 1 + kBias), l)),
                       T::set1(kHidden / 2 - 1))};
  }

  /// The cross term from the halves: a's x' and its shift count
  /// 2FB - 1 + 2 kBias - la, and b's x' and l.
  static V cross_join(V xa, V cnt_a, V xb, V lb) {
    const V low = T::set1(kHidden / 2 - 1);
    const V x = T::add(xa, xb);
    // 2FB - 1 - k with k = la + lb - 2 kBias + carry (bit FB-1 of x).
    const V cnt = T::sub(T::sub(cnt_a, lb), T::srli(x, FB - 1));
    return T::srlv(T::or_(T::and_(x, low), T::set1(kHidden / 2)), cnt);
  }

  /// Mitchell's MA cross term of two keep-masked fractions, already aligned
  /// by >> FB: (2^(FB-1) + f') >> (2FB - 1 - k) on FB-1 fraction bits (the
  /// exactness argument is at lanes::acfp_full_lane in lanes.h). Each
  /// leading one is read off an exact int->float convert. A zero fraction
  /// converts to exponent field 0, which pushes both of its shift counts
  /// past 31, and variable shifts past 31 yield 0: the lane's zero select
  /// and shift clamp are built into the instructions.
  static V mitchell_cross(V fa, V fb) {
    const CrossHalf A = cross_half(fa), B = cross_half(fb);
    return cross_join(A.x, T::sub(T::set1(2 * FB - 1 + 2 * kBias), A.l), B.x,
                      B.l);
  }

  static V acfp_full(V ab, V bb, V keep) {
    const Fields A = fields(ab), B = fields(bb);
    const V sign = sign_of(ab, bb);
    const V fa = T::and_(flushed(A), keep), fb = T::and_(flushed(B), keep);
    return mul_specials(sign, A, B,
                        carry_core(sign, exp_sum(A, B),
                                   T::add(T::add(fa, fb),
                                          mitchell_cross(fa, fb))));
  }

  static V trunc_mul(V ab, V bb, V keep) {
    const Fields A = fields(ab), B = fields(bb);
    const V sign = sign_of(ab, bb);
    return mul_specials(sign, A, B,
                        trunc_core(sign, exp_sum(A, B), one_f(flushed(A)),
                                   one_f(flushed(B)), keep));
  }

  // --- ifp_add --------------------------------------------------------------

  /// lanes::ifp_add_lane op for op. kExact is the lane's th <= FB - 1
  /// path: the cut operands add exactly in float, and the cut counts FB -
  /// th + d are at least 1. Otherwise the counts are clamped at 0 and
  /// add_cut adds in double. Neither clamps a count to 31 as the lane does:
  /// a count of 31 or more needs d >= th + 8, and those lanes take the
  /// `larger` select either way.
  template <bool kExact>
  static V ifp_add(V ab, V bb, int th) {
    const V zero = T::set1(0), expm = T::set1(kExpMask);
    const V signm = T::set1(kSignMask);
    const V ea = T::and_(T::srli(ab, FB), expm);
    const V eb = T::and_(T::srli(bb, FB), expm);
    const V e = T::max(ea, eb), lo = T::min(ea, eb);
    const V ones = T::set1(~0u), base = T::add(e, T::set1(FB - th));
    const auto cut = [&](V x, V ex) {
      const V n = T::sub(base, ex);
      return T::and_(x, T::sllv(ones, kExact ? n : T::max(n, zero)));
    };
    const V at = cut(ab, ea), bt = cut(bb, eb);
    M nan;
    V r = kExact ? T::add_ps(at, bt, &nan) : T::add_cut(at, bt);
    r = T::sel(r, T::sel(bb, ab, T::gt(ea, eb)),
               T::gt(T::sub(e, lo), T::set1(th - 1)));
    // A vector whose lanes all have min(ea, eb) >= th + 1 and max(ea, eb)
    // < 255 has no zero, subnormal, inf or NaN operand, and each nonzero
    // cut sum is a multiple of 2^(e - bias - th) >= 2^-126: normal, so it
    // needs neither the flush nor the chain.
    if (T::none(T::mor(T::gt(T::set1(th + 1), lo), T::eq(e, expm))))
        [[likely]]
      return r;
    // The flush; a lane that took `larger` has a nonzero field there.
    r = T::sel(r, T::and_(r, signm),
               T::eq(T::and_(r, T::set1(kInfBits)), zero));
    const M az = T::eq(ea, zero), bz = T::eq(eb, zero);
    const Fields A = fields(ab), B = fields(bb);
    const V sa = T::and_(ab, signm), sb = T::and_(bb, signm);
    const V qnan = T::set1(kQnanBits);
    r = T::sel(r, ab, bz);
    r = T::sel(r, bb, az);
    r = T::sel(r, T::and_(sa, sb), T::mand(az, bz));
    r = T::sel(r, bb, B.is_inf);
    r = T::sel(r, ab, A.is_inf);
    r = T::sel(r, qnan,
               T::mandnot(T::eq(sa, sb), T::mand(A.is_inf, B.is_inf)));
    return T::sel(r, qnan, T::mor(A.is_nan, B.is_nan));
  }

  // --- fused multiply-accumulate --------------------------------------------

  /// The precise accumulation stage of the fused kernels (detail::acc_lane
  /// in batch.h with th < 1): a float add whose result is masked by
  /// acc_keep, NaN sums canonicalized to qNaN.
  static V add_keep(V pb, V cb, V acc_keep) {
    M nan;
    const V s = T::add_ps(pb, cb, &nan);
    return T::sel(T::and_(s, acc_keep), T::set1(kQnanBits), nan);
  }

  /// Calls f with the fused kernels' accumulation stage (detail::acc_lane)
  /// as a step add(p, c), resolved once per span or panel: the TH adder when
  /// th >= 1, on its exact path when th <= FB - 1, else add_keep.
  template <class F>
  static void with_acc(int th, std::uint32_t acc_keep, F&& f) {
    if (th >= FB)
      return f([th](V p, V c) { return ifp_add<false>(p, c, th); });
    if (th >= 1) return f([th](V p, V c) { return ifp_add<true>(p, c, th); });
    const V keep = T::set1(acc_keep);
    f([keep](V p, V c) { return add_keep(p, c, keep); });
  }

  /// out = add(mul(a, b), c) for one multiplier datapath `mul`, with_acc's
  /// stage `add`.
  template <class Mul>
  static void mac(const float* a, const float* b, const float* c, float* out,
                  std::size_t n, int th, std::uint32_t acc_keep, Mul mul) {
    with_acc(th, acc_keep, [&](auto add) {
      drive(out, n, [&](V x, V y, V z) { return add(mul(x, y), z); }, a, b,
            c);
    });
  }

  // --- GEMM panel: C rows in registers across the k loop --------------------
  // A block of kPanelRows C rows runs one column vector at a time. Each k
  // step loads one B vector, shares it across the rows and advances every
  // row's chain by add(mul(A[r,k], b), c_r). An imprecise multiplier splits
  // the row group's A operands into their fields once per chunk of at most
  // kPanelChunk steps (AChunk), and every column vector of the chunk reuses
  // the split: a step splits b alone, once for all the rows, and joins it
  // with each row's broadcast A fields (SplitMul::mul). A zero or subnormal
  // operand stays on that step through its exponent term kZeroExp, and a B
  // NaN lane is one select. A chunk whose A operands hold an inf or NaN, a B
  // panel that holds an infinity (inf x 0 needs both operands' classes), and
  // a wide accumulator whose block is longer than a chunk (C stays in
  // registers over the whole panel) run the unsplit datapath on the
  // broadcast A operand instead, which is also the precise multiplier's only
  // step. Each C element still runs its own chain with k ascending, so the
  // panel matches any other schedule of the same chain bit for bit.

  static constexpr std::size_t kPanelRows = 4, kPanelChunk = 64;

  /// Exponent term of a zero or subnormal operand: so far below the window
  /// that every product with it flushes to the signed zero in core_result,
  /// whatever the other operand's exponent.
  static constexpr std::uint32_t kZeroExp = 0u - 1024u;

  /// The A operands of one row group's chunk split for the shared-B step,
  /// one array per field of SplitMul::Term, as float bit patterns: the
  /// operand's sign bit, its exponent field less the bias (kZeroExp less
  /// the bias for a zero or subnormal), the multiplier's significand term,
  /// and for the Mitchell full path the operand's half of the cross term:
  /// x' and the shift count 2FB - 1 + 2 kBias - l.
  struct AChunk {
    float sign[kPanelRows][kPanelChunk], exp[kPanelRows][kPanelChunk],
        sig[kPanelRows][kPanelChunk], x[kPanelRows][kPanelChunk],
        cnt[kPanelRows][kPanelChunk];
  };

  /// A split field broadcast to every lane.
  static V bcast(float f) { return T::set1(std::bit_cast<std::uint32_t>(f)); }

  /// The precise multiplier: the unsplit step only.
  struct PreciseMul {
    V operator()(V a, V b) const { return T::mul_ps(a, b); }
  };

  /// An imprecise multiplier in the halves of the shared-B step: term()
  /// once per vector of A operands (split into an AChunk) and once per B
  /// vector for all the rows, and mul() to join them, for operands that are
  /// not inf or NaN. operator() is the unsplit datapath, for any operands.
  template <PanelMul kMul>
  struct SplitMul {
    V keep;

    /// One operand vector's half of a step: sign bits, exponent field
    /// (kZeroExp in the zero and subnormal lanes), significand term, the
    /// Mitchell full path's cross-term half, and the lanes whose exponent
    /// field is all ones (inf or NaN).
    struct Term {
      V sign, exp, sig;
      CrossHalf cross;
      M top;
    };

    V operator()(V a, V b) const {
      if constexpr (kMul == PanelMul::kIfp) return ifp_mul(a, b);
      else if constexpr (kMul == PanelMul::kAcfpLog)
        return acfp_log(a, b, keep);
      else if constexpr (kMul == PanelMul::kAcfpFull)
        return acfp_full(a, b, keep);
      else return trunc_mul(a, b, keep);
    }

    Term term(V v) const {
      const V e = T::and_(T::srli(v, FB), T::set1(kExpMask));
      const V f = T::and_(v, T::set1(kFracMask));
      Term t;
      t.sign = T::and_(v, T::set1(kSignMask));
      t.exp = T::sel(e, T::set1(kZeroExp), T::eq(e, T::set1(0)));
      t.top = T::eq(e, T::set1(kExpMask));
      if constexpr (kMul == PanelMul::kIfp) t.sig = f;
      else if constexpr (kMul == PanelMul::kTrunc)
        t.sig = one_f(f);
      else t.sig = T::and_(f, keep);
      if constexpr (kMul == PanelMul::kAcfpFull) t.cross = cross_half(t.sig);
      return t;
    }

    /// A's fields of one vector of k steps of row r, from term().
    static void store_a(AChunk& at, std::size_t r, std::size_t k,
                        const Term& t) {
      T::store(at.sign[r] + k, t.sign);
      T::store(at.exp[r] + k, T::sub(t.exp, T::set1(kBias)));
      T::store(at.sig[r] + k, t.sig);
      if constexpr (kMul == PanelMul::kAcfpFull) {
        T::store(at.x[r] + k, t.cross.x);
        T::store(at.cnt[r] + k,
                 T::sub(T::set1(2 * FB - 1 + 2 * kBias), t.cross.l));
      }
    }

    /// The product of A[r, k] and the B vector of term b. A panel on this
    /// step holds no B infinity, so b's all-ones lanes are NaNs.
    V mul(const Term& b, const AChunk& at, std::size_t r,
          std::size_t k) const {
      const V sign = T::xor_(b.sign, bcast(at.sign[r][k]));
      const V e = T::add(b.exp, bcast(at.exp[r][k]));
      const V sig = bcast(at.sig[r][k]);
      V p;
      if constexpr (kMul == PanelMul::kTrunc) {
        p = trunc_core(sign, e, sig, b.sig, keep);
      } else if constexpr (kMul == PanelMul::kAcfpLog) {
        p = log_core(sign, e, T::add(sig, b.sig));
      } else {
        V s = T::add(sig, b.sig);
        if constexpr (kMul == PanelMul::kAcfpFull)
          s = T::add(s, cross_join(bcast(at.x[r][k]), bcast(at.cnt[r][k]),
                                   b.cross.x, b.cross.l));
        p = carry_core(sign, e, s);
      }
      return T::sel(p, T::set1(kQnanBits), b.top);
    }
  };

  /// Whether Mul has the shared-B step (SplitMul) or only the unsplit one.
  template <class Mul>
  static constexpr bool kSplits =
      requires(const Mul& m) { m.term(T::set1(0)); };

  /// The per-step accumulators: `add` advances one C row in place.
  template <class Add>
  struct StepAcc {
    Add add;
    using Row = V;
    static Row begin(V c) { return c; }
    void mac(Row& c, V p) const { c = add(p, c); }
    template <std::size_t R>
    void next(Row (&)[R]) {}
    static V end(const Row& c) { return c; }
    /// Steps between stores of a row: its state is c alone at every step.
    static std::size_t span(std::size_t) { return kPanelChunk; }
  };

  /// The wide accumulator: a row's products sum exactly into fp64 lanes and
  /// fold into c, through the precise canonicalizing add, every `blk` steps
  /// and at the end of the panel.
  struct WideAcc {
    std::size_t blk, left;
    struct Row {
      V c;
      typename T::D lo, hi;
    };
    static Row begin(V c) { return {c, T::set1d(0.0), T::set1d(0.0)}; }
    void mac(Row& r, V p) const {
      typename T::D plo, phi;
      T::widen2(p, &plo, &phi);
      r.lo = T::addd(r.lo, plo);
      r.hi = T::addd(r.hi, phi);
    }
    static void fold(Row& r) {
      r.c = add_keep(T::narrow2(r.lo, r.hi), r.c, T::set1(~0u));
      r.lo = r.hi = T::set1d(0.0);
    }
    template <std::size_t R>
    void next(Row (&rows)[R]) {
      if (--left != 0) return;
      for (Row& r : rows) fold(r);
      left = blk;
    }
    V end(Row& r) const {
      if (left != blk) fold(r);
      return r.c;
    }
    /// Steps between stores of a row: whole blocks, where the fp64 sums
    /// are empty, within a chunk, else the whole panel of kn steps, which
    /// runs the unsplit datapath.
    std::size_t span(std::size_t kn) const {
      return blk <= kPanelChunk ? kPanelChunk - kPanelChunk % blk : kn;
    }
  };

  /// The A operands of steps k0 .. k0+n-1 of the row group split into at;
  /// null when one of them is an inf or NaN, or the multiplier does not
  /// split, so that the steps run the unsplit datapath. A ragged end of the
  /// steps loads through a zero-padded stack copy.
  template <class Mul>
  static const AChunk* split_a(const float* const (&arow)[kPanelRows],
                               std::size_t k0, std::size_t n, const Mul& mul,
                               AChunk& at) {
    if constexpr (!kSplits<Mul>) {
      return nullptr;
    } else {
      constexpr std::size_t W = T::kLanes;
      bool special = false;
      for (std::size_t r = 0; r < kPanelRows; ++r)
        for (std::size_t k = 0; k < n; k += W) {
          const float* src = arow[r] + k0 + k;
          float pad[W] = {};
          if (n - k < W) {
            std::memcpy(pad, src, (n - k) * sizeof(float));
            src = pad;
          }
          const auto t = mul.term(T::load(src));
          special |= !T::none(t.top);
          Mul::store_a(at, r, k, t);
        }
      return special ? nullptr : &at;
    }
  }

  /// Steps k0 .. k0+kn-1 of the kPanelRows row chains on one column vector,
  /// the B vector of step k0 + k at b + k * ldb: the shared-B step on the
  /// split A operands `at` of the steps, or, when `at` is null, the unsplit
  /// datapath on A row r at arow[r].
  template <class Mul, class Acc>
  static void panel_steps(const float* const (&arow)[kPanelRows],
                          const AChunk* at, std::size_t k0, const float* b,
                          std::size_t ldb, std::size_t kn,
                          typename Acc::Row (&rows)[kPanelRows],
                          const Mul& mul, Acc& ac) {
    if constexpr (kSplits<Mul>) {
      if (at != nullptr) {
        for (std::size_t k = 0; k < kn; ++k) {
          const auto bt = mul.term(T::load(b + k * ldb));
          for (std::size_t r = 0; r < kPanelRows; ++r)
            ac.mac(rows[r], mul.mul(bt, *at, r, k));
          ac.next(rows);
        }
        return;
      }
    }
    for (std::size_t k = 0; k < kn; ++k) {
      const V bv = T::load(b + k * ldb);
      for (std::size_t r = 0; r < kPanelRows; ++r) {
        const V av = T::set1(std::bit_cast<std::uint32_t>(arow[r][k0 + k]));
        ac.mac(rows[r], mul(av, bv));
      }
      ac.next(rows);
    }
  }

  /// m <= kPanelRows rows of C (stride ldc) through the whole panel. The k
  /// loop runs in spans of the accumulator (Acc::span), and each span runs
  /// one column vector at a time with its A operands split once, unless
  /// `split` is false or the span is longer than a chunk. A short group
  /// repeats its last row in the missing register rows and does not store
  /// them, so every group runs the same code. The ragged column tail runs on
  /// zero-padded stack copies of C and of the B tail, the latter
  /// kPanelChunk steps at a time.
  template <class Mul, class Acc>
  static void panel_rows(const float* a, std::size_t lda, const float* b,
                         float* c, std::size_t ldc, std::size_t m,
                         std::size_t kn, std::size_t jn, const Mul& mul,
                         bool split, const Acc& proto) {
    constexpr std::size_t R = kPanelRows, W = T::kLanes;
    const float* arow[R];
    float* crow[R];
    for (std::size_t r = 0; r < R; ++r) {
      arow[r] = a + (r < m ? r : m - 1) * lda;
      crow[r] = c + (r < m ? r : m - 1) * ldc;
    }
    AChunk at;
    float cpad[R][W], bpad[kPanelChunk][W];
    if (jn % W != 0) {
      std::memset(cpad, 0, sizeof cpad);
      std::memset(bpad, 0,
                  (kn < kPanelChunk ? kn : kPanelChunk) * sizeof bpad[0]);
    }
    const std::size_t span = proto.span(kn);
    for (std::size_t s0 = 0; s0 < kn; s0 += span) {
      const std::size_t se = kn - s0 < span ? kn : s0 + span;
      const AChunk* ap = split && se - s0 <= kPanelChunk
                             ? split_a(arow, s0, se - s0, mul, at)
                             : nullptr;
      for (std::size_t j = 0; j < jn; j += W) {
        const bool tail = jn - j < W;
        const std::size_t bytes = (tail ? jn - j : W) * sizeof(float);
        float* cv[R];
        for (std::size_t r = 0; r < R; ++r) {
          cv[r] = tail ? cpad[r] : crow[r] + j;
          if (tail) std::memcpy(cpad[r], crow[r] + j, bytes);
        }
        Acc ac = proto;
        typename Acc::Row rows[R] = {};
        for (std::size_t r = 0; r < R; ++r)
          rows[r] = Acc::begin(T::load(cv[r]));
        for (std::size_t k0 = s0; k0 < se; k0 += kPanelChunk) {
          const std::size_t n = se - k0 < kPanelChunk ? se - k0 : kPanelChunk;
          const float* bv = b + k0 * jn + j;
          std::size_t ldb = jn;
          if (tail) {
            for (std::size_t k = 0; k < n; ++k)
              std::memcpy(bpad[k], bv + k * jn, bytes);
            bv = bpad[0];
            ldb = W;
          }
          panel_steps(arow, ap, k0, bv, ldb, n, rows, mul, ac);
        }
        for (std::size_t r = 0; r < m; ++r) {
          T::store(cv[r], ac.end(rows[r]));
          if (tail) std::memcpy(crow[r] + j, cv[r], bytes);
        }
      }
    }
  }

  /// Every row group of the panel, kPanelRows rows at a time. The shared-B
  /// step leaves a B panel that holds an infinity to the unsplit datapath.
  template <class Mul, class Acc>
  static void panel(const float* a, std::size_t lda, const float* b,
                    float* c, std::size_t ldc, std::size_t m, std::size_t kn,
                    std::size_t jn, const Mul& mul, const Acc& ac) {
    bool split = kSplits<Mul>;
    if (split)
      for (std::size_t i = 0; i < kn * jn; ++i)
        split &= (std::bit_cast<std::uint32_t>(b[i]) & ~kSignMask) != kInfBits;
    for (std::size_t r = 0; r < m; r += kPanelRows)
      panel_rows(a + r * lda, lda, b, c + r * ldc, ldc,
                 m - r < kPanelRows ? m - r : kPanelRows, kn, jn, mul, split,
                 ac);
  }

  /// The panel of one multiplier with the chain's accumulator.
  template <class Mul>
  static void panel_acc(const float* a, std::size_t lda, const float* b,
                        float* c, std::size_t ldc, std::size_t m,
                        std::size_t kn, std::size_t jn, const PanelChain& ch,
                        const Mul& mul) {
    if (ch.wide_block != 0)
      return panel(a, lda, b, c, ldc, m, kn, jn, mul,
                   WideAcc{ch.wide_block, ch.wide_block});
    with_acc(ch.th, ch.acc_keep, [&](auto add) {
      panel(a, lda, b, c, ldc, m, kn, jn, mul, StepAcc<decltype(add)>{add});
    });
  }

  static void mac_panel_f32(const float* a, std::size_t lda, const float* b,
                            float* c, std::size_t ldc, std::size_t m,
                            std::size_t kn, std::size_t jn,
                            const PanelChain& ch) {
    const V k = T::set1(ch.keep);
    const auto run = [&](const auto& mul) {
      panel_acc(a, lda, b, c, ldc, m, kn, jn, ch, mul);
    };
    switch (ch.mul) {
      case PanelMul::kPrecise: return run(PreciseMul{});
      case PanelMul::kIfp: return run(SplitMul<PanelMul::kIfp>{k});
      case PanelMul::kAcfpLog: return run(SplitMul<PanelMul::kAcfpLog>{k});
      case PanelMul::kAcfpFull: return run(SplitMul<PanelMul::kAcfpFull>{k});
      case PanelMul::kTrunc: return run(SplitMul<PanelMul::kTrunc>{k});
    }
  }

  // --- SFU linear segments: ircp, irsqrt, isqrt -----------------------------
  // T::seg_dp replays the scalar units' double steps per lane: xr = (1 +
  // frac/2^23) * 2^xexp, then A - B*xr (times xr once more for isqrt), then
  // the exact power-of-two scale 2^yexp, then the round to float.

  static V ircp(V xb) {
    const Fields X = fields(xb);
    const V sign = T::and_(xb, T::set1(kSignMask));
    // x = 2^(e+1) * xr with xr = m/2; y = approx * 2^-(e+1) = approx *
    // 2^(126 - biased). (float)(sign ? -y : y) == sign-bit OR for the
    // positive converted value.
    V r = T::or_(T::seg_dp(X.frac, T::set1(-1), T::sub(T::set1(kBias - 1), X.e),
                           kRcpA, kRcpB, false),
                 sign);
    // flush_subnormal on the result (sign preserved).
    const V re = T::and_(T::srli(r, FB), T::set1(kExpMask));
    r = T::sel(r, sign, T::eq(re, T::set1(0)));
    // Specials in scalar precedence order: zero (incl. flushed subnormal
    // inputs) -> signed inf, inf -> signed zero, NaN -> canonical qNaN.
    r = T::sel(r, T::or_(sign, T::set1(kInfBits)), X.is_zero);
    r = T::sel(r, sign, X.is_inf);
    return T::sel(r, T::set1(kQnanBits), X.is_nan);
  }

  /// irsqrt (kSqrt false) and isqrt (kSqrt true) on the shared segment
  /// 2.08 - 1.1911 xr. x = 4^k * xr with xr = m/4 for an even unbiased
  /// exponent e (an odd biased field) and m/2 for an odd one, and k =
  /// floor(e/2) + 1 = ((biased + 1) >> 1) - 63. irsqrt scales by 2^-k,
  /// isqrt multiplies by xr once more and scales by 2^k. For every normal
  /// input both results are normal floats (|k| <= 64, segment in
  /// [0.44, 1.79]), so the scalar units' result flush never fires.
  template <bool kSqrt>
  static V rsqrt_seg(V xb) {
    const Fields X = fields(xb);
    const V zero = T::set1(0), inf = T::set1(kInfBits);
    const V k = T::sub(T::srli(T::add(X.e, T::set1(1)), 1), T::set1(63));
    const V xexp = T::sub(T::set1(-1), T::and_(X.e, T::set1(1)));
    V r = T::seg_dp(X.frac, xexp, kSqrt ? k : T::sub(zero, k), kRsqA, kRsqB,
                    kSqrt);
    // Specials in scalar precedence order: zero (incl. flushed subnormals,
    // either sign) -> +inf / +0, +inf -> +0 / +inf, NaN or x < 0 -> qNaN.
    // x < 0 is every negative pattern but -0: flipping the sign bit leaves
    // exactly those positive as signed integers.
    r = T::sel(r, kSqrt ? zero : inf, X.is_zero);
    r = T::sel(r, kSqrt ? inf : zero, X.is_inf);
    const M neg = T::gt(T::xor_(xb, T::set1(kSignMask)), zero);
    return T::sel(r, T::set1(kQnanBits), T::mor(X.is_nan, neg));
  }

  // --- HotSpot steady-state relaxation row (double lanes) -------------------
  // Three quotients per cell by loop-invariant divisors, each RN(a / b)
  // without a divide (DESIGN.md §10). With y = RN(1/b), e = 1 - y b (exact
  // in one fma) and yl = RN(y e), y + yl is 1/b to about 2^-105, so q =
  // fma(a, y, a yl) is within a small fraction of an ulp of a / b: a
  // faithful quotient. From a faithful q and y within half an ulp of 1/b,
  // Markstein's theorem makes one correction, q + (a - q b) y with the
  // residual exact in one fma, return RN(a / b) exactly, as long as neither
  // the residual nor the quotient leaves the normal range. That holds for
  // divisors in [2^-60, 2^60] and numerators with |a| in [2^-960, 2^960).
  // A lane outside that window (a zero, whose sign the correction loses, a
  // tiny or huge a, inf or NaN) takes the real divide instead; the divides
  // run only when one movemask says some lane of the vector needs them.

  static constexpr std::uint64_t kWindowLo =
      std::bit_cast<std::uint64_t>(0x1p-960);

  /// One loop-invariant divisor: b, y = RN(1/b), the low part yl of 1/b,
  /// and the window [kWindowLo, hi) of numerator magnitudes (as bit
  /// patterns) whose divide-free quotient is exact, empty for b outside
  /// [2^-60, 2^60].
  struct Divisor {
    typename T::D b, y, yl;
    std::uint64_t hi;
    explicit Divisor(double d) {
      const double m = d < 0 ? -d : d;
      b = T::set1d(d);
      y = T::set1d(1.0 / d);
      yl = T::muld(y, T::fnmad(y, b, T::set1d(1.0)));
      hi = m >= 0x1p-60 && m <= 0x1p60 ? std::bit_cast<std::uint64_t>(0x1p960)
                                        : kWindowLo;
    }
  };

  /// RN(a / b) in the lanes of a inside d's window.
  static typename T::D quotient(typename T::D a, const Divisor& d) {
    const typename T::D q = T::fmad(a, d.y, T::muld(a, d.yl));
    return T::fmad(T::fnmad(q, d.b, a), d.y, q);
  }

  /// kDLanes cells from the centre row at c (west and east neighbours at
  /// c - 1 and c + 1), in the scalar loop's operation order.
  static typename T::D relax_cells(const double* c, const double* north,
                                   const double* south, const float* power,
                                   typename T::D sdc, typename T::D amb,
                                   const Divisor& rx, const Divisor& ry,
                                   const Divisor& rz) {
    using D = typename T::D;
    const D tc = T::loadd(c);
    const D two_tc = T::muld(T::set1d(2.0), tc);
    const D av = T::subd(T::addd(T::loadd(north), T::loadd(south)), two_tc);
    const D ah = T::subd(T::addd(T::loadd(c - 1), T::loadd(c + 1)), two_tc);
    const D as = T::subd(amb, tc);
    D vert = quotient(av, ry), horiz = quotient(ah, rx);
    D sink = quotient(as, rz);
    const auto mv = T::in_window(av, kWindowLo, ry.hi);
    const auto mh = T::in_window(ah, kWindowLo, rx.hi);
    const auto ms = T::in_window(as, kWindowLo, rz.hi);
    if (!T::all(T::dmand(mv, T::dmand(mh, ms)))) [[unlikely]] {
      vert = T::seld(T::divd(av, ry.b), vert, mv);
      horiz = T::seld(T::divd(ah, rx.b), horiz, mh);
      sink = T::seld(T::divd(as, rz.b), sink, ms);
    }
    const D sum = T::addd(T::addd(T::addd(T::widen(power), vert), horiz), sink);
    return T::addd(tc, T::muld(sdc, sum));
  }

  /// out[i] = tc + sdc * (pw + (tN + tS - 2 tc) / ry + (tW + tE - 2 tc) / rx
  /// + (amb - tc) / rz) for i < n, with tc = row[i], tW = row[i - 1], tE =
  /// row[i + 1], tN = north[i], tS = south[i], pw = power[i]: the interior
  /// cells of one sweep, so row[-1] and row[n] are read. The ragged tail
  /// runs as one more vector step on zero-padded stack copies.
  static void relax_row_f64(const double* row, const double* north,
                            const double* south, const float* power,
                            double* out, std::size_t n, double sdc, double amb,
                            double rx, double ry, double rz) {
    using D = typename T::D;
    constexpr std::size_t W = T::kDLanes;
    const D vsdc = T::set1d(sdc), vamb = T::set1d(amb);
    const Divisor dx(rx), dy(ry), dz(rz);
    std::size_t i = 0;
    for (; i + W <= n; i += W)
      T::stored(out + i, relax_cells(row + i, north + i, south + i, power + i,
                                     vsdc, vamb, dx, dy, dz));
    if (i == n) return;
    const std::size_t m = n - i;
    double c[W + 2] = {}, nn[W] = {}, ss[W] = {}, o[W];
    float pw[W] = {};
    std::memcpy(c, row + i - 1, (m + 2) * sizeof(double));
    std::memcpy(nn, north + i, m * sizeof(double));
    std::memcpy(ss, south + i, m * sizeof(double));
    std::memcpy(pw, power + i, m * sizeof(float));
    T::stored(o, relax_cells(c + 1, nn, ss, pw, vsdc, vamb, dx, dy, dz));
    std::memcpy(out + i, o, m * sizeof(double));
  }

  // --- precise op-table rows -------------------------------------------------

  /// out[i] = OpRow<O>::precise of lane `op` on a[i] (and b[i], c[i]), the
  /// lane resolved once per span. Each is the correctly rounded IEEE
  /// instruction the scalar row compiles to, on more lanes, so the bits
  /// agree everywhere but in a NaN's payload; -ffp-contract=off keeps kMac's
  /// multiply and add two roundings.
  static void precise_f32(PreciseOp op, const float* a, const float* b,
                          const float* c, float* out, std::size_t n) {
    const V one = T::set1(kOneBits);
    switch (op) {
      case PreciseOp::kAdd:
        return drive(out, n, [](V x, V y) { return T::add_ps(x, y); }, a, b);
      case PreciseOp::kSub:
        return drive(out, n, [](V x, V y) { return T::sub_ps(x, y); }, a, b);
      case PreciseOp::kMul:
        return drive(out, n, [](V x, V y) { return T::mul_ps(x, y); }, a, b);
      case PreciseOp::kDiv:
        return drive(out, n, [](V x, V y) { return T::div_ps(x, y); }, a, b);
      case PreciseOp::kRcp:
        return drive(out, n, [one](V x) { return T::div_ps(one, x); }, a);
      case PreciseOp::kRsqrt:
        return drive(
            out, n, [one](V x) { return T::div_ps(one, T::sqrt_ps(x)); }, a);
      case PreciseOp::kSqrt:
        return drive(out, n, [](V x) { return T::sqrt_ps(x); }, a);
      case PreciseOp::kMac:
        return drive(
            out, n,
            [](V x, V y, V z) { return T::add_ps(T::mul_ps(x, y), z); }, a,
            b, c);
    }
  }

  // --- span driver and table entries ----------------------------------------

  /// out[i..] = lane(in[i..]...) one vector at a time. The ragged tail runs
  /// as one more vector step on zero-padded stack copies of the inputs, so
  /// no load or store touches memory past a span's end; `out` may alias an
  /// input because every input lane is read before its output is stored.
  template <class F, class... In>
  static void drive(float* out, std::size_t n, F lane, const In*... in) {
    constexpr std::size_t W = T::kLanes;
    std::size_t i = 0;
    for (; i + W <= n; i += W) T::store(out + i, lane(T::load(in + i)...));
    if (i == n) return;
    const std::size_t bytes = (n - i) * sizeof(float);
    float pad[sizeof...(In) + 1][W] = {};
    [&]<std::size_t... K>(std::index_sequence<K...>) {
      (std::memcpy(pad[K], in + i, bytes), ...);
      T::store(pad[sizeof...(In)], lane(T::load(pad[K])...));
    }(std::index_sequence_for<In...>{});
    std::memcpy(out + i, pad[sizeof...(In)], bytes);
  }

  static void ifp_add_f32(const float* a, const float* b, float* out,
                          std::size_t n, int th, std::uint32_t flip) {
    const V f = T::set1(flip);
    with_acc(th, ~0u, [&](auto add) {
      drive(out, n, [&](V x, V y) { return add(x, T::xor_(y, f)); }, a, b);
    });
  }

  static void ifp_mul_f32(const float* a, const float* b, float* out,
                          std::size_t n) {
    drive(out, n, [](V x, V y) { return ifp_mul(x, y); }, a, b);
  }

  static void acfp_log_f32(const float* a, const float* b, float* out,
                           std::size_t n, std::uint32_t keep) {
    const V k = T::set1(keep);
    drive(out, n, [&](V x, V y) { return acfp_log(x, y, k); }, a, b);
  }

  static void trunc_mul_f32(const float* a, const float* b, float* out,
                            std::size_t n, std::uint32_t keep) {
    const V k = T::set1(keep);
    drive(out, n, [&](V x, V y) { return trunc_mul(x, y, k); }, a, b);
  }

  static void ircp_f32(const float* x, float* out, std::size_t n) {
    drive(out, n, [](V v) { return ircp(v); }, x);
  }

  static void irsqrt_f32(const float* x, float* out, std::size_t n) {
    drive(out, n, [](V v) { return rsqrt_seg<false>(v); }, x);
  }

  static void isqrt_f32(const float* x, float* out, std::size_t n) {
    drive(out, n, [](V v) { return rsqrt_seg<true>(v); }, x);
  }

  static void acfp_full_f32(const float* a, const float* b, float* out,
                            std::size_t n, std::uint32_t keep) {
    const V k = T::set1(keep);
    drive(out, n, [&](V x, V y) { return acfp_full(x, y, k); }, a, b);
  }

  static void ifp_mac_f32(const float* a, const float* b, const float* c,
                          float* out, std::size_t n, int th,
                          std::uint32_t acc_keep) {
    mac(a, b, c, out, n, th, acc_keep, [](V x, V y) { return ifp_mul(x, y); });
  }

  static void acfp_log_mac_f32(const float* a, const float* b, const float* c,
                               float* out, std::size_t n, std::uint32_t keep,
                               int th, std::uint32_t acc_keep) {
    const V k = T::set1(keep);
    mac(a, b, c, out, n, th, acc_keep,
        [&](V x, V y) { return acfp_log(x, y, k); });
  }

  static void trunc_mac_f32(const float* a, const float* b, const float* c,
                            float* out, std::size_t n, std::uint32_t keep,
                            int th, std::uint32_t acc_keep) {
    const V k = T::set1(keep);
    mac(a, b, c, out, n, th, acc_keep,
        [&](V x, V y) { return trunc_mul(x, y, k); });
  }

  static void acfp_full_mac_f32(const float* a, const float* b, const float* c,
                                float* out, std::size_t n, std::uint32_t keep,
                                int th, std::uint32_t acc_keep) {
    const V k = T::set1(keep);
    mac(a, b, c, out, n, th, acc_keep,
        [&](V x, V y) { return acfp_full(x, y, k); });
  }

  /// The backend's KernelTable: one slot per entry point above.
  static constexpr KernelTable table(const char* name) {
    return {.name = name,
            .ifp_add_f32 = &ifp_add_f32,
            .ifp_mul_f32 = &ifp_mul_f32,
            .acfp_log_f32 = &acfp_log_f32,
            .trunc_mul_f32 = &trunc_mul_f32,
            .ircp_f32 = &ircp_f32,
            .ifp_mac_f32 = &ifp_mac_f32,
            .acfp_log_mac_f32 = &acfp_log_mac_f32,
            .trunc_mac_f32 = &trunc_mac_f32,
            .acfp_full_f32 = &acfp_full_f32,
            .acfp_full_mac_f32 = &acfp_full_mac_f32,
            .irsqrt_f32 = &irsqrt_f32,
            .isqrt_f32 = &isqrt_f32,
            .relax_row_f64 = &relax_row_f64,
            .mac_panel_f32 = &mac_panel_f32,
            .precise_f32 = &precise_f32};
  }
};

}  // namespace
}  // namespace ihw::simd
