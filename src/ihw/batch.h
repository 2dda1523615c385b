#pragma once
// Span-level batched kernels for the imprecise datapaths: the SoA fast path
// under FpDispatch::add_n/mul_n/... (dispatch.h). Each kernel hoists the
// unit's structural parameters (TH, truncation, multiplier path) out of the
// loop and runs the unit's lane (lanes.h, the one definition of each adder
// and multiplier datapath) over the operand spans, so per-operation
// overhead (config resolution, dispatch branching, counter bumps) is paid
// once per span instead of once per element and the compiler can
// autovectorize the branch-free integer datapath.
//
// The scalar units in ifp_add.h / ifp_mul.h / acfp_mul.h / trunc_mul.h are
// the same lanes on one element, so a span and a loop of scalar calls agree
// by construction; tests/test_batch.cpp checks the spans against the
// structural datapath models in arith/datapath instead, the independent
// oracle. The SFU and division spans call the scalar unit in sfu.h per
// element; float ircp, irsqrt and isqrt also have SIMD kernels.
//
// What is vectorized: every multiplier lane (ifp_mul, both Mitchell paths,
// trunc_mul) and the ifp_add lane are pure integer select chains (the
// scalar-ish steps are std::bit_width leading-one searches); float
// trunc_mul's lane widens to 64-bit products, while its SIMD kernels take
// the same bits from one float multiply of 1.fa x 1.fb rounded toward zero.
//
// Runtime ISA dispatch (DESIGN.md §15): each float span wrapper first
// consults the active simd::KernelTable; a non-null entry is a hand-
// vectorized AVX2/AVX-512 backend that is bit-identical to the lane loop
// below and takes over the whole span. A null entry (the scalar table,
// every double lane, non-x86 builds) falls through to the lane loop here.
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "ihw/acfp_mul.h"
#include "ihw/config.h"
#include "ihw/ifp_add.h"
#include "ihw/ifp_mul.h"
#include "ihw/lanes.h"
#include "ihw/sfu.h"
#include "ihw/simd/isa.h"
#include "ihw/trunc_mul.h"

namespace ihw::batch {

namespace detail {

/// Accumulation stage of the fused multiply-accumulate kernels: one product
/// bit pattern feeding the configured accumulator. `th >= 1` selects the
/// TH-threshold imprecise adder (th pre-clamped to [1, frac_bits+4] by the
/// span wrapper); `th < 1` selects a precise IEEE add whose result keeps
/// only the bits of `acc_keep` -- an RZ truncation of the low result bits
/// modelling a narrowed matrix-unit accumulator (acc_keep == ~B{0} is the
/// plain full-width accumulator). NaN sums canonicalize to qNaN like every
/// other unit here, which also keeps the result independent of how the host
/// commutes the add's NaN operands.
template <typename T>
inline fp::BitsOf<T> acc_lane(fp::BitsOf<T> pb, fp::BitsOf<T> cb, int th,
                              fp::BitsOf<T> acc_keep) {
  if (th >= 1) return lanes::ifp_add_lane<T>(pb, cb, th);
  const T s = fp::from_bits<T>(pb) + fp::from_bits<T>(cb);
  if (s != s) return lanes::qnan_bits<T>();
  return fp::to_bits(s) & acc_keep;
}

}  // namespace detail

/// Clamps the fused-kernel accumulator parameters to the contract of the
/// acc_lane stage and the SIMD table entries: th normalized to 0 (precise
/// accumulate) or [1, frac_bits+4], acc_trunc to [0, frac_bits-1] so a
/// canonical qNaN always survives the keep mask. Returns the keep mask.
template <typename T>
inline fp::BitsOf<T> mac_clamp(int* th, int* acc_trunc) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  *th = *th >= 1 ? lanes::add_th<T>(*th) : 0;
  if (*acc_trunc < 0) *acc_trunc = 0;
  if (*acc_trunc > Tr::frac_bits - 1) *acc_trunc = Tr::frac_bits - 1;
  return *acc_trunc == 0 ? ~B{0} : (~B{0} << *acc_trunc);
}

// --- span kernels (the FpDispatch *_n backends) ----------------------------

/// out[i] = ifp_add(a[i], b[i], th) (ifp_sub with subtract = true).
template <typename T>
void ifp_add_n(const T* a, const T* b, T* out, std::size_t n, int th,
               bool subtract = false) {
  th = lanes::add_th<T>(th);
  const fp::BitsOf<T> flip =
      subtract ? fp::FloatTraits<T>::sign_mask : fp::BitsOf<T>{0};
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_add_f32) return k(a, b, out, n, th, flip);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(
        lanes::ifp_add_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]) ^ flip, th));
  }
}

template <typename T>
void ifp_sub_n(const T* a, const T* b, T* out, std::size_t n, int th) {
  ifp_add_n(a, b, out, n, th, /*subtract=*/true);
}

/// out[i] = ifp_mul(a[i], b[i]).
template <typename T>
void ifp_mul_n(const T* a, const T* b, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_mul_f32) return k(a, b, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(
        lanes::ifp_mul_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i])));
  }
}

/// out[i] = acfp_mul(a[i], b[i], path, trunc).
template <typename T>
void acfp_mul_n(const T* a, const T* b, T* out, std::size_t n, AcfpPath path,
                int trunc) {
  const fp::BitsOf<T> keep = lanes::frac_keep<T>(trunc);
  const bool full = path == AcfpPath::Full;
  if constexpr (std::is_same_v<T, float>) {
    const simd::KernelTable& t = simd::kernels();
    if (auto* k = full ? t.acfp_full_f32 : t.acfp_log_f32)
      return k(a, b, out, n, keep);
  }
  // One loop per path: a path select inside the loop would keep the log
  // lane from vectorizing.
  if (full) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = fp::from_bits<T>(lanes::acfp_full_lane<T>(
          fp::to_bits(a[i]), fp::to_bits(b[i]), keep));
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(
        lanes::acfp_log_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep));
  }
}

/// out[i] = trunc_mul(a[i], b[i], trunc).
template <typename T>
void trunc_mul_n(const T* a, const T* b, T* out, std::size_t n, int trunc) {
  const fp::BitsOf<T> keep = lanes::frac_keep<T>(trunc);
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().trunc_mul_f32) return k(a, b, out, n, keep);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(
        lanes::trunc_mul_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep));
  }
}

// --- fused multiply-accumulate spans ---------------------------------------
// out[i] = acc(mul(a[i], b[i]), c[i]): the product never materializes as a
// span, so GEMM inner loops and the app hot loops save a full store/reload
// pass. The accumulator is policy-configurable (see detail::acc_lane): the
// TH-adder when th >= 1, a precise fp add with `acc_trunc` result LSBs
// dropped otherwise. Element-wise bit-identical to the two-pass composition
// mul_n -> add stage by construction (both stages are pure bit functions);
// tests/test_batch.cpp enforces this. `out` may alias `c` (the in-place
// accumulate of a GEMM tile).

/// out[i] = acc(ifp_mul(a[i], b[i]), c[i]).
template <typename T>
void ifp_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
               int th, int acc_trunc = 0) {
  const fp::BitsOf<T> acc_keep = mac_clamp<T>(&th, &acc_trunc);
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_mac_f32)
      return k(a, b, c, out, n, th, acc_keep);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(detail::acc_lane<T>(
        lanes::ifp_mul_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i])),
        fp::to_bits(c[i]), th, acc_keep));
  }
}

/// out[i] = acc(acfp_mul(a[i], b[i], path, trunc), c[i]).
template <typename T>
void acfp_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
                AcfpPath path, int trunc, int th, int acc_trunc = 0) {
  const fp::BitsOf<T> acc_keep = mac_clamp<T>(&th, &acc_trunc);
  const fp::BitsOf<T> keep = lanes::frac_keep<T>(trunc);
  const bool full = path == AcfpPath::Full;
  if constexpr (std::is_same_v<T, float>) {
    const simd::KernelTable& t = simd::kernels();
    if (auto* k = full ? t.acfp_full_mac_f32 : t.acfp_log_mac_f32)
      return k(a, b, c, out, n, keep, th, acc_keep);
  }
  if (full) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = fp::from_bits<T>(detail::acc_lane<T>(
          lanes::acfp_full_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep),
          fp::to_bits(c[i]), th, acc_keep));
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(detail::acc_lane<T>(
        lanes::acfp_log_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep),
        fp::to_bits(c[i]), th, acc_keep));
  }
}

/// out[i] = acc(trunc_mul(a[i], b[i], trunc), c[i]).
template <typename T>
void trunc_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
                 int trunc, int th, int acc_trunc = 0) {
  const fp::BitsOf<T> acc_keep = mac_clamp<T>(&th, &acc_trunc);
  const fp::BitsOf<T> keep = lanes::frac_keep<T>(trunc);
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().trunc_mac_f32)
      return k(a, b, c, out, n, keep, th, acc_keep);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(detail::acc_lane<T>(
        lanes::trunc_mul_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep),
        fp::to_bits(c[i]), th, acc_keep));
  }
}

// --- GEMM panel ------------------------------------------------------------

/// The accumulation chain of a GEMM panel (DESIGN.md §16): the multiplier
/// datapath and its truncation, then the accumulator -- the TH-adder when
/// th >= 1, else a precise add dropping `acc_trunc` result LSBs, both as in
/// the fused mac spans -- or, when wide_block > 0, the wide accumulator:
/// products sum exactly in fp64 for wide_block steps, then round and fold
/// into c through the precise canonicalizing add.
struct MacChain {
  MulMode mul = MulMode::Precise;
  int mul_trunc = 0;
  int th = 0;
  int acc_trunc = 0;
  std::size_t wide_block = 0;
};

namespace detail {

/// The lane loop of mac_panel: row by row, k ascending, each step one pass
/// of c = acc(mul(a, b), c) over the row's columns.
template <typename T, class Mul, class Acc>
void mac_panel_lanes(const T* a, std::size_t lda, const T* b, T* c,
                     std::size_t ldc, std::size_t m, std::size_t kn,
                     std::size_t jn, Mul mul, Acc acc) {
  for (std::size_t r = 0; r < m; ++r) {
    T* crow = c + r * ldc;
    for (std::size_t k = 0; k < kn; ++k) {
      const fp::BitsOf<T> ab = fp::to_bits(a[r * lda + k]);
      const T* brow = b + k * jn;
      for (std::size_t j = 0; j < jn; ++j)
        crow[j] = fp::from_bits<T>(
            acc(mul(ab, fp::to_bits(brow[j])), fp::to_bits(crow[j])));
    }
  }
}

/// The wide accumulator's lane loop, on column strips of a fixed width so
/// that the fp64 sums fit on the stack.
template <typename T, class Mul>
void mac_panel_wide_lanes(const T* a, std::size_t lda, const T* b, T* c,
                          std::size_t ldc, std::size_t m, std::size_t kn,
                          std::size_t jn, std::size_t blk, Mul mul) {
  using B = fp::BitsOf<T>;
  constexpr std::size_t kStrip = 64;
  for (std::size_t r = 0; r < m; ++r) {
    T* crow = c + r * ldc;
    for (std::size_t j0 = 0; j0 < jn; j0 += kStrip) {
      const std::size_t w = jn - j0 < kStrip ? jn - j0 : kStrip;
      for (std::size_t kb = 0; kb < kn; kb += blk) {
        const std::size_t ke = kn - kb < blk ? kn : kb + blk;
        double sum[kStrip] = {};
        for (std::size_t k = kb; k < ke; ++k) {
          const B ab = fp::to_bits(a[r * lda + k]);
          const T* brow = b + k * jn + j0;
          for (std::size_t j = 0; j < w; ++j)
            sum[j] += static_cast<double>(
                fp::from_bits<T>(mul(ab, fp::to_bits(brow[j]))));
        }
        for (std::size_t j = 0; j < w; ++j)
          crow[j0 + j] = fp::from_bits<T>(
              acc_lane<T>(fp::to_bits(static_cast<T>(sum[j])),
                          fp::to_bits(crow[j0 + j]), 0, ~B{0}));
      }
    }
  }
}

inline simd::PanelMul panel_mul(MulMode m) {
  switch (m) {
    case MulMode::ImpreciseSimple: return simd::PanelMul::kIfp;
    case MulMode::MitchellLog: return simd::PanelMul::kAcfpLog;
    case MulMode::MitchellFull: return simd::PanelMul::kAcfpFull;
    case MulMode::BitTruncated: return simd::PanelMul::kTrunc;
    case MulMode::Precise: break;
  }
  return simd::PanelMul::kPrecise;
}

}  // namespace detail

/// For r < m and j < jn: c[r*ldc + j] = acc(mul(a[r*lda + k], b[k*jn + j]),
/// c[r*ldc + j]) for k = 0 .. kn-1 in ascending order -- the GEMM inner
/// kernel over a packed (kn x jn) B panel, C updated in place. A wide chain
/// must start on a block boundary (the panel's end always folds).
template <typename T>
void mac_panel(const T* a, std::size_t lda, const T* b, T* c, std::size_t ldc,
               std::size_t m, std::size_t kn, std::size_t jn,
               const MacChain& ch) {
  int th = ch.th, acc_trunc = ch.acc_trunc;
  const fp::BitsOf<T> acc_keep = mac_clamp<T>(&th, &acc_trunc);
  const fp::BitsOf<T> keep = lanes::frac_keep<T>(ch.mul_trunc);
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().mac_panel_f32)
      return k(a, lda, b, c, ldc, m, kn, jn,
               {detail::panel_mul(ch.mul), keep, th, acc_keep, ch.wide_block});
  }
  using B = fp::BitsOf<T>;
  // The accumulator is a compile-time choice, so the lane loops vectorize.
  const auto run = [&](auto mul) {
    if (ch.wide_block != 0)
      return detail::mac_panel_wide_lanes<T>(a, lda, b, c, ldc, m, kn, jn,
                                             ch.wide_block, mul);
    if (th >= 1)
      return detail::mac_panel_lanes<T>(
          a, lda, b, c, ldc, m, kn, jn, mul,
          [th](B p, B x) { return lanes::ifp_add_lane<T>(p, x, th); });
    detail::mac_panel_lanes<T>(a, lda, b, c, ldc, m, kn, jn, mul,
                               [acc_keep](B p, B x) {
                                 return detail::acc_lane<T>(p, x, 0, acc_keep);
                               });
  };
  switch (ch.mul) {
    case MulMode::ImpreciseSimple:
      return run([](B x, B y) { return lanes::ifp_mul_lane<T>(x, y); });
    case MulMode::MitchellLog:
      return run([keep](B x, B y) {
        return lanes::acfp_log_lane<T>(x, y, keep);
      });
    case MulMode::MitchellFull:
      return run([keep](B x, B y) {
        return lanes::acfp_full_lane<T>(x, y, keep);
      });
    case MulMode::BitTruncated:
      return run([keep](B x, B y) {
        return lanes::trunc_mul_lane<T>(x, y, keep);
      });
    case MulMode::Precise: break;
  }
  run([](B x, B y) {
    return fp::to_bits(fp::from_bits<T>(x) * fp::from_bits<T>(y));
  });
}

// --- SFU / division spans (scalar unit per element, hoisted dispatch) -------

template <typename T>
void ifp_div_n(const T* a, const T* b, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ifp_div(a[i], b[i]);
}

template <typename T>
void ircp_n(const T* x, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ircp_f32) return k(x, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = ircp(x[i]);
}

template <typename T>
void irsqrt_n(const T* x, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().irsqrt_f32) return k(x, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = irsqrt(x[i]);
}

template <typename T>
void isqrt_n(const T* x, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().isqrt_f32) return k(x, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = isqrt(x[i]);
}

template <typename T>
void ilog2_n(const T* x, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ilog2(x[i]);
}

template <typename T>
void iexp2_n(const T* x, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = iexp2(x[i]);
}

/// out[i] = ifp_fma(a[i], b[i], c[i], th): the imprecise multiplier feeding
/// the TH-adder, now one pass through the fused mac kernel (bit-identical to
/// the old two-pass tile composition because both stages are pure bit
/// functions and the mac kernel chains the same two lanes).
template <typename T>
void ifp_fma_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
               int th) {
  // The fused kernel reads th < 1 as precise-accumulate; the unit clamps it.
  ifp_mac_n(a, b, c, out, n, lanes::add_th<T>(th));
}

}  // namespace ihw::batch
