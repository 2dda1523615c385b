// Tile-GEMM engine (DESIGN.md §16). Two execution paths under one
// numerical contract:
//
//  - run(), unscreened: BLIS-style jc(nc) -> kc blocking per row-block
//    chunk, each (kc x nc) B panel packed into 64-byte-aligned scratch, and
//    one batch::mac_panel call per panel for the whole row block: the
//    AVX2/AVX-512 panel kernel keeps a few C rows in registers across the
//    panel's k loop, for every multiplier and accumulator policy. Row blocks
//    parallelize over runtime::batch_apply.
//  - run(), screened (faults or guard active), and reference(): the
//    canonical per-element schedule -- row epoch, j outer, k ascending --
//    through GuardedDispatch::op<Op::Mul>, so every multiply consumes the
//    same (epoch, op index) fault label regardless of tile sizes or threads.
//
// Both paths evaluate, for every C element, the identical accumulation
// chain c_{k+1} = acc(mul(A[i,k], B[k,j]), c_k) with k ascending from a +0
// seed, which is what makes tiled and naive bit-identical by construction.
#include "gemm/gemm.h"

#include <algorithm>
#include <cstdint>

#include "common/aligned.h"
#include "gemm/abft.h"
#include "gpu/context.h"
#include "gpu/epoch.h"
#include "ihw/batch.h"
#include "ihw/ifp_add.h"
#include "ihw/op.h"
#include "runtime/parallel.h"

namespace ihw::gemm {
namespace {

/// Fraction keep-mask of the kFp32Trunc accumulator (clamped so a canonical
/// qNaN survives, same rule as batch::mac_clamp).
std::uint32_t trunc_keep(int tr) {
  if (tr <= 0) return ~0u;
  if (tr > 22) tr = 22;
  return ~0u << tr;
}

/// Precise fp32 add with NaN canonicalization and result-LSB truncation --
/// the scalar form of the mac kernels' precise accumulation stage.
float canon_add(float p, float c, std::uint32_t keep) {
  return fp::from_bits<float>(
      batch::detail::acc_lane<float>(fp::to_bits(p), fp::to_bits(c), 0, keep));
}

/// One accumulate step of the non-wide policies.
float acc_scalar(float p, float c, const GemmConfig& g) {
  switch (g.accum) {
    case AccumMode::kIfpAdd: return ifp_add(p, c, g.accum_th);
    case AccumMode::kFp32Trunc: return canon_add(p, c, trunc_keep(g.accum_trunc));
    case AccumMode::kFp32:
    case AccumMode::kWideFp64: break;
  }
  return canon_add(p, c, ~0u);
}

/// The canonical per-element schedule for rows [r0, r1): the reference
/// semantics, also the screened path of run(). A loop over
/// detail::canonical_element, the single source of truth the ABFT recovery
/// path recomputes through (src/gemm/abft.cpp).
void canonical_rows(const float* A, const float* B, float* C, std::size_t N,
                    std::size_t K, const GemmConfig& g, std::uint64_t r0,
                    std::uint64_t r1) {
  for (std::uint64_t i = r0; i < r1; ++i) {
    float* crow = C + i * N;
    for (std::size_t j = 0; j < N; ++j)
      crow[j] = detail::canonical_element(A, B, N, K, i, j, g);
  }
}

/// The blocked fast path for rows [r0, r1): pack each B panel, then one
/// register-blocked panel kernel call runs the whole row block through it.
void row_block(const float* A, const float* B, float* C, std::size_t N,
               std::size_t K, const GemmConfig& g, const IhwConfig& icfg,
               std::size_t kc, std::size_t nc, std::uint64_t r0,
               std::uint64_t r1) {
  thread_local common::AlignedVector<float> bpanel;
  // The panel reads th < 1 as a precise accumulate, so a TH below the
  // adder's floor clamps to 1 here, as ifp_add does on the reference.
  batch::MacChain chain;
  chain.mul = icfg.mul_mode;
  chain.mul_trunc = icfg.mul_trunc;
  if (g.accum == AccumMode::kIfpAdd) chain.th = std::max(g.accum_th, 1);
  if (g.accum == AccumMode::kFp32Trunc) chain.acc_trunc = g.accum_trunc;
  if (g.accum == AccumMode::kWideFp64)
    chain.wide_block = static_cast<std::size_t>(std::max(1, g.accum_block));
  const std::size_t rows = r1 - r0;

  for (std::size_t jc = 0; jc < N; jc += nc) {
    const std::size_t jn = std::min(nc, N - jc);
    float* cblk = C + r0 * N + jc;
    for (std::size_t i = 0; i < rows; ++i) std::fill_n(cblk + i * N, jn, 0.0f);
    for (std::size_t k0 = 0; k0 < K; k0 += kc) {
      const std::size_t kn = std::min(kc, K - k0);
      // Pack the (kn x jn) B panel: contiguous rows in one cache-line
      // aligned slab, so the kernel streams it sequentially.
      if (bpanel.size() < kn * jn) bpanel.resize(kn * jn);
      for (std::size_t kk = 0; kk < kn; ++kk)
        std::copy_n(B + (k0 + kk) * N + jc, jn, bpanel.data() + kk * jn);
      // kc is a multiple of a wide accumulator's block, so every panel
      // starts on a block boundary of the reference chain.
      batch::mac_panel(A + r0 * K + k0, K, bpanel.data(), cblk, N, rows, kn,
                       jn, chain);
    }
  }
}

void bump_counters(gpu::FpContext* ctx, std::size_t M, std::size_t N,
                   std::size_t K) {
  if (ctx == nullptr) return;
  const std::uint64_t macs = static_cast<std::uint64_t>(M) * N * K;
  ctx->counters().bump(gpu::OpClass::FMul, macs);
  ctx->counters().bump(gpu::OpClass::FAdd, macs);
}

}  // namespace

namespace detail {

/// Multiplies go through the active context's guarded dispatch (precise
/// host mul with no context); the accumulator is policy-raw -- the matrix
/// unit's internal adder sits outside the voltage-overscaled multiply
/// array, so it neither faults nor screens.
float canonical_element(const float* A, const float* B, std::size_t N,
                        std::size_t K, std::size_t i, std::size_t j,
                        const GemmConfig& g) {
  auto* ctx = gpu::FpContext::current();
  const bool wide = g.accum == AccumMode::kWideFp64;
  const std::size_t blk = static_cast<std::size_t>(std::max(1, g.accum_block));
  const float* arow = A + i * K;
  float cacc = 0.0f;
  double w = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    const float a = arow[k];
    const float b = B[k * N + j];
    const float p = ctx ? ctx->guarded().op<Op::Mul>(a, b) : a * b;
    if (wide) {
      w += static_cast<double>(p);
      if ((k + 1) % blk == 0 || k + 1 == K) {
        cacc = canon_add(static_cast<float>(w), cacc, ~0u);
        w = 0.0;
      }
    } else {
      cacc = acc_scalar(p, cacc, g);
    }
  }
  return cacc;
}

}  // namespace detail

std::string to_string(AccumMode m) {
  switch (m) {
    case AccumMode::kFp32: return "fp32";
    case AccumMode::kFp32Trunc: return "fp32_trunc";
    case AccumMode::kIfpAdd: return "ifp_add";
    case AccumMode::kWideFp64: return "wide_fp64";
  }
  return "?";
}

std::string to_string(AbftMode m) {
  switch (m) {
    case AbftMode::kOff: return "off";
    case AbftMode::kDetect: return "detect";
    case AbftMode::kRecover: return "recover";
  }
  return "?";
}

void run(const float* A, const float* B, float* C, int M, int N, int K,
         const GemmConfig& cfg) {
  if (M <= 0 || N <= 0) return;
  const std::size_t sM = static_cast<std::size_t>(M);
  const std::size_t sN = static_cast<std::size_t>(N);
  if (K <= 0) {  // empty chain: every element keeps its +0 seed
    std::fill_n(C, sM * sN, 0.0f);
    return;
  }
  const std::size_t sK = static_cast<std::size_t>(K);
  auto* caller = gpu::FpContext::current();
  const IhwConfig icfg = caller ? caller->config() : IhwConfig::precise();
  bump_counters(caller, sM, sN, sK);

  if (icfg.screened()) {
    // Canonical schedule, one row per epoch: fault draws and guard
    // decisions match reference() at any tile size and thread count.
    runtime::batch_apply(
        sM, 1,
        [&](std::uint64_t r0, std::uint64_t r1) {
          canonical_rows(A, B, C, sN, sK, cfg, r0, r1);
        },
        cfg.threads);
  } else {
    const std::size_t mc = static_cast<std::size_t>(std::max(1, cfg.mc));
    const std::size_t nc = static_cast<std::size_t>(std::max(1, cfg.nc));
    std::size_t kc = static_cast<std::size_t>(std::max(1, cfg.kc));
    if (cfg.accum == AccumMode::kWideFp64) {
      const std::size_t blk =
          static_cast<std::size_t>(std::max(1, cfg.accum_block));
      kc = std::max(blk, kc - kc % blk);  // align panel edges to wide blocks
    }
    runtime::batch_apply(
        sM, mc,
        [&](std::uint64_t r0, std::uint64_t r1) {
          row_block(A, B, C, sN, sK, cfg, icfg, kc, nc, r0, r1);
        },
        cfg.threads);
  }

  // ABFT checksum verification + localized recovery (DESIGN.md §17),
  // serial on the caller's thread so counters and any recovery recompute
  // are schedule-invariant.
  if (cfg.abft != AbftMode::kOff) abft::verify(A, B, C, M, N, K, cfg);
}

void reference(const float* A, const float* B, float* C, int M, int N, int K,
               const GemmConfig& cfg) {
  if (M <= 0 || N <= 0) return;
  const std::size_t sM = static_cast<std::size_t>(M);
  const std::size_t sN = static_cast<std::size_t>(N);
  if (K <= 0) {
    std::fill_n(C, sM * sN, 0.0f);
    return;
  }
  const std::size_t sK = static_cast<std::size_t>(K);
  bump_counters(gpu::FpContext::current(), sM, sN, sK);
  for (std::uint64_t i = 0; i < sM; ++i)
    gpu::run_epoch(i, [&] { canonical_rows(A, B, C, sN, sK, cfg, i, i + 1); });
  gpu::finish_launch();
}

}  // namespace ihw::gemm
