#pragma once
// Batched tile-GEMM on the imprecise SIMD kernels (DESIGN.md §16): the
// tensor-core-style matrix unit the 2014 paper predates. The multiply array
// is whatever the ambient gpu::FpContext configures (precise, ifp_mul,
// Mitchell, bit-truncated -- the Table 1 datapaths through the
// register-blocked batch::mac_panel kernel and its AVX2/AVX-512 backends),
// while the accumulator is a property of the matrix unit itself, selected
// per call by GemmConfig::accum:
//
//   kFp32      -- full-width fp32 accumulate, round-to-nearest.
//   kFp32Trunc -- fp32 accumulate with `accum_trunc` result LSBs dropped
//                 after every add (a narrowed accumulator datapath, RZ).
//   kIfpAdd    -- the paper's TH-threshold imprecise adder as accumulator.
//   kWideFp64  -- block-wise wide accumulation: products accumulate exactly
//                 into an fp64 register for `accum_block` consecutive k
//                 steps, then fold into the fp32 C entry (the tensor-core
//                 "wide accumulate" shape Khattak & Mikaitis probe for).
//
// Determinism contract (tests/test_gemm.cpp): for every accumulation
// policy, run() is bit-identical to reference() -- the canonical serial
// triple loop -- at any tile size (mc/kc/nc), any thread count, and any
// SIMD backend (IHW_FORCE_ISA), because every C element consumes its k
// products in ascending order through the same accumulation chain no matter
// how the loops are blocked. Under an active fault/guard configuration the
// engine drops to the canonical per-element schedule so fault draws and
// guard decisions also match reference() exactly (epoch = row index).
//
// Counters: one FMul and one FAdd per multiply-accumulate (M*N*K of each)
// on the caller's context -- the matrix unit issues real two-op MACs; the
// kWideFp64 combine folds into the per-k accumulate count. NaN sums in the
// fp32/fp64 accumulators canonicalize to qNaN like every other unit here.
#include <cstddef>
#include <string>

namespace ihw::gemm {

/// Accumulator policy of the matrix unit (see header comment).
enum class AccumMode { kFp32, kFp32Trunc, kIfpAdd, kWideFp64 };

std::string to_string(AccumMode m);

/// ABFT protection level of a run() call (DESIGN.md §17). kDetect verifies
/// Huang-Abraham row/column checksums against a PMF-calibrated threshold
/// after the compute; kRecover additionally recomputes every flagged
/// (row-block, col-block) intersection through the screened guarded-dispatch
/// path. Both preserve the bit-identity contract: C is untouched by kDetect,
/// and kRecover's recomputation is the canonical chain itself.
enum class AbftMode { kOff = 0, kDetect = 1, kRecover = 2 };

std::string to_string(AbftMode m);

struct GemmConfig {
  AccumMode accum = AccumMode::kFp32;
  int accum_trunc = 0;   ///< kFp32Trunc: result LSBs dropped per accumulate
  int accum_th = 8;      ///< kIfpAdd: TH of the accumulator adder (< 1 is 1)
  int accum_block = 32;  ///< kWideFp64: k steps per wide block (>= 1)

  // Cache-blocking tile sizes (rows x depth x columns). Any positive values
  // are valid; results never depend on them.
  int mc = 64;
  int kc = 256;
  int nc = 256;

  int threads = 1;  ///< worker count for the row-block parallelism (0 = default)

  AbftMode abft = AbftMode::kOff;  ///< checksum fault detection / recovery
};

/// C (M x N, row-major) = A (M x K) * B (K x N). C is overwritten (the
/// accumulation chain of every element starts from +0). Multiplier flavor
/// comes from the active gpu::FpContext (precise and uncounted when none is
/// installed); the accumulator is cfg.accum. Cache-blocked, packed, and
/// parallel over row blocks with shard-order counter merges.
void run(const float* A, const float* B, float* C, int M, int N, int K,
         const GemmConfig& cfg);

/// The canonical serial triple loop (row epoch, j outer, k ascending):
/// the bit-identity reference for run() and the naive baseline the
/// micro_gemm speedup floor is measured against.
void reference(const float* A, const float* B, float* C, int M, int N, int K,
               const GemmConfig& cfg);

namespace detail {
/// One element of the canonical chain: the exact value run()/reference()
/// assign to C[i,j] -- multiplies through the active context's guarded
/// dispatch, accumulation policy-raw, k ascending from a +0 seed. The ABFT
/// recovery path recomputes flagged elements through this single source of
/// truth, so a recovered element is bit-identical to the reference by
/// construction (canonical_rows is a loop over it).
float canonical_element(const float* A, const float* B, std::size_t N,
                        std::size_t K, std::size_t i, std::size_t j,
                        const GemmConfig& g);
}  // namespace detail

}  // namespace ihw::gemm
