#pragma once
// Runtime ISA dispatch for the span kernels of ihw/batch.h (DESIGN.md §15).
//
// The batched span kernels are pure integer select chains, so a default
// (portable baseline) build used to leave their throughput to whatever the
// compiler's autovectorizer managed at -march=x86-64. This layer replaces
// that hope with guarantees: hand-vectorized AVX2 and AVX-512 backends of
// the hottest kernels, and a cpuid-based detector that picks the widest
// supported backend once per process. One default build binary therefore
// hits peak span throughput on any x86-64 host; on other architectures
// every table entry is null and the lane loops in batch.h run.
//
// Layout: every backend kernel is written once, as a template over an ISA
// shim, in kernel_body.h. Each ISA is one shim file -- kernels_avx2.cpp
// (AVX2 + FMA), kernels_avx512.cpp -- compiled with just enough -m flags for
// its own ISA: it defines the shim (the lane vector and compare-result types
// plus ~25 always-inline integer wrappers and a dozen double-lane ones),
// includes the body and defines its table below. To add a kernel, write one
// body function and give it one KernelTable slot (and its place in
// Kernels<T>::table); to add an ISA, write one shim file and give it an
// IsaLevel.
//
// Bit-identity contract: a backend entry is only allowed in a table if it
// produces exactly the bits of the lane in lanes.h for
// every input, including NaN/Inf/signed-zero/subnormal operands and every
// runtime parameter (TH, truncation mask). tests/test_simd.cpp enforces
// this with exhaustive 16-bit-pattern cross-checks plus randomized fuzz per
// backend, and the CTest suite re-runs under IHW_FORCE_ISA=scalar/avx2/
// avx512 so the whole tree is exercised on each level the host supports.
// Because every backend is bit-identical, FpDispatch::*_n,
// GuardedDispatch::*_n, and runtime::batch_apply swap backends without any
// observable difference beyond speed.
//
// Overrides: the IHW_FORCE_ISA environment variable (scalar|avx2|avx512,
// read once at first use) pins the backend for testing and benchmarking;
// isa_force()/ScopedIsa do the same programmatically. Forcing a level the
// host cannot execute clamps down to the widest supported one, so a forced
// binary never faults on an illegal instruction.
#include <cstddef>
#include <cstdint>

namespace ihw::simd {

/// Backend levels, widest last.
enum class IsaLevel : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Multiplier datapath of a mac_panel_f32 chain.
enum class PanelMul : int { kPrecise, kIfp, kAcfpLog, kAcfpFull, kTrunc };

/// The accumulation chain of one mac_panel_f32 call, resolved as for the
/// *_mac_f32 entries: `keep` is the multiplier's fraction keep-mask, `th` is
/// 0 (precise accumulate masked by `acc_keep`) or pre-clamped to
/// [1, frac_bits+4] (TH-adder accumulate). A nonzero `wide_block` selects the
/// wide accumulator instead: products sum exactly into fp64 for wide_block
/// steps, and at the end of each block and of the panel the sum rounds to
/// float and folds into c through the precise canonicalizing add, so a panel
/// must start on a block boundary.
struct PanelChain {
  PanelMul mul = PanelMul::kPrecise;
  std::uint32_t keep = ~0u;
  int th = 0;
  std::uint32_t acc_keep = ~0u;
  std::size_t wide_block = 0;
};

/// One resolved backend: the name that bench rows and logs report, plus one
/// function pointer per hand-vectorized kernel. A null entry means "no
/// hand-written kernel at this level" and the caller runs its scalar
/// reference loop (that is the entire scalar table, and the double-precision
/// unit spans of every table -- the hot app spans are float).
///
/// The kernels cover every float multiplier datapath (ifp_mul, the Mitchell
/// log and full paths of acfp_mul, trunc_mul), the TH-adder, each multiplier
/// fused with the accumulate stage, and the SFU linear segments ircp, irsqrt
/// and isqrt. ifp_div, ilog2 and iexp2 have no slot yet. Two slots are not
/// units. mac_panel_f32 is the tile-GEMM inner kernel (DESIGN.md §16): every
/// multiplier, the precise one included, into every accumulator policy, with
/// a block of C rows held in registers across the whole k loop of a packed
/// B panel and, for the imprecise multipliers, the block's A operands split
/// into their fields once per chunk of k steps for every column vector.
/// relax_row_f64 runs the interior cells of one row of one sweep of
/// the HotSpot steady-state relaxation (apps::relax_to_steady_state) in
/// double, with each divide by the three loop-invariant thermal resistances
/// replaced by an FMA-corrected reciprocal product that is exactly the
/// rounded quotient, so the field keeps its bits (DESIGN.md §10).
///
/// Signatures mirror the batch.h span wrappers with the per-span parameter
/// resolution already done by the caller: `th` arrives pre-clamped to
/// [1, frac_bits+4], `flip` is the sign mask to XOR into b (ifp_sub), and
/// `keep` is the fraction keep-mask of the truncating multipliers
/// (lanes::frac_keep). The *_mac_f32 entries are the fused
/// multiply-accumulate kernels: `th` is 0 (precise accumulate, result masked
/// by the full-word `acc_keep`) or pre-clamped to [1, frac_bits+4] (TH-adder
/// accumulate), exactly the batch::mac_clamp normalization.
/// relax_row_f64 writes out[i] for i < n from row[i - 1 .. i + 1], north[i],
/// south[i] and power[i], so row[-1] and row[n] must be readable.
/// mac_panel_f32 runs, for r < m and j < jn, c[r*ldc + j] = acc(mul(a[r*lda
/// + k], b[k*jn + j]), c[r*ldc + j]) for k = 0 .. kn-1 in ascending order,
/// with the chain's parameters in a PanelChain.
struct KernelTable {
  const char* name = "scalar";
  void (*ifp_add_f32)(const float* a, const float* b, float* out,
                      std::size_t n, int th, std::uint32_t flip) = nullptr;
  void (*ifp_mul_f32)(const float* a, const float* b, float* out,
                      std::size_t n) = nullptr;
  void (*acfp_log_f32)(const float* a, const float* b, float* out,
                       std::size_t n, std::uint32_t keep) = nullptr;
  void (*trunc_mul_f32)(const float* a, const float* b, float* out,
                        std::size_t n, std::uint32_t keep) = nullptr;
  void (*ircp_f32)(const float* x, float* out, std::size_t n) = nullptr;
  void (*ifp_mac_f32)(const float* a, const float* b, const float* c,
                      float* out, std::size_t n, int th,
                      std::uint32_t acc_keep) = nullptr;
  void (*acfp_log_mac_f32)(const float* a, const float* b, const float* c,
                           float* out, std::size_t n, std::uint32_t keep,
                           int th, std::uint32_t acc_keep) = nullptr;
  void (*trunc_mac_f32)(const float* a, const float* b, const float* c,
                        float* out, std::size_t n, std::uint32_t keep,
                        int th, std::uint32_t acc_keep) = nullptr;
  void (*acfp_full_f32)(const float* a, const float* b, float* out,
                        std::size_t n, std::uint32_t keep) = nullptr;
  void (*acfp_full_mac_f32)(const float* a, const float* b, const float* c,
                            float* out, std::size_t n, std::uint32_t keep,
                            int th, std::uint32_t acc_keep) = nullptr;
  void (*irsqrt_f32)(const float* x, float* out, std::size_t n) = nullptr;
  void (*isqrt_f32)(const float* x, float* out, std::size_t n) = nullptr;
  void (*relax_row_f64)(const double* row, const double* north,
                        const double* south, const float* power, double* out,
                        std::size_t n, double sdc, double amb, double rx,
                        double ry, double rz) = nullptr;
  void (*mac_panel_f32)(const float* a, std::size_t lda, const float* b,
                        float* c, std::size_t ldc, std::size_t m,
                        std::size_t kn, std::size_t jn,
                        const PanelChain& chain) = nullptr;
};

/// Canonical lowercase name ("scalar", "avx2", "avx512").
const char* isa_name(IsaLevel level);

/// Parses a canonical name (as accepted by IHW_FORCE_ISA). Returns false on
/// anything else; *out is untouched on failure.
bool isa_parse(const char* s, IsaLevel* out);

/// Widest level this host can execute, detected once via cpuid.
IsaLevel isa_best_supported();

/// True when the host can execute `level` (kScalar always can).
bool isa_supported(IsaLevel level);

/// The currently installed level (after detection, IHW_FORCE_ISA, and any
/// isa_force calls).
IsaLevel isa_active();

/// Installs the backend for `level`, clamping down to the widest supported
/// level at or below it (a forced binary must never hit an illegal
/// instruction). Returns the level actually installed. Thread-safe against
/// concurrent kernel invocations (the table pointer is atomic); concurrent
/// forcers race benignly to whichever installs last.
IsaLevel isa_force(IsaLevel level);

/// The active kernel table. Cheap (one relaxed atomic load); span kernels
/// call it once per span.
const KernelTable& kernels();

/// RAII backend override for tests and per-row benchmarks.
class ScopedIsa {
 public:
  explicit ScopedIsa(IsaLevel level) : prev_(isa_active()) { isa_force(level); }
  ~ScopedIsa() { isa_force(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  IsaLevel prev_;
};

namespace detail {
// Defined by the shim files kernels_avx2.cpp / kernels_avx512.cpp, compiled
// only on x86 (IHW_X86_SIMD); isa.cpp references them under the same guard.
// They are the only symbols those objects export (ctest
// simd_kernel_exports).
extern const KernelTable kAvx2Table;
extern const KernelTable kAvx512Table;
}  // namespace detail

}  // namespace ihw::simd
