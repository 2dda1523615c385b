#include "ihw/simd/isa.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace ihw::simd {
namespace {

const KernelTable kScalarTable{};  // all-null entries: reference loops run

#if defined(IHW_X86_SIMD)
/// Widest executable level, probed once. The AVX-512 backend needs F (512-bit
/// foundation), BW/DQ (byte/word and dword/qword compares + movm), and VL;
/// that is the fixed Skylake-X-and-later server set, so one combined check
/// keeps the table count small instead of fragmenting per extension. The
/// AVX2 backend also needs FMA (the relaxation row's fused corrections),
/// which the Intel and AMD CPUs with AVX2 also have.
IsaLevel detect_best() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl"))
    return IsaLevel::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return IsaLevel::kAvx2;
  return IsaLevel::kScalar;
}
#else
IsaLevel detect_best() { return IsaLevel::kScalar; }
#endif

const KernelTable& table_for(IsaLevel level) {
  switch (level) {
#if defined(IHW_X86_SIMD)
    case IsaLevel::kAvx2: return detail::kAvx2Table;
    case IsaLevel::kAvx512: return detail::kAvx512Table;
#endif
    default: return kScalarTable;
  }
}

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_level{static_cast<int>(IsaLevel::kScalar)};

/// Clamp to the widest supported level at or below the request.
IsaLevel clamp_supported(IsaLevel want, IsaLevel best) {
  if (want == IsaLevel::kAvx512 &&
      static_cast<int>(best) >= static_cast<int>(IsaLevel::kAvx512))
    return IsaLevel::kAvx512;
  if ((want == IsaLevel::kAvx512 || want == IsaLevel::kAvx2) &&
      static_cast<int>(best) >= static_cast<int>(IsaLevel::kAvx2))
    return IsaLevel::kAvx2;
  return IsaLevel::kScalar;
}

void install(IsaLevel level) {
  g_table.store(&table_for(level), std::memory_order_release);
  g_level.store(static_cast<int>(level), std::memory_order_release);
}

/// One-time detection + IHW_FORCE_ISA. Function-local static so the first
/// span call from any thread initializes exactly once.
struct Runtime {
  IsaLevel best;
  Runtime() : best(detect_best()) {
    IsaLevel want = best;
    if (const char* env = std::getenv("IHW_FORCE_ISA")) {
      IsaLevel parsed;
      if (isa_parse(env, &parsed)) want = parsed;
    }
    install(clamp_supported(want, best));
  }
};

Runtime& runtime() {
  static Runtime r;
  return r;
}

}  // namespace

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar: return "scalar";
    case IsaLevel::kAvx2: return "avx2";
    case IsaLevel::kAvx512: return "avx512";
  }
  return "scalar";
}

bool isa_parse(const char* s, IsaLevel* out) {
  if (s == nullptr) return false;
  for (IsaLevel l : {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (std::strcmp(s, isa_name(l)) == 0) {
      *out = l;
      return true;
    }
  }
  return false;
}

IsaLevel isa_best_supported() { return runtime().best; }

bool isa_supported(IsaLevel level) {
  if (level == IsaLevel::kScalar) return true;
  return static_cast<int>(level) <= static_cast<int>(runtime().best);
}

IsaLevel isa_active() {
  runtime();
  return static_cast<IsaLevel>(g_level.load(std::memory_order_acquire));
}

IsaLevel isa_force(IsaLevel level) {
  const IsaLevel installed = clamp_supported(level, runtime().best);
  install(installed);
  return installed;
}

const KernelTable& kernels() {
  runtime();
  return *g_table.load(std::memory_order_acquire);
}

}  // namespace ihw::simd
