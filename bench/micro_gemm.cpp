// Micro-throughput benchmarks (google-benchmark) of the tile-GEMM engine:
// the canonical per-element reference (gemm::reference, one guarded dispatch
// per multiply) against the cache-blocked fused-span engine (gemm::run) at
// identical numerics -- the bit-identity contract means the speedup is pure
// engineering, not a precision trade. tools/check_bench_regression.py --gemm
// floors the BM_GemmTiled/BM_GemmNaive ratio (>= 2x) and the per-ISA tiled
// rows against the scalar-backend tiled row (bench_gemm_gate.json in CI).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/rng.h"
#include "common/sweep_flags.h"
#include "gemm/gemm.h"
#include "gpu/context.h"
#include "ihw/ihw.h"
#include "ihw/simd/isa.h"
#include "runtime/parallel.h"

using namespace ihw;

namespace {

constexpr int kM = 128, kN = 128, kK = 128;

// --abft=off|detect|recover: global override applied to every tiled row, so
// the whole suite can be re-measured under checksum verification. The
// dedicated /abft: rows below measure the modes explicitly regardless.
int g_abft = 0;

void label_isa(benchmark::State& state) {
  state.SetLabel(std::string("isa=") + simd::kernels().name);
}

std::vector<float> inputs(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

void set_rate(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kM *
                          kN * kK);
}

void BM_GemmNaive(benchmark::State& state, IhwConfig cfg,
                  gemm::GemmConfig g) {
  const auto A = inputs(static_cast<std::size_t>(kM) * kK, 21);
  const auto B = inputs(static_cast<std::size_t>(kK) * kN, 22);
  std::vector<float> C(static_cast<std::size_t>(kM) * kN);
  gpu::FpContext ctx(cfg);
  gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    gemm::reference(A.data(), B.data(), C.data(), kM, kN, kK, g);
    benchmark::DoNotOptimize(C.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  set_rate(state);
}

void BM_GemmTiled(benchmark::State& state, IhwConfig cfg, gemm::GemmConfig g) {
  if (g_abft != 0 && g.abft == gemm::AbftMode::kOff)
    g.abft = static_cast<gemm::AbftMode>(g_abft);
  const auto A = inputs(static_cast<std::size_t>(kM) * kK, 21);
  const auto B = inputs(static_cast<std::size_t>(kK) * kN, 22);
  std::vector<float> C(static_cast<std::size_t>(kM) * kN);
  gpu::FpContext ctx(cfg);
  gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    gemm::run(A.data(), B.data(), C.data(), kM, kN, kK, g);
    benchmark::DoNotOptimize(C.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  set_rate(state);
}

gemm::GemmConfig acc_cfg(gemm::AccumMode m) {
  gemm::GemmConfig g;
  g.accum = m;
  return g;
}

// Naive-vs-tiled pairs at identical numerics: mul flavors on the fp32
// accumulator, plus the accumulator policies on the imprecise multiplier.
// The /ifp pair is the headline the CI gate floors at 2x.
BENCHMARK_CAPTURE(BM_GemmNaive, precise, IhwConfig::precise(),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmTiled, precise, IhwConfig::precise(),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmNaive, ifp,
                  IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmTiled, ifp,
                  IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmNaive, acfp_log,
                  IhwConfig::mul_only(MulMode::MitchellLog, 0),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmTiled, acfp_log,
                  IhwConfig::mul_only(MulMode::MitchellLog, 0),
                  gemm::GemmConfig{});
// Ungated: the one multiplier perfbench does not run gets a measured row.
BENCHMARK_CAPTURE(BM_GemmNaive, acfp_full,
                  IhwConfig::mul_only(MulMode::MitchellFull, 0),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmTiled, acfp_full,
                  IhwConfig::mul_only(MulMode::MitchellFull, 0),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmNaive, trunc,
                  IhwConfig::mul_only(MulMode::BitTruncated, 12),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmTiled, trunc,
                  IhwConfig::mul_only(MulMode::BitTruncated, 12),
                  gemm::GemmConfig{});
BENCHMARK_CAPTURE(BM_GemmNaive, ifp_acc_th8,
                  IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
                  acc_cfg(gemm::AccumMode::kIfpAdd));
BENCHMARK_CAPTURE(BM_GemmTiled, ifp_acc_th8,
                  IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
                  acc_cfg(gemm::AccumMode::kIfpAdd));
BENCHMARK_CAPTURE(BM_GemmNaive, ifp_wide32,
                  IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
                  acc_cfg(gemm::AccumMode::kWideFp64));
BENCHMARK_CAPTURE(BM_GemmTiled, ifp_wide32,
                  IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
                  acc_cfg(gemm::AccumMode::kWideFp64));

// Row-block parallelism (real time: the speedup is wall-clock).
void gemm_threads_row(benchmark::State& state, int threads) {
  gemm::GemmConfig g;
  g.threads = threads;
  BM_GemmTiled(state, IhwConfig::mul_only(MulMode::ImpreciseSimple, 0), g);
}

// Per-ISA tiled rows, backend pinned for the row: isa:<level> / isa:scalar
// is the measured SIMD speedup of the fused mac kernels inside the engine.
void gemm_isa_row(benchmark::State& state, simd::IsaLevel level) {
  simd::ScopedIsa forced(level);
  BM_GemmTiled(state, IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
               gemm::GemmConfig{});
}

// ABFT overhead rows: the /ifp tiled row re-run with checksum verification
// (detect) and verification + recovery bookkeeping (recover). The CI gate
// caps these at <= 1.25x the unprotected /ifp row -- the whole point of the
// checksum scheme next to GuardedDispatch's per-op precise screen, measured
// by the /guarded row below (> 2x by construction: every MAC runs twice).
void gemm_abft_row(benchmark::State& state, gemm::AbftMode mode) {
  gemm::GemmConfig g;
  g.abft = mode;
  BM_GemmTiled(state, IhwConfig::mul_only(MulMode::ImpreciseSimple, 0), g);
}

void gemm_guarded_row(benchmark::State& state) {
  IhwConfig cfg = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
  cfg.guard.enabled = true;
  BM_GemmTiled(state, cfg, gemm::GemmConfig{});
}

void register_runtime_rows() {
  using simd::IsaLevel;
  benchmark::RegisterBenchmark("BM_GemmTiled/ifp/abft:detect", gemm_abft_row,
                               gemm::AbftMode::kDetect);
  benchmark::RegisterBenchmark("BM_GemmTiled/ifp/abft:recover", gemm_abft_row,
                               gemm::AbftMode::kRecover);
  benchmark::RegisterBenchmark("BM_GemmTiled/ifp/guarded", gemm_guarded_row);
  for (IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (!simd::isa_supported(level)) continue;
    const std::string suffix = std::string("/isa:") + simd::isa_name(level);
    benchmark::RegisterBenchmark(("BM_GemmTiled/ifp" + suffix).c_str(),
                                 gemm_isa_row, level);
  }
  for (int threads : {2, 4}) {
    benchmark::RegisterBenchmark(
        ("BM_GemmTiled/ifp/threads:" + std::to_string(threads)).c_str(),
        gemm_threads_row, threads)
        ->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  ihw::common::Args args(argc, argv);
  try {
    g_abft = ihw::common::parse_abft_flag(args);
  } catch (const ihw::common::ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const int threads = ihw::runtime::configure_threads_from_args(args);
  if (args.has("force-isa")) {
    ihw::simd::IsaLevel want;
    const std::string s = args.get("force-isa", "");
    if (!ihw::simd::isa_parse(s.c_str(), &want)) {
      std::fprintf(stderr, "bad --force-isa=%s (scalar|avx2|avx512)\n",
                   s.c_str());
      return 2;
    }
    ihw::simd::isa_force(want);
  }
  register_runtime_rows();
  const char* active = ihw::simd::isa_name(ihw::simd::isa_active());
  std::fprintf(stderr, "ihw_isa: active=%s best_supported=%s\n", active,
               ihw::simd::isa_name(ihw::simd::isa_best_supported()));
  benchmark::AddCustomContext("ihw_isa", active);
  benchmark::AddCustomContext(
      "ihw_isa_best", ihw::simd::isa_name(ihw::simd::isa_best_supported()));
  benchmark::AddCustomContext("runtime_threads", std::to_string(threads));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
