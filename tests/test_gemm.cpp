// The tile-GEMM engine's contract (DESIGN.md §16): gemm::run is bit-identical
// to gemm::reference at every tile size, thread count, SIMD backend, and
// accumulation policy; the screened path keeps fault-draw and guard parity
// with the reference schedule; the fused mac spans match their two-pass
// decomposition; the black-box accumulation probes (feature_detect.h) report
// exactly the configured policy; and the daemon-side gemm/mlp workload
// recipes validate their parameters strictly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "bit_patterns.h"
#include "common/rng.h"
#include "gemm/feature_detect.h"
#include "gemm/gemm.h"
#include "gpu/context.h"
#include "ihw/batch.h"
#include "ihw/dispatch.h"
#include "ihw/simd/isa.h"
#include "serve/workloads.h"
#include "sweep/fingerprint.h"

namespace ihw {
namespace {

using gemm::AccumMode;
using gemm::GemmConfig;
using gpu::FpContext;
using gpu::OpClass;
using gpu::ScopedContext;

std::vector<float> inputs(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

/// Random bit patterns with IEEE specials mixed in (mac-span identity).
std::vector<float> operands(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<float> v(n);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::min(),
                            1.0f,
                            -1.5f};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 8 == 0) {
      v[i] = specials[rng() % (sizeof(specials) / sizeof(float))];
    } else {
      const auto bits = static_cast<std::uint32_t>(rng());
      std::memcpy(&v[i], &bits, sizeof(float));
    }
  }
  return v;
}

bool spans_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

GemmConfig policy(AccumMode m, int knob) {
  GemmConfig g;
  g.accum = m;
  if (m == AccumMode::kFp32Trunc) g.accum_trunc = knob;
  if (m == AccumMode::kIfpAdd) g.accum_th = knob;
  if (m == AccumMode::kWideFp64) g.accum_block = knob;
  return g;
}

const std::vector<std::pair<std::string, GemmConfig>>& accum_policies() {
  static const std::vector<std::pair<std::string, GemmConfig>> kPolicies = {
      {"fp32", policy(AccumMode::kFp32, 0)},
      {"fp32_trunc tr=6", policy(AccumMode::kFp32Trunc, 6)},
      {"ifp_add th=8", policy(AccumMode::kIfpAdd, 8)},
      // The last TH of the adder's exact float add, and the first two and
      // the last of its double path.
      {"ifp_add th=22", policy(AccumMode::kIfpAdd, 22)},
      {"ifp_add th=23", policy(AccumMode::kIfpAdd, 23)},
      {"ifp_add th=27", policy(AccumMode::kIfpAdd, 27)},
      // TH below the datapath floor reads as TH=1 on every path.
      {"ifp_add th=0", policy(AccumMode::kIfpAdd, 0)},
      {"ifp_add th=-3", policy(AccumMode::kIfpAdd, -3)},
      {"wide_fp64 blk=5", policy(AccumMode::kWideFp64, 5)},
  };
  return kPolicies;
}

const std::vector<std::pair<std::string, IhwConfig>>& mul_configs() {
  static const std::vector<std::pair<std::string, IhwConfig>> kConfigs = {
      {"precise", IhwConfig::precise()},
      {"ifp", IhwConfig::mul_only(MulMode::ImpreciseSimple, 0)},
      {"acfp_log tr=8", IhwConfig::mul_only(MulMode::MitchellLog, 8)},
      {"acfp_full tr=4", IhwConfig::mul_only(MulMode::MitchellFull, 4)},
      {"trunc 12", IhwConfig::mul_only(MulMode::BitTruncated, 12)},
  };
  return kConfigs;
}

// --- tiled == reference bit-identity ----------------------------------------

TEST(GemmBitIdentity, TiledMatchesReferenceAcrossTilesThreadsAndPolicies) {
  constexpr int kM = 37, kN = 53, kK = 129;
  const auto A = inputs(std::size_t(kM) * kK, 101);
  const auto B = inputs(std::size_t(kK) * kN, 102);
  // {mc, kc, nc, threads}: canonical, tiny-uneven, degenerate, oversized.
  const int tiles[][4] = {
      {64, 256, 256, 1}, {3, 7, 5, 4}, {1, 16, 8, 3}, {128, 512, 512, 2}};

  for (const auto& [mul_label, icfg] : mul_configs()) {
    for (const auto& [acc_label, base] : accum_policies()) {
      std::vector<float> ref(std::size_t(kM) * kN);
      FpContext ref_ctx(icfg);
      {
        ScopedContext scope(ref_ctx);
        gemm::reference(A.data(), B.data(), ref.data(), kM, kN, kK, base);
      }
      for (const auto& t : tiles) {
        GemmConfig g = base;
        g.mc = t[0];
        g.kc = t[1];
        g.nc = t[2];
        g.threads = t[3];
        std::vector<float> out(std::size_t(kM) * kN);
        FpContext ctx(icfg);
        {
          ScopedContext scope(ctx);
          gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
        }
        EXPECT_TRUE(spans_identical(out, ref))
            << mul_label << " / " << acc_label << " tiles {" << t[0] << ","
            << t[1] << "," << t[2] << "} threads " << t[3];
        // Both paths charge the caller exactly M*N*K multiplies and adds.
        EXPECT_EQ(ctx.counters().counts, ref_ctx.counters().counts)
            << mul_label << " / " << acc_label;
      }
      const auto macs = std::uint64_t(kM) * kN * kK;
      EXPECT_EQ(ref_ctx.counters()[OpClass::FMul], macs);
      EXPECT_EQ(ref_ctx.counters()[OpClass::FAdd], macs);
    }
  }
}

TEST(GemmBitIdentity, InvariantAcrossSimdBackends) {
  constexpr int kM = 19, kN = 40, kK = 33;
  const auto A = inputs(std::size_t(kM) * kK, 103);
  const auto B = inputs(std::size_t(kK) * kN, 104);
  const IhwConfig icfg = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);

  for (const auto& [acc_label, g] : accum_policies()) {
    std::vector<float> ref(std::size_t(kM) * kN);
    {
      FpContext ctx(icfg);
      ScopedContext scope(ctx);
      gemm::reference(A.data(), B.data(), ref.data(), kM, kN, kK, g);
    }
    for (simd::IsaLevel level : {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
                                 simd::IsaLevel::kAvx512}) {
      // Unsupported levels clamp down inside the dispatcher; the identity
      // must hold wherever the force actually lands.
      simd::ScopedIsa forced(level);
      std::vector<float> out(std::size_t(kM) * kN);
      FpContext ctx(icfg);
      ScopedContext scope(ctx);
      gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
      EXPECT_TRUE(spans_identical(out, ref))
          << acc_label << " under forced " << simd::isa_name(level)
          << " (active " << simd::kernels().name << ")";
    }
  }
}

TEST(GemmBitIdentity, PanelEdgesAndSpecials) {
  // Every row count modulo the panel's register block, column counts around
  // the 8- and 16-lane vector widths (and the MLP's 10 classes), and depths
  // on either side of the kc panel and wide-block edges and of the panel
  // kernel's 64-step tail chunks, on operands with IEEE specials and on
  // finite ones, for every multiplier x accumulator x SIMD backend.
  struct Shape {
    int m, n, k, kc;
  };
  std::vector<Shape> shapes;
  for (int m = 1; m <= 9; ++m)
    for (int n : {1, 7, 8, 9, 10, 15, 16, 17, 33})
      shapes.push_back({m, n, 7, 6});
  for (int k : {1, 5, 6, 13}) shapes.push_back({5, 17, k, 6});
  for (int k : {64, 70, 130}) {
    shapes.push_back({6, 9, k, 100});
    shapes.push_back({9, 33, k, 100});
  }

  for (const auto& shape : shapes) {
    const auto [kM, kN, kK, kc] = shape;
    const std::size_t na = std::size_t(kM) * kK, nb = std::size_t(kK) * kN;
    const std::uint64_t seed = 300 + 7 * std::uint64_t(&shape - shapes.data());
    const std::vector<float> data[][2] = {
        {operands(na, seed), operands(nb, seed + 1)},
        {inputs(na, seed + 2), inputs(nb, seed + 3)}};
    for (const auto& [A, B] : data) {
      for (const auto& [mul_label, icfg] : mul_configs()) {
        for (const auto& [acc_label, base] : accum_policies()) {
          GemmConfig g = base;
          g.kc = kc;
          g.mc = 16;
          FpContext ctx(icfg);
          ScopedContext scope(ctx);
          std::vector<float> ref(std::size_t(kM) * kN);
          gemm::reference(A.data(), B.data(), ref.data(), kM, kN, kK, g);
          for (simd::IsaLevel level :
               {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
                simd::IsaLevel::kAvx512}) {
            simd::ScopedIsa forced(level);
            std::vector<float> out(std::size_t(kM) * kN, 42.0f);
            gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
            ASSERT_TRUE(spans_identical(out, ref))
                << mul_label << " / " << acc_label << " M " << kM << " N "
                << kN << " K " << kK << " kc " << kc << " under "
                << simd::kernels().name
                << (&A == &data[0][0] ? " (specials)" : " (finite)");
          }
        }
      }
    }
  }
}

TEST(GemmBitIdentity, PanelAOperandClasses) {
  // The panel splits each row group's A operands once per chunk of 64 steps
  // and runs a shared-B step on the split. Every IEEE class of A sits at
  // each row slot of a group of 1 to 4 rows and at the first, middle and
  // last step of a chunk, against B panels with and without zeros, NaNs and
  // infinities; then a ReLU-sparse A at the MLP's second-layer shape.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kSub = std::numeric_limits<float>::denorm_min() * 3;
  constexpr float kMin = std::numeric_limits<float>::min();
  constexpr float kMax = std::numeric_limits<float>::max();
  const float classes[] = {0.0f, -0.0f, kSub,  -kSub, kMin, -kMin,
                           kMax, -kMax, kInf, -kInf, kNan};
  const char* names[] = {"+0",   "-0",   "+sub", "-sub", "+min", "-min",
                         "+max", "-max", "+inf", "-inf", "nan"};
  // First, middle and last steps of the three 64-step chunks of K = 130,
  // and of the 60-step spans of a 5-step wide block.
  const int steps[] = {0, 32, 59, 63, 64, 120, 127, 129};
  constexpr int kN = 17, kK = 130;
  const std::vector<std::pair<std::string, IhwConfig>> muls = {
      {"ifp", IhwConfig::mul_only(MulMode::ImpreciseSimple, 0)},
      {"acfp_log tr=0", IhwConfig::mul_only(MulMode::MitchellLog, 0)},
      {"acfp_full tr=0", IhwConfig::mul_only(MulMode::MitchellFull, 0)},
      {"acfp_full tr=4", IhwConfig::mul_only(MulMode::MitchellFull, 4)},
      {"trunc 0", IhwConfig::mul_only(MulMode::BitTruncated, 0)},
      {"trunc 12", IhwConfig::mul_only(MulMode::BitTruncated, 12)},
      {"trunc 23", IhwConfig::mul_only(MulMode::BitTruncated, 23)},
  };
  auto accs = accum_policies();
  // A wide block longer than a chunk runs the unsplit datapath throughout.
  accs.push_back({"wide_fp64 blk=80", policy(AccumMode::kWideFp64, 80)});

  const auto check = [&](const std::vector<float>& A,
                         const std::vector<float>& B, int m, int n, int k,
                         const std::string& what) {
    for (const auto& [mul_label, icfg] : muls) {
      for (const auto& [acc_label, g] : accs) {
        FpContext ctx(icfg);
        ScopedContext scope(ctx);
        std::vector<float> ref(std::size_t(m) * n);
        gemm::reference(A.data(), B.data(), ref.data(), m, n, k, g);
        for (simd::IsaLevel level :
             {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
              simd::IsaLevel::kAvx512}) {
          simd::ScopedIsa forced(level);
          std::vector<float> out(std::size_t(m) * n, 42.0f);
          gemm::run(A.data(), B.data(), out.data(), m, n, k, g);
          ASSERT_TRUE(spans_identical(out, ref))
              << mul_label << " / " << acc_label << " M " << m << " " << what
              << " under " << simd::kernels().name;
        }
      }
    }
  };

  // Finite operands with exponents spread over 2^-24 .. 2^24, so that a
  // product of a large B and a misread A exponent lands in the window.
  const auto spread = [](std::size_t n, std::uint64_t seed) {
    std::vector<float> v = inputs(n, seed);
    std::mt19937_64 rng(seed);
    for (auto& x : v) x = std::ldexp(x, int(rng() % 49) - 24);
    return v;
  };
  // B panels: finite; with zeros and subnormals anywhere; with a NaN in a
  // few columns (the shared-B step's select); with an infinity in the
  // odd columns at the special steps of A, so each meets zero and nonzero
  // A operands (inf x 0 is the unsplit step's). A NaN or an infinity
  // decides its whole C column, so the other columns stay finite.
  const auto b0 = spread(std::size_t(kK) * kN, 501);
  std::vector<std::pair<std::string, std::vector<float>>> bs = {
      {"B finite", b0}, {"B zeros", b0}, {"B NaN", b0}, {"B inf", b0}};
  std::mt19937_64 rng(502);
  for (auto& x : bs[1].second)
    if (rng() % 6 == 0) x = classes[rng() % 4];
  // A whole column of zeros and subnormals: its C elements are exactly
  // zero, so a zero B lane misread as a tiny normal shows.
  for (int k = 0; k < kK; ++k)
    bs[1].second[std::size_t(k) * kN + 5] = classes[k % 4];
  for (int j : {3, 8, 16})
    bs[2].second[std::size_t(steps[j % 8]) * kN + j] = kNan;
  for (int s = 0; s < 8; ++s)
    bs[3].second[std::size_t(steps[s]) * kN + 2 * s + 1] = s % 2 ? -kInf : kInf;

  // M = 1, 3 and 6 give row groups of 1, 3, 4 and 2 rows. Each class gets
  // its own A, three steps per row, rotating with the row; the last row of
  // a short group holds the class at every step, so a zero A operand
  // misread as a tiny normal shows in its exactly zero C row.
  for (int m : {1, 3, 6}) {
    const auto base = spread(std::size_t(m) * kK, 505 + m);
    for (std::size_t c = 0; c < std::size(classes); ++c) {
      std::vector<float> A = base;
      for (int r = 0; r < m; ++r)
        for (int t = 0; t < 3; ++t)
          A[std::size_t(r) * kK + steps[(r + 3 * t) % 8]] = classes[c];
      if (m > 1) std::fill_n(&A[std::size_t(m - 1) * kK], kK, classes[c]);
      for (const auto& [blabel, B] : bs)
        check(A, B, m, kN, kK, std::string("A ") + names[c] + " x " + blabel);
    }
  }

  // The MLP's second layer: ReLU activations (about half +0) times a
  // 10-class weight panel, a ragged column tail at every vector width.
  constexpr int kM2 = 37, kN2 = 10, kK2 = 96;
  auto h = inputs(std::size_t(kM2) * kK2, 510);
  for (auto& x : h) x = std::max(x, 0.0f);
  check(h, inputs(std::size_t(kK2) * kN2, 511), kM2, kN2, kK2,
        "ReLU-sparse A");
}

TEST(GemmBitIdentity, TruncCarryEdge) {
  // The bit-truncated multiplier's carry edge (test_operands::
  // carry_edge_operands) through the panel's shared-B step and its unsplit
  // step. A is diagonal: row k holds one significand ma at step k,
  // and B's row k holds ma's edge partners, so every C element is one edge
  // product. A B panel with an infinity runs the unsplit step.
  const auto [as, bs] = test_operands::carry_edge_operands(40, 61);
  const auto frac = [](float x) { return fp::to_bits(x) & 0x7FFFFFu; };
  std::vector<float> diag;
  std::vector<std::vector<float>> partners;
  for (std::size_t i = 0; i < as.size(); ++i) {
    if (i == 0 || frac(as[i]) != frac(as[i - 1])) {
      diag.push_back(as[i]);
      partners.emplace_back();
    }
    partners.back().push_back(bs[i]);
  }
  const int kK = int(diag.size()), kM = kK, kN = 17;
  std::vector<float> A(std::size_t(kM) * kK, 0.0f), B(std::size_t(kK) * kN);
  for (int k = 0; k < kK; ++k) {
    A[std::size_t(k) * kK + k] = diag[k];
    for (int j = 0; j < kN; ++j)
      B[std::size_t(k) * kN + j] = partners[k][j % partners[k].size()];
  }
  std::vector<float> b_inf = B;
  b_inf[kN - 1] = std::numeric_limits<float>::infinity();

  for (const auto* b : {&B, &b_inf}) {
    for (int trunc : {0, 12, 23}) {
      FpContext ctx(IhwConfig::mul_only(MulMode::BitTruncated, trunc));
      ScopedContext scope(ctx);
      for (const auto& [acc_label, g] : accum_policies()) {
        std::vector<float> ref(std::size_t(kM) * kN);
        gemm::reference(A.data(), b->data(), ref.data(), kM, kN, kK, g);
        for (simd::IsaLevel level :
             {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
              simd::IsaLevel::kAvx512}) {
          simd::ScopedIsa forced(level);
          std::vector<float> out(std::size_t(kM) * kN, 42.0f);
          gemm::run(A.data(), b->data(), out.data(), kM, kN, kK, g);
          ASSERT_TRUE(spans_identical(out, ref))
              << "trunc " << trunc << " / " << acc_label
              << (b == &B ? " shared-B step" : " unsplit step") << " under "
              << simd::kernels().name;
        }
      }
    }
  }
}

TEST(GemmBitIdentity, DegenerateShapesAndTiles) {
  const auto A = inputs(64, 105);
  const auto B = inputs(64, 106);
  std::vector<float> C(16, 42.0f);
  // K <= 0: every element keeps its +0 accumulation seed.
  gemm::run(A.data(), B.data(), C.data(), 4, 4, 0, GemmConfig{});
  for (float v : C) EXPECT_EQ(v, 0.0f);
  std::fill(C.begin(), C.end(), 42.0f);
  // M/N <= 0: no-op, C untouched.
  gemm::run(A.data(), B.data(), C.data(), 0, 4, 4, GemmConfig{});
  gemm::run(A.data(), B.data(), C.data(), 4, -1, 4, GemmConfig{});
  for (float v : C) EXPECT_EQ(v, 42.0f);
  // Nonpositive tile sizes clamp to 1 and still honor the contract.
  GemmConfig g = policy(AccumMode::kWideFp64, 3);
  g.mc = 0;
  g.kc = -5;
  g.nc = 0;
  std::vector<float> out(16), ref(16);
  gemm::run(A.data(), B.data(), out.data(), 4, 4, 4, g);
  gemm::reference(A.data(), B.data(), ref.data(), 4, 4, 4, g);
  EXPECT_TRUE(spans_identical(out, ref));
}

// --- screened path: fault and counter parity --------------------------------

TEST(GemmScreened, FaultAndCounterParityAcrossThreads) {
  constexpr int kM = 23, kN = 31, kK = 57;
  const auto A = inputs(std::size_t(kM) * kK, 107);
  const auto B = inputs(std::size_t(kK) * kN, 108);
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = fault::FaultConfig::uniform(0.05, 1234);
  cfg.guard.enabled = true;

  std::vector<float> ref(std::size_t(kM) * kN);
  FpContext ref_ctx(cfg);
  {
    ScopedContext scope(ref_ctx);
    gemm::reference(A.data(), B.data(), ref.data(), kM, kN, kK, GemmConfig{});
  }
  EXPECT_GT(ref_ctx.fault_counters().total_injected(), 0u);

  for (int threads : {1, 3}) {
    GemmConfig g;
    g.threads = threads;
    std::vector<float> out(std::size_t(kM) * kN);
    FpContext ctx(cfg);
    {
      ScopedContext scope(ctx);
      gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
    }
    EXPECT_TRUE(spans_identical(out, ref)) << "threads " << threads;
    const auto& fa = ctx.fault_counters();
    const auto& fb = ref_ctx.fault_counters();
    EXPECT_EQ(fa.injected, fb.injected) << "threads " << threads;
    EXPECT_EQ(fa.guard_trips, fb.guard_trips) << "threads " << threads;
    EXPECT_EQ(fa.degraded_epochs, fb.degraded_epochs) << "threads " << threads;
    EXPECT_EQ(fa.run_degradations, fb.run_degradations)
        << "threads " << threads;
    EXPECT_EQ(fa.retried_epochs, fb.retried_epochs) << "threads " << threads;
    EXPECT_EQ(ctx.counters().counts, ref_ctx.counters().counts)
        << "threads " << threads;
  }
}

// --- fused mac spans == two-pass decomposition ------------------------------

TEST(GemmMacSpans, FusedMatchesTwoPassEverywhere) {
  constexpr std::size_t kN = 8192;
  const auto a = operands(kN, 201), b = operands(kN, 202), c = operands(kN, 203);

  std::vector<IhwConfig> configs;
  configs.push_back(IhwConfig::all_imprecise());
  for (MulMode m : {MulMode::ImpreciseSimple, MulMode::MitchellLog,
                    MulMode::MitchellFull, MulMode::BitTruncated}) {
    IhwConfig cfg = IhwConfig::mul_only(m, 9);
    configs.push_back(cfg);  // imprecise mul, precise accumulate
    cfg.add_enabled = true;
    cfg.add_th = 8;
    configs.push_back(cfg);  // fully fused imprecise path
  }
  IhwConfig add_only = IhwConfig::precise();
  add_only.add_enabled = true;
  add_only.add_th = 12;
  configs.push_back(add_only);  // precise mul, imprecise accumulate

  for (const auto& cfg : configs) {
    const FpDispatch d(cfg);
    std::vector<float> want(kN), tmp(kN), got(kN);
    d.mul_n(a.data(), b.data(), tmp.data(), kN);
    d.add_n(tmp.data(), c.data(), want.data(), kN);
    d.mac_n(a.data(), b.data(), c.data(), got.data(), kN);
    ASSERT_TRUE(spans_identical(got, want))
        << "mac_n vs mul_n+add_n, mul_mode "
        << static_cast<int>(cfg.mul_mode) << " add_enabled "
        << cfg.add_enabled;
    // `out` may alias the addend span.
    got = c;
    d.mac_n(a.data(), b.data(), got.data(), got.data(), kN);
    ASSERT_TRUE(spans_identical(got, want))
        << "aliased mac_n, mul_mode " << static_cast<int>(cfg.mul_mode);
  }
}

// --- accumulation-feature probes --------------------------------------------

TEST(GemmFeatureProbes, DetectMatchesConfiguredPolicy) {
  std::vector<GemmConfig> grid = {policy(AccumMode::kFp32, 0)};
  for (int tr : {0, 1, 2, 4, 12, 22})
    grid.push_back(policy(AccumMode::kFp32Trunc, tr));
  for (int th : {1, 2, 8, 16, 27, 30})  // 30 clamps to the datapath max
    grid.push_back(policy(AccumMode::kIfpAdd, th));
  for (int blk : {1, 2, 3, 8, 32, 128, 200})  // 200 saturates the probe
    grid.push_back(policy(AccumMode::kWideFp64, blk));

  for (const auto& g : grid) {
    const auto det = gemm::detect(g);
    const auto exp = gemm::expected(g);
    EXPECT_EQ(det, exp) << to_string(g.accum) << " trunc " << g.accum_trunc
                        << " th " << g.accum_th << " blk " << g.accum_block
                        << ": detected " << det.describe() << ", expected "
                        << exp.describe();
  }
}

TEST(GemmFeatureProbes, ProbesSeparateThePolicies) {
  // The probe vector must distinguish materially different accumulators,
  // otherwise the self-test could pass with detect() hard-wired.
  const auto fp32 = gemm::detect(policy(AccumMode::kFp32, 0));
  const auto trunc = gemm::detect(policy(AccumMode::kFp32Trunc, 12));
  const auto ifp = gemm::detect(policy(AccumMode::kIfpAdd, 8));
  const auto wide = gemm::detect(policy(AccumMode::kWideFp64, 32));
  EXPECT_NE(fp32, trunc);
  EXPECT_NE(fp32, ifp);
  EXPECT_NE(fp32, wide);
  EXPECT_NE(trunc, ifp);
  EXPECT_EQ(fp32.accum_frac_bits, 23);
  EXPECT_EQ(trunc.accum_frac_bits, 11);
  EXPECT_EQ(ifp.accum_frac_bits, 7);
  EXPECT_EQ(wide.wide_block, 32);
}

// --- daemon workload recipes ------------------------------------------------

sweep::Workload gemm_workload() {
  return sweep::Workload{"gemm",
                         {{"m", 24.0}, {"n", 16.0}, {"k", 32.0}, {"accum", 0.0}},
                         77};
}

TEST(GemmWorkloads, ValidRecipesEvaluateDeterministically) {
  std::string err;
  auto eval = serve::make_workload_eval(gemm_workload(), "precise", &err);
  ASSERT_TRUE(static_cast<bool>(eval)) << err;
  const auto r1 = eval(), r2 = eval();
  EXPECT_TRUE(std::isfinite(r1.metric("checksum")));
  EXPECT_EQ(r1.metric("checksum"), r2.metric("checksum"));

  sweep::Workload mlp{"mlp",
                      {{"samples", 32.0},
                       {"dim", 8.0},
                       {"hidden", 8.0},
                       {"classes", 4.0},
                       {"accum", 2.0},
                       {"accum_th", 8.0}},
                      99};
  err.clear();
  auto mlp_eval = serve::make_workload_eval(mlp, "precise", &err);
  ASSERT_TRUE(static_cast<bool>(mlp_eval)) << err;
  const auto rec = mlp_eval();
  EXPECT_GE(rec.metric("accuracy"), 0.0);
  EXPECT_LE(rec.metric("accuracy"), 1.0);
  const IhwConfig precise = IhwConfig::precise();
  EXPECT_EQ(serve::workload_fingerprint(mlp), mlp.fingerprint(&precise));
}

TEST(GemmWorkloads, StrictParameterValidation) {
  const auto rejects = [](sweep::Workload w) {
    std::string err;
    auto eval = serve::make_workload_eval(w, "precise", &err);
    EXPECT_FALSE(static_cast<bool>(eval));
    EXPECT_FALSE(err.empty());
  };

  {  // missing structural parameter
    auto w = gemm_workload();
    w.params.erase(w.params.begin() + 2);  // drop "k"
    rejects(w);
  }
  {  // fractional value where an integer is required
    auto w = gemm_workload();
    w.params[2].second = 2.5;
    rejects(w);
  }
  {  // out-of-range dimension and accumulation mode
    auto w = gemm_workload();
    w.params[0].second = 0.0;
    rejects(w);
    w = gemm_workload();
    w.params[3].second = 4.0;
    rejects(w);
  }
  {  // each mode's knob is required exactly when that mode needs it
    auto w = gemm_workload();
    w.params[3].second = 2.0;  // kIfpAdd without accum_th
    rejects(w);
    w.params.emplace_back("accum_th", 0.0);  // below the TH datapath floor
    rejects(w);
  }
  {  // mlp classes floor is 2
    sweep::Workload w{"mlp",
                      {{"samples", 32.0},
                       {"dim", 8.0},
                       {"hidden", 8.0},
                       {"classes", 1.0},
                       {"accum", 0.0}},
                      99};
    rejects(w);
  }
}

}  // namespace
}  // namespace ihw
