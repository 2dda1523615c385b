// Integration tests across the application workloads: reference behaviour,
// precise-SimFloat equivalence with plain float, counter sanity, and
// quality expectations per benchmark.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "apps/art.h"
#include "apps/cp.h"
#include "apps/gromacs.h"
#include "apps/hotspot.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "apps/sphinx.h"
#include "apps/srad.h"
#include "common/rng.h"
#include "ihw/simd/isa.h"
#include "pratt_reference.h"
#include "quality/grid_metrics.h"
#include "quality/ssim.h"

namespace ihw::apps {
namespace {

// --- HotSpot ---------------------------------------------------------------

TEST(Hotspot, PreciseSimFloatMatchesPlainFloatBitExactly) {
  HotspotParams p;
  p.rows = p.cols = 64;
  p.iterations = 10;
  p.steady_init = false;
  const auto in = make_hotspot_input(p, 7);
  const auto ref = run_hotspot<float>(p, in);
  gpu::FpContext ctx(IhwConfig::precise());
  gpu::ScopedContext scope(ctx);
  const auto sim = run_hotspot<gpu::SimFloat>(p, in);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref.data()[i], sim.data()[i]);
}

TEST(Hotspot, CountersMatchKernelStructure) {
  HotspotParams p;
  p.rows = p.cols = 32;
  p.iterations = 3;
  p.steady_init = false;
  const auto in = make_hotspot_input(p, 7);
  const auto counters = run_with_config(
      IhwConfig::precise(), [&] { run_hotspot<gpu::SimFloat>(p, in); });
  const std::uint64_t cells = 32ull * 32 * 3;
  EXPECT_EQ(counters[gpu::OpClass::FAdd], 9 * cells);
  EXPECT_EQ(counters[gpu::OpClass::FMul], 5 * cells);
  EXPECT_EQ(counters[gpu::OpClass::FRcp], 3 * cells);
  EXPECT_EQ(counters[gpu::OpClass::Load], 6 * cells);
  EXPECT_EQ(counters[gpu::OpClass::Store], cells);
}

TEST(Hotspot, SteadyStateInitIsNearEquilibrium) {
  HotspotParams p;
  p.rows = p.cols = 64;
  p.iterations = 20;
  const auto in = make_hotspot_input(p, 7);
  const auto after = run_hotspot<float>(p, in);
  // Running further from steady state must barely move the field.
  EXPECT_LT(quality::mae(in.temp, after), 0.05);
}

// The steady-state relaxation as a plain scalar loop with boundary checks:
// the oracle the optimized relaxation must match bit for bit.
std::vector<double> relax_scalar(const HotspotParams& p,
                                 const HotspotInput& in) {
  const double grid_h = p.chip_height / static_cast<double>(p.rows);
  const double grid_w = p.chip_width / static_cast<double>(p.cols);
  const double cap = p.factor_chip * p.spec_heat * p.t_chip * grid_h * grid_w;
  const double rx = grid_w / (2.0 * p.k_si * p.t_chip * grid_h);
  const double ry = grid_h / (2.0 * p.k_si * p.t_chip * grid_w);
  const double rz = p.t_chip / (p.k_si * grid_h * grid_w);
  const double step = 0.9 * cap / (2.0 / rx + 2.0 / ry + 1.0 / rz);
  const double sdc = step / cap;
  const double amb = p.amb_temp + 236.0;

  std::vector<double> t(in.temp.begin(), in.temp.end());
  std::vector<double> tn(t.size());
  const std::size_t rows = p.rows, cols = p.cols;
  for (int it = 0; it < 3000; ++it) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t i = r * cols + c;
        const double tc = t[i];
        const double tN = r > 0 ? t[i - cols] : tc;
        const double tS = r + 1 < rows ? t[i + cols] : tc;
        const double tW = c > 0 ? t[i - 1] : tc;
        const double tE = c + 1 < cols ? t[i + 1] : tc;
        tn[i] = tc + sdc * (in.power(r, c) + (tN + tS - 2.0 * tc) / ry +
                            (tW + tE - 2.0 * tc) / rx + (amb - tc) / rz);
      }
    }
    t.swap(tn);
  }
  return t;
}

TEST(Hotspot, SteadyInputMatchesScalarRelaxation) {
  // One-column rows (W and E both replicate the centre), even and odd
  // interiors, and every split of a row's cols - 2 interior cells into
  // whole vectors and a tail at 4 and 8 double lanes (cols = 3..20), under
  // every ISA level the host supports.
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 3}, {3, 17}, {33, 31}, {64, 64}};
  for (std::size_t cols = 3; cols <= 20; ++cols) shapes.emplace_back(3, cols);
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols);
    HotspotParams p;
    p.rows = rows;
    p.cols = cols;
    HotspotParams cold = p;
    cold.steady_init = false;
    const auto in = make_hotspot_input(cold, 7);
    const std::vector<double> steady = relax_scalar(p, in);
    const std::vector<float> want(steady.begin(), steady.end());

    // Float rounding hides a last-bit change in the double field, and near
    // 316 K so does the final tc + delta. A zero-mean field relaxing towards
    // a zero ambient keeps such changes (say, a reordered sum) visible.
    HotspotParams q = p;
    q.amb_temp = -236.0;
    HotspotInput rough = in;
    common::Xoshiro256 rng(3);
    for (auto& v : rough.temp) v = 100.0f * (rng.uniformf() - 0.5f);
    const std::vector<double> oracle = relax_scalar(q, rough);

    for (simd::IsaLevel level : {simd::IsaLevel::kScalar,
                                 simd::IsaLevel::kAvx2,
                                 simd::IsaLevel::kAvx512}) {
      if (!simd::isa_supported(level)) continue;
      simd::ScopedIsa forced(level);
      SCOPED_TRACE(simd::isa_name(level));
      const auto got = make_hotspot_input(p, 7);
      ASSERT_EQ(got.temp.size(), want.size());
      EXPECT_EQ(std::memcmp(got.temp.data(), want.data(),
                            want.size() * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(got.power.data(), in.power.data(),
                            in.power.size() * sizeof(float)),
                0);
      const std::vector<double> field = relax_to_steady_state(q, rough);
      ASSERT_EQ(field.size(), oracle.size());
      EXPECT_EQ(std::memcmp(field.data(), oracle.data(),
                            oracle.size() * sizeof(double)),
                0);
    }
  }
}

TEST(Hotspot, AllImpreciseKeepsQualityNegligible) {
  HotspotParams p;
  p.rows = p.cols = 128;
  p.iterations = 30;
  const auto in = make_hotspot_input(p, 7);
  const auto ref = run_hotspot<float>(p, in);
  gpu::FpContext ctx(IhwConfig::all_imprecise());
  gpu::ScopedContext scope(ctx);
  const auto imp = run_hotspot<gpu::SimFloat>(p, in);
  EXPECT_LT(quality::mae(ref, imp), 0.2);   // paper: 0.05 K
  EXPECT_LT(quality::wed(ref, imp), 2.0);
}

TEST(Hotspot, TemperaturesStayPhysical) {
  HotspotParams p;
  p.rows = p.cols = 64;
  p.iterations = 30;
  const auto in = make_hotspot_input(p, 9);
  const auto out = run_hotspot<float>(p, in);
  for (float v : out) {
    ASSERT_GT(v, 300.0f);
    ASSERT_LT(v, 420.0f);
  }
}

// --- SRAD ------------------------------------------------------------------

TEST(Srad, DiffusionReducesSpeckleVariance) {
  SradParams p;
  p.rows = p.cols = 96;
  p.iterations = 40;
  p.roi_r1 = p.roi_c1 = 20;
  const auto in = make_srad_input(p, 11);
  const auto out = run_srad<float>(p, in.image);
  auto variance = [](const common::GridF& g) {
    double s = 0, s2 = 0;
    for (float v : g) {
      s += v;
      s2 += static_cast<double>(v) * v;
    }
    const double m = s / static_cast<double>(g.size());
    return s2 / static_cast<double>(g.size()) - m * m;
  };
  EXPECT_LT(variance(out), variance(in.image) * 0.8);
}

TEST(Srad, ZeroPixelsClampedToTheIntensityRangeGiveFiniteOutput) {
  // A user image may hold 0 pixels, which SRAD's reciprocal cannot take.
  SradParams p;
  p.rows = p.cols = 32;
  p.iterations = 5;
  p.roi_r1 = p.roi_c1 = 16;
  common::GridF image = make_srad_image(p, 7);
  for (std::size_t c = 0; c < p.cols; c += 3) image(5, c) = 0.0f;
  image(0, 0) = 300.0f;
  for (float& v : image) v = srad_intensity(v);
  EXPECT_EQ(image(5, 0), 1.0f);
  EXPECT_EQ(image(0, 0), 255.0f);
  for (float v : run_srad_batched(p, image)) ASSERT_TRUE(std::isfinite(v));
}

TEST(Srad, ImprovesPrattFomOverRawImage) {
  SradParams p;
  p.rows = p.cols = 128;
  p.iterations = 60;
  p.roi_r1 = p.roi_c1 = 24;
  const auto in = make_srad_input(p, 11);
  const auto out = run_srad<float>(p, in.image);
  EXPECT_GT(srad_pratt_fom(out, in.ideal_edges),
            srad_pratt_fom(in.image, in.ideal_edges));
}

TEST(Srad, ImpreciseTracksPreciseFom) {
  SradParams p;
  p.rows = p.cols = 96;
  p.iterations = 40;
  p.roi_r1 = p.roi_c1 = 20;
  const auto in = make_srad_input(p, 11);
  const auto ref = run_srad<float>(p, in.image);
  gpu::FpContext ctx(IhwConfig::all_imprecise());
  gpu::ScopedContext scope(ctx);
  const auto imp = run_srad<gpu::SimFloat>(p, in.image);
  const double f_ref = srad_pratt_fom(ref, in.ideal_edges);
  const double f_imp = srad_pratt_fom(imp, in.ideal_edges);
  EXPECT_GT(f_imp, f_ref * 0.7);  // paper: 0.20 vs 0.23 (comparable)
}

TEST(Srad, PrattFomAgainstPrebuiltReferenceMatchesEdtPerCall) {
  // The 256x256 phantom of fig16, despeckled precisely, with every IHW unit
  // and with the Mitchell full-path multiplier: srad_pratt_fom against the
  // input's prebuilt reference scores each output exactly as the scalar
  // pipeline does (scalar Sobel, distance transform built per call).
  SradParams p;
  p.iterations = 20;
  const auto in = make_srad_input(p, 11);
  for (const auto& cfg :
       {IhwConfig::precise(), IhwConfig::all_imprecise(),
        IhwConfig::mul_only(MulMode::MitchellFull, 0)}) {
    gpu::FpContext ctx(cfg);
    gpu::ScopedContext scope(ctx);
    const auto out = run_srad_batched(p, in.image);
    const double got = srad_pratt_fom(out, in.ideal_edges);
    const double want = quality::reference::pratt_fom(
        in.ideal_edges.ideal(), quality::reference::sobel_edges(out, 0.22));
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << cfg.describe() << ": " << got << " vs " << want;
  }
}

TEST(Srad, ImageBuilderMatchesInputImage) {
  // Callers that never score build the phantom alone; it must be the same
  // image make_srad_input returns, at square and non-square sizes.
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{96, 96},
                                   {37, 80}}) {
    SradParams p;
    p.rows = rows;
    p.cols = cols;
    const auto image = make_srad_image(p, 13);
    const auto in = make_srad_input(p, 13);
    ASSERT_EQ(image.rows(), in.image.rows());
    ASSERT_EQ(image.cols(), in.image.cols());
    EXPECT_EQ(std::memcmp(image.data(), in.image.data(),
                          image.size() * sizeof(float)),
              0)
        << rows << "x" << cols;
  }
}

TEST(Srad, DiffusionCoefficientStaysInUnitRange) {
  // Indirect check: output intensities remain within the input range
  // (diffusion cannot create new extrema when c in [0,1]).
  SradParams p;
  p.rows = p.cols = 64;
  p.iterations = 30;
  p.roi_r1 = p.roi_c1 = 16;
  const auto in = make_srad_input(p, 12);
  const auto out = run_srad<float>(p, in.image);
  float in_lo = 1e9f, in_hi = -1e9f;
  for (float v : in.image) {
    in_lo = std::min(in_lo, v);
    in_hi = std::max(in_hi, v);
  }
  for (float v : out) {
    ASSERT_GE(v, in_lo - 1.0f);
    ASSERT_LE(v, in_hi + 1.0f);
  }
}

// --- RayTracing -------------------------------------------------------------

TEST(Ray, DeterministicAndPreciseSimMatchesFloat) {
  RayParams p;
  p.width = p.height = 64;
  const auto a = render_ray<float>(p);
  const auto b = render_ray<float>(p);
  EXPECT_EQ(a.pixels, b.pixels);
  gpu::FpContext ctx(IhwConfig::precise());
  gpu::ScopedContext scope(ctx);
  const auto c = render_ray<gpu::SimFloat>(p);
  EXPECT_EQ(a.pixels, c.pixels);
}

TEST(Ray, QualityOrderingAcrossConfigs) {
  RayParams p;
  p.width = p.height = 96;
  const auto ref = render_ray<float>(p);
  auto render_cfg = [&](const IhwConfig& cfg) {
    gpu::FpContext ctx(cfg);
    gpu::ScopedContext scope(ctx);
    return render_ray<gpu::SimFloat>(p);
  };
  const double s_cons = quality::ssim_rgb(ref, render_cfg(IhwConfig::ray_conservative()));
  const double s_rsqrt = quality::ssim_rgb(ref, render_cfg(IhwConfig::ray_with_rsqrt()));
  auto simple = IhwConfig::ray_conservative();
  simple.mul_mode = MulMode::ImpreciseSimple;
  const double s_simple = quality::ssim_rgb(ref, render_cfg(simple));
  const double s_full = quality::ssim_rgb(ref, render_cfg(IhwConfig::ray_with_full_path_mul(0)));
  // The paper's orderings (Figs. 17-18).
  EXPECT_GT(s_cons, s_rsqrt);
  EXPECT_GT(s_full, s_simple);
  EXPECT_GT(s_cons, 0.6);
  EXPECT_LT(s_simple, s_cons);
}

TEST(Ray, CountsSfuAndMemoryWork) {
  RayParams p;
  p.width = p.height = 32;
  const auto counters = run_with_config(IhwConfig::precise(),
                                        [&] { render_ray<gpu::SimFloat>(p); });
  EXPECT_GT(counters[gpu::OpClass::FRsqrt], 0u);
  EXPECT_GT(counters[gpu::OpClass::FSqrt], 0u);
  EXPECT_GT(counters[gpu::OpClass::FRcp], 0u);
  EXPECT_GT(counters[gpu::OpClass::FMul], counters[gpu::OpClass::FSqrt]);
  EXPECT_EQ(counters[gpu::OpClass::Store], 32u * 32 * 3);
  EXPECT_GT(counters[gpu::OpClass::Load], 0u);
}

// --- CP ----------------------------------------------------------------------

TEST(Cp, PotentialSignsFollowCharges) {
  CpParams p;
  p.grid = 32;
  p.natoms = 1;
  std::vector<CpAtom> atoms{{0.8f, 0.8f, 0.1f, 1.0f}};
  const auto grid = run_cp<float>(p, atoms);
  for (float v : grid) ASSERT_GT(v, 0.0f);
  atoms[0].q = -1.0f;
  const auto neg = run_cp<float>(p, atoms);
  for (float v : neg) ASSERT_LT(v, 0.0f);
}

TEST(Cp, PotentialDecaysWithDistance) {
  CpParams p;
  p.grid = 64;
  std::vector<CpAtom> atoms{{0.0f, 0.0f, 0.0f, 1.0f}};
  const auto grid = run_cp<float>(p, atoms);
  EXPECT_GT(grid(0, 0), grid(32, 32));
  EXPECT_GT(grid(16, 16), grid(48, 48));
}

TEST(Cp, CoordinateMulsStayPreciseUnderImpreciseConfig) {
  // With an imprecise multiplier, grid MAE must stay small relative to the
  // dynamic range because coordinates (and rsqrt) remain exact.
  CpParams p;
  p.grid = 48;
  p.natoms = 64;
  const auto atoms = make_cp_atoms(p, 3);
  const auto ref = run_cp<float>(p, atoms);
  gpu::FpContext ctx(IhwConfig::mul_only(MulMode::MitchellFull, 0));
  gpu::ScopedContext scope(ctx);
  const auto imp = run_cp<gpu::SimFloat>(p, atoms);
  float lo = 1e9f, hi = -1e9f;
  for (float v : ref) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(quality::mae(ref, imp) / (hi - lo), 0.01);
}

// --- ART ----------------------------------------------------------------------

TEST(Art, PreciseRecognitionFindsEmbeddedObject) {
  ArtParams p;
  for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
    const auto in = make_art_input(p, seed);
    const auto r = run_art<double>(p, in);
    EXPECT_TRUE(r.correct) << "seed " << seed;
    EXPECT_GT(r.vigilance, 0.9);
    EXPECT_LE(r.vigilance, 1.05);
  }
}

TEST(Art, VigilanceDegradesGracefullyOnAcPaths) {
  ArtParams p;
  const auto in = make_art_input(p, 5);
  const double ref = run_art<double>(p, in).vigilance;
  auto vig = [&](MulMode m, int tr) {
    gpu::FpContext ctx(IhwConfig::mul_only(m, tr));
    gpu::ScopedContext scope(ctx);
    return run_art<gpu::SimDouble>(p, in).vigilance;
  };
  // Full path at heavy truncation stays within a few percent of precise.
  EXPECT_NEAR(vig(MulMode::MitchellFull, 44), ref, 0.05);
  // Deeper truncation degrades monotonically-ish but stays above 0.8
  // at the paper's 26X-equivalent operating points.
  EXPECT_GT(vig(MulMode::MitchellFull, 48), 0.8);
  EXPECT_GT(vig(MulMode::MitchellLog, 48), 0.8);
}

// --- gromacs-like MD ----------------------------------------------------------

TEST(Md, EnergyIsConservedApproximately) {
  MdParams p;
  p.steps = 60;
  const auto st = make_md_state(p, 9);
  const auto r = run_md<double>(p, st);
  // Velocity Verlet at this dt: total energy drift well under a few percent
  // of the kinetic scale.
  EXPECT_TRUE(std::isfinite(r.avg_potential));
  EXPECT_GT(r.avg_kinetic, 0.0);
  EXPECT_LT(std::fabs(r.final_potential - r.avg_potential),
            0.2 * std::fabs(r.avg_potential));
}

TEST(Md, DeterministicGivenSeed) {
  MdParams p;
  p.steps = 30;
  const auto st = make_md_state(p, 9);
  EXPECT_DOUBLE_EQ(run_md<double>(p, st).avg_potential,
                   run_md<double>(p, st).avg_potential);
}

TEST(Md, FullPathWithinSpecToleranceAtModerateTruncation) {
  MdParams p;
  p.steps = 60;
  const auto st = make_md_state(p, 9);
  const auto ref = run_md<double>(p, st);
  gpu::FpContext ctx(IhwConfig::mul_only(MulMode::MitchellFull, 40));
  gpu::ScopedContext scope(ctx);
  const auto imp = run_md<gpu::SimDouble>(p, st);
  const double err = std::fabs(imp.avg_potential - ref.avg_potential) /
                     std::fabs(ref.avg_potential);
  EXPECT_LT(err, 0.0125);  // the SPEC 1.25% line
}

// --- sphinx-like recognizer ----------------------------------------------------

TEST(Sphinx, PreciseRecognizesEveryWord) {
  SphinxParams p;
  const auto corpus = make_sphinx_corpus(p, 42);
  const auto r = run_sphinx<double>(p, corpus);
  EXPECT_EQ(r.correct, p.vocab);
  EXPECT_EQ(r.total, p.vocab);
  for (int i = 0; i < p.vocab; ++i)
    EXPECT_EQ(r.recognized[static_cast<std::size_t>(i)], i);
}

TEST(Sphinx, TableSevenShapeHolds) {
  SphinxParams p;
  const auto corpus = make_sphinx_corpus(p, 42);
  auto correct = [&](MulMode m, int tr) {
    gpu::FpContext ctx(IhwConfig::mul_only(m, tr));
    gpu::ScopedContext scope(ctx);
    return run_sphinx<gpu::SimDouble>(p, corpus).correct;
  };
  // bt robust through 48 bits, drops by 49; fp at least as good as bt at 44;
  // lp strictly worse than fp at 44.
  EXPECT_GE(correct(MulMode::BitTruncated, 46), 24);
  EXPECT_LT(correct(MulMode::BitTruncated, 49), 25);
  EXPECT_GE(correct(MulMode::MitchellFull, 44), 24);
  EXPECT_LT(correct(MulMode::MitchellLog, 44),
            correct(MulMode::MitchellFull, 44));
}

TEST(Sphinx, CorpusShapesAreConsistent) {
  SphinxParams p;
  const auto corpus = make_sphinx_corpus(p, 1);
  ASSERT_EQ(corpus.models.size(), static_cast<std::size_t>(p.vocab));
  ASSERT_EQ(corpus.utterances.size(), static_cast<std::size_t>(p.vocab));
  for (const auto& m : corpus.models) {
    EXPECT_EQ(m.mean.size(), static_cast<std::size_t>(p.states * p.dims));
    EXPECT_EQ(m.inv_var.size(), m.mean.size());
    for (double iv : m.inv_var) EXPECT_GT(iv, 0.0);
  }
  for (const auto& u : corpus.utterances)
    EXPECT_EQ(u.size(), static_cast<std::size_t>(p.frames * p.dims));
}

// --- runner / framework glue ---------------------------------------------------

TEST(Runner, AnalyzeProducesConsistentReport) {
  gpu::PerfCounters c;
  c.bump(gpu::OpClass::FAdd, 1u << 20);
  c.bump(gpu::OpClass::FMul, 1u << 20);
  c.bump(gpu::OpClass::FRcp, 1u << 18);
  c.bump(gpu::OpClass::Load, 1u << 19);
  const auto rep = analyze_gpu_run(c, IhwConfig::all_imprecise());
  EXPECT_GT(rep.breakdown.total_w, 0.0);
  EXPECT_GT(rep.savings.system_power_impr, 0.0);
  EXPECT_LE(rep.savings.system_power_impr, rep.breakdown.arith_share() + 1e-9);
  EXPECT_NEAR(rep.savings.system_power_impr,
              rep.breakdown.fpu_share() * rep.savings.fpu_power_impr +
                  rep.breakdown.sfu_share() * rep.savings.sfu_power_impr,
              1e-9);
}

TEST(Runner, RunWithConfigInstallsAndCollects) {
  const auto counters = run_with_config(IhwConfig::precise(), [] {
    gpu::SimFloat a(1.0f), b(2.0f);
    (void)(a + b);
    (void)(a * b);
  });
  EXPECT_EQ(counters[gpu::OpClass::FAdd], 1u);
  EXPECT_EQ(counters[gpu::OpClass::FMul], 1u);
  EXPECT_EQ(gpu::FpContext::current(), nullptr);
}

}  // namespace
}  // namespace ihw::apps
