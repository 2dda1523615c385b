#include "workloads.h"

#include <cmath>
#include <cstdio>

#include "apps/cp.h"
#include "apps/gromacs.h"
#include "apps/hotspot.h"
#include "apps/mlp.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "apps/srad.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "error/analytic.h"
#include "error/characterize.h"
#include "gemm/abft.h"
#include "gemm/gemm.h"
#include "ihw/batch.h"
#include "qmc/sobol.h"
#include "quality/grid_metrics.h"
#include "quality/ssim.h"

namespace perfbench {

using ihw::IhwConfig;
using ihw::MulMode;
using ihw::gpu::SimDouble;
using ihw::gpu::SimFloat;
namespace apps = ihw::apps;
namespace gemm = ihw::gemm;
namespace err = ihw::error;

// ---------------------------------------------------------------------------
// Workload base

void Workload::set_points(std::vector<std::string> names) {
  points_ = std::move(names);
  expected_.assign(points_.size(), std::nullopt);
  poisoned_.assign(points_.size(), false);
}

void Workload::warm_up(Tracer* tr) {
  pass_ = PassCounts{};
  for (std::size_t i = 0; i < size(); ++i) {
    const PointOutput out = run(i, tr);
    expect(i, out);
    pass_.perf += out.perf;
    pass_.has_perf = pass_.has_perf || out.perf.instructions() > 0;
    pass_.abft_checksums += out.abft_checksums;
    pass_.abft_detections += out.abft_detections;
    pass_.has_abft = pass_.has_abft || out.abft_checksums > 0;
  }
}

std::vector<std::string> Workload::apply_golden(const Golden& g,
                                               std::uint64_t seed) {
  std::vector<std::string> bad;
  for (std::size_t i = 0; i < size(); ++i) {
    const std::uint64_t* want = g.find(seed, points_[i]);
    if (want && expected_[i] && *want != *expected_[i]) {
      poisoned_[i] = true;
      bad.push_back(points_[i]);
    }
  }
  return bad;
}

bool Workload::check(std::size_t i, const PointOutput& out) const {
  return !poisoned_[i] && expected_[i] && digest(out) == *expected_[i] &&
         invariants(i, out);
}

std::string Workload::expected_table(std::uint64_t seed) const {
  std::string s;
  char buf[32];
  for (std::size_t i = 0; i < size(); ++i) {
    s += std::to_string(seed);
    s += ' ';
    s += points_[i];
    std::snprintf(buf, sizeof buf, " %016llx\n",
                  static_cast<unsigned long long>(expected_[i].value_or(0)));
    s += buf;
  }
  return s;
}

namespace {

// ---------------------------------------------------------------------------
// apps_scalar / apps_batched

struct NamedConfig {
  const char* tag;
  IhwConfig cfg;
};

// The fixed configuration rotation of every app point.
std::vector<NamedConfig> app_configs() {
  IhwConfig th_adder;
  th_adder.add_enabled = true;
  th_adder.add_th = ihw::kDefaultAddTh;
  return {
      {"precise", IhwConfig::precise()},
      {"ifp", IhwConfig::all_imprecise()},
      {"mitchell_log", IhwConfig::mul_only(MulMode::MitchellLog, 0)},
      {"mitchell_full", IhwConfig::mul_only(MulMode::MitchellFull, 0)},
      {"bit_trunc", IhwConfig::mul_only(MulMode::BitTruncated, 16)},
      {"th_adder", th_adder},
  };
}

enum class App { Hotspot, Srad, Cp, Ray, Gromacs };

const char* app_name(App a) {
  switch (a) {
    case App::Hotspot: return "hotspot";
    case App::Srad: return "srad";
    case App::Cp: return "cp";
    case App::Ray: return "ray";
    case App::Gromacs: return "gromacs";
  }
  return "?";
}

bool has_batched_path(App a) {
  return a == App::Hotspot || a == App::Srad || a == App::Cp;
}

// Problem sizes are the design points of the paper benches: HotSpot and
// SRAD on 256x256 grids (table6, fig16), CP on the 128x128 lattice (fig20),
// RayTracing at 192x192 (table6, fig02) and gromacs with 5^3 particles
// (table6). Only the iteration, step and atom counts are cut, to a few tens
// of milliseconds per point on the scalar path (a 192x192 frame takes 0.05 to
// 0.2 s), so a 35 s run times every point about 20 times or more.
apps::HotspotParams hotspot_params() {
  apps::HotspotParams p;
  p.rows = p.cols = 256;
  p.iterations = 2;
  return p;
}
apps::SradParams srad_params() {
  apps::SradParams p;
  p.rows = p.cols = 256;
  p.iterations = 1;
  return p;
}
apps::CpParams cp_params() {
  apps::CpParams p;
  p.grid = 128;
  p.natoms = 12;
  return p;
}
apps::RayParams ray_params() {
  apps::RayParams p;
  p.width = p.height = 192;
  return p;
}
apps::MdParams md_params() {
  apps::MdParams p;
  p.side = 5;
  p.steps = 10;
  return p;
}

class AppsWorkload final : public Workload {
 public:
  explicit AppsWorkload(bool batched)
      : batched_(batched), cfgs_(app_configs()) {
    apps_ = {App::Hotspot, App::Srad, App::Cp};
    if (!batched_) {
      apps_.push_back(App::Ray);
      apps_.push_back(App::Gromacs);
    }
    std::vector<std::string> names;
    for (App a : apps_)
      for (const auto& c : cfgs_)
        names.push_back(std::string("apps/") + app_name(a) + "/" + c.tag);
    set_points(std::move(names));
    for (App a : apps_) spans_.push_back(std::string("apps.") + app_name(a));
  }

  void prepare(std::uint64_t seed, Tracer* tr) override {
    {
      Span s(tr, "apps.input");
      hs_in_ = apps::make_hotspot_input(hs_, seed);
      hs_ref_ = apps::run_hotspot<float>(hs_, hs_in_);
      srad_in_ = apps::make_srad_input(srad_, seed);
      atoms_ = apps::make_cp_atoms(cp_, seed);
      cp_ref_ = apps::run_cp<float>(cp_, atoms_);
      if (!batched_) {
        ray_ref_ = apps::render_ray<float>(ray_);
        md_in_ = apps::make_md_state(md_, seed);
        md_ref_ = apps::run_md<double>(md_, md_in_);
      }
    }
  }

  void build_oracle() override {
    // HotSpot, SRAD and CP points are expected to match the other path bit
    // for bit: apps_scalar checks against the batched path and apps_batched
    // against the scalar one. Ray and gromacs have no second path; their
    // expectations come from the warm-up pass, golden.txt and invariants().
    for (std::size_t i = 0; i < size(); ++i)
      if (has_batched_path(app(i))) expect(i, evaluate(i, !batched_, nullptr));
  }

  PointOutput run(std::size_t i, Tracer* tr) override {
    return evaluate(i, batched_, tr);
  }

 protected:
  bool invariants(std::size_t i, const PointOutput& out) const override {
    // Under the precise configuration the simulated app must reproduce the
    // native-type reference exactly.
    if (cfgs_[i % cfgs_.size()].cfg != IhwConfig::precise()) return true;
    switch (app(i)) {
      case App::Ray: return out.image.pixels == ray_ref_.pixels;
      case App::Gromacs:
        return out.values[0] == md_ref_.avg_potential &&
               out.values[1] == md_ref_.final_potential &&
               out.values[2] == md_ref_.avg_kinetic;
      default: return true;
    }
  }

 private:
  App app(std::size_t i) const { return apps_[i / cfgs_.size()]; }

  PointOutput evaluate(std::size_t i, bool batched, Tracer* tr) const {
    const App a = app(i);
    const IhwConfig& cfg = cfgs_[i % cfgs_.size()].cfg;
    PointOutput out;
    std::vector<double> quality;
    {
      Span s(tr, spans_[i / cfgs_.size()]);
      switch (a) {
        case App::Hotspot:
          out.perf = apps::run_with_config(cfg, [&] {
            out.grid = batched ? apps::run_hotspot_batched(hs_, hs_in_)
                               : apps::run_hotspot<SimFloat>(hs_, hs_in_);
          });
          break;
        case App::Srad:
          out.perf = apps::run_with_config(cfg, [&] {
            const auto& img = srad_in_.image;
            out.grid = batched ? apps::run_srad_batched(srad_, img)
                               : apps::run_srad<SimFloat>(srad_, img);
          });
          break;
        case App::Cp:
          out.perf = apps::run_with_config(cfg, [&] {
            out.grid = batched ? apps::run_cp_batched(cp_, atoms_)
                               : apps::run_cp<SimFloat>(cp_, atoms_);
          });
          break;
        case App::Ray:
          out.perf = apps::run_with_config(cfg, [&] {
            out.image = apps::render_ray<SimFloat>(ray_);
          });
          break;
        case App::Gromacs: {
          apps::MdResult r;
          out.perf = apps::run_with_config(
              cfg, [&] { r = apps::run_md<SimDouble>(md_, md_in_); });
          out.values = {r.avg_potential, r.final_potential, r.avg_kinetic};
          break;
        }
      }
      out.sim_ops = out.perf.flops();
      s.items(static_cast<double>(out.sim_ops));
    }
    apps::GpuRunReport rep;
    {
      Span s(tr, "gpu.analyze");
      rep = apps::analyze_gpu_run(out.perf, cfg);
    }
    {
      Span s(tr, "quality.metric");
      switch (a) {
        case App::Hotspot:
          quality = {ihw::quality::mae(hs_ref_, out.grid),
                     ihw::quality::wed(hs_ref_, out.grid)};
          break;
        case App::Srad:
          quality = {apps::srad_pratt_fom(out.grid, srad_in_.ideal_edges)};
          break;
        case App::Cp:
          quality = {ihw::quality::mae(cp_ref_, out.grid),
                     ihw::quality::wed(cp_ref_, out.grid)};
          break;
        case App::Ray:
          quality = {ihw::quality::ssim_rgb(ray_ref_, out.image)};
          break;
        case App::Gromacs:
          quality = {std::fabs(out.values[0] - md_ref_.avg_potential) /
                     std::fabs(md_ref_.avg_potential)};
          break;
      }
    }
    const auto& sv = rep.savings;
    out.values.insert(out.values.end(),
                      {sv.fpu_power_impr, sv.sfu_power_impr,
                       sv.arith_power_impr, sv.system_power_impr,
                       rep.breakdown.total_w});
    out.values.insert(out.values.end(), quality.begin(), quality.end());
    return out;
  }

  bool batched_;
  std::vector<NamedConfig> cfgs_;
  std::vector<App> apps_;
  std::vector<std::string> spans_;

  apps::HotspotParams hs_ = hotspot_params();
  apps::SradParams srad_ = srad_params();
  apps::CpParams cp_ = cp_params();
  apps::RayParams ray_ = ray_params();
  apps::MdParams md_ = md_params();

  apps::HotspotInput hs_in_;
  apps::SradInput srad_in_;
  std::vector<apps::CpAtom> atoms_;
  apps::MdState md_in_;
  ihw::common::GridF hs_ref_, cp_ref_;
  ihw::common::RgbImage ray_ref_;
  apps::MdResult md_ref_;
};

// ---------------------------------------------------------------------------
// gemm_mlp

std::vector<NamedConfig> mul_configs() {
  return {
      {"precise", IhwConfig::precise()},
      {"ifp", IhwConfig::mul_only(MulMode::ImpreciseSimple, 0)},
      {"mitchell_log", IhwConfig::mul_only(MulMode::MitchellLog, 0)},
      {"bit_trunc", IhwConfig::mul_only(MulMode::BitTruncated, 12)},
  };
}

gemm::GemmConfig accum_config(gemm::AccumMode m) {
  gemm::GemmConfig g;
  g.accum = m;
  g.accum_trunc = 8;
  g.accum_th = 8;
  g.accum_block = 32;
  return g;
}

// The shape micro_gemm benchmarks the tile engine at.
constexpr int kGemmM = 128, kGemmN = 128, kGemmK = 128;
constexpr gemm::AccumMode kAccums[] = {
    gemm::AccumMode::kFp32, gemm::AccumMode::kFp32Trunc,
    gemm::AccumMode::kIfpAdd, gemm::AccumMode::kWideFp64};
constexpr gemm::AccumMode kMlpAccums[] = {gemm::AccumMode::kFp32,
                                          gemm::AccumMode::kIfpAdd};
constexpr gemm::AbftMode kAbfts[] = {gemm::AbftMode::kOff,
                                     gemm::AbftMode::kDetect};

class GemmMlpWorkload final : public Workload {
 public:
  GemmMlpWorkload() : muls_(mul_configs()) {
    std::vector<std::string> names;
    for (const auto& m : muls_)
      for (auto acc : kAccums)
        for (auto ab : kAbfts) {
          Point p;
          p.mul = &m - muls_.data();
          p.g = accum_config(acc);
          p.g.abft = ab;
          p.span = "gemm." + gemm::to_string(acc) + "." + gemm::to_string(ab);
          pts_.push_back(p);
          names.push_back("gemm/" + std::string(m.tag) + "/" +
                          gemm::to_string(acc) + "/" + gemm::to_string(ab));
        }
    for (const auto& m : muls_)
      for (auto acc : kMlpAccums) {
        Point p;
        p.mlp = true;
        p.mul = &m - muls_.data();
        p.g = accum_config(acc);
        p.span = "apps.mlp";
        pts_.push_back(p);
        names.push_back("mlp/" + std::string(m.tag) + "/" +
                        gemm::to_string(acc));
      }
    set_points(std::move(names));
  }

  void prepare(std::uint64_t seed, Tracer* tr) override {
    Span s(tr, "gemm.input");
    ihw::common::Xoshiro256 rng(seed);
    A_.resize(static_cast<std::size_t>(kGemmM) * kGemmK);
    B_.resize(static_cast<std::size_t>(kGemmK) * kGemmN);
    for (auto& v : A_) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : B_) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    seed_ = seed;
  }

  void build_oracle() override {
    // Independent oracles: gemm points against the canonical serial triple
    // loop, MLP points against the same model run at a different tiling
    // (results never depend on tiling). An ABFT detect point shares the
    // reference of the off point before it: detection never touches C.
    PointOutput ref;
    for (std::size_t i = 0; i < size(); ++i) {
      const Point& p = pts_[i];
      const IhwConfig& cfg = muls_[p.mul].cfg;
      PointOutput exp;
      if (!p.mlp && p.g.abft == gemm::AbftMode::kDetect) {
        exp = ref;
        exp.abft_checksums = kGemmM + kGemmN;
      } else if (p.mlp) {
        apps::MlpParams mp = mlp_params(p);
        mp.gemm.mc = 16;
        mp.gemm.kc = 40;
        mp.gemm.nc = 24;
        apps::MlpResult r;
        exp.perf = apps::run_with_config(cfg, [&] { r = apps::run_mlp(mp); });
        fill_mlp(exp, r);
      } else {
        gemm::GemmConfig g = p.g;
        g.abft = gemm::AbftMode::kOff;
        exp.floats.assign(static_cast<std::size_t>(kGemmM) * kGemmN, 0.0f);
        exp.perf = apps::run_with_config(cfg, [&] {
          gemm::reference(A_.data(), B_.data(), exp.floats.data(), kGemmM,
                          kGemmN, kGemmK, g);
        });
        ref = exp;
      }
      exp.sim_ops = exp.perf.flops();
      expect(i, exp);
    }
  }

  PointOutput run(std::size_t i, Tracer* tr) override {
    const Point& p = pts_[i];
    const IhwConfig& cfg = muls_[p.mul].cfg;
    PointOutput out;
    if (p.mlp) {
      const apps::MlpParams mp = mlp_params(p);
      apps::MlpResult r;
      {
        Span s(tr, p.span);
        out.perf = apps::run_with_config(cfg, [&] { r = apps::run_mlp(mp); });
        s.items(static_cast<double>(out.perf.flops()));
      }
      fill_mlp(out, r);
    } else {
      out.floats.assign(static_cast<std::size_t>(kGemmM) * kGemmN, 0.0f);
      gemm::abft::AbftCounters ab;
      {
        gemm::abft::ScopedAbftCounters sink(ab);
        Span s(tr, p.span);
        out.perf = apps::run_with_config(cfg, [&] {
          gemm::run(A_.data(), B_.data(), out.floats.data(), kGemmM, kGemmN,
                    kGemmK, p.g);
        });
        s.items(static_cast<double>(kGemmM) * kGemmN * kGemmK);
      }
      out.abft_checksums = ab.checksums;
      out.abft_detections = ab.detections;
    }
    out.sim_ops = out.perf.flops();
    return out;
  }

  void probe_layers(Tracer* tr) override {
    // gemm::abft::verify on its own, on each detect point's fault-free C.
    std::vector<float> C(static_cast<std::size_t>(kGemmM) * kGemmN);
    for (const Point& p : pts_) {
      if (p.mlp || p.g.abft != gemm::AbftMode::kDetect) continue;
      ihw::gpu::FpContext ctx(muls_[p.mul].cfg);
      ihw::gpu::ScopedContext scope(ctx);
      gemm::GemmConfig off = p.g;
      off.abft = gemm::AbftMode::kOff;
      gemm::run(A_.data(), B_.data(), C.data(), kGemmM, kGemmN, kGemmK, off);
      gemm::abft::AbftCounters ab;
      gemm::abft::ScopedAbftCounters sink(ab);
      Span s(tr, "gemm.abft.verify");
      gemm::abft::verify(A_.data(), B_.data(), C.data(), kGemmM, kGemmN,
                         kGemmK, p.g);
    }
  }

 protected:
  bool invariants(std::size_t i, const PointOutput& out) const override {
    if (out.abft_detections != 0) return false;
    // A fault-free MLP classifies nearly every sample under every
    // multiplier/accumulator pair benchmarked here.
    return !pts_[i].mlp || out.values[0] >= 0.9;
  }

 private:
  struct Point {
    bool mlp = false;
    std::size_t mul = 0;
    gemm::GemmConfig g;
    std::string span;
  };

  apps::MlpParams mlp_params(const Point& p) const {
    // A 128-sample batch: the first layer is then a 128-row GEMM like the
    // gemm points, and the slowest MLP points cost about as much as the
    // slowest GEMMs, so the p90 latency does not sit on a gap between them.
    apps::MlpParams mp;
    mp.samples = 128;
    mp.seed = seed_;
    mp.gemm = p.g;
    return mp;
  }

  static void fill_mlp(PointOutput& out, apps::MlpResult& r) {
    out.values = {r.accuracy, r.logit_checksum};
    out.floats = std::move(r.logits);
  }

  std::vector<NamedConfig> muls_;
  std::vector<Point> pts_;
  std::vector<float> A_, B_;
  std::uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// characterize

constexpr std::uint64_t kCharSamples = 1 << 17;
constexpr int kNumKinds = 13;

// The measured max relative error may not exceed the closed-form bound;
// the slack matches the analytic test suite (float rounding of the bound's
// extremal operands). Kinds without a relative-error bound return < 0.
double emax_bound(err::UnitKind k, int param, int frac_bits) {
  namespace an = err::analytic;
  switch (k) {
    case err::UnitKind::FpAdd: return an::adder_add_bound(param);
    case err::UnitKind::FpMul: return an::simple_mul_emax();
    case err::UnitKind::FpDiv:
    case err::UnitKind::Rcp: return an::rcp_emax();
    case err::UnitKind::Rsqrt: return an::rsqrt_emax();
    case err::UnitKind::Sqrt: return an::sqrt_emax();
    case err::UnitKind::Exp2: return an::exp2_emax();
    case err::UnitKind::AcfpLog: return param == 0 ? an::mitchell_emax() : -1;
    case err::UnitKind::AcfpFull:
      return param == 0 ? an::full_path_emax() : -1;
    case err::UnitKind::BitTrunc: return an::bit_trunc_emax(param, frac_bits);
    case err::UnitKind::FpSub:
    case err::UnitKind::Log2:
    case err::UnitKind::Fma: return -1;
  }
  return -1;
}

template <typename T>
T scatter(double u, double v, int spread) {
  const double mant = 1.0 + u;
  const int e =
      static_cast<int>(std::floor(v * (2 * spread + 1))) - spread;
  return static_cast<T>(std::ldexp(mant, e));
}

class CharacterizeWorkload final : public Workload {
 public:
  void prepare(std::uint64_t seed, Tracer*) override {
    // Structural parameters drawn from the seed: adder TH and truncated
    // multiplier bits. Cost per sample does not depend on them.
    ihw::common::Xoshiro256 rng(seed);
    const int add_th = 4 + static_cast<int>(rng() % 9);
    const int sub_th = 4 + static_cast<int>(rng() % 9);
    const int trunc32 = 8 + static_cast<int>(rng() % 13);
    const int trunc64 = 24 + static_cast<int>(rng() % 21);
    pts_.clear();
    std::vector<std::string> names;
    for (int width : {32, 64}) {
      for (int k = 0; k < kNumKinds; ++k) {
        Point p;
        p.kind = static_cast<err::UnitKind>(k);
        p.width = width;
        if (p.kind == err::UnitKind::FpAdd) p.param = add_th;
        if (p.kind == err::UnitKind::FpSub) p.param = sub_th;
        if (p.kind == err::UnitKind::BitTrunc)
          p.param = width == 32 ? trunc32 : trunc64;
        p.bound = emax_bound(p.kind, p.param, width == 32 ? 23 : 52);
        p.span = "error." + err::to_string(p.kind);
        if (width == 64) p.span += ".f64";
        pts_.push_back(p);
        names.push_back("error/" + err::to_string(p.kind) + "/f" +
                        std::to_string(width) + "/" +
                        std::to_string(p.param));
      }
    }
    set_points(std::move(names));
  }

  void build_oracle() override {
    // Independent oracle: the shared-stream grid characterization, which
    // must match every standalone characterization bit for bit.
    for (int width : {32, 64}) {
      std::vector<err::CharRequest> reqs;
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < pts_.size(); ++i)
        if (pts_[i].width == width) {
          reqs.push_back({pts_[i].kind, pts_[i].param});
          idx.push_back(i);
        }
      const auto res = width == 32
                           ? err::characterize32_many(reqs, kCharSamples)
                           : err::characterize64_many(reqs, kCharSamples);
      for (std::size_t j = 0; j < res.size(); ++j)
        expect(idx[j], to_output(res[j]));
    }
  }

  PointOutput run(std::size_t i, Tracer* tr) override {
    const Point& p = pts_[i];
    err::CharResult r;
    {
      Span s(tr, p.span);
      r = p.width == 32 ? err::characterize32(p.kind, p.param, kCharSamples)
                        : err::characterize64(p.kind, p.param, kCharSamples);
      s.items(static_cast<double>(kCharSamples));
    }
    return to_output(r);
  }

  void probe_layers(Tracer* tr) override {
    // The characterization's operand stream and approximate spans, timed on
    // their own with the same recipe (and thus the same operands).
    constexpr std::size_t n = 1 << 16;
    ihw::common::AlignedVector<float> a(n), b(n), c(n), out(n);
    std::vector<double> p4(4 * n), p6(6 * n);
    {
      Span s(tr, "qmc.sobol");
      ihw::qmc::Sobol sobol(4);
      for (std::size_t i = 0; i < n; ++i) sobol.next(&p4[4 * i]);
      s.items(static_cast<double>(n));
    }
    ihw::qmc::Sobol sobol6(6);
    for (std::size_t i = 0; i < n; ++i) sobol6.next(&p6[6 * i]);
    for (const Point& p : pts_) {
      if (p.width != 32) continue;
      const bool add = p.kind == err::UnitKind::FpAdd ||
                       p.kind == err::UnitKind::FpSub;
      const bool fma = p.kind == err::UnitKind::Fma;
      const int spread = add ? 12 : 0;
      const std::vector<double>& pts = fma ? p6 : p4;
      const std::size_t d = fma ? 6 : 4;
      for (std::size_t i = 0; i < n; ++i) {
        const double* q = &pts[d * i];
        if (p.kind == err::UnitKind::Exp2) {
          a[i] = static_cast<float>(q[0] * 8.0 - 4.0);
          continue;
        }
        a[i] = scatter<float>(q[0], q[1], spread);
        b[i] = scatter<float>(q[2], q[3], spread);
        if (fma) c[i] = scatter<float>(q[4], q[5], spread);
      }
      Span s(tr, "ihw.span." + err::to_string(p.kind));
      namespace bt = ihw::batch;
      const float *x = a.data(), *y = b.data(), *z = c.data();
      float* o = out.data();
      switch (p.kind) {
        case err::UnitKind::FpAdd: bt::ifp_add_n(x, y, o, n, p.param); break;
        case err::UnitKind::FpSub: bt::ifp_sub_n(x, y, o, n, p.param); break;
        case err::UnitKind::FpMul: bt::ifp_mul_n(x, y, o, n); break;
        case err::UnitKind::FpDiv: bt::ifp_div_n(x, y, o, n); break;
        case err::UnitKind::Rcp: bt::ircp_n(x, o, n); break;
        case err::UnitKind::Rsqrt: bt::irsqrt_n(x, o, n); break;
        case err::UnitKind::Sqrt: bt::isqrt_n(x, o, n); break;
        case err::UnitKind::Log2: bt::ilog2_n(x, o, n); break;
        case err::UnitKind::Exp2: bt::iexp2_n(x, o, n); break;
        case err::UnitKind::Fma:
          bt::ifp_fma_n(x, y, z, o, n, ihw::kDefaultAddTh);
          break;
        case err::UnitKind::AcfpLog:
          bt::acfp_mul_n(x, y, o, n, ihw::AcfpPath::Log, p.param);
          break;
        case err::UnitKind::AcfpFull:
          bt::acfp_mul_n(x, y, o, n, ihw::AcfpPath::Full, p.param);
          break;
        case err::UnitKind::BitTrunc:
          bt::trunc_mul_n(x, y, o, n, p.param);
          break;
      }
      s.items(static_cast<double>(n));
    }
  }

 protected:
  bool invariants(std::size_t i, const PointOutput& out) const override {
    const double bound = pts_[i].bound;
    return bound < 0 || out.values[0] <= bound * 1.005 + 1e-6;
  }

 private:
  struct Point {
    err::UnitKind kind = err::UnitKind::FpAdd;
    int param = 0;
    int width = 32;
    double bound = -1;
    std::string span;
  };

  static PointOutput to_output(const err::CharResult& r) {
    PointOutput out;
    const auto st = r.stats.state();
    const auto pm = r.pmf.state();
    out.values = {r.stats.max_rel(), st.sum_rel, st.sum_abs, st.max_abs};
    out.counts = {st.samples,      st.errors,
                  st.rel_samples,  pm.samples,
                  pm.zero_error,   static_cast<std::uint64_t>(pm.min_bucket),
                  static_cast<std::uint64_t>(pm.max_bucket)};
    out.counts.insert(out.counts.end(), pm.counts.begin(), pm.counts.end());
    out.sim_ops = st.samples;
    return out;
  }

  std::vector<Point> pts_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "apps_scalar", "apps_batched", "gemm_mlp", "characterize"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "apps_scalar") return std::make_unique<AppsWorkload>(false);
  if (name == "apps_batched") return std::make_unique<AppsWorkload>(true);
  if (name == "gemm_mlp") return std::make_unique<GemmMlpWorkload>();
  if (name == "characterize") return std::make_unique<CharacterizeWorkload>();
  return nullptr;
}

}  // namespace perfbench
