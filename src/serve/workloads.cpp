#include "serve/workloads.h"

#include <vector>

#include "apps/hotspot.h"
#include "apps/mlp.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "apps/srad.h"
#include "common/rng.h"
#include "gemm/gemm.h"
#include "gpu/simreal.h"

namespace ihw::serve {
namespace {

// Strict parameter lookup: a daemon must not silently default a structural
// parameter, or the evaluated point would not match its fingerprint.
bool get_param(const sweep::Workload& w, const char* key, double* out,
               std::string* err) {
  for (const auto& [k, v] : w.params) {
    if (k == key) {
      *out = v;
      return true;
    }
  }
  *err = "workload '" + w.name + "' is missing required parameter '" + key +
         "'";
  return false;
}

// As get_param, but additionally requires a non-negative integer value in
// [lo, hi]: accumulator policy codes and matrix extents must not arrive as
// fractions or out-of-range sentinels.
bool get_int_param(const sweep::Workload& w, const char* key, double lo,
                   double hi, int* out, std::string* err) {
  double v = 0;
  if (!get_param(w, key, &v, err)) return false;
  if (v != static_cast<double>(static_cast<long long>(v)) || v < lo ||
      v > hi) {
    *err = "workload '" + w.name + "' parameter '" + key +
           "' must be an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool has_param(const sweep::Workload& w, const char* key) {
  for (const auto& [k, v] : w.params)
    if (k == key) return true;
  return false;
}

// The accumulation-policy sub-spec shared by the gemm and mlp recipes:
// `accum` selects the mode (0 fp32, 1 fp32_trunc, 2 ifp_add, 3 wide_fp64)
// and each mode's structural knob is required exactly when that mode needs
// it -- a daemon defaulting a TH or a block size would evaluate a different
// matrix unit than the fingerprint says.
bool get_accum_params(const sweep::Workload& w, gemm::GemmConfig* g,
                      std::string* err) {
  int accum = 0;
  if (!get_int_param(w, "accum", 0, 3, &accum, err)) return false;
  g->accum = static_cast<gemm::AccumMode>(accum);
  switch (g->accum) {
    case gemm::AccumMode::kFp32:
      break;
    case gemm::AccumMode::kFp32Trunc:
      if (!get_int_param(w, "accum_trunc", 0, 22, &g->accum_trunc, err))
        return false;
      break;
    case gemm::AccumMode::kIfpAdd:
      if (!get_int_param(w, "accum_th", 1, 27, &g->accum_th, err))
        return false;
      break;
    case gemm::AccumMode::kWideFp64:
      if (!get_int_param(w, "accum_block", 1, 4096, &g->accum_block, err))
        return false;
      break;
  }
  // Optional ABFT mode (0 off, 1 detect, 2 recover). Absent means off, so
  // every pre-existing recipe keeps its fingerprint and its exact behaviour;
  // when present it is validated as strictly as the structural knobs above.
  if (has_param(w, "abft")) {
    int abft = 0;
    if (!get_int_param(w, "abft", 0, 2, &abft, err)) return false;
    g->abft = static_cast<gemm::AbftMode>(abft);
  }
  return true;
}

}  // namespace

std::function<sweep::EvalRecord()> make_workload_eval(
    const sweep::Workload& w, const std::string& config_tag,
    std::string* err) {
  if (config_tag != "precise") {
    *err = "unknown config tag '" + config_tag +
           "' (this protocol version evaluates only \"precise\" points)";
    return {};
  }
  const IhwConfig precise = IhwConfig::precise();
  double rows = 0, cols = 0, iterations = 0, width = 0, height = 0;
  if (w.name == "hotspot") {
    if (!get_param(w, "rows", &rows, err) ||
        !get_param(w, "cols", &cols, err) ||
        !get_param(w, "iterations", &iterations, err))
      return {};
    apps::HotspotParams hs;
    hs.rows = static_cast<std::size_t>(rows);
    hs.cols = static_cast<std::size_t>(cols);
    hs.iterations = static_cast<int>(iterations);
    const std::uint64_t seed = w.seed;
    return [hs, seed, precise] {
      sweep::EvalRecord rec;
      const auto in = apps::make_hotspot_input(hs, seed);
      rec.perf = apps::run_with_config(
          precise, [&] { apps::run_hotspot_batched(hs, in); });
      return rec;
    };
  }
  if (w.name == "srad") {
    if (!get_param(w, "rows", &rows, err) ||
        !get_param(w, "cols", &cols, err) ||
        !get_param(w, "iterations", &iterations, err))
      return {};
    apps::SradParams sr;
    sr.rows = static_cast<std::size_t>(rows);
    sr.cols = static_cast<std::size_t>(cols);
    sr.iterations = static_cast<int>(iterations);
    const std::uint64_t seed = w.seed;
    return [sr, seed, precise] {
      sweep::EvalRecord rec;
      const auto image = apps::make_srad_image(sr, seed);
      rec.perf = apps::run_with_config(
          precise, [&] { apps::run_srad_batched(sr, image); });
      return rec;
    };
  }
  if (w.name == "ray") {
    if (!get_param(w, "width", &width, err) ||
        !get_param(w, "height", &height, err))
      return {};
    apps::RayParams ray;
    ray.width = static_cast<std::size_t>(width);
    ray.height = static_cast<std::size_t>(height);
    return [ray, precise] {
      sweep::EvalRecord rec;
      rec.perf = apps::run_with_config(
          precise, [&] { apps::render_ray<gpu::SimFloat>(ray); });
      return rec;
    };
  }
  if (w.name == "gemm") {
    int m = 0, n = 0, k = 0;
    gemm::GemmConfig g;
    if (!get_int_param(w, "m", 1, 4096, &m, err) ||
        !get_int_param(w, "n", 1, 4096, &n, err) ||
        !get_int_param(w, "k", 1, 4096, &k, err) ||
        !get_accum_params(w, &g, err))
      return {};
    const std::uint64_t seed = w.seed;
    return [m, n, k, g, seed, precise] {
      sweep::EvalRecord rec;
      common::Xoshiro256 rng(seed);
      std::vector<float> A(static_cast<std::size_t>(m) * k);
      std::vector<float> B(static_cast<std::size_t>(k) * n);
      std::vector<float> C(static_cast<std::size_t>(m) * n);
      for (auto& v : A) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (auto& v : B) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      rec.perf = apps::run_with_config(
          precise, [&] { gemm::run(A.data(), B.data(), C.data(), m, n, k, g); });
      double checksum = 0.0;
      for (float v : C) checksum += static_cast<double>(v);
      rec.set_metric("checksum", checksum);
      return rec;
    };
  }
  if (w.name == "mlp") {
    apps::MlpParams mp;
    if (!get_int_param(w, "samples", 1, 65536, &mp.samples, err) ||
        !get_int_param(w, "dim", 1, 4096, &mp.dim, err) ||
        !get_int_param(w, "hidden", 1, 4096, &mp.hidden, err) ||
        !get_int_param(w, "classes", 2, 4096, &mp.classes, err) ||
        !get_accum_params(w, &mp.gemm, err))
      return {};
    mp.seed = w.seed;
    return [mp, precise] {
      sweep::EvalRecord rec;
      apps::MlpResult res;
      rec.perf = apps::run_with_config(precise, [&] { res = apps::run_mlp(mp); });
      rec.set_metric("accuracy", res.accuracy);
      rec.set_metric("checksum", res.logit_checksum);
      return rec;
    };
  }
  *err = "unknown workload '" + w.name + "'";
  return {};
}

std::uint64_t workload_fingerprint(const sweep::Workload& w) {
  const IhwConfig precise = IhwConfig::precise();
  return w.fingerprint(&precise);
}

}  // namespace ihw::serve
