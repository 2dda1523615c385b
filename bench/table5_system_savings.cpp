// Table 5: system-level power savings summary across the three GPU
// applications (one aggregated harness; the per-figure binaries report the
// same rows with quality detail).
//
// The three precise reference runs go through the memoizing sweep engine:
// each is a fingerprinted grid point evaluated across the thread pool and
// memoized (--cache-dir=DIR persists the counters), and the three RAY rows
// share the single RAY reference run instead of re-rendering. With
// --server=SOCKET the bench instead evaluates through a running ihw_sweepd
// daemon (DESIGN.md §13); records are bit-exact either way, so stdout is
// byte-identical between the two modes.
#include <chrono>
#include <cstdio>

#include "apps/hotspot.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "apps/srad.h"
#include "common/args.h"
#include "common/sweep_flags.h"
#include "common/table.h"
#include "runtime/parallel.h"
#include "serve/resilient_client.h"
#include "sweep/json.h"
#include "sweep/sweep.h"

using namespace ihw;
using namespace ihw::apps;

namespace {

/// Mode-independent view of the three reference evaluations: records in
/// workload order plus the provenance fields the JSON output reports.
struct Outcome {
  std::vector<sweep::EvalRecord> records;
  std::vector<std::uint64_t> fps;
  std::vector<char> warm;              // served without a cold evaluation
  std::vector<std::string> status;     // "evaluated"/"cache_hit"/... or source
  sweep::HealthReport health;
  std::uint64_t failures = 0;
};

}  // namespace

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  sweep::install_drain_handler();
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const double scale = args.get_double("scale", 1.0);
  const auto flags = common::SweepFlags::from_args(args);
  // In server mode the cache and journal belong to the daemon.
  sweep::EvalCache cache(flags.server_mode() ? "" : flags.cache_dir);
  if (!flags.server_mode())
    cache.attach_journal("table5_system_savings", flags.resume);
  const sweep::FailPolicy policy = sweep::make_fail_policy(flags);
  const std::string json_path = args.get("json", "");

  const auto t0 = std::chrono::steady_clock::now();

  HotspotParams hs;
  hs.rows = hs.cols = static_cast<std::size_t>(256 * scale);
  hs.iterations = 30;
  SradParams sr;
  sr.rows = sr.cols = static_cast<std::size_t>(160 * scale);
  sr.iterations = 40;
  RayParams ray;
  ray.width = ray.height = static_cast<std::size_t>(192 * scale);

  const IhwConfig precise = IhwConfig::precise();
  const std::vector<sweep::Workload> workloads = {
      {"hotspot",
       {{"rows", double(hs.rows)}, {"cols", double(hs.cols)},
        {"iterations", double(hs.iterations)}},
       7},
      {"srad",
       {{"rows", double(sr.rows)}, {"cols", double(sr.cols)},
        {"iterations", double(sr.iterations)}},
       11},
      {"ray", {{"width", double(ray.width)}, {"height", double(ray.height)}}, 0},
  };

  Outcome out;
  if (flags.server_mode()) {
    // Resilient client (DESIGN.md §14): lazy connect, deterministic-backoff
    // retries, and degrade-to-local unless --server-no-fallback -- a dead
    // daemon still yields byte-identical stdout and exit 0.
    serve::RetryPolicy retry;
    retry.deadline_ms = flags.server_deadline_ms;
    retry.local_fallback = !flags.server_no_fallback;
    serve::ResilientClient client(flags.server, retry);
    try {
      const auto res = client.eval_workloads(workloads);
      for (const auto& r : res) {
        out.records.push_back(r.rec);
        out.fps.push_back(r.fp);
        out.warm.push_back(r.served_warm() ? 1 : 0);
        out.status.push_back(r.source);
      }
    } catch (const serve::ServeError& e) {
      std::fprintf(stderr, "[serve] %s failed: %s (code=%s)\n",
                   flags.server.c_str(), e.what(), e.code().c_str());
      return e.retryable() ? sweep::kDrainExitCode
                           : sweep::kPointFailureExitCode;
    }
    std::fprintf(stderr, "[serve] %s\n", client.stats_summary().c_str());
  } else {
    // One grid point per precise reference run; the pool evaluates cold
    // points concurrently and equal fingerprints collapse to one evaluation.
    std::vector<sweep::GridPoint> points;
    points.push_back({workloads[0].fingerprint(&precise), [&] {
                        sweep::EvalRecord rec;
                        const auto in = make_hotspot_input(hs, 7);
                        rec.perf = run_with_config(precise, [&] {
                          run_hotspot_batched(hs, in);
                        });
                        return rec;
                      }});
    points.push_back({workloads[1].fingerprint(&precise), [&] {
                        sweep::EvalRecord rec;
                        const auto image = make_srad_image(sr, 11);
                        rec.perf = run_with_config(precise, [&] {
                          run_srad_batched(sr, image);
                        });
                        return rec;
                      }});
    points.push_back({workloads[2].fingerprint(&precise), [&] {
                        sweep::EvalRecord rec;
                        rec.perf = run_with_config(
                            precise, [&] { render_ray<gpu::SimFloat>(ray); });
                        return rec;
                      }});
    const auto grid = sweep::run_grid(points, &cache, policy);
    if (sweep::drain_requested()) {
      std::fprintf(stderr, "[sweep] drained (rerun with --resume): %s\n",
                   grid.health.summary().c_str());
      return sweep::kDrainExitCode;
    }
    for (std::size_t i = 0; i < points.size(); ++i)
      if (grid.status[i] == sweep::PointStatus::Failed)
        std::fprintf(stderr, "[sweep] point %zu failed: %s\n", i,
                     grid.error_message(i).c_str());
    out.records = grid.records;
    out.health = grid.health;
    out.failures = grid.health.failures;
    for (std::size_t i = 0; i < points.size(); ++i) {
      out.fps.push_back(points[i].fp);
      out.warm.push_back(grid.cache_hit[i]);
      out.status.push_back(sweep::to_string(grid.status[i]));
    }
  }

  common::Table t({"application", "config", "sys saving", "paper",
                   "arith saving", "paper "});
  sweep::Json rows = sweep::Json::array();
  auto add_json = [&](const char* app, const IhwConfig& cfg, std::size_t pt,
                      const power::SystemSavings& s) {
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(out.fps[pt]));
    rows.push(sweep::Json::object()
                  .set("application", app)
                  .set("config", cfg.describe())
                  .set("fingerprint", hex)
                  .set("sys_saving", s.system_power_impr)
                  .set("arith_saving", s.arith_power_impr)
                  .set("cache_hit", out.warm[pt] != 0)
                  .set("status", out.status[pt]));
  };

  {
    gpu::GpuPowerParams params;
    params.dram_fraction = 0.15;
    const auto rep = analyze_gpu_run(out.records[0].perf,
                                     IhwConfig::all_imprecise(), params);
    t.row()
        .add("Hotspot")
        .add("all IHW")
        .add(common::pct(rep.savings.system_power_impr))
        .add("32.06%")
        .add(common::pct(rep.savings.arith_power_impr))
        .add("91.54%");
    add_json("Hotspot", IhwConfig::all_imprecise(), 0, rep.savings);
  }
  {
    gpu::GpuPowerParams params;
    params.dram_fraction = 0.30;
    const auto rep = analyze_gpu_run(out.records[1].perf,
                                     IhwConfig::all_imprecise(), params);
    t.row()
        .add("SRAD")
        .add("all IHW")
        .add(common::pct(rep.savings.system_power_impr))
        .add("24.23%")
        .add(common::pct(rep.savings.arith_power_impr))
        .add("90.68%");
    add_json("SRAD", IhwConfig::all_imprecise(), 1, rep.savings);
  }
  {
    gpu::GpuPowerParams params;
    params.dram_fraction = 0.25;
    params.frontend_pj = 14.0;
    const struct {
      const char* name;
      IhwConfig cfg;
      const char* sys;
      const char* arith;
    } ray_rows[] = {
        {"RAY(rcp,add,sqrt)", IhwConfig::ray_conservative(), "10.24%", "36.14%"},
        {"RAY(rcp,add,sqrt,rsqrt)", IhwConfig::ray_with_rsqrt(), "11.50%", "40.59%"},
        {"RAY(rcp,add,sqrt,fpmul_fp)", IhwConfig::ray_with_full_path_mul(0),
         "13.56%", "47.86%"},
    };
    for (const auto& r : ray_rows) {
      const auto rep = analyze_gpu_run(out.records[2].perf, r.cfg, params);
      t.row()
          .add(r.name)
          .add(r.cfg.describe())
          .add(common::pct(rep.savings.system_power_impr))
          .add(r.sys)
          .add(common::pct(rep.savings.arith_power_impr))
          .add(r.arith);
      add_json(r.name, r.cfg, 2, rep.savings);
    }
  }

  std::printf("== Table 5: system-level power savings ==\n");
  std::printf("%s", t.str().c_str());
  std::printf("(ordering holds: Hotspot > SRAD > RAY, and within RAY the "
              "savings grow with each enabled unit)\n");
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  std::fprintf(stderr,
               "[sweep] hits=%llu misses=%llu disk_hits=%llu stores=%llu "
               "elapsed_ms=%.1f | %s\n",
               static_cast<unsigned long long>(cache.hits()),
               static_cast<unsigned long long>(cache.misses()),
               static_cast<unsigned long long>(cache.disk_hits()),
               static_cast<unsigned long long>(cache.stores()), ms,
               out.health.summary().c_str());
  if (!json_path.empty()) {
    sweep::Json doc = sweep::Json::object();
    doc.set("bench", "table5_system_savings")
        .set("scale", scale)
        .set("elapsed_ms", ms)
        .set("cache_hits", cache.hits())
        .set("cache_misses", cache.misses())
        .set("disk_hits", cache.disk_hits())
        .set("health", out.health.to_json())
        .set("rows", std::move(rows));
    if (!doc.write_file(json_path))
      std::fprintf(stderr, "[sweep] failed to write %s\n", json_path.c_str());
  }
  return out.failures > 0 ? sweep::kPointFailureExitCode : 0;
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
