// In-process design-point benchmark.
//
//   ihw_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--golden FILE] [--trace-out FILE] [--corrupt-point K]
//                 [--print-expected]
//
// --trace 0 measures the end-to-end metrics: set-up (process start to the
// first timed point: inputs, precise references and the warm-up pass), then
// whole passes over the workload's design points until S seconds have
// elapsed. Each point's latency is its fastest evaluation in the run; the
// rates and percentiles are taken over the points' latencies. The expected
// table is built after the set-up window, and every point is checked against
// it outside its own timing.
//
// --trace 1 measures the per-layer metrics: it alternates untraced and
// traced passes of the workload (their throughput ratio is trace.overhead),
// then runs one traced pass of each other workload, the layer probes and the
// layer ladder, so every per-layer metric is reported. Spans are written as
// Chrome trace-event JSON to --trace-out at exit.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ihw/simd/isa.h"
#include "ladder.h"
#include "runtime/parallel.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

const std::int64_t g_process_start_ns = now_ns();

constexpr std::size_t kMinPoints = 100;
constexpr int kLadderReps = 24;
// Share of --seconds the traced run spends on the workload's own passes;
// the rest covers one pass of each other workload and the layer probes.
constexpr double kOwnShare = 0.6;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  std::string golden;
  std::string trace_out;
  long long corrupt_point = -1;
  bool print_expected = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ihw_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--golden FILE] [--trace-out FILE] "
               "[--corrupt-point K] [--print-expected]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    if (key == "--print-expected") {
      o.print_expected = true;
      continue;
    }
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      o.trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (key == "--golden") {
      o.golden = val;
    } else if (key == "--trace-out") {
      o.trace_out = val;
    } else if (key == "--corrupt-point") {
      o.corrupt_point = std::strtoll(val.c_str(), &end, 10);
    } else {
      usage(("unknown option " + key).c_str());
    }
    if (end != nullptr && (*end != '\0' || val.empty()))
      usage(("bad value for " + key).c_str());
  }
  if (!make_workload(o.workload)) usage("unknown --workload");
  if (!(o.seconds > 0) || o.seconds > 3600) usage("bad --seconds");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Oracle bookkeeping shared by every pass.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  long long corrupt_at = -1;
};

/// One pass over the workload's points. Appends each point's host latency
/// (ns) and returns the simulated operations; checks run outside the timing.
std::uint64_t run_pass(Workload& w, Tracer* tr, Tally& tally,
                       std::vector<double>* lat_ns) {
  std::uint64_t sim_ops = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (tr) tr->set_point(static_cast<std::int64_t>(tally.attempted));
    const std::int64_t t0 = now_ns();
    PointOutput out;
    {
      Span s(tr, "point");
      out = w.run(i, tr);
    }
    const std::int64_t t1 = now_ns();
    if (lat_ns) lat_ns->push_back(static_cast<double>(t1 - t0));
    sim_ops += out.sim_ops;
    if (static_cast<long long>(tally.attempted) == tally.corrupt_at)
      flip_one_bit(out);
    if (!w.check(i, out)) {
      ++tally.failed;
      std::fprintf(stderr, "perfbench: FAILED point %s\n",
                   w.point_name(i).c_str());
    }
    ++tally.attempted;
  }
  if (tr) tr->set_point(-1);
  return sim_ops;
}

/// Builds the expected table of a prepared, warmed-up workload and checks it
/// against golden.txt.
void build_oracle(const Options& o, Workload& w) {
  w.build_oracle();
  if (o.golden.empty()) return;
  Golden g;
  if (!g.load(o.golden)) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", o.golden.c_str());
    return;
  }
  for (const auto& name : w.apply_golden(g, o.seed))
    std::fprintf(stderr,
                 "perfbench: expected table differs from %s at %s\n",
                 o.golden.c_str(), name.c_str());
}

void print_result(bool correct, const Tally& t,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
}

/// Peak resident set of this process image. VmHWM restarts at exec, unlike
/// getrusage's ru_maxrss, which keeps the launching interpreter's peak.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, "VmHWM:", 6) == 0)
      kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

// --- end-to-end run --------------------------------------------------------

int run_e2e(const Options& o) {
  auto w = make_workload(o.workload);
  w->prepare(o.seed, nullptr);
  w->warm_up(nullptr);
  const double setup_s =
      static_cast<double>(now_ns() - g_process_start_ns) * 1e-9;
  build_oracle(o, *w);

  Tally tally;
  tally.corrupt_at = o.corrupt_point;
  std::vector<double> lat_ns;
  std::uint64_t sim_ops = 0;
  int passes = 0;
  const std::int64_t start = now_ns();
  // Whole passes only, so every run weighs the points equally.
  while (passes == 0 || lat_ns.size() < kMinPoints ||
         static_cast<double>(now_ns() - start) < o.seconds * 1e9) {
    sim_ops += run_pass(*w, nullptr, tally, &lat_ns);
    ++passes;
  }
  // On a shared host the same point runs up to 1.7x slower for seconds at a
  // time while other tenants contend for the core; that noise only ever adds
  // time. So each design point's latency is its fastest evaluation over the
  // run's passes, and the rates and percentiles are taken over those.
  const std::size_t n = w->size();
  std::vector<double> best_ns(lat_ns.begin(), lat_ns.begin() + n);
  for (std::size_t k = n; k < lat_ns.size(); ++k)
    best_ns[k % n] = std::min(best_ns[k % n], lat_ns[k]);
  double pass_ns = 0;
  for (double v : best_ns) pass_ns += v;
  const double pass_s = pass_ns * 1e-9;

  std::printf("perfbench: passes=%d points=%zu points_per_pass=%zu\n", passes,
              lat_ns.size(), n);
  const std::vector<Metric> m = {
      {"setup_s", setup_s, "s"},
      {"points_per_s", static_cast<double>(n) / pass_s, "1/s"},
      {"sim_ops_per_s", static_cast<double>(sim_ops) / passes / pass_s,
       "op/s"},
      {"point_p50_ms", percentile(best_ns, 0.5) * 1e-6, "ms"},
      {"point_p90_ms", percentile(best_ns, 0.9) * 1e-6, "ms"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  print_result(tally.failed == 0, tally, m);
  return 0;
}

// --- traced run --------------------------------------------------------------

class Layers {
 public:
  Layers(const Tracer& own, const Tracer& probe)
      : own_(own.summarize()), probe_(probe.summarize()) {}

  /// The workload's own spans win over the probe's.
  const SpanTotals* find(const std::string& name) const {
    auto it = own_.find(name);
    if (it != own_.end()) return &it->second;
    it = probe_.find(name);
    return it == probe_.end() ? nullptr : &it->second;
  }

  /// Sum of self time over span names with the given suffix, own spans
  /// first (falls back to the probe when the workload has none).
  double self_ns_with_suffix(const std::string& prefix,
                             const std::string& suffix) const {
    for (const auto* m : {&own_, &probe_}) {
      double sum = 0;
      for (const auto& [name, t] : *m)
        if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
          sum += t.self_ns;
      if (sum > 0) return sum;
    }
    return 0;
  }

 private:
  std::map<std::string, SpanTotals> own_, probe_;
};

int run_traced(const Options& o) {
  Tracer own("workload " + o.workload);
  Tracer probe("probes");
  auto w = make_workload(o.workload);
  w->prepare(o.seed, &own);
  w->warm_up(nullptr);
  build_oracle(o, *w);
  // Every other workload contributes one traced pass for the layers this
  // one does not reach; apps_batched adds nothing apps_scalar lacks.
  std::vector<std::unique_ptr<Workload>> others;
  for (const auto& name : workload_names()) {
    if (name == o.workload || name == "apps_batched") continue;
    others.push_back(make_workload(name));
    others.back()->prepare(o.seed, &probe);
    others.back()->warm_up(nullptr);
    build_oracle(o, *others.back());
  }

  Tally tally;
  tally.corrupt_at = o.corrupt_point;
  std::vector<double> lat[2];  // [0] untraced, [1] traced
  const std::int64_t start = now_ns();
  for (int pass = 0;; ++pass) {
    const int traced = pass % 2;
    run_pass(*w, traced ? &own : nullptr, tally, &lat[traced]);
    if (traced && pass >= 3 &&
        static_cast<double>(now_ns() - start) >= kOwnShare * o.seconds * 1e9)
      break;
  }
  double busy[2] = {0, 0};
  for (int t = 0; t < 2; ++t)
    for (double v : lat[t]) busy[t] += v;
  const double overhead = (static_cast<double>(lat[1].size()) / busy[1]) /
                          (static_cast<double>(lat[0].size()) / busy[0]);

  for (auto& ow : others) run_pass(*ow, &probe, tally, nullptr);
  w->probe_layers(&probe);
  for (auto& ow : others) ow->probe_layers(&probe);
  const bool ladder_ok = run_ladder(o.seed, kLadderReps, &probe);
  if (!ladder_ok)
    std::fprintf(stderr, "perfbench: layer ladder rungs disagree\n");

  const Layers L(own, probe);
  std::vector<Metric> m;
  bool complete = true;
  auto span_metric = [&](const std::string& metric, const std::string& span,
                         bool per_item, const char* unit) {
    const SpanTotals* t = L.find(span);
    if (!t || t->count == 0 || (per_item && t->items <= 0)) {
      std::fprintf(stderr, "perfbench: no spans named %s\n", span.c_str());
      complete = false;
      return;
    }
    m.push_back({metric, per_item ? t->ns_per_item() : t->mean_ms(), unit});
  };

  for (const char* app : {"hotspot", "srad", "cp", "ray", "gromacs"})
    span_metric(std::string("apps.") + app + ".ns_per_op",
                std::string("apps.") + app, true, "ns/op");
  span_metric("apps.mlp.call_ms", "apps.mlp", false, "ms");
  span_metric("apps.input_ms", "apps.input", false, "ms");
  span_metric("gpu.analyze_ms", "gpu.analyze", false, "ms");

  const PassCounts* perf = nullptr;
  const PassCounts* abft = nullptr;
  std::vector<const Workload*> all = {w.get()};
  for (auto& ow : others) all.push_back(ow.get());
  for (const Workload* x : all) {
    if (!perf && x->pass_counts().has_perf) perf = &x->pass_counts();
    if (!abft && x->pass_counts().has_abft) abft = &x->pass_counts();
  }
  m.push_back({"gpu.fpu_ops", static_cast<double>(perf->perf.fpu_ops()),
               "count"});
  m.push_back({"gpu.sfu_ops", static_cast<double>(perf->perf.sfu_ops()),
               "count"});
  m.push_back({"gpu.mem_accesses",
               static_cast<double>(perf->perf.mem_accesses()), "count"});
  span_metric("quality.metric_ms", "quality.metric", false, "ms");

  for (const char* rung : {"ihw.scalar", "gpu.simreal", "ihw.span",
                           "ihw.dispatch", "fault.guarded", "gpu.batch"})
    for (const char* op : {"mul", "add", "rcp", "mac"})
      span_metric(std::string(rung) + "." + op + "_ns",
                  std::string(rung) + "." + op, true, "ns/elem");

  for (const char* acc : {"fp32", "fp32_trunc", "ifp_add", "wide_fp64"})
    span_metric(std::string("gemm.") + acc + ".ns_per_mac",
                std::string("gemm.") + acc + ".off", true, "ns/mac");
  span_metric("gemm.abft.verify_ms", "gemm.abft.verify", false, "ms");
  const double off_ns = L.self_ns_with_suffix("gemm.", ".off");
  const double detect_ns = L.self_ns_with_suffix("gemm.", ".detect");
  m.push_back({"gemm.abft.overhead", off_ns > 0 ? detect_ns / off_ns : 0,
               "ratio"});
  m.push_back({"gemm.abft.checksums",
               static_cast<double>(abft->abft_checksums), "count"});
  m.push_back({"gemm.abft.detections",
               static_cast<double>(abft->abft_detections), "count"});

  static const char* const kKinds[] = {
      "ifpadd", "ifpsub", "ifpmul", "ifpdiv", "ircp", "irsqrt", "isqrt",
      "ilog2", "iexp2", "ifma", "log_path", "full_path", "bit_trunc"};
  for (const char* k : kKinds)
    span_metric(std::string("error.") + k + ".ns_per_sample",
                std::string("error.") + k, true, "ns/sample");
  span_metric("qmc.sobol.ns_per_point", "qmc.sobol", true, "ns/point");
  for (const char* k : kKinds)
    span_metric(std::string("ihw.span.") + k + "_ns",
                std::string("ihw.span.") + k, true, "ns/elem");
  m.push_back({"trace.overhead", overhead, "ratio"});

  if (!o.trace_out.empty() && !write_chrome(o.trace_out, {&own, &probe}))
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());

  std::printf("perfbench: traced_points=%zu untraced_points=%zu\n",
              lat[1].size(), lat[0].size());
  print_result(tally.failed == 0 && ladder_ok && complete, tally, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  // One worker: the exact serial path, and no scheduler noise in the timing.
  ihw::runtime::set_default_threads(1);

  if (o.print_expected) {
    auto w = make_workload(o.workload);
    w->prepare(o.seed, nullptr);
    w->warm_up(nullptr);
    w->build_oracle();
    std::printf("%s", w->expected_table(o.seed).c_str());
    return 0;
  }

  namespace simd = ihw::simd;
  std::printf(
      "perfbench: workload=%s seed=%llu seconds=%g trace=%d build=%s "
      "compiler=\"%s\" ihw_isa: active=%s best_supported=%s nproc=%u "
      "threads=%d\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace, IHW_BENCH_BUILD_TYPE, IHW_BENCH_COMPILER,
      simd::isa_name(simd::isa_active()),
      simd::isa_name(simd::isa_best_supported()),
      std::thread::hardware_concurrency(),
      ihw::runtime::default_threads());
  std::fflush(stdout);
  return o.trace ? run_traced(o) : run_e2e(o);
}
