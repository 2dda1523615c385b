// Multi-client load generator for the evaluation daemon (DESIGN.md §13).
// Drives three phases against one daemon and reports throughput and
// latency quantiles per phase, plus the single-flight proof:
//
//  - cold:      one client walks N distinct characterization points, every
//               request paying a full evaluation (the baseline);
//  - warm:      C clients hammer the same N points concurrently -- every
//               request is a cache hit, demonstrating the daemon's reason to
//               exist (the warm/cold throughput ratio is gated in CI);
//  - coalesced: C clients fire the SAME fresh fingerprint simultaneously;
//               single-flight dedup must evaluate it exactly once (asserted
//               via the daemon's cache store counter and per-response
//               sources).
//
// Self-hosts the daemon in-process by default; --socket=PATH drives an
// external ihw_sweepd instead (metrics-based counters work either way).
// --json=PATH writes the bench_serve_gate.json document consumed by
// tools/check_bench_regression.py --serve.
//
// With --chaos-rate=R (and optionally --chaos-seed=S) a fourth phase runs:
// C resilient clients walk the point set through a deterministic
// fault-injecting proxy (serve/chaos.h) that delays, truncates, corrupts,
// and severs frames. The survivability invariant is asserted exactly:
// every answer must be bit-identical to the in-process reference (zero
// incorrect responses) and no operation may fail out of the resilient
// client -- faults are retried, or degraded to local evaluation, never
// surfaced as wrong answers. tools/check_bench_regression.py --chaos gates
// the report.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/table.h"
#include "error/characterize.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/resilient_client.h"
#include "serve/server.h"
#include "sweep/cache.h"
#include "sweep/json.h"
#include "sweep/sweep.h"

using namespace ihw;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PhaseStats {
  std::vector<double> latencies_ms;  // per request
  double elapsed_ms = 0.0;

  double rps() const {
    return elapsed_ms > 0.0 ? 1e3 * static_cast<double>(latencies_ms.size()) /
                                  elapsed_ms
                            : 0.0;
  }
  double quantile(double q) const {
    if (latencies_ms.empty()) return 0.0;
    std::vector<double> v = latencies_ms;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(v.size() - 1),
                         q * static_cast<double>(v.size())));
    return v[idx];
  }
  sweep::Json to_json() const {
    return sweep::Json::object()
        .set("requests", static_cast<std::uint64_t>(latencies_ms.size()))
        .set("elapsed_ms", elapsed_ms)
        .set("rps", rps())
        .set("p50_ms", quantile(0.50))
        .set("p95_ms", quantile(0.95))
        .set("p99_ms", quantile(0.99));
  }
};

/// One request = one single-point char grid; returns the source label.
std::string request_point(serve::Client& client, const sweep::CharPoint& p,
                          PhaseStats* stats) {
  const double t0 = now_ms();
  const auto res = client.characterize({p}, /*is64=*/false);
  stats->latencies_ms.push_back(now_ms() - t0);
  return res[0].source;
}

std::uint64_t metrics_stores(serve::Client& client) {
  return client.metrics()["cache"]["stores"].as_u64();
}

}  // namespace

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  const int clients = static_cast<int>(args.get_int("clients", 4));
  const int requests = static_cast<int>(args.get_int("requests", 50));
  const int cold_points = static_cast<int>(args.get_int("cold-points", 24));
  const auto samples =
      static_cast<std::uint64_t>(args.get_int("samples", 20'000));
  const double chaos_rate = args.get_double("chaos-rate", 0.0);
  const auto chaos_seed =
      static_cast<std::uint64_t>(args.get_int("chaos-seed", 1));
  const std::string json_path = args.get("json", "");
  std::string socket = args.get("socket", "");

  // Self-host unless pointed at an external daemon. Workers >= clients so
  // the coalesced burst actually overlaps in the executors.
  std::unique_ptr<serve::Server> server;
  if (socket.empty()) {
    socket = "/tmp/ihw_loadgen_" + std::to_string(::getpid()) + ".sock";
    serve::ServerOptions opts;
    opts.socket_path = socket;
    opts.workers = std::max(2, clients);
    opts.queue_limit = std::max(64, clients * requests + clients);
    server = std::make_unique<serve::Server>(opts);
    std::string err;
    if (!server->start(&err)) {
      std::fprintf(stderr, "[serve] start failed: %s\n", err.c_str());
      return 1;
    }
  }

  // The point set: distinct (param, samples) pairs over the BitTrunc unit,
  // cheap enough that cold latency is evaluation-dominated but bounded.
  std::vector<sweep::CharPoint> points;
  for (int i = 0; i < cold_points; ++i)
    points.push_back({error::UnitKind::BitTrunc, i % 21,
                      samples + static_cast<std::uint64_t>(i)});

  serve::Client probe;
  std::string cerr_;
  if (!probe.connect(socket, &cerr_)) {
    std::fprintf(stderr, "[serve] %s\n", cerr_.c_str());
    return 1;
  }

  // ---- Phase 1: cold, single client, every request a fresh evaluation.
  PhaseStats cold;
  {
    const double t0 = now_ms();
    for (const auto& p : points) request_point(probe, p, &cold);
    cold.elapsed_ms = now_ms() - t0;
  }

  // ---- Phase 2: warm, C concurrent clients over the now-cached points.
  PhaseStats warm;
  {
    std::vector<PhaseStats> per_client(clients);
    std::vector<std::thread> threads;
    const double t0 = now_ms();
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        serve::Client cl;
        if (!cl.connect(socket)) return;
        for (int j = 0; j < requests; ++j)
          request_point(cl, points[(c * requests + j) % points.size()],
                        &per_client[c]);
      });
    for (auto& t : threads) t.join();
    warm.elapsed_ms = now_ms() - t0;
    for (const auto& pc : per_client)
      warm.latencies_ms.insert(warm.latencies_ms.end(),
                               pc.latencies_ms.begin(),
                               pc.latencies_ms.end());
  }

  // ---- Phase 3: coalesced burst, C clients on ONE fresh fingerprint.
  // 10x the sample budget so the evaluation comfortably spans the burst.
  PhaseStats coal;
  std::vector<std::string> sources(clients);
  const std::uint64_t stores_before = metrics_stores(probe);
  {
    const sweep::CharPoint fresh{error::UnitKind::BitTrunc, 3, samples * 10};
    std::vector<std::thread> threads;
    const double t0 = now_ms();
    std::vector<PhaseStats> per_client(clients);
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        serve::Client cl;
        if (!cl.connect(socket)) return;
        sources[c] = request_point(cl, fresh, &per_client[c]);
      });
    for (auto& t : threads) t.join();
    coal.elapsed_ms = now_ms() - t0;
    for (const auto& pc : per_client)
      coal.latencies_ms.insert(coal.latencies_ms.end(),
                               pc.latencies_ms.begin(),
                               pc.latencies_ms.end());
  }
  const std::uint64_t store_delta = metrics_stores(probe) - stores_before;
  std::uint64_t n_eval = 0, n_coal = 0, n_cache = 0;
  for (const auto& s : sources) {
    if (s == "evaluated") ++n_eval;
    if (s == "coalesced") ++n_coal;
    if (s == "cache") ++n_cache;
  }

  // ---- Phase 4 (optional): chaos. C resilient clients re-walk the (now
  // cached) point set through the fault-injecting proxy; every answer is
  // compared byte-for-byte against an in-process reference evaluation.
  PhaseStats chaos;
  serve::ChaosProxy::Counters injected;
  std::uint64_t chaos_incorrect = 0, chaos_failures = 0;
  serve::ResilientStats chaos_stats;
  if (chaos_rate > 0.0) {
    // The reference every chaos answer must match: the cache codec text
    // embeds the fingerprint and a whole-payload checksum, so equal text
    // means bit-equal results.
    const auto ref = sweep::characterize_grid32(points, nullptr);
    std::vector<std::string> ref_text(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      sweep::EvalRecord rec;
      rec.has_char = true;
      rec.chr = ref[i];
      ref_text[i] = sweep::EvalCache::serialize(
          sweep::char_fingerprint(points[i], false), rec);
    }

    serve::ChaosSpec spec;
    spec.seed = chaos_seed;
    spec.rate = chaos_rate;
    spec.delay_ms = 350;  // beyond the 200 ms client read timeout below
    serve::ChaosProxy proxy(socket + ".chaos", socket, spec);
    std::string perr;
    if (!proxy.start(&perr)) {
      std::fprintf(stderr, "[serve] chaos proxy: %s\n", perr.c_str());
      return 1;
    }

    std::vector<PhaseStats> per_client(clients);
    std::vector<std::uint64_t> incorrect(clients, 0), failed(clients, 0);
    std::vector<serve::ResilientStats> stats(clients);
    std::vector<std::thread> threads;
    const double t0 = now_ms();
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        serve::RetryPolicy rp;
        rp.max_attempts = 5;
        rp.backoff_base_ms = 5.0;
        rp.backoff_max_ms = 50.0;
        rp.seed = chaos_seed * 1000 + static_cast<std::uint64_t>(c);
        rp.connect_timeout_ms = 1000;
        rp.read_timeout_ms = 200;  // Delay faults manifest as timeouts
        rp.breaker_cooldown_ms = 50.0;
        serve::ResilientClient rc(proxy.listen_path(), rp);
        for (std::size_t j = 0; j < points.size(); ++j) {
          const double rt0 = now_ms();
          try {
            const auto res = rc.characterize({points[j]}, /*is64=*/false);
            per_client[c].latencies_ms.push_back(now_ms() - rt0);
            if (sweep::EvalCache::serialize(res[0].fp, res[0].rec) !=
                ref_text[j])
              ++incorrect[c];
          } catch (const serve::ServeError&) {
            // The invariant allows a clean typed error only when fallback
            // is off; with fallback on (here), any escape is a failure.
            ++failed[c];
          }
        }
        stats[c] = rc.stats();
      });
    for (auto& t : threads) t.join();
    chaos.elapsed_ms = now_ms() - t0;
    proxy.stop();
    injected = proxy.counters();
    for (int c = 0; c < clients; ++c) {
      chaos.latencies_ms.insert(chaos.latencies_ms.end(),
                                per_client[c].latencies_ms.begin(),
                                per_client[c].latencies_ms.end());
      chaos_incorrect += incorrect[c];
      chaos_failures += failed[c];
      chaos_stats.operations += stats[c].operations;
      chaos_stats.attempts += stats[c].attempts;
      chaos_stats.retries += stats[c].retries;
      chaos_stats.reconnects += stats[c].reconnects;
      chaos_stats.failures += stats[c].failures;
      chaos_stats.breaker_opens += stats[c].breaker_opens;
      chaos_stats.fallback_operations += stats[c].fallback_operations;
      chaos_stats.fallback_points += stats[c].fallback_points;
    }
  }

  const double speedup = cold.rps() > 0.0 ? warm.rps() / cold.rps() : 0.0;

  common::Table t({"phase", "requests", "rps", "p50(ms)", "p95(ms)",
                   "p99(ms)"});
  auto add = [&](const char* name, const PhaseStats& s) {
    t.row()
        .add(name)
        .add(static_cast<long long>(s.latencies_ms.size()))
        .add(s.rps(), 1)
        .add(s.quantile(0.50), 3)
        .add(s.quantile(0.95), 3)
        .add(s.quantile(0.99), 3);
  };
  add("cold", cold);
  add("warm", warm);
  add("coalesced", coal);
  if (chaos_rate > 0.0) add("chaos", chaos);
  std::printf("== serve_loadgen: %d clients x %d requests ==\n", clients,
              requests);
  std::printf("%s", t.str().c_str());
  std::printf("warm/cold speedup: %.1fx\n", speedup);
  std::printf("coalesced burst: store_delta=%llu sources "
              "evaluated=%llu coalesced=%llu cache=%llu\n",
              static_cast<unsigned long long>(store_delta),
              static_cast<unsigned long long>(n_eval),
              static_cast<unsigned long long>(n_coal),
              static_cast<unsigned long long>(n_cache));
  const std::uint64_t injected_total =
      injected.delays + injected.truncations + injected.corruptions +
      injected.severs;
  if (chaos_rate > 0.0) {
    std::printf(
        "chaos: rate=%.2f seed=%llu injected=%llu "
        "(delay=%llu truncate=%llu corrupt=%llu sever=%llu) "
        "incorrect=%llu failures=%llu retries=%llu fallback_points=%llu\n",
        chaos_rate, static_cast<unsigned long long>(chaos_seed),
        static_cast<unsigned long long>(injected_total),
        static_cast<unsigned long long>(injected.delays),
        static_cast<unsigned long long>(injected.truncations),
        static_cast<unsigned long long>(injected.corruptions),
        static_cast<unsigned long long>(injected.severs),
        static_cast<unsigned long long>(chaos_incorrect),
        static_cast<unsigned long long>(chaos_failures),
        static_cast<unsigned long long>(chaos_stats.retries),
        static_cast<unsigned long long>(chaos_stats.fallback_points));
  }

  const sweep::Json metrics = probe.metrics();
  if (!json_path.empty()) {
    sweep::Json doc =
        sweep::Json::object()
            .set("bench", "serve_loadgen")
            .set("clients", clients)
            .set("requests_per_client", requests)
            .set("samples", samples)
            .set("cold", cold.to_json())
            .set("warm", warm.to_json())
            .set("coalesced",
                 coal.to_json()
                     .set("store_delta", store_delta)
                     .set("unique_evaluations", n_eval)
                     .set("sources", sweep::Json::object()
                                         .set("evaluated", n_eval)
                                         .set("coalesced", n_coal)
                                         .set("cache", n_cache)))
            .set("warm_vs_cold_speedup", speedup)
            .set("metrics", metrics);
    if (chaos_rate > 0.0) {
      const double amplification =
          chaos_stats.operations > 0
              ? static_cast<double>(chaos_stats.attempts) /
                    static_cast<double>(chaos_stats.operations)
              : 0.0;
      doc.set("chaos",
              chaos.to_json()
                  .set("rate", chaos_rate)
                  .set("seed", chaos_seed)
                  .set("incorrect", chaos_incorrect)
                  .set("failures", chaos_failures)
                  .set("operations", chaos_stats.operations)
                  .set("attempts", chaos_stats.attempts)
                  .set("retries", chaos_stats.retries)
                  .set("reconnects", chaos_stats.reconnects)
                  .set("breaker_opens", chaos_stats.breaker_opens)
                  .set("fallback_operations", chaos_stats.fallback_operations)
                  .set("fallback_points", chaos_stats.fallback_points)
                  .set("retry_amplification", amplification)
                  .set("injected", sweep::Json::object()
                                       .set("total", injected_total)
                                       .set("frames", injected.frames)
                                       .set("delays", injected.delays)
                                       .set("truncations", injected.truncations)
                                       .set("corruptions", injected.corruptions)
                                       .set("severs", injected.severs)));
    }
    if (!doc.write_file(json_path))
      std::fprintf(stderr, "[serve] failed to write %s\n", json_path.c_str());
  }

  probe.close();
  if (server) server->stop();
  // Failure here means the daemon evaluated a duplicated in-flight
  // fingerprint more than once -- the single-flight contract is broken.
  if (store_delta != 1 || n_eval != 1) {
    std::fprintf(stderr,
                 "[serve] single-flight violation: store_delta=%llu "
                 "unique_evaluations=%llu (want 1/1)\n",
                 static_cast<unsigned long long>(store_delta),
                 static_cast<unsigned long long>(n_eval));
    return 1;
  }
  // The survivability invariant: under fault injection every answer was
  // retried-and-correct (or degraded to a bit-identical local evaluation);
  // nothing escaped as a wrong answer or an error.
  if (chaos_rate > 0.0 && (chaos_incorrect > 0 || chaos_failures > 0)) {
    std::fprintf(stderr,
                 "[serve] chaos violation: incorrect=%llu failures=%llu "
                 "(want 0/0)\n",
                 static_cast<unsigned long long>(chaos_incorrect),
                 static_cast<unsigned long long>(chaos_failures));
    return 1;
  }
  return 0;
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
} catch (const ihw::serve::ServeError& e) {
  std::fprintf(stderr, "[serve] %s (code=%s)\n", e.what(), e.code().c_str());
  return 1;
}
