// Tests for the memoizing sweep engine (DESIGN.md §11): canonical
// fingerprints, the two-layer evaluation cache, the parallel grid driver,
// shared-stream characterization grids, and the Shared<T> baseline holder.
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "error/characterize.h"
#include "fault/spec.h"
#include "runtime/parallel.h"
#include "sweep/cache.h"
#include "sweep/fingerprint.h"
#include "sweep/json.h"
#include "sweep/shared.h"
#include "sweep/sweep.h"

namespace ihw::sweep {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_stats_identical(const error::ErrorStats& a,
                            const error::ErrorStats& b) {
  const auto sa = a.state(), sb = b.state();
  EXPECT_EQ(sa.samples, sb.samples);
  EXPECT_EQ(sa.errors, sb.errors);
  EXPECT_EQ(sa.rel_samples, sb.rel_samples);
  EXPECT_EQ(bits(sa.max_rel), bits(sb.max_rel));
  EXPECT_EQ(bits(sa.sum_rel), bits(sb.sum_rel));
  EXPECT_EQ(bits(sa.sum_abs), bits(sb.sum_abs));
  EXPECT_EQ(bits(sa.max_abs), bits(sb.max_abs));
}

void expect_pmf_identical(const error::ErrorPmf& a, const error::ErrorPmf& b) {
  const auto pa = a.state(), pb = b.state();
  EXPECT_EQ(pa.min_bucket, pb.min_bucket);
  EXPECT_EQ(pa.max_bucket, pb.max_bucket);
  EXPECT_EQ(pa.samples, pb.samples);
  EXPECT_EQ(pa.zero_error, pb.zero_error);
  EXPECT_EQ(pa.counts, pb.counts);
}

void expect_char_identical(const error::CharResult& a,
                           const error::CharResult& b) {
  EXPECT_EQ(a.label, b.label);
  expect_stats_identical(a.stats, b.stats);
  expect_pmf_identical(a.pmf, b.pmf);
}

// ---------------------------------------------------------------- fingerprint

TEST(Fingerprint, StableAcrossInvocations) {
  const IhwConfig cfg = IhwConfig::all_imprecise();
  EXPECT_EQ(config_fingerprint(cfg), config_fingerprint(cfg));
  const Workload w{"hotspot", {{"rows", 64.0}, {"cols", 64.0}}, 7, 1000};
  EXPECT_EQ(w.fingerprint(&cfg), w.fingerprint(&cfg));
  EXPECT_EQ(w.fingerprint(), w.fingerprint());
  EXPECT_NE(w.fingerprint(&cfg), w.fingerprint());
}

TEST(Fingerprint, SensitiveToEveryConfigKnob) {
  const IhwConfig base = IhwConfig::all_imprecise();
  const std::uint64_t fp0 = config_fingerprint(base);

  IhwConfig c = base;
  c.add_th = base.add_th + 1;
  EXPECT_NE(config_fingerprint(c), fp0);

  c = base;
  c.rsqrt_enabled = !base.rsqrt_enabled;
  EXPECT_NE(config_fingerprint(c), fp0);

  c = base;
  c.mul_trunc = base.mul_trunc + 1;
  EXPECT_NE(config_fingerprint(c), fp0);

  c = base;
  c.faults = fault::FaultConfig::uniform(1e-4, 1);
  EXPECT_NE(config_fingerprint(c), fp0);

  // The fault seed alone must change the fingerprint: the injected-fault
  // stream (and so the cached counters) depends on it.
  IhwConfig c2 = base;
  c2.faults = fault::FaultConfig::uniform(1e-4, 2);
  EXPECT_NE(config_fingerprint(c2), config_fingerprint(c));

  c = base;
  c.guard.enabled = true;
  EXPECT_NE(config_fingerprint(c), fp0);

  c = base;
  c.guard.enabled = true;
  c.guard.retry_epoch = true;
  IhwConfig c3 = base;
  c3.guard.enabled = true;
  EXPECT_NE(config_fingerprint(c), config_fingerprint(c3));
}

TEST(Fingerprint, SensitiveToWorkloadIdentity) {
  const Workload w{"hotspot", {{"rows", 64.0}}, 7, 1000};
  Workload x = w;
  x.name = "srad";
  EXPECT_NE(x.fingerprint(), w.fingerprint());
  x = w;
  x.params[0].second = 65.0;
  EXPECT_NE(x.fingerprint(), w.fingerprint());
  x = w;
  x.seed = 8;
  EXPECT_NE(x.fingerprint(), w.fingerprint());
  x = w;
  x.samples = 1001;
  EXPECT_NE(x.fingerprint(), w.fingerprint());
}

TEST(Fingerprint, TypeTagsPreventFieldAliasing) {
  // An empty string then 1 must not collide with "x" then 0, etc.
  Fingerprint a;
  a.mix_str("");
  a.mix_u64(1);
  Fingerprint b;
  b.mix_str("\x01");
  b.mix_u64(0);
  EXPECT_NE(a.digest(), b.digest());

  // -0.0 and 0.0 are distinct inputs (bit-pattern hashing).
  Fingerprint p, q;
  p.mix_double(0.0);
  q.mix_double(-0.0);
  EXPECT_NE(p.digest(), q.digest());
}

// --------------------------------------------------------------------- cache

EvalRecord sample_record() {
  EvalRecord rec;
  rec.set_metric("mae", 0.1234567890123456789);
  rec.set_metric("tiny", 5e-324);   // denormal round trip
  rec.set_metric("neg_zero", -0.0);
  rec.set_metric("inf", std::numeric_limits<double>::infinity());
  rec.perf.counts[0] = 42;
  rec.faults.injected[0] = 7;
  rec.faults.retried_epochs = 3;
  rec.has_char = true;
  rec.chr = error::characterize32(error::UnitKind::FpMul, 0, 10'000);
  return rec;
}

void expect_record_identical(const EvalRecord& a, const EvalRecord& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].first, b.metrics[i].first);
    EXPECT_EQ(bits(a.metrics[i].second), bits(b.metrics[i].second));
  }
  EXPECT_EQ(a.perf.counts, b.perf.counts);
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  EXPECT_EQ(a.faults.guard_trips, b.faults.guard_trips);
  EXPECT_EQ(a.faults.degraded_epochs, b.faults.degraded_epochs);
  EXPECT_EQ(a.faults.run_degradations, b.faults.run_degradations);
  EXPECT_EQ(a.faults.retried_epochs, b.faults.retried_epochs);
  ASSERT_EQ(a.has_char, b.has_char);
  if (a.has_char) expect_char_identical(a.chr, b.chr);
}

TEST(EvalCache, SerializeRoundTripIsBitExact) {
  const EvalRecord rec = sample_record();
  const std::string text = EvalCache::serialize(0xdeadbeefcafe1234ull, rec);
  EvalRecord back;
  ASSERT_TRUE(EvalCache::deserialize(text, 0xdeadbeefcafe1234ull, &back));
  expect_record_identical(rec, back);
  // A record is bound to its fingerprint.
  EXPECT_FALSE(EvalCache::deserialize(text, 0x1111ull, &back));
}

TEST(EvalCache, InMemoryHitAndMissCounters) {
  EvalCache cache;
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.store(1, sample_record());
  const auto rec = cache.lookup(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stores(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u);
}

TEST(EvalCache, DiskLayerPersistsAcrossInstances) {
  const std::string dir = testing::TempDir() + "ihw_sweep_disk";
  std::filesystem::remove_all(dir);
  const EvalRecord rec = sample_record();
  {
    EvalCache cache(dir);
    cache.store(99, rec);
  }
  EvalCache fresh(dir);
  const auto back = fresh.lookup(99);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(fresh.disk_hits(), 1u);
  expect_record_identical(rec, *back);
  std::filesystem::remove_all(dir);
}

TEST(EvalCache, SchemaTagChangeInvalidatesDiskRecords) {
  const std::string dir = testing::TempDir() + "ihw_sweep_schema";
  std::filesystem::remove_all(dir);
  {
    EvalCache cache(dir, "schema-a");
    cache.store(5, sample_record());
  }
  EvalCache bumped(dir, "schema-b");
  EXPECT_FALSE(bumped.lookup(5).has_value());  // orphaned, not misread
  EvalCache same(dir, "schema-a");
  EXPECT_TRUE(same.lookup(5).has_value());
  std::filesystem::remove_all(dir);
}

TEST(EvalCache, SeedChangeMissesBecauseFingerprintDiffers) {
  // The invalidation path for input changes is the fingerprint itself: a
  // different fault seed yields a different key, so the old record is
  // simply never consulted.
  const std::string dir = testing::TempDir() + "ihw_sweep_seed";
  std::filesystem::remove_all(dir);
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = fault::FaultConfig::uniform(1e-3, 1);
  const Workload w{"app", {}, 0, 0};
  EvalCache cache(dir);
  cache.store(w.fingerprint(&cfg), sample_record());
  cfg.faults = fault::FaultConfig::uniform(1e-3, 2);
  EXPECT_FALSE(cache.lookup(w.fingerprint(&cfg)).has_value());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------ run_grid

std::vector<GridPoint> counted_points(std::atomic<int>& evals) {
  std::vector<GridPoint> pts;
  for (int i = 0; i < 6; ++i) {
    pts.push_back({static_cast<std::uint64_t>(100 + i), [&evals, i] {
                     evals.fetch_add(1);
                     EvalRecord rec;
                     rec.set_metric("value", i * 1.5);
                     return rec;
                   }});
  }
  return pts;
}

TEST(RunGrid, ThreadCountInvariant) {
  std::atomic<int> evals{0};
  const auto serial = run_grid(counted_points(evals), nullptr, 1);
  const auto parallel = run_grid(counted_points(evals), nullptr, 4);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i)
    expect_record_identical(serial.records[i], parallel.records[i]);
}

TEST(RunGrid, EqualFingerprintsEvaluateOnce) {
  std::atomic<int> evals{0};
  std::vector<GridPoint> pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back({777, [&evals] {
                     evals.fetch_add(1);
                     EvalRecord rec;
                     rec.set_metric("v", 1.0);
                     return rec;
                   }});
  }
  const auto out = run_grid(pts, nullptr, 4);
  EXPECT_EQ(evals.load(), 1);
  for (const auto& rec : out.records)
    EXPECT_EQ(bits(rec.metric("v")), bits(1.0));
}

TEST(RunGrid, CacheHitsSkipEvaluation) {
  EvalCache cache;
  std::atomic<int> evals{0};
  const auto cold = run_grid(counted_points(evals), &cache, 2);
  EXPECT_EQ(evals.load(), 6);
  for (const char h : cold.cache_hit) EXPECT_EQ(h, 0);

  const auto warm = run_grid(counted_points(evals), &cache, 2);
  EXPECT_EQ(evals.load(), 6);  // nothing re-evaluated
  for (const char h : warm.cache_hit) EXPECT_EQ(h, 1);
  for (std::size_t i = 0; i < warm.records.size(); ++i)
    expect_record_identical(cold.records[i], warm.records[i]);
}

// ------------------------------------------------- shared-stream char grids

TEST(CharGrid, BitIdenticalToStandalone32) {
  // Covers every generation recipe: the +-12 exponent-spread adder, the
  // shared dims-4 pool (with an exact-Mul reference shared by the multiplier
  // variants), the Exp2 segment, and the ternary Fma.
  const std::uint64_t n = 50'000;
  const std::vector<CharPoint> pts = {
      {error::UnitKind::FpAdd, 0, n},    {error::UnitKind::FpMul, 0, n},
      {error::UnitKind::AcfpLog, 7, n},  {error::UnitKind::BitTrunc, 11, n},
      {error::UnitKind::Rcp, 0, n},      {error::UnitKind::Log2, 0, n},
      {error::UnitKind::Exp2, 0, n},     {error::UnitKind::Fma, 0, n},
  };
  const auto grid = characterize_grid32(pts, nullptr);
  ASSERT_EQ(grid.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto solo = error::characterize32(pts[i].kind, pts[i].param, n);
    expect_char_identical(grid[i], solo);
  }
}

TEST(CharGrid, BitIdenticalToStandalone64) {
  const std::uint64_t n = 30'000;
  const std::vector<CharPoint> pts = {
      {error::UnitKind::AcfpFull, 21, n},
      {error::UnitKind::AcfpLog, 21, n},
      {error::UnitKind::FpAdd, 0, n},
  };
  const auto grid = characterize_grid64(pts, nullptr);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto solo = error::characterize64(pts[i].kind, pts[i].param, n);
    expect_char_identical(grid[i], solo);
  }
}

TEST(CharGrid, ThreadCountInvariant) {
  const std::uint64_t n = 40'000;
  const std::vector<CharPoint> pts = {{error::UnitKind::FpMul, 0, n},
                                      {error::UnitKind::Rsqrt, 0, n}};
  runtime::ScopedThreads one(1);
  const auto serial = characterize_grid32(pts, nullptr);
  runtime::ScopedThreads four(4);
  const auto parallel = characterize_grid32(pts, nullptr);
  for (std::size_t i = 0; i < pts.size(); ++i)
    expect_char_identical(serial[i], parallel[i]);
}

TEST(CharGrid, WarmCacheReplaysBitExactly) {
  const std::uint64_t n = 20'000;
  const std::vector<CharPoint> pts = {{error::UnitKind::Sqrt, 0, n},
                                      {error::UnitKind::FpDiv, 0, n}};
  EvalCache cache;
  std::vector<char> hits;
  const auto cold = characterize_grid32(pts, &cache, &hits);
  EXPECT_EQ(hits, (std::vector<char>{0, 0}));
  const auto warm = characterize_grid32(pts, &cache, &hits);
  EXPECT_EQ(hits, (std::vector<char>{1, 1}));
  for (std::size_t i = 0; i < pts.size(); ++i)
    expect_char_identical(cold[i], warm[i]);
}

// -------------------------------------------------------------------- shared

TEST(Shared, ComputedExactlyOnceUnderConcurrency) {
  std::atomic<int> builds{0};
  Shared<int> value([&] {
    builds.fetch_add(1);
    return 41 + 1;
  });
  EXPECT_FALSE(value.ready());
  runtime::parallel_tasks_capture(
      16, [&](std::size_t) { EXPECT_EQ(value.get(), 42); }, 4);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_TRUE(value.ready());
}

// ---------------------------------------------------------------------- json

TEST(Json, EscapesAndRoundTripNumbers) {
  Json doc = Json::object();
  doc.set("name", "a\"b\\c\nd")
      .set("pi", 3.141592653589793)
      .set("big", std::uint64_t{18446744073709551615ull})
      .set("flag", true)
      .set("rows", Json::array().push(1).push(2.5));
  const std::string text = doc.dump();
  EXPECT_EQ(text,
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"pi\":3.1415926535897931,"
            "\"big\":18446744073709551615,\"flag\":true,\"rows\":[1,2.5]}");
}

}  // namespace
}  // namespace ihw::sweep
