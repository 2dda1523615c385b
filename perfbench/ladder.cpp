#include "ladder.h"

#include <cstring>
#include <string>

#include "common/aligned.h"
#include "common/rng.h"
#include "fault/guarded_dispatch.h"
#include "gpu/batch.h"
#include "gpu/context.h"
#include "gpu/simreal.h"
#include "ihw/batch.h"
#include "ihw/dispatch.h"
#include "ihw/ihw.h"

namespace perfbench {
namespace {

using Buf = ihw::common::AlignedVector<float>;
constexpr std::size_t kN = kLadderElements;
constexpr const char* kOps[] = {"mul", "add", "rcp", "mac"};

/// One rung: a name and the op mix through that layer's entry point.
struct Rung {
  const char* name;
  void (*run)(int op, const Buf& a, const Buf& b, const Buf& c, Buf& out,
              int th);
};

void scalar_units(int op, const Buf& a, const Buf& b, const Buf& c, Buf& out,
                  int th) {
  switch (op) {
    case 0:
      for (std::size_t i = 0; i < kN; ++i) out[i] = ihw::ifp_mul(a[i], b[i]);
      break;
    case 1:
      for (std::size_t i = 0; i < kN; ++i)
        out[i] = ihw::ifp_add(a[i], b[i], th);
      break;
    case 2:
      for (std::size_t i = 0; i < kN; ++i) out[i] = ihw::ircp(a[i]);
      break;
    case 3:
      for (std::size_t i = 0; i < kN; ++i)
        out[i] = ihw::ifp_add(ihw::ifp_mul(a[i], b[i]), c[i], th);
      break;
  }
}

void simreal(int op, const Buf& a, const Buf& b, const Buf& c, Buf& out, int) {
  using S = ihw::gpu::SimFloat;
  switch (op) {
    case 0:
      for (std::size_t i = 0; i < kN; ++i)
        out[i] = static_cast<float>(S(a[i]) * S(b[i]));
      break;
    case 1:
      for (std::size_t i = 0; i < kN; ++i)
        out[i] = static_cast<float>(S(a[i]) + S(b[i]));
      break;
    case 2:
      for (std::size_t i = 0; i < kN; ++i)
        out[i] = static_cast<float>(rcp(S(a[i])));
      break;
    case 3:
      for (std::size_t i = 0; i < kN; ++i)
        out[i] = static_cast<float>(S(a[i]) * S(b[i]) + S(c[i]));
      break;
  }
}

void spans(int op, const Buf& a, const Buf& b, const Buf& c, Buf& out,
           int th) {
  namespace bt = ihw::batch;
  switch (op) {
    case 0: bt::ifp_mul_n(a.data(), b.data(), out.data(), kN); break;
    case 1: bt::ifp_add_n(a.data(), b.data(), out.data(), kN, th); break;
    case 2: bt::ircp_n(a.data(), out.data(), kN); break;
    case 3:
      bt::ifp_mac_n(a.data(), b.data(), c.data(), out.data(), kN, th);
      break;
  }
}

template <typename D>
void dispatch_spans(D& d, int op, const Buf& a, const Buf& b, const Buf& c,
                    Buf& out) {
  switch (op) {
    case 0: d.mul_n(a.data(), b.data(), out.data(), kN); break;
    case 1: d.add_n(a.data(), b.data(), out.data(), kN); break;
    case 2: d.rcp_n(a.data(), out.data(), kN); break;
    case 3: d.mac_n(a.data(), b.data(), c.data(), out.data(), kN); break;
  }
}

void fp_dispatch(int op, const Buf& a, const Buf& b, const Buf& c, Buf& out,
                 int) {
  const ihw::FpDispatch d(ihw::IhwConfig::all_imprecise());
  dispatch_spans(d, op, a, b, c, out);
}

void guarded(int op, const Buf& a, const Buf& b, const Buf& c, Buf& out,
             int) {
  ihw::fault::GuardedDispatch g(ihw::IhwConfig::all_imprecise());
  dispatch_spans(g, op, a, b, c, out);
}

void gpu_batch(int op, const Buf& a, const Buf& b, const Buf& c, Buf& out,
               int) {
  namespace g = ihw::gpu;
  switch (op) {
    case 0: g::batch_mul(a.data(), b.data(), out.data(), kN); break;
    case 1: g::batch_add(a.data(), b.data(), out.data(), kN); break;
    case 2: g::batch_rcp(a.data(), out.data(), kN); break;
    case 3: g::batch_mac(a.data(), b.data(), c.data(), out.data(), kN); break;
  }
}

constexpr Rung kRungs[] = {
    {"ihw.scalar", scalar_units}, {"gpu.simreal", simreal},
    {"ihw.span", spans},          {"ihw.dispatch", fp_dispatch},
    {"fault.guarded", guarded},   {"gpu.batch", gpu_batch},
};

}  // namespace

bool run_ladder(std::uint64_t seed, int reps, Tracer* tr) {
  // Operands: random signs and magnitudes over a few binades, so the adder
  // sees both effective additions and subtractions at every alignment.
  ihw::common::Xoshiro256 rng(seed ^ 0x6c61646465722121ull);
  Buf a(kN), b(kN), c(kN), out(kN), ref(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
    b[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
    c[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
  }
  const int th = ihw::IhwConfig::all_imprecise().add_th;
  // SimReal and gpu::batch_* read the active context, as the apps do.
  ihw::gpu::FpContext ctx(ihw::IhwConfig::all_imprecise());
  ihw::gpu::ScopedContext scope(ctx);
  bool ok = true;
  for (int op = 0; op < 4; ++op) {
    scalar_units(op, a, b, c, ref, th);
    for (const Rung& r : kRungs) {
      const std::string name = std::string(r.name) + "." + kOps[op];
      for (int rep = 0; rep < reps; ++rep) {
        Span s(tr, name);
        r.run(op, a, b, c, out, th);
        s.items(static_cast<double>(kN));
      }
      ok = ok && std::memcmp(out.data(), ref.data(), kN * sizeof(float)) == 0;
    }
  }
  return ok;
}

}  // namespace perfbench
