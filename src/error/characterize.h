#pragma once
// Quasi-Monte-Carlo error characterization driver (Ch. 4.2): feeds an
// imprecise unit a low-discrepancy stream of operands and accumulates both
// streaming statistics and the Figs. 8-9 log2-bucketed PMF.
#include <string>
#include <vector>

#include "error/metrics.h"
#include "error/pmf.h"
#include "ihw/config.h"

namespace ihw::error {

/// One unit-level characterization result.
struct CharResult {
  std::string label;
  ErrorStats stats;
  ErrorPmf pmf;
};

/// The characterizable unit kinds of Table 1 plus the multiplier variants.
enum class UnitKind {
  FpAdd,      // TH-adder (param = TH)
  FpSub,      // effective subtraction through the TH-adder
  FpMul,      // original 1+Ma+Mb multiplier
  FpDiv,
  Rcp,
  Rsqrt,
  Sqrt,
  Log2,
  Exp2,       // extension unit (thesis future work)
  Fma,
  AcfpLog,    // Mitchell log path (param = truncated bits)
  AcfpFull,   // Mitchell full path (param = truncated bits)
  BitTrunc,   // intuitive truncation baseline (param = truncated bits)
};

std::string to_string(UnitKind k);

/// Characterizes a 32-bit unit over `samples` quasi-MC points. Operands are
/// drawn as significands in [1,2) scattered over a +-`exp_spread` exponent
/// range (the paper characterizes the mantissa datapath; the exponent path
/// is exact). `param` is TH for the adder and the truncation bit count for
/// the multiplier variants; ignored elsewhere.
CharResult characterize32(UnitKind kind, int param, std::uint64_t samples);

/// Same for the 64-bit units (used by the double-precision multiplier study).
CharResult characterize64(UnitKind kind, int param, std::uint64_t samples);

/// One point of a shared-stream characterization grid.
struct CharRequest {
  UnitKind kind;
  int param = 0;
};

/// Characterizes every request over the same `samples` budget, sharing the
/// quasi-MC operand stream and the exact reference evaluation between
/// requests with the same generation recipe (DESIGN.md §11). Each returned
/// CharResult is bit-identical to the corresponding standalone
/// characterize32/64 call; results are in request order.
std::vector<CharResult> characterize32_many(const std::vector<CharRequest>& reqs,
                                            std::uint64_t samples);
std::vector<CharResult> characterize64_many(const std::vector<CharRequest>& reqs,
                                            std::uint64_t samples);

}  // namespace ihw::error
