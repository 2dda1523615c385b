#include "arith/mitchell.h"

#include <bit>
#include <cassert>

namespace ihw::arith {
namespace {

int leading_one(std::uint64_t v) { return 63 - std::countl_zero(v); }

}  // namespace

u128 mitchell_mul_traced(std::uint64_t a, std::uint64_t b, MitchellTrace* trace) {
  if (a == 0 || b == 0) {
    if (trace) *trace = MitchellTrace{};
    return 0;
  }
  const int k1 = leading_one(a);
  const int k2 = leading_one(b);
  assert(k1 <= kMaFracBits && k2 <= kMaFracBits);

  // Binary-to-log: characteristic k, mantissa x = (operand - 2^k) aligned to
  // kMaFracBits fraction bits. The left-shift never overflows because
  // operand < 2^(k+1) and k <= kMaFracBits.
  const u128 x1 = static_cast<u128>(a - (1ull << k1)) << (kMaFracBits - k1);
  const u128 x2 = static_cast<u128>(b - (1ull << k2)) << (kMaFracBits - k2);

  const u128 frac_mask = (static_cast<u128>(1) << kMaFracBits) - 1;
  const u128 frac_sum = x1 + x2;
  const bool carry = (frac_sum >> kMaFracBits) != 0;
  const int k = k1 + k2 + (carry ? 1 : 0);
  // Antilog: 2^(k + f) ~ 2^k * (1 + f). With the carry folded into k, the
  // retained fraction is exactly the sum modulo 1 for the no-carry case and
  // (x1 + x2 - 1) for the carry case -- matching both branches of eq. (12).
  const u128 f = frac_sum & frac_mask;
  u128 product;
  if (k >= kMaFracBits) {
    product = ((static_cast<u128>(1) << kMaFracBits) + f) << (k - kMaFracBits);
  } else {
    product = ((static_cast<u128>(1) << kMaFracBits) + f) >> (kMaFracBits - k);
  }
  if (trace) {
    trace->k1 = k1;
    trace->k2 = k2;
    trace->x1 = x1;
    trace->x2 = x2;
    trace->log_sum = (static_cast<u128>(k1 + k2) << kMaFracBits) + frac_sum;
    trace->carry = carry;
    trace->product = product;
  }
  return product;
}

u128 mitchell_mul(std::uint64_t a, std::uint64_t b) {
  return mitchell_mul_traced(a, b, nullptr);
}

}  // namespace ihw::arith
