// Division by a runtime-invariant 64-bit divisor as a multiply.
//
// Hot loops that reduce many values modulo the same runtime q (Linial's
// polynomial arithmetic over F_q) pay a 64-bit hardware division per `%`.
// Divider precomputes inv = floor((2^64 - 1) / q) once; for any 64-bit v
// the high word of v·inv is then floor(v / q) or one less (the estimate
// falls short by v·(1/q - inv/2^64) <= v/2^64 < 1), so one compare-and-
// subtract makes divide() and remainder() equal to `/` and `%` for every
// v and every q >= 1.
#pragma once

#include <cstdint>

#include "support/check.hpp"

namespace padlock {

class Divider {
 public:
  explicit Divider(std::uint64_t q) : q_(q) {
    PADLOCK_REQUIRE(q >= 1);
    inv_ = ~std::uint64_t{0} / q;
  }

  [[nodiscard]] std::uint64_t divisor() const { return q_; }

  /// floor(v / q) into the return value and v mod q into `rem`.
  std::uint64_t divide(std::uint64_t v, std::uint64_t& rem) const {
    auto quot = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(v) * inv_) >> 64);
    rem = v - quot * q_;
    if (rem >= q_) {
      rem -= q_;
      ++quot;
    }
    return quot;
  }

  [[nodiscard]] std::uint64_t remainder(std::uint64_t v) const {
    std::uint64_t rem = 0;
    divide(v, rem);
    return rem;
  }

 private:
  std::uint64_t q_;
  std::uint64_t inv_ = 0;
};

}  // namespace padlock
