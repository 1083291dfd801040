#pragma once
/// \file fixed_order.hpp
/// Compile-time polynomial-order dispatch.
///
/// The paper's HLS kernels fix the order at synthesis, so every contraction
/// loop unrolls into registers.  The CPU analogue instantiates each element
/// body once per order in [kFixedMinN1d, kFixedMaxN1d] and selects it from
/// the runtime n1d here; the Ax kernel and the set-up builders share this
/// one switch.  Orders outside the range take a runtime-order body.

#include <type_traits>
#include <utility>

namespace semfpga {

/// Smallest/largest n1d with a compile-time body.
inline constexpr int kFixedMinN1d = 2;
inline constexpr int kFixedMaxN1d = 17;

/// Calls `fixed(std::integral_constant<int, n1d>{})` when n1d lies in
/// [kFixedMinN1d, kFixedMaxN1d], otherwise `runtime()`.
template <class Fixed, class Runtime>
void dispatch_n1d(int n1d, Fixed&& fixed, Runtime&& runtime) {
  const bool hit = [&]<int... I>(std::integer_sequence<int, I...>) {
    return ((n1d == kFixedMinN1d + I &&
             (fixed(std::integral_constant<int, kFixedMinN1d + I>{}), true)) ||
            ...);
  }(std::make_integer_sequence<int, kFixedMaxN1d - kFixedMinN1d + 1>{});
  if (!hit) {
    runtime();
  }
}

}  // namespace semfpga
