//===- KeySwitchLayout.h - RNS key-switching digit layout -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shape of hybrid RNS key switching, shared by the RNS-CKKS backend
/// and the static passes that price it (CostModel, NoiseModel, the
/// footprint analysis): the chain primes q_0..q_L grouped into dnum
/// contiguous digits, and the number k of primes in the special modulus
/// P. A key switch at r active chain primes extends every active digit
/// to the r + k moduli of Q_l * P (ModUp), takes the inner product with
/// the key, and divides by P (ModDown).
///
//===----------------------------------------------------------------------===//

#ifndef CHET_MATH_KEYSWITCHLAYOUT_H
#define CHET_MATH_KEYSWITCHLAYOUT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chet {

struct KeySwitchLayout {
  /// Chain-prime index boundaries: digit d covers the chain primes
  /// [DigitBounds[d], DigitBounds[d + 1]). Empty means one digit per
  /// chain prime (the per-prime layout).
  std::vector<uint32_t> DigitBounds;
  /// Number of primes in the special modulus P.
  size_t SpecialPrimes = 1;

  /// Digits holding at least one of the first \p Limbs chain primes --
  /// the digits a key switch at that many active primes decomposes into.
  size_t activeDigits(size_t Limbs) const {
    if (DigitBounds.empty())
      return Limbs;
    size_t D = 0;
    while (D + 1 < DigitBounds.size() && DigitBounds[D] < Limbs)
      ++D;
    return D;
  }
};

} // namespace chet

#endif // CHET_MATH_KEYSWITCHLAYOUT_H
