//===- CostModel.h - HISA-primitive cost models ----------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-scheme cost models for HISA primitives, following Section 5.3:
/// asymptotic complexity (Table 1) with constants tuned by
/// microbenchmarking the two backends. Costs use only local information
/// (the instruction's arguments and the ciphertext's current modulus),
/// independent of the rest of the circuit. Units are arbitrary
/// ("estimated cost"); Figure 6 only requires them to correlate with
/// wall-clock latency.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_COSTMODEL_H
#define CHET_CORE_COSTMODEL_H

#include "math/KeySwitchLayout.h"

#include <cmath>
#include <cstdint>
#include <vector>

namespace chet {

/// Which FHE scheme a compilation targets.
enum class SchemeKind {
  RnsCkks, ///< SEAL-style RNS-CKKS.
  BigCkks, ///< HEAAN-style CKKS with a power-of-two modulus.
};

inline const char *schemeName(SchemeKind K) {
  return K == SchemeKind::RnsCkks ? "RNS-CKKS(SEAL-like)"
                                  : "CKKS(HEAAN-like)";
}

/// Cost model for one scheme at one ring dimension. The RNS functions
/// take the number of active RNS components r; the big-CKKS functions
/// take the current modulus width logQ (and the key modulus width logQP
/// where key switching is involved).
class CostModel {
public:
  /// Returns the model for \p Scheme at ring dimension 2^\p LogN, with
  /// constants measured once on the development machine. logQP is the
  /// key-switching modulus width used by big-CKKS key switches; \p Layout
  /// is the RNS key-switching digit layout (default: one digit per chain
  /// prime under one special prime) and \p ChainPrimes the chain it
  /// groups, which prices each key-switch transform by its prime's width
  /// (default: every transform at the wide-prime cost).
  static CostModel create(SchemeKind Scheme, int LogN, double LogQP = 0,
                          KeySwitchLayout Layout = {},
                          const std::vector<uint64_t> &ChainPrimes = {});

  double add(double ModulusState) const;
  double mulScalar(double ModulusState) const;
  double mulPlain(double ModulusState) const;
  double mulCipher(double ModulusState) const;
  double rotate(double ModulusState) const;
  /// Hoisted rotation fan-out (Halevi-Shoup): one-time cost of the shared
  /// key-switch decomposition, paid once per rotLeftMany batch.
  double rotateHoistShared(double ModulusState) const;
  /// Marginal cost of each amount in a hoisted fan-out: automorphism of
  /// the shared base, key inner product, and the special-modulus divide.
  double rotateHoistPerAmount(double ModulusState) const;
  double rescale(double ModulusState) const;
  double encode() const;

  SchemeKind scheme() const { return Scheme; }

private:
  /// RNS: active digits d and special primes k of a key switch at r
  /// active chain primes.
  double ksDigits(double R) const {
    return static_cast<double>(Layout.activeDigits(static_cast<size_t>(R)));
  }
  double ksSpecial() const {
    return static_cast<double>(Layout.SpecialPrimes);
  }
  /// RNS: the summed transform weight of the first r chain primes (r
  /// when the chain is unknown).
  double ksChainWeight(double R) const {
    size_t I = static_cast<size_t>(R);
    return I < ChainWeightPrefix.size() ? ChainWeightPrefix[I] : R;
  }

  SchemeKind Scheme = SchemeKind::RnsCkks;
  double N = 0;
  double LogN = 0;
  double LogQP = 0;
  KeySwitchLayout Layout;
  /// Prefix sums of per-chain-prime transform weights.
  std::vector<double> ChainWeightPrefix;
};

/// Worst-case CKKS noise constants for the static range/noise analysis
/// (hisa/RangeNoiseBackend.h, core/NoiseAnalysis.h).
///
/// All quantities are high-probability canonical-embedding bounds on the
/// *slot magnitude* of the freshly introduced noise polynomial; dividing
/// by the ciphertext scale yields the message-space error. The model
/// matches what the two backends actually sample: ternary secrets and
/// encryption randomness, centered-binomial errors of standard deviation
/// \c Sigma (support/Prng.h), and special-prime hybrid key switching.
/// A polynomial with iid coefficients of standard deviation s has slot
/// values of standard deviation s*sqrt(N); products of two independent
/// such polynomials multiply in the embedding. \c Safety is the
/// high-probability tail multiplier applied once per bound (lambda in the
/// EVA noise analysis); the accumulated circuit bound additionally adds
/// terms linearly where real noise cancels in quadrature, so end-to-end
/// bounds are intentionally loose but sound.
struct NoiseModel {
  double N = 8192;           ///< ring dimension 2^LogN
  double Sigma = 3.2;        ///< error stddev (Prng::nextCenteredGaussian)
  double Safety = 10.0;      ///< high-probability tail multiplier
  double KsDigitRatio = 0.0; ///< sum_j |D_j| Q_j / P over key-switch
                             ///< digits of |D_j| primes

  /// Builds the model for \p Scheme at ring dimension 2^\p LogN.
  /// \p ChainPrimes, \p SpecialPrimes and \p DigitBounds (empty: one
  /// digit per chain prime) describe the RNS-CKKS modulus chain and its
  /// key-switching layout; big-CKKS passes its modulus width \p LogQ
  /// instead.
  static NoiseModel create(SchemeKind Scheme, int LogN,
                           const std::vector<uint64_t> &ChainPrimes,
                           const std::vector<uint64_t> &SpecialPrimes,
                           const std::vector<uint32_t> &DigitBounds,
                           double LogQ);

  /// Slot bound on the encode rounding polynomial (coefficients rounded
  /// to the nearest integer, uniform in [-1/2, 1/2]).
  double encodeQuant() const { return Safety * std::sqrt(N / 12.0); }

  /// Slot bound on fresh encryption noise e0 + u*e_pk + e1*s with
  /// ternary u, s and centered-binomial e terms.
  double freshNoise() const {
    return Safety * Sigma * (std::sqrt(N) + std::sqrt(2.0) * N);
  }

  /// Slot bound on the rescale rounding polynomial eps0 + eps1*s.
  double rescaleNoise() const {
    return Safety * std::sqrt(N / 12.0) * (1.0 + std::sqrt(N / 2.0));
  }

  /// Slot bound on key-switch noise: the digit inner product
  /// sum_j d_j*e_j / P (each ModUp'd digit d_j is below |D_j| Q_j) plus
  /// the ModDown rounding. Also the relinearization bound (same key-switch
  /// structure over s^2).
  double keySwitchNoise() const {
    return Safety * Sigma * N / std::sqrt(12.0) * KsDigitRatio +
           rescaleNoise();
  }
};

} // namespace chet

#endif // CHET_CORE_COSTMODEL_H
