//===- CostModel.cpp - HISA-primitive cost models -------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CostModel.h"

#include "math/UIntArith.h"

#include <cmath>

using namespace chet;

// Constants below are nanoseconds per element-operation, measured with the
// bench_table1_hisa_ops microbenchmark on the development machine (single
// core). Only ratios matter for layout selection and Figure 6.
namespace {
// RNS-CKKS: word-level modular arithmetic.
constexpr double RnsAddPerElem = 1.2;
constexpr double RnsMulScalarPerElem = 2.0;
constexpr double RnsMulPlainPerElem = 4.5;
constexpr double RnsNttButterfly = 2.4;
// A transform over a prime below 2^30 runs in the packed 32-bit NTT
// domain at 2.0-2.2x the throughput of a wide one (bench_kernels,
// BENCH_kernels.json), so key switching prices it at half.
constexpr double RnsNarrowTransformWeight = 0.5;
constexpr double RnsEncode = 55.0; // per slot-ish: FFT + rounding

// Big-CKKS: BigInt limb arithmetic and RNS bridging.
constexpr double BigLimbOp = 2.8;
constexpr double BigNttButterfly = 2.4;
constexpr double BigCrtPerPrimeLimb = 1.6;
constexpr double BigEncode = 55.0;
} // namespace

CostModel CostModel::create(SchemeKind Scheme, int LogN, double LogQP,
                            KeySwitchLayout Layout,
                            const std::vector<uint64_t> &ChainPrimes) {
  CostModel M;
  M.Scheme = Scheme;
  M.LogN = LogN;
  M.N = std::ldexp(1.0, LogN);
  M.LogQP = LogQP;
  M.Layout = std::move(Layout);
  if (!ChainPrimes.empty()) {
    M.ChainWeightPrefix.push_back(0);
    for (uint64_t Q : ChainPrimes)
      M.ChainWeightPrefix.push_back(
          M.ChainWeightPrefix.back() +
          (isNarrowModulus(Q) ? RnsNarrowTransformWeight : 1.0));
  }
  return M;
}

double CostModel::add(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks)
    return RnsAddPerElem * N * ModulusState; // O(N r), Table 1
  return BigLimbOp * N * (ModulusState / 64.0 + 1); // O(N log Q)
}

double CostModel::mulScalar(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks)
    return RnsMulScalarPerElem * 2 * N * ModulusState; // O(N r)
  // O(N M(Q)): one word multiply per limb per coefficient.
  return BigLimbOp * 2 * N * (ModulusState / 32.0 + 1);
}

double CostModel::mulPlain(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks)
    return RnsMulPlainPerElem * 2 * N * ModulusState; // O(N r)
  // O(N log N M(Q)): RNS bridging with np ~ 2 logQ / 59 primes.
  double Np = 2 * ModulusState / 59.0 + 1;
  return 2 * Np *
         (BigNttButterfly * N * LogN +
          BigCrtPerPrimeLimb * N * (ModulusState / 64.0 + 1));
}

double CostModel::mulCipher(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks) {
    // Key switching runs d + 2 NTTs of size N per active modulus: one
    // inverse (chain) or ModDown inverse (special), d - 1 (chain) or d
    // (special) ModUp forward transforms, and two ModDown forward ones
    // (chain) -- (r+k)(d+2) in all, (r+1)(r+2) for the per-prime layout,
    // each weighted by its prime's width.
    double R = ModulusState;
    return RnsNttButterfly * N * LogN * (ksChainWeight(R) + ksSpecial()) *
               (ksDigits(R) + 2) +
           RnsMulPlainPerElem * 4 * N * R;
  }
  // Tensor products at np ~ (2 logQ)/59 plus a key switch at
  // np ~ (logQ + logQP)/59.
  double NpMul = 2 * ModulusState / 59.0 + 1;
  double NpKs = (ModulusState + LogQP) / 59.0 + 1;
  double PerPrime = BigNttButterfly * N * LogN +
                    BigCrtPerPrimeLimb * N * (ModulusState / 64.0 + 1);
  return (7 * NpMul + 4 * NpKs) * PerPrime;
}

double CostModel::rotate(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks) {
    double R = ModulusState;
    return RnsNttButterfly * N * LogN * (ksChainWeight(R) + ksSpecial()) *
               (ksDigits(R) + 2) +
           RnsAddPerElem * 6 * N * R;
  }
  double NpKs = (ModulusState + LogQP) / 59.0 + 1;
  double PerPrime = BigNttButterfly * N * LogN +
                    BigCrtPerPrimeLimb * N * ((ModulusState + LogQP) / 96.0 + 1);
  return 4 * NpKs * PerPrime;
}

double CostModel::rotateHoistShared(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks) {
    // ModUp once: d of the (d + 2) transforms per active modulus a key
    // switch runs.
    double R = ModulusState;
    return RnsNttButterfly * N * LogN * (ksChainWeight(R) + ksSpecial()) *
           ksDigits(R);
  }
  // One decomposeNtt of c1 at np ~ (logQ + logQP)/59 primes.
  double NpKs = (ModulusState + LogQP) / 59.0 + 1;
  double PerPrime =
      BigNttButterfly * N * LogN +
      BigCrtPerPrimeLimb * N * ((ModulusState + LogQP) / 96.0 + 1);
  return NpKs * PerPrime;
}

double CostModel::rotateHoistPerAmount(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks) {
    // Permuting the shared NTT-domain base costs no transforms; each
    // amount runs its own ModDown (the other 2 transforms per active
    // modulus) plus the key inner product's multiply-accumulates.
    double R = ModulusState;
    return RnsNttButterfly * N * LogN * 2 * (ksChainWeight(R) + ksSpecial()) +
           RnsAddPerElem * 6 * N * R;
  }
  // Pointwise key products plus two CRT reconstructions per amount
  // (versus 4 np key-switch passes for a naive rotation).
  double NpKs = (ModulusState + LogQP) / 59.0 + 1;
  double PerPrime =
      BigNttButterfly * N * LogN +
      BigCrtPerPrimeLimb * N * ((ModulusState + LogQP) / 96.0 + 1);
  return 3 * NpKs * PerPrime;
}

double CostModel::rescale(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks)
    return RnsNttButterfly * 4 * N * LogN * ModulusState;
  return BigLimbOp * 2 * N * (ModulusState / 64.0 + 1);
}

double CostModel::encode() const {
  return (Scheme == SchemeKind::RnsCkks ? RnsEncode : BigEncode) * N;
}

NoiseModel NoiseModel::create(SchemeKind Scheme, int LogN,
                              const std::vector<uint64_t> &ChainPrimes,
                              const std::vector<uint64_t> &SpecialPrimes,
                              const std::vector<uint32_t> &DigitBounds,
                              double LogQ) {
  NoiseModel M;
  M.N = std::ldexp(1.0, LogN);
  if (Scheme == SchemeKind::RnsCkks) {
    // Hybrid key switching decomposes over the digits. ModUp's fast base
    // conversion lifts digit j to sum_i t_i (Q_j/q_i) with t_i < q_i,
    // an integer below |D_j| * Q_j, which contributes that magnitude
    // times e_j / P to the output noise (q_i * e_i / P per prime for the
    // per-prime layout).
    // Wide digits and special moduli overflow a double (one digit over
    // a 1,200-bit chain), so when any does the terms are formed in log
    // space; otherwise the direct quotient keeps the per-prime value.
    double P = SpecialPrimes.empty() ? std::ldexp(1.0, 60) : 1.0;
    double LogP = SpecialPrimes.empty() ? 60.0 : 0.0;
    for (uint64_t Sp : SpecialPrimes) {
      P *= static_cast<double>(Sp);
      LogP += std::log2(static_cast<double>(Sp));
    }
    struct DigitSize {
      double Width, Q, LogQ;
    };
    std::vector<DigitSize> Sizes;
    bool Direct = std::isfinite(P);
    size_t Digits = DigitBounds.empty() ? ChainPrimes.size()
                                        : DigitBounds.size() - 1;
    for (size_t D = 0; D < Digits; ++D) {
      size_t Begin = DigitBounds.empty() ? D : DigitBounds[D];
      size_t End = DigitBounds.empty() ? D + 1 : DigitBounds[D + 1];
      DigitSize S{static_cast<double>(End - Begin), 1.0, 0.0};
      for (size_t I = Begin; I < End; ++I) {
        S.Q *= static_cast<double>(ChainPrimes[I]);
        S.LogQ += std::log2(static_cast<double>(ChainPrimes[I]));
      }
      Direct = Direct && std::isfinite(S.Q);
      Sizes.push_back(S);
    }
    double Sum = 0;
    for (const DigitSize &S : Sizes)
      Sum += S.Width * (Direct ? S.Q : std::exp2(S.LogQ - LogP));
    M.KsDigitRatio = Direct ? Sum / P : Sum;
  } else {
    // Big-CKKS key-switches against a key modulus as wide as Q itself;
    // with 60-bit digits the ratio sum_i 2^60 / 2^logQ is negligible for
    // any realistic chain, leaving the division rounding term dominant.
    double Digits = std::ceil(std::max(LogQ, 60.0) / 60.0);
    M.KsDigitRatio = Digits * std::exp2(60.0 - std::min(LogQ, 300.0));
  }
  return M;
}
