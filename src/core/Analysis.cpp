//===- Analysis.cpp - Dataflow-analysis HISA backend ----------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"

#include "hisa/Hisa.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace chet;

static_assert(HisaBackend<AnalysisBackend>,
              "AnalysisBackend must satisfy the HISA concept");

AnalysisBackend::AnalysisBackend(const AnalysisConfig &ConfigIn)
    : Config(ConfigIn), Slots(size_t(1) << (ConfigIn.LogN - 1)) {
  if (Config.Scheme == SchemeKind::RnsCkks)
    CHET_CHECK(!Config.ScalePrimeCandidates.empty(), InvalidArgument,
               "RNS analysis needs the candidate modulus list");
}

void AnalysisBackend::charge(const std::string &Op, double Cost) {
  ++OpCounts[Op];
  if (Config.Cost)
    TotalCost += Cost;
}

double AnalysisBackend::modulusState(const Ct &C) const {
  if (Config.Scheme == SchemeKind::RnsCkks) {
    double R = Config.TotalChainPrimes > 0
                   ? Config.TotalChainPrimes - C.ConsumedPrimes
                   : 4.0; // phase 1: nominal level count
    return R < 1 ? 1 : R;
  }
  double LogQ = Config.TotalLogQ > 0 ? Config.TotalLogQ - C.LogConsumed
                                     : 240.0;
  return LogQ < 30 ? 30 : LogQ;
}

void AnalysisBackend::noteRotation(const Ct &C, int Step) {
  RotationSteps.insert(Step);
  auto [It, New] = RotationLevels.emplace(Step, levelOf(C));
  if (!New)
    It->second = std::max(It->second, levelOf(C));
}

void AnalysisBackend::trackScale(const Ct &C) {
  double L = std::log2(C.Scale);
  if (L > MaxLogScale)
    MaxLogScale = L;
}

AnalysisBackend::Pt AnalysisBackend::encode(const std::vector<double> &Values,
                                            double Scale) {
  charge("encode", Config.Cost ? Config.Cost->encode() : 0);
  return Pt{Scale};
}

std::vector<double> AnalysisBackend::decode(const Pt &P) const {
  return {};
}

AnalysisBackend::Ct AnalysisBackend::encrypt(const Pt &P) {
  ++OpCounts["encrypt"]; // client-side; not priced into server latency
  Ct C;
  C.Scale = P.Scale;
  return C;
}

void AnalysisBackend::rotLeftAssign(Ct &C, int Steps) {
  int64_t S = Steps % static_cast<int64_t>(Slots);
  if (S < 0)
    S += Slots;
  if (S == 0)
    return;
  noteRotation(C, static_cast<int>(S));
  int Hops = 1;
  if (!Config.SelectedRotationKeys) {
    // Power-of-two fallback: one hop per set bit of the shorter
    // direction (matches RnsCkksBackend::rotLeftAssign).
    int64_t Short = S <= static_cast<int64_t>(Slots / 2)
                        ? S
                        : S - static_cast<int64_t>(Slots);
    uint64_t Mag = static_cast<uint64_t>(Short >= 0 ? Short : -Short);
    Hops = __builtin_popcountll(Mag);
  }
  charge("rotate",
         Config.Cost ? Hops * Config.Cost->rotate(modulusState(C)) : 0);
  OpCounts["rotateHops"] += Hops - 1;
}

std::vector<AnalysisBackend::Ct>
AnalysisBackend::rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
  std::vector<Ct> Out;
  Out.reserve(Steps.size());
  int NonZero = 0;
  for (int Raw : Steps) {
    int64_t S = Raw % static_cast<int64_t>(Slots);
    if (S < 0)
      S += Slots;
    Out.push_back(C); // rotations change no dataflow facts
    if (S == 0)
      continue;
    if (!Config.SelectedRotationKeys || !Config.HoistedRotationPricing) {
      // Per-amount pricing: either no dedicated keys exist (the real
      // backends fall back to power-of-two hops) or hoisted pricing is
      // disabled (modelling a runtime with hoisting off). rotLeftAssign
      // prices and collects exactly as the loop the runtime would run.
      Ct Tmp = C;
      rotLeftAssign(Tmp, Raw);
      continue;
    }
    noteRotation(C, static_cast<int>(S));
    ++NonZero;
  }
  if (NonZero > 0) {
    charge("rotateHoistShared",
           Config.Cost ? Config.Cost->rotateHoistShared(modulusState(C)) : 0);
    for (int I = 0; I < NonZero; ++I)
      charge("rotate", Config.Cost
                           ? Config.Cost->rotateHoistPerAmount(modulusState(C))
                           : 0);
  }
  return Out;
}

static bool analysisScalesMatch(double A, double B) {
  double Ratio = A / B;
  return Ratio > 1.0 - 1e-6 && Ratio < 1.0 + 1e-6;
}

void AnalysisBackend::addAssign(Ct &C, const Ct &Other) {
  CHET_CHECK(analysisScalesMatch(C.Scale, Other.Scale), ScaleMismatch,
             "addition scale mismatch detected during analysis: ", C.Scale,
             " vs ", Other.Scale);
  // Level alignment: the deeper history dominates.
  if (Other.ConsumedPrimes > C.ConsumedPrimes)
    C.ConsumedPrimes = Other.ConsumedPrimes;
  if (Other.LogConsumed > C.LogConsumed)
    C.LogConsumed = Other.LogConsumed;
  charge("add", Config.Cost ? Config.Cost->add(modulusState(C)) : 0);
}

void AnalysisBackend::addPlainAssign(Ct &C, const Pt &P) {
  CHET_CHECK(analysisScalesMatch(C.Scale, P.Scale), ScaleMismatch,
             "addPlain scale mismatch detected during analysis: ", C.Scale,
             " vs ", P.Scale);
  charge("addPlain", Config.Cost ? Config.Cost->add(modulusState(C)) : 0);
}

void AnalysisBackend::addScalarAssign(Ct &C, double X) {
  charge("addScalar", Config.Cost ? Config.Cost->add(modulusState(C)) : 0);
}

void AnalysisBackend::mulAssign(Ct &C, const Ct &Other) {
  if (Other.ConsumedPrimes > C.ConsumedPrimes)
    C.ConsumedPrimes = Other.ConsumedPrimes;
  if (Other.LogConsumed > C.LogConsumed)
    C.LogConsumed = Other.LogConsumed;
  C.Scale *= Other.Scale;
  trackScale(C);
  MulLevel = std::max(MulLevel, levelOf(C));
  charge("mul", Config.Cost ? Config.Cost->mulCipher(modulusState(C)) : 0);
}

void AnalysisBackend::mulPlainAssign(Ct &C, const Pt &P) {
  C.Scale *= P.Scale;
  trackScale(C);
  charge("mulPlain",
         Config.Cost ? Config.Cost->mulPlain(modulusState(C)) : 0);
}

void AnalysisBackend::mulScalarAssign(Ct &C, double X, uint64_t Scale) {
  C.Scale *= static_cast<double>(Scale);
  trackScale(C);
  charge("mulScalar",
         Config.Cost ? Config.Cost->mulScalar(modulusState(C)) : 0);
}

uint64_t AnalysisBackend::maxRescale(const Ct &C, uint64_t UpperBound) const {
  if (Config.Scheme == SchemeKind::BigCkks) {
    // Largest power of two under the bound (Section 5.2, CKKS analyser).
    if (UpperBound < 2)
      return 1;
    int Bits = 63 - __builtin_clzll(UpperBound);
    return uint64_t(1) << Bits;
  }
  // RNS analyser: largest product of the next candidate moduli under the
  // bound (Section 5.2). Consumption proceeds along the global list.
  uint64_t Divisor = 1;
  size_t Index = C.ConsumedPrimes;
  while (Index < Config.ScalePrimeCandidates.size()) {
    uint64_t Q = Config.ScalePrimeCandidates[Index];
    if (Divisor > UpperBound / Q)
      break;
    Divisor *= Q;
    ++Index;
  }
  return Divisor;
}

void AnalysisBackend::rescaleAssign(Ct &C, uint64_t Divisor) {
  if (Divisor <= 1)
    return;
  charge("rescale", Config.Cost ? Config.Cost->rescale(modulusState(C)) : 0);
  if (Config.Scheme == SchemeKind::BigCkks) {
    assert((Divisor & (Divisor - 1)) == 0 && "CKKS divisor must be 2^k");
    double Bits = std::log2(static_cast<double>(Divisor));
    C.LogConsumed += Bits;
    C.Scale /= static_cast<double>(Divisor);
    if (C.LogConsumed > MaxLogConsumed)
      MaxLogConsumed = C.LogConsumed;
    return;
  }
  while (Divisor > 1) {
    assert(C.ConsumedPrimes <
               static_cast<int>(Config.ScalePrimeCandidates.size()) &&
           "candidate modulus list exhausted");
    uint64_t Q = Config.ScalePrimeCandidates[C.ConsumedPrimes];
    assert(Divisor % Q == 0 && "divisor not from maxRescale");
    Divisor /= Q;
    C.Scale /= static_cast<double>(Q);
    ++C.ConsumedPrimes;
  }
  if (C.ConsumedPrimes > MaxConsumedPrimes)
    MaxConsumedPrimes = C.ConsumedPrimes;
}
