//===- RnsCkks.cpp - RNS-CKKS (SEAL-style) HISA backend ------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ckks/RnsCkks.h"

#include "math/PrimeGen.h"
#include "support/Error.h"
#include "support/LimbPool.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

using namespace chet;

//===----------------------------------------------------------------------===//
// Parameters
//===----------------------------------------------------------------------===//

std::vector<uint64_t> RnsCkksParams::candidateChain(int Count, int FirstBits,
                                                    int ScaleBits) {
  // Generated with the LogN = 16 congruence so the same chain is valid at
  // every smaller ring dimension; mirrors the "global list of pre-generated
  // candidate moduli" of Section 5.2.
  std::vector<uint64_t> Exclude = {candidateSpecial(FirstBits)};
  std::vector<uint64_t> Chain =
      generateNttPrimes(FirstBits, /*LogN=*/16, 1, Exclude);
  if (Count > 1) {
    if (ScaleBits == FirstBits) {
      Exclude.push_back(Chain[0]);
      auto Rest = generateNttPrimes(ScaleBits, 16, Count - 1, Exclude);
      Chain.insert(Chain.end(), Rest.begin(), Rest.end());
    } else {
      auto Rest = generateNttPrimes(ScaleBits, 16, Count - 1);
      Chain.insert(Chain.end(), Rest.begin(), Rest.end());
    }
  }
  return Chain;
}

uint64_t RnsCkksParams::candidateSpecial(int Bits) {
  return generateNttPrimes(Bits, /*LogN=*/16, 1)[0];
}

std::vector<uint64_t>
RnsCkksParams::candidateSpecials(int Count, int Bits,
                                 const std::vector<uint64_t> &Chain) {
  if (Count <= 0)
    return {};
  return generateNttPrimes(Bits, /*LogN=*/16, Count, Chain);
}

RnsCkksParams RnsCkksParams::create(int LogN, int Levels, int FirstBits,
                                    int ScaleBits, SecurityLevel Security) {
  RnsCkksParams P;
  P.LogN = LogN;
  P.ChainPrimes = candidateChain(Levels + 1, FirstBits, ScaleBits);
  P.SpecialPrimes = {candidateSpecial(FirstBits)};
  P.Security = Security;
  return P;
}

double RnsCkksParams::logQ() const {
  double Bits = 0;
  for (uint64_t Q : ChainPrimes)
    Bits += std::log2(static_cast<double>(Q));
  return Bits;
}

double RnsCkksParams::logP() const {
  double Bits = 0;
  for (uint64_t P : SpecialPrimes)
    Bits += std::log2(static_cast<double>(P));
  return Bits;
}

KeySwitchLayout RnsCkksParams::keySwitchLayout() const {
  KeySwitchLayout L;
  L.SpecialPrimes = SpecialPrimes.size();
  L.DigitBounds = DigitBounds;
  if (L.DigitBounds.empty())
    for (size_t I = 0; I <= ChainPrimes.size(); ++I)
      L.DigitBounds.push_back(static_cast<uint32_t>(I));
  return L;
}

std::string RnsCkksParams::keySwitchLayoutError() const {
  if (SpecialPrimes.empty())
    return "the special modulus has no prime";
  for (size_t I = 0; I < SpecialPrimes.size(); ++I) {
    uint64_t P = SpecialPrimes[I];
    if (P < 3)
      return formatError("special prime ", P, " is not an odd prime");
    if (std::find(ChainPrimes.begin(), ChainPrimes.end(), P) !=
        ChainPrimes.end())
      return formatError("special prime ", P, " is also a chain prime");
    if (std::find(SpecialPrimes.begin(), SpecialPrimes.begin() + I, P) !=
        SpecialPrimes.begin() + I)
      return formatError("special prime ", P, " is repeated");
  }
  if (DigitBounds.empty())
    return "";
  if (DigitBounds.size() < 2 || DigitBounds.front() != 0 ||
      DigitBounds.back() != ChainPrimes.size())
    return formatError("the ", DigitBounds.size(),
                       " digit bounds do not cover the ", ChainPrimes.size(),
                       "-prime chain from q_0");
  for (size_t D = 0; D + 1 < DigitBounds.size(); ++D) {
    if (DigitBounds[D + 1] < DigitBounds[D])
      return formatError("digit bounds are out of order at digit ", D);
    if (DigitBounds[D + 1] == DigitBounds[D])
      return formatError("digit ", D, " is empty");
  }
  return "";
}

bool RnsCkksParams::selectKeySwitchLayout(double MaxLogQP, int SpecialBits) {
  // Nominal widths: a B-bit prime lies in [2^(B-1), 2^B), so a digit of
  // nominal width W is covered by W / SpecialBits special primes up to
  // the few-ulp slack between same-width primes.
  std::vector<int> Width;
  int Total = 0, Widest = 0;
  for (uint64_t Q : ChainPrimes) {
    Width.push_back(64 - __builtin_clzll(Q));
    Total += Width.back();
    Widest = std::max(Widest, Width.back());
  }
  if (ChainPrimes.empty() || SpecialBits <= 0)
    return false;
  // k beyond the one that makes a single digit buys nothing.
  int MaxK = (Total + SpecialBits - 1) / SpecialBits;
  std::vector<uint64_t> Specials =
      candidateSpecials(MaxK, SpecialBits, ChainPrimes);
  const double LogQ = logQ();
  double LogP = 0;
  std::vector<uint32_t> Best;
  int BestK = 0;
  for (int K = 1; K <= MaxK; ++K) {
    LogP += std::log2(static_cast<double>(Specials[K - 1]));
    if (LogQ + LogP > MaxLogQP)
      break;
    int Capacity = K * SpecialBits;
    if (Widest > Capacity)
      continue;
    std::vector<uint32_t> Bounds = {0};
    int Fill = 0;
    for (size_t I = 0; I < Width.size(); ++I) {
      if (Fill + Width[I] > Capacity) {
        Bounds.push_back(static_cast<uint32_t>(I));
        Fill = 0;
      }
      Fill += Width[I];
    }
    Bounds.push_back(static_cast<uint32_t>(Width.size()));
    // A larger P only pays off when it removes a digit.
    if (BestK == 0 || Bounds.size() < Best.size()) {
      Best = std::move(Bounds);
      BestK = K;
    }
  }
  if (BestK == 0)
    return false;
  SpecialPrimes.assign(Specials.begin(), Specials.begin() + BestK);
  DigitBounds = std::move(Best);
  return true;
}

//===----------------------------------------------------------------------===//
// Construction and key generation
//===----------------------------------------------------------------------===//

/// Product of \p Primes except the one at \p Skip, modulo \p Q.
static uint64_t productExcept(const std::vector<uint64_t> &Primes,
                              size_t Begin, size_t End, size_t Skip,
                              const Modulus &Q) {
  uint64_t V = 1 % Q.value();
  for (size_t I = Begin; I < End; ++I)
    if (I != Skip)
      V = Q.mulMod(V, Q.reduce(Primes[I]));
  return V;
}

RnsCkksBackend::RnsCkksBackend(const RnsCkksParams &ParamsIn,
                               int RelinKeyLevel)
    : Params(ParamsIn), LogN(ParamsIn.LogN), Degree(size_t(1) << ParamsIn.LogN),
      ChainLen(ParamsIn.ChainPrimes.size()),
      SpecialLen(ParamsIn.SpecialPrimes.size()), Encoder(ParamsIn.LogN),
      Rng(ParamsIn.Seed) {
  CHET_CHECK(ChainLen >= 1, InvalidArgument,
             "RNS-CKKS parameters need at least one chain prime");
  std::string LayoutError = Params.keySwitchLayoutError();
  CHET_CHECK(LayoutError.empty(), InvalidArgument,
             "RNS-CKKS key-switching layout is malformed: ", LayoutError);
  CHET_CHECK(Params.logQP() <= maxLogQForSecurity(LogN, Params.Security),
             SecurityBudgetExceeded,
             "parameters violate the requested security level: logQP = ",
             Params.logQP(), " bits exceeds the ", maxLogQForSecurity(
                 LogN, Params.Security),
             "-bit budget at LogN = ", LogN);
  CHET_CHECK(RelinKeyLevel < static_cast<int>(ChainLen), InvalidArgument,
             "relinearization key level ", RelinKeyLevel,
             " exceeds the chain's top level ", ChainLen - 1);

  for (uint64_t Q : Params.ChainPrimes) {
    ChainMods.emplace_back(Q);
    ChainNtt.push_back(std::make_unique<NttTables>(LogN, ChainMods.back()));
  }
  for (uint64_t P : Params.SpecialPrimes) {
    SpecialMods.emplace_back(P);
    SpecialNtt.push_back(
        std::make_unique<NttTables>(LogN, SpecialMods.back()));
  }
  DigitBounds = Params.keySwitchLayout().DigitBounds;
  for (size_t D = 0; D + 1 < DigitBounds.size(); ++D)
    for (size_t I = digitBegin(D); I < digitEnd(D); ++I)
      DigitOf.push_back(static_cast<uint32_t>(D));

  // ModUp constants for every slice a key switch can meet: at level l
  // each digit below l's is whole and l's own digit is cut after q_l.
  const size_t Moduli = ChainLen + SpecialLen;
  std::vector<uint64_t> AllPrimes = Params.ChainPrimes;
  AllPrimes.insert(AllPrimes.end(), Params.SpecialPrimes.begin(),
                   Params.SpecialPrimes.end());
  SliceByTop.resize(ChainLen);
  parallelFor(0, ChainLen, 1, [&](size_t Top) {
    ModUpSlice &S = SliceByTop[Top];
    S.Begin = digitBegin(DigitOf[Top]);
    S.End = Top + 1;
    size_t Width = S.End - S.Begin;
    S.HatInv.resize(Width);
    S.HatInvShoup.resize(Width);
    S.HatMod.resize(Width * Moduli);
    for (size_t I = S.Begin; I < S.End; ++I) {
      const Modulus &Q = ChainMods[I];
      uint64_t Inv = invMod(
          productExcept(Params.ChainPrimes, S.Begin, S.End, I, Q), Q);
      S.HatInv[I - S.Begin] = Inv;
      S.HatInvShoup[I - S.Begin] = shoupPrecompute(Inv, Q.value());
      for (size_t M = 0; M < Moduli; ++M)
        S.HatMod[(I - S.Begin) * Moduli + M] =
            productExcept(Params.ChainPrimes, S.Begin, S.End, I, modAt(M));
    }
  });

  // ModDown constants.
  PHatInvModP.resize(SpecialLen);
  PHatModChain.resize(SpecialLen * ChainLen);
  for (size_t S = 0; S < SpecialLen; ++S) {
    const Modulus &P = SpecialMods[S];
    PHatInvModP[S] = invMod(
        productExcept(Params.SpecialPrimes, 0, SpecialLen, S, P), P);
    for (size_t J = 0; J < ChainLen; ++J)
      PHatModChain[S * ChainLen + J] = productExcept(
          Params.SpecialPrimes, 0, SpecialLen, S, ChainMods[J]);
  }
  PModChain.resize(ChainLen);
  PInvModChain.resize(ChainLen);
  for (size_t J = 0; J < ChainLen; ++J) {
    PModChain[J] = productExcept(Params.SpecialPrimes, 0, SpecialLen,
                                 SpecialLen, ChainMods[J]);
    PInvModChain[J] = invMod(PModChain[J], ChainMods[J]);
  }
  CrtByLevel.resize(ChainLen);

  // Secret key.
  SecretTernary = sampleTernaryCoeffs();
  SecretNtt.resize(Moduli);
  {
    std::vector<int64_t> Wide(SecretTernary.begin(), SecretTernary.end());
    parallelFor(0, Moduli, 1,
                [&](size_t J) { SecretNtt[J] = smallToNtt(Wide, J); });
  }

  // Public key (b, a) = (-(a s) + e, a) over the chain primes only;
  // fresh ciphertexts never touch the special primes. All Rng draws
  // happen sequentially (in the original order) before the parallel
  // compute so the key material is identical at every thread count.
  PkB.resize(ChainLen);
  PkA.resize(ChainLen);
  std::vector<int64_t> E = sampleErrorCoeffs();
  for (size_t J = 0; J < ChainLen; ++J)
    PkA[J] = uniformNtt(J);
  parallelFor(0, ChainLen, 1, [&](size_t J) {
    std::vector<uint64_t> ENtt = smallToNtt(E, J);
    const Modulus &Q = ChainMods[J];
    PkB[J].resize(Degree);
    for (size_t K = 0; K < Degree; ++K)
      PkB[J][K] =
          Q.addMod(Q.negMod(Q.mulMod(PkA[J][K], SecretNtt[J][K])), ENtt[K]);
  });

  // Relinearization key: target s^2 over the moduli of its level.
  int RelinLevel = RelinKeyLevel < 0 ? maxLevel() : RelinKeyLevel;
  std::vector<std::vector<uint64_t>> SquareTarget(Moduli);
  size_t RelinRows = size_t(RelinLevel) + 1 + SpecialLen;
  parallelFor(0, RelinRows, 1, [&](size_t Row) {
    size_t J = keyRowModulus(Row, RelinLevel);
    const Modulus &Q = modAt(J);
    SquareTarget[J].resize(Degree);
    for (size_t K = 0; K < Degree; ++K)
      SquareTarget[J][K] = Q.mulMod(SecretNtt[J][K], SecretNtt[J][K]);
  });
  RelinKey = makeKSwitchKey(SquareTarget, RelinLevel);

  // Stock rotation keys for the power-of-two steps, left and right
  // (2 log N - 2 keys; Section 2.4): the default CHET's rotation-key
  // selection improves on.
  if (Params.StockPow2Keys) {
    std::vector<int> Pow2Steps;
    for (size_t Step = 1; Step < slotCount(); Step <<= 1) {
      Pow2Steps.push_back(static_cast<int>(Step));
      Pow2Steps.push_back(-static_cast<int>(Step));
    }
    generateRotationKeys(Pow2Steps);
  }
}

std::vector<int8_t> RnsCkksBackend::sampleTernaryCoeffs() {
  std::vector<int8_t> Coeffs(Degree);
  for (auto &C : Coeffs)
    C = static_cast<int8_t>(Rng.nextTernary());
  return Coeffs;
}

std::vector<int64_t> RnsCkksBackend::sampleErrorCoeffs() {
  std::vector<int64_t> Coeffs(Degree);
  for (auto &C : Coeffs)
    C = Rng.nextCenteredGaussian();
  return Coeffs;
}

void RnsCkksBackend::smallToNttInto(const int64_t *Coeffs, size_t J,
                                    uint64_t *Out) const {
  const Modulus &Q = modAt(J);
  for (size_t K = 0; K < Degree; ++K) {
    int64_t V = Coeffs[K];
    Out[K] = V >= 0 ? Q.reduce(static_cast<uint64_t>(V))
                    : Q.negMod(Q.reduce(static_cast<uint64_t>(-V)));
  }
  nttAt(J).forward(Out);
}

std::vector<uint64_t>
RnsCkksBackend::smallToNtt(const std::vector<int64_t> &Coeffs,
                           size_t J) const {
  std::vector<uint64_t> Out(Degree);
  smallToNttInto(Coeffs.data(), J, Out.data());
  return Out;
}

void RnsCkksBackend::uniformNttInto(size_t J, uint64_t *Out) {
  // Independent uniform residues per CRT component are exactly uniform
  // modulo the full product; sampling directly in NTT form is equivalent
  // because the NTT is a bijection.
  const uint64_t Q = modAt(J).value();
  for (size_t K = 0; K < Degree; ++K)
    Out[K] = Rng.nextBounded(Q);
}

std::vector<uint64_t> RnsCkksBackend::uniformNtt(size_t J) {
  std::vector<uint64_t> Out(Degree);
  uniformNttInto(J, Out.data());
  return Out;
}

RnsCkksBackend::KSwitchKey RnsCkksBackend::makeKSwitchKey(
    const std::vector<std::vector<uint64_t>> &Target, int Level) {
  assert(Target.size() == ChainLen + SpecialLen &&
         "target must be indexed by global modulus");
  const size_t Digits = activeDigits(Level);
  const size_t Rows = size_t(Level) + 1 + SpecialLen;
  KSwitchKey Key;
  Key.Level = Level;
  Key.B.resize(Digits);
  Key.A.resize(Digits);
  // Draw every random sample first, in a fixed order (per digit d: E_d,
  // then A_d row by row), so the generated key is identical at every
  // thread count; the uniform rows land in the key directly. The
  // NTT/arithmetic work then fans out over (digit, row) pairs.
  std::vector<std::vector<int64_t>> E(Digits);
  for (size_t D = 0; D < Digits; ++D) {
    Key.B[D].resize(Rows * Degree);
    Key.A[D].resize(Rows * Degree);
    E[D] = sampleErrorCoeffs();
    for (size_t R = 0; R < Rows; ++R)
      uniformNttInto(keyRowModulus(R, Level), Key.A[D].data() + R * Degree);
  }
  parallelFor(0, Digits * Rows, 1, [&](size_t Flat) {
    size_t D = Flat / Rows;
    size_t R = Flat % Rows;
    size_t J = keyRowModulus(R, Level);
    const Modulus &Q = modAt(J);
    LimbBuffer ENtt(Degree);
    smallToNttInto(E[D].data(), J, ENtt.data());
    const uint64_t *ADR = Key.A[D].data() + R * Degree;
    uint64_t *BOut = Key.B[D].data() + R * Degree;
    // P * T_d * target: T_d is 1 modulo the digit's own primes and 0
    // modulo every other chain prime, and P vanishes modulo itself.
    const bool InDigit = J < ChainLen && DigitOf[J] == D;
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t V =
          Q.addMod(Q.negMod(Q.mulMod(ADR[K], SecretNtt[J][K])), ENtt[K]);
      if (InDigit)
        V = Q.addMod(V, Q.mulMod(PModChain[J], Target[J][K]));
      BOut[K] = V;
    }
  });
  return Key;
}

RnsCkksBackend::KSwitchKey RnsCkksBackend::makeGaloisKey(uint64_t Elt,
                                                         int Level) {
  // Target sigma_elt(s) over the moduli of the key's level.
  size_t TwoN = 2 * Degree;
  std::vector<int64_t> Rotated(Degree);
  for (size_t K = 0; K < Degree; ++K) {
    size_t Index = (K * Elt) & (TwoN - 1);
    int64_t V = SecretTernary[K];
    if (Index >= Degree) {
      Index -= Degree;
      V = -V;
    }
    Rotated[Index] = V;
  }
  std::vector<std::vector<uint64_t>> Target(ChainLen + SpecialLen);
  size_t Rows = size_t(Level) + 1 + SpecialLen;
  parallelFor(0, Rows, 1, [&](size_t Row) {
    size_t J = keyRowModulus(Row, Level);
    Target[J] = smallToNtt(Rotated, J);
  });
  return makeKSwitchKey(Target, Level);
}

void RnsCkksBackend::generateRotationKeys(const std::vector<int> &Steps) {
  generateRotationKeys(Steps, {});
}

void RnsCkksBackend::generateRotationKeys(const std::vector<int> &Steps,
                                          const std::vector<int> &Levels) {
  CHET_CHECK(Levels.empty() || Levels.size() == Steps.size(),
             InvalidArgument, "got ", Levels.size(),
             " rotation-key levels for ", Steps.size(), " steps");
  int Slots = static_cast<int>(slotCount());
  for (size_t I = 0; I < Steps.size(); ++I) {
    int Step = Steps[I];
    int Norm = ((Step % Slots) + Slots) % Slots;
    if (Norm == 0)
      continue;
    int Level = Levels.empty() ? maxLevel() : Levels[I];
    CHET_CHECK(Level >= 0 && Level <= maxLevel(), InvalidArgument,
               "rotation key level ", Level, " for step ", Step,
               " is outside the chain's levels 0..", maxLevel());
    RotationSteps.insert(Norm);
    uint64_t Elt = Encoder.galoisElement(Step);
    auto It = GaloisKeys.find(Elt);
    if (It != GaloisKeys.end() && It->second.Level >= Level)
      continue;
    GaloisKeys[Elt] = makeGaloisKey(Elt, Level);
    if (!GaloisPerms.count(Elt))
      GaloisPerms.emplace(Elt, galoisNttPermutation(LogN, Elt));
  }
}

void RnsCkksBackend::clearRotationKeys() {
  GaloisKeys.clear();
  GaloisPerms.clear();
  RotationSteps.clear();
}

bool RnsCkksBackend::hasRotationKey(int Steps) const {
  return GaloisKeys.count(Encoder.galoisElement(Steps)) != 0;
}

int RnsCkksBackend::rotationKeyLevel(int Steps) const {
  auto It = GaloisKeys.find(Encoder.galoisElement(Steps));
  return It == GaloisKeys.end() ? -1 : It->second.Level;
}

uint64_t RnsCkksBackend::keyBytes() const {
  auto KeyWords = [](const KSwitchKey &K) {
    uint64_t W = 0;
    for (size_t D = 0; D < K.B.size(); ++D)
      W += K.B[D].size() + K.A[D].size();
    return W;
  };
  uint64_t Words = KeyWords(RelinKey);
  for (const auto &S : SecretNtt)
    Words += S.size();
  for (size_t J = 0; J < PkB.size(); ++J)
    Words += PkB[J].size() + PkA[J].size();
  uint64_t Bytes = SecretTernary.size() * sizeof(int8_t);
  for (const auto &[Elt, Key] : GaloisKeys)
    Words += KeyWords(Key);
  for (const auto &[Elt, Perm] : GaloisPerms)
    Bytes += Perm.size() * sizeof(uint32_t);
  return Bytes + Words * sizeof(uint64_t);
}

//===----------------------------------------------------------------------===//
// Encoding, encryption, decryption
//===----------------------------------------------------------------------===//

RnsCkksBackend::Pt RnsCkksBackend::encode(const std::vector<double> &Values,
                                          double Scale) const {
  Pt P;
  P.Coeffs = Encoder.encodeCoeffs(Values, Scale);
  P.Scale = Scale;
  P.NttCache = std::make_shared<Pt::Cache>();
  P.NttCache->PerPrime.resize(ChainLen);
  P.NttCache->Ready = std::make_unique<std::atomic<bool>[]>(ChainLen);
  for (size_t J = 0; J < ChainLen; ++J)
    P.NttCache->Ready[J].store(false, std::memory_order_relaxed);
  return P;
}

std::vector<double> RnsCkksBackend::decode(const Pt &P) const {
  std::vector<double> Values = Encoder.decodeValues(P.Coeffs, P.Scale);
  return Values;
}

const std::vector<uint64_t> &RnsCkksBackend::plainNtt(const Pt &P,
                                                      size_t J) const {
  assert(P.NttCache && "plaintext was not produced by encode()");
  Pt::Cache &Cache = *P.NttCache;
  std::vector<uint64_t> &Slot = Cache.PerPrime[J];
  // Double-checked publication: ops sharing one Pt may race to fill the
  // same prime's slot when kernels run on the pool.
  if (Cache.Ready[J].load(std::memory_order_acquire))
    return Slot;
  std::lock_guard<std::mutex> Lock(Cache.FillMu);
  if (Cache.Ready[J].load(std::memory_order_relaxed))
    return Slot;
  const Modulus &Q = ChainMods[J];
  Slot.resize(Degree);
  for (size_t K = 0; K < Degree; ++K) {
    double C = P.Coeffs[K];
    uint64_t Mag = static_cast<uint64_t>(std::fabs(C));
    Slot[K] = C >= 0 ? Q.reduce(Mag) : Q.negMod(Q.reduce(Mag));
  }
  ChainNtt[J]->forward(Slot.data());
  Cache.Ready[J].store(true, std::memory_order_release);
  return Slot;
}

RnsCkksBackend::Ct RnsCkksBackend::encrypt(const Pt &P) {
  Ct C;
  C.Level = static_cast<int>(ChainLen) - 1;
  C.Scale = P.Scale;
  C.C0.resize(ChainLen * Degree);
  C.C1.resize(ChainLen * Degree);

  std::vector<int64_t> U(Degree);
  for (auto &V : U)
    V = Rng.nextTernary();
  std::vector<int64_t> E0 = sampleErrorCoeffs();
  std::vector<int64_t> E1 = sampleErrorCoeffs();

  // All Rng draws (U, E0, E1) happened above; the per-prime work is pure
  // compute and fans out over the chain.
  parallelFor(0, ChainLen, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    LimbBuffer UNtt(Degree), E0Ntt(Degree), E1Ntt(Degree);
    smallToNttInto(U.data(), J, UNtt.data());
    smallToNttInto(E0.data(), J, E0Ntt.data());
    smallToNttInto(E1.data(), J, E1Ntt.data());
    const std::vector<uint64_t> &M = plainNtt(P, J);
    uint64_t *C0 = C.C0.data() + J * Degree;
    uint64_t *C1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      C0[K] = Q.addMod(Q.addMod(Q.mulMod(PkB[J][K], UNtt[K]), E0Ntt[K]),
                       M[K]);
      C1[K] = Q.addMod(Q.mulMod(PkA[J][K], UNtt[K]), E1Ntt[K]);
    }
  });
  return C;
}

const CrtBasis &RnsCkksBackend::crtForLevel(int Level) const {
  assert(Level >= 0 && Level < static_cast<int>(ChainLen));
  std::lock_guard<std::mutex> Lock(*CrtMu);
  if (!CrtByLevel[Level]) {
    std::vector<uint64_t> Primes(Params.ChainPrimes.begin(),
                                 Params.ChainPrimes.begin() + Level + 1);
    CrtByLevel[Level] = std::make_unique<CrtBasis>(Primes);
  }
  return *CrtByLevel[Level];
}

RnsCkksBackend::Pt RnsCkksBackend::decrypt(const Ct &C) const {
  int L = C.Level;
  CHET_CHECK(L >= 0 && L < static_cast<int>(ChainLen) &&
                 C.C0.size() == (L + 1) * Degree &&
                 C.C1.size() == (L + 1) * Degree && C.Scale > 0,
             MalformedCiphertext,
             "ciphertext structure does not match the parameters: level ", L,
             ", ", C.C0.size(), "/", C.C1.size(), " words, scale ", C.Scale);
  LimbBuffer Residues((size_t(L) + 1) * Degree);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *R = Residues.data() + J * Degree;
    const uint64_t *C0 = C.C0.data() + J * Degree;
    const uint64_t *C1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      R[K] = Q.addMod(C0[K], Q.mulMod(C1[K], SecretNtt[J][K]));
    ChainNtt[J]->inverse(R);
  });

  Pt P;
  P.Scale = C.Scale;
  P.Coeffs.resize(Degree);
  if (L == 0) {
    uint64_t Q = ChainMods[0].value();
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t V = Residues[K];
      P.Coeffs[K] = V > Q / 2 ? -static_cast<double>(Q - V)
                              : static_cast<double>(V);
    }
  } else {
    const CrtBasis &Basis = crtForLevel(L);
    globalThreadPool().parallelForBlocks(
        0, Degree, 256, [&](size_t Lo, size_t Hi) {
          LimbBuffer PerCoeff(size_t(L) + 1);
          for (size_t K = Lo; K < Hi; ++K) {
            for (int J = 0; J <= L; ++J)
              PerCoeff[J] = Residues[J * Degree + K];
            P.Coeffs[K] =
                Basis.reconstructCentered(PerCoeff.data()).toDouble();
          }
        });
  }
  return P;
}

void RnsCkksBackend::freeCt(Ct &C) const {
  C.C0.clear();
  C.C0.shrink_to_fit();
  C.C1.clear();
  C.C1.shrink_to_fit();
}

//===----------------------------------------------------------------------===//
// Linear HISA instructions
//===----------------------------------------------------------------------===//

void RnsCkksBackend::modSwitchTo(Ct &C, int Level) const {
  assert(Level <= C.Level && "cannot raise a ciphertext's level");
  if (Level == C.Level)
    return;
  // Q' divides Q, so dropping RNS components is exact modulus reduction.
  C.C0.resize((Level + 1) * Degree);
  C.C1.resize((Level + 1) * Degree);
  C.Level = Level;
}

static bool scalesMatch(double A, double B) {
  double Ratio = A / B;
  return Ratio > 1.0 - 1e-6 && Ratio < 1.0 + 1e-6;
}

void RnsCkksBackend::addAssign(Ct &C, const Ct &Other) const {
  CHET_CHECK(scalesMatch(C.Scale, Other.Scale), ScaleMismatch,
             "addition scale mismatch: ", C.Scale, " vs ", Other.Scale);
  int L = C.Level < Other.Level ? C.Level : Other.Level;
  modSwitchTo(C, L);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    const uint64_t *Src0 = Other.C0.data() + J * Degree;
    const uint64_t *Src1 = Other.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = Q.addMod(Dst0[K], Src0[K]);
      Dst1[K] = Q.addMod(Dst1[K], Src1[K]);
    }
  });
}

void RnsCkksBackend::subAssign(Ct &C, const Ct &Other) const {
  CHET_CHECK(scalesMatch(C.Scale, Other.Scale), ScaleMismatch,
             "subtraction scale mismatch: ", C.Scale, " vs ", Other.Scale);
  int L = C.Level < Other.Level ? C.Level : Other.Level;
  modSwitchTo(C, L);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    const uint64_t *Src0 = Other.C0.data() + J * Degree;
    const uint64_t *Src1 = Other.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = Q.subMod(Dst0[K], Src0[K]);
      Dst1[K] = Q.subMod(Dst1[K], Src1[K]);
    }
  });
}

void RnsCkksBackend::addPlainAssign(Ct &C, const Pt &P) const {
  CHET_CHECK(scalesMatch(C.Scale, P.Scale), ScaleMismatch,
             "addPlain scale mismatch: ", C.Scale, " vs ", P.Scale);
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const std::vector<uint64_t> &M = plainNtt(P, J);
    uint64_t *Dst = C.C0.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst[K] = Q.addMod(Dst[K], M[K]);
  });
}

void RnsCkksBackend::subPlainAssign(Ct &C, const Pt &P) const {
  CHET_CHECK(scalesMatch(C.Scale, P.Scale), ScaleMismatch,
             "subPlain scale mismatch: ", C.Scale, " vs ", P.Scale);
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const std::vector<uint64_t> &M = plainNtt(P, J);
    uint64_t *Dst = C.C0.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst[K] = Q.subMod(Dst[K], M[K]);
  });
}

void RnsCkksBackend::addScalarAssign(Ct &C, double X) const {
  // The encoding of the constant vector (x, ..., x) is the constant
  // polynomial round(x * scale), whose NTT form is that constant in every
  // slot.
  double Rounded = std::nearbyint(X * C.Scale);
  CHET_CHECK(std::fabs(Rounded) < 4.6e18, EncodingOverflow,
             "scalar exceeds embedding range: ", X, " at scale ", C.Scale);
  bool Negative = Rounded < 0;
  uint64_t Mag = static_cast<uint64_t>(std::fabs(Rounded));
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t V = Q.reduce(Mag);
    if (Negative)
      V = Q.negMod(V);
    uint64_t *Dst = C.C0.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst[K] = Q.addMod(Dst[K], V);
  });
}

void RnsCkksBackend::mulScalarAssign(Ct &C, double X, uint64_t Scale) const {
  double Rounded = std::nearbyint(X * static_cast<double>(Scale));
  CHET_CHECK(std::fabs(Rounded) < 4.6e18, EncodingOverflow,
             "scalar exceeds embedding range: ", X, " at scale ", Scale);
  bool Negative = Rounded < 0;
  uint64_t Mag = static_cast<uint64_t>(std::fabs(Rounded));
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t V = Q.reduce(Mag);
    if (Negative)
      V = Q.negMod(V);
    uint64_t VShoup = shoupPrecompute(V, Q.value());
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = shoupMulMod(Dst0[K], V, VShoup, Q.value());
      Dst1[K] = shoupMulMod(Dst1[K], V, VShoup, Q.value());
    }
  });
  C.Scale *= static_cast<double>(Scale);
}

void RnsCkksBackend::mulPlainAssign(Ct &C, const Pt &P) const {
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const std::vector<uint64_t> &M = plainNtt(P, J);
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = Q.mulMod(Dst0[K], M[K]);
      Dst1[K] = Q.mulMod(Dst1[K], M[K]);
    }
  });
  C.Scale *= P.Scale;
}

//===----------------------------------------------------------------------===//
// Multiplication, relinearization, rotation
//===----------------------------------------------------------------------===//

/// Whether the key-switch inner products may sum raw 128-bit products and
/// Barrett-reduce once per element instead of reducing every term. Primes
/// are <= 61 bits, so a term is < 2^122 and 32 terms leave 2x headroom in
/// the accumulator. Both folds produce the canonical representative of
/// the same residue, so the result is bit-identical either way; the lazy
/// path rides the limb pool's escape hatch so CHET_LIMB_POOL=off selects
/// the simple reference kernels end to end.
static bool lazyInnerProduct(size_t Terms) {
  return Terms <= 32 && LimbPool::instance().enabled();
}

void RnsCkksBackend::requireKeyLevel(const KSwitchKey &Key, int Level,
                                     int Steps) const {
  if (Key.Level >= Level)
    return;
  if (Steps == 0)
    throw MissingRotationKeyError(formatError(
        "the relinearization key was generated up to level ", Key.Level,
        " but the ciphertext multiply runs at level ", Level));
  throw MissingRotationKeyError(formatError(
      "the Galois key for rotation by ", Steps, " was generated up to level ",
      Key.Level, " but the ciphertext is at level ", Level,
      "; available rotation steps: ", describeRotationSteps(RotationSteps)));
}

RnsCkksBackend::ExtendedBasis
RnsCkksBackend::modUp(const uint64_t *Ntt, uint64_t *Coeff, int Level) const {
  ExtendedBasis E;
  E.Level = Level;
  const size_t R = size_t(Level) + 1;
  E.Digits = activeDigits(Level);
  E.Rows = R + SpecialLen;
  E.Row.assign(E.Digits * E.Rows, nullptr);
  const size_t Moduli = ChainLen + SpecialLen;
  // The digit's own rows are the input limbs themselves (forward() and
  // inverse() are exact mutual inverses on fully reduced vectors); every
  // other row is converted into Storage.
  std::vector<std::pair<size_t, size_t>> Converted; // (digit, row)
  for (size_t D = 0; D < E.Digits; ++D)
    for (size_t Row = 0; Row < E.Rows; ++Row) {
      if (Row < R && DigitOf[Row] == D)
        E.Row[D * E.Rows + Row] = Ntt + Row * Degree;
      else
        Converted.emplace_back(D, Row);
    }
  E.Storage.resizeUninit(Converted.size() * Degree);
  for (size_t I = 0; I < Converted.size(); ++I) {
    auto [D, Row] = Converted[I];
    E.Row[D * E.Rows + Row] = E.Storage.data() + I * Degree;
  }
  // The active slice of digit D: whole, or cut after q_Level.
  auto sliceOf = [&](size_t D) -> const ModUpSlice & {
    return SliceByTop[std::min(digitEnd(D), R) - 1];
  };

  // Fast base conversion, step 1: x_i * (Q'/q_i)^{-1} mod q_i in place.
  // Single-prime slices have a unit factor and are left alone.
  parallelFor(0, R, 1, [&](size_t I) {
    const ModUpSlice &S = sliceOf(DigitOf[I]);
    if (S.End - S.Begin == 1)
      return;
    const uint64_t Q = ChainMods[I].value();
    uint64_t W = S.HatInv[I - S.Begin], WShoup = S.HatInvShoup[I - S.Begin];
    uint64_t *X = Coeff + I * Degree;
    for (size_t K = 0; K < Degree; ++K)
      X[K] = shoupMulMod(X[K], W, WShoup, Q);
  });

  // Step 2: sum_i [x_i (Q'/q_i)^{-1}]_{q_i} * (Q'/q_i) mod each outside
  // modulus, then to NTT form.
  parallelFor(0, Converted.size(), 1, [&](size_t Idx) {
    auto [D, Row] = Converted[Idx];
    size_t M = Row < R ? Row : ChainLen + (Row - R);
    const Modulus &Q = modAt(M);
    const ModUpSlice &S = sliceOf(D);
    uint64_t *Dst = E.Storage.data() + Idx * Degree;
    if (S.End - S.Begin == 1) {
      const uint64_t *Src = Coeff + S.Begin * Degree;
      for (size_t K = 0; K < Degree; ++K)
        Dst[K] = Q.reduce(Src[K]);
    } else {
      auto Acc = PooledScratch<unsigned __int128>::zeroed(Degree);
      for (size_t I = S.Begin; I < S.End; ++I) {
        const uint64_t W = S.HatMod[(I - S.Begin) * Moduli + M];
        const uint64_t *Src = Coeff + I * Degree;
        for (size_t K = 0; K < Degree; ++K)
          Acc[K] += static_cast<unsigned __int128>(Src[K]) * W;
        // Terms are < 2^122: fold every 32 to keep the sum in range.
        if ((I - S.Begin) % 32 == 31)
          for (size_t K = 0; K < Degree; ++K)
            Acc[K] = Q.reduce128(Acc[K]);
      }
      for (size_t K = 0; K < Degree; ++K)
        Dst[K] = Q.reduce128(Acc[K]);
    }
    nttAt(M).forward(Dst);
  });
  KsStats->ForwardNtts.fetch_add(Converted.size(), std::memory_order_relaxed);
  return E;
}

void RnsCkksBackend::keySwitchJobs(
    const ExtendedBasis &Ext, const std::vector<KeySwitchJob> &Jobs) const {
  const size_t R = size_t(Ext.Level) + 1;
  const size_t Rows = Ext.Rows;
  const size_t Fan = Jobs.size();
  const bool Lazy = lazyInnerProduct(Ext.Digits);
  // Special-prime tails of every job's two accumulators, in one arena:
  // job A's B tail at 2A, its A tail at 2A + 1 (SpecialLen limbs each).
  const size_t Tail = SpecialLen * Degree;
  LimbBuffer Sp;
  if (Lazy) {
    // Every element is overwritten by the final lazy reduction.
    Sp.resizeUninit(2 * Fan * Tail);
  } else {
    Sp.assignZero(2 * Fan * Tail);
    for (const KeySwitchJob &Job : Jobs) {
      std::memset(Job.OutB, 0, R * Degree * sizeof(uint64_t));
      std::memset(Job.OutA, 0, R * Degree * sizeof(uint64_t));
    }
  }

  // The parallel loop fans out over (job, output modulus) pairs with
  // disjoint accumulators; the digit loop stays sequential, so results
  // are bit-identical at any thread count.
  parallelFor(0, Fan * Rows, 1, [&](size_t Flat) {
    size_t A = Flat / Rows;
    size_t Row = Flat % Rows;
    const KeySwitchJob &Job = Jobs[A];
    const KSwitchKey &Key = *Job.Key;
    size_t M = Row < R ? Row : ChainLen + (Row - R);
    size_t KeyRow = Row < R ? Row : size_t(Key.Level) + 1 + (Row - R);
    const Modulus &Q = modAt(M);
    uint64_t *DstB = Row < R ? Job.OutB + Row * Degree
                             : Sp.data() + 2 * A * Tail + (Row - R) * Degree;
    uint64_t *DstA = Row < R
                         ? Job.OutA + Row * Degree
                         : Sp.data() + (2 * A + 1) * Tail + (Row - R) * Degree;
    const uint32_t *Perm = Job.Perm ? Job.Perm->data() : nullptr;
    PooledScratch<unsigned __int128> LzB, LzA;
    LimbBuffer Sigma;
    if (Lazy) {
      LzB = PooledScratch<unsigned __int128>::zeroed(Degree);
      LzA = PooledScratch<unsigned __int128>::zeroed(Degree);
    } else if (Perm) {
      Sigma.resizeUninit(Degree);
    }
    for (size_t D = 0; D < Ext.Digits; ++D) {
      const uint64_t *Src = Ext.at(D, Row);
      const uint64_t *KeyB = Key.B[D].data() + KeyRow * Degree;
      const uint64_t *KeyA = Key.A[D].data() + KeyRow * Degree;
      if (Lazy) {
        if (Perm)
          for (size_t K = 0; K < Degree; ++K) {
            unsigned __int128 V = Src[Perm[K]];
            LzB[K] += V * KeyB[K];
            LzA[K] += V * KeyA[K];
          }
        else
          for (size_t K = 0; K < Degree; ++K) {
            unsigned __int128 V = Src[K];
            LzB[K] += V * KeyB[K];
            LzA[K] += V * KeyA[K];
          }
        continue;
      }
      if (Perm) {
        for (size_t K = 0; K < Degree; ++K)
          Sigma[K] = Src[Perm[K]];
        Src = Sigma.data();
      }
      for (size_t K = 0; K < Degree; ++K) {
        DstB[K] = Q.addMod(DstB[K], Q.mulMod(Src[K], KeyB[K]));
        DstA[K] = Q.addMod(DstA[K], Q.mulMod(Src[K], KeyA[K]));
      }
    }
    if (Lazy)
      for (size_t K = 0; K < Degree; ++K) {
        DstB[K] = Q.reduce128(LzB[K]);
        DstA[K] = Q.reduce128(LzA[K]);
      }
  });

  for (size_t A = 0; A < Fan; ++A)
    modDownPair(Jobs[A].OutB, Sp.data() + 2 * A * Tail, Jobs[A].OutA,
                Sp.data() + (2 * A + 1) * Tail, Ext.Level);
}

void RnsCkksBackend::modDownPair(uint64_t *BChain, uint64_t *BSpecial,
                                 uint64_t *AChain, uint64_t *ASpecial,
                                 int Level) const {
  const size_t R = size_t(Level) + 1;
  KsStats->ForwardNtts.fetch_add(2 * R, std::memory_order_relaxed);
  KsStats->InverseNtts.fetch_add(2 * SpecialLen, std::memory_order_relaxed);
  parallelFor(0, 2 * SpecialLen, 1, [&](size_t I) {
    size_t S = I % SpecialLen;
    uint64_t *Limb = (I < SpecialLen ? BSpecial : ASpecial) + S * Degree;
    SpecialNtt[S]->inverse(Limb);
  });

  // The accumulator a is known modulo P through its residues a_s. Its
  // centred representative is r = sum_s y_s (P/p_s) - beta P with
  // y_s = a_s (P/p_s)^{-1} mod p_s and beta = round(sum_s y_s / p_s):
  // the fractional part of that sum is a/P, so beta only depends on the
  // sum within about k * 2^-63 of a half-integer, where both candidate
  // representatives have magnitude P/2. With one special prime y = a
  // and beta is the exact test a > p/2.
  LimbBuffer BetaB(Degree), BetaA(Degree);
  if (SpecialLen == 1) {
    const uint64_t HalfP = SpecialMods[0].value() >> 1;
    for (size_t K = 0; K < Degree; ++K) {
      BetaB[K] = BSpecial[K] > HalfP;
      BetaA[K] = ASpecial[K] > HalfP;
    }
  } else {
    // y_s in place of a_s.
    parallelFor(0, 2 * SpecialLen, 1, [&](size_t I) {
      size_t S = I % SpecialLen;
      uint64_t *Y = (I < SpecialLen ? BSpecial : ASpecial) + S * Degree;
      const uint64_t P = SpecialMods[S].value();
      uint64_t W = PHatInvModP[S], WShoup = shoupPrecompute(W, P);
      for (size_t K = 0; K < Degree; ++K)
        Y[K] = shoupMulMod(Y[K], W, WShoup, P);
    });
    std::vector<long double> InvP(SpecialLen);
    for (size_t S = 0; S < SpecialLen; ++S)
      InvP[S] = 1.0L / static_cast<long double>(SpecialMods[S].value());
    globalThreadPool().parallelForBlocks(
        0, Degree, 1024, [&](size_t Lo, size_t Hi) {
          for (size_t K = Lo; K < Hi; ++K) {
            long double SumB = 0, SumA = 0;
            for (size_t S = 0; S < SpecialLen; ++S) {
              SumB += static_cast<long double>(BSpecial[S * Degree + K]) *
                      InvP[S];
              SumA += static_cast<long double>(ASpecial[S * Degree + K]) *
                      InvP[S];
            }
            BetaB[K] = static_cast<uint64_t>(SumB + 0.5L);
            BetaA[K] = static_cast<uint64_t>(SumA + 0.5L);
          }
        });
  }

  parallelFor(0, R, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    LimbBuffer CorrB(Degree), CorrA(Degree);
    // beta * P mod q_j for every possible beta in [0, k].
    std::vector<uint64_t> BetaP(SpecialLen + 1, 0);
    for (size_t B = 1; B <= SpecialLen; ++B)
      BetaP[B] = Q.addMod(BetaP[B - 1], PModChain[J]);
    // sum_s y_s (P/p_s) mod q_j with Shoup products (any 64-bit y_s
    // lands in [0, 2q)), the running sums kept below 2q.
    const uint64_t Qv = Q.value(), TwoQ = 2 * Qv;
    for (size_t S = 0; S < SpecialLen; ++S) {
      const uint64_t H = PHatModChain[S * ChainLen + J];
      const uint64_t HShoup = shoupPrecompute(H, Qv);
      const uint64_t *YB = BSpecial + S * Degree;
      const uint64_t *YA = ASpecial + S * Degree;
      for (size_t K = 0; K < Degree; ++K) {
        uint64_t TB = shoupMulModLazy(YB[K], H, HShoup, Qv);
        uint64_t TA = shoupMulModLazy(YA[K], H, HShoup, Qv);
        if (S > 0) {
          TB += CorrB[K];
          TA += CorrA[K];
        }
        CorrB[K] = TB >= TwoQ ? TB - TwoQ : TB;
        CorrA[K] = TA >= TwoQ ? TA - TwoQ : TA;
      }
    }
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t CB = CorrB[K] >= Qv ? CorrB[K] - Qv : CorrB[K];
      uint64_t CA = CorrA[K] >= Qv ? CorrA[K] - Qv : CorrA[K];
      CorrB[K] = Q.subMod(CB, BetaP[BetaB[K]]);
      CorrA[K] = Q.subMod(CA, BetaP[BetaA[K]]);
    }
    ChainNtt[J]->forward(CorrB.data());
    ChainNtt[J]->forward(CorrA.data());
    uint64_t Inv = PInvModChain[J];
    uint64_t InvShoup = shoupPrecompute(Inv, Q.value());
    uint64_t *DstB = BChain + J * Degree;
    uint64_t *DstA = AChain + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      DstB[K] = shoupMulMod(Q.subMod(DstB[K], CorrB[K]), Inv, InvShoup,
                            Q.value());
      DstA[K] = shoupMulMod(Q.subMod(DstA[K], CorrA[K]), Inv, InvShoup,
                            Q.value());
    }
  });
}

void RnsCkksBackend::mulAssign(Ct &C, const Ct &Other) {
  int L = C.Level < Other.Level ? C.Level : Other.Level;
  requireKeyLevel(RelinKey, L, 0);
  modSwitchTo(C, L);
  const size_t R = size_t(L) + 1;

  LimbBuffer D0(R * Degree), D1(R * Degree);
  LimbBuffer D2(R * Degree), D2Ntt(R * Degree);
  parallelFor(0, R, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const uint64_t *A0 = C.C0.data() + J * Degree;
    const uint64_t *A1 = C.C1.data() + J * Degree;
    const uint64_t *B0 = Other.C0.data() + J * Degree;
    const uint64_t *B1 = Other.C1.data() + J * Degree;
    uint64_t *O0 = D0.data() + J * Degree;
    uint64_t *O1 = D1.data() + J * Degree;
    uint64_t *O2 = D2.data() + J * Degree;
    uint64_t *O2N = D2Ntt.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      O0[K] = Q.mulMod(A0[K], B0[K]);
      O1[K] = Q.addMod(Q.mulMod(A0[K], B1[K]), Q.mulMod(A1[K], B0[K]));
      O2N[K] = Q.mulMod(A1[K], B1[K]);
    }
    // ModUp needs c1*c1 in coefficient form too; the fused kernel folds
    // the product into the inverse transform's first stage.
    ChainNtt[J]->pointwiseMulInverse(O2, A1, B1);
  });
  KsStats->InverseNtts.fetch_add(R, std::memory_order_relaxed);

  ExtendedBasis Ext = modUp(D2Ntt.data(), D2.data(), L);
  LimbBuffer KB(R * Degree), KA(R * Degree);
  keySwitchJobs(Ext, {{&RelinKey, nullptr, KB.data(), KA.data()}});
  parallelFor(0, R, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    const uint64_t *S0 = D0.data() + J * Degree;
    const uint64_t *S1 = D1.data() + J * Degree;
    const uint64_t *K0 = KB.data() + J * Degree;
    const uint64_t *K1 = KA.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = Q.addMod(S0[K], K0[K]);
      Dst1[K] = Q.addMod(S1[K], K1[K]);
    }
  });
  C.Scale *= Other.Scale;
}

void RnsCkksBackend::rotateByElement(Ct &C, const KSwitchKey &Key,
                                     const std::vector<uint32_t> &Perm) {
  const int L = C.Level;
  const size_t R = size_t(L) + 1;
  // ModUp the *unrotated* c1 and permute the extended basis in the NTT
  // domain: the same lift rotLeftMany's hoisted base uses, so both paths
  // are bit-identical.
  LimbBuffer Coeff(R * Degree);
  parallelFor(0, R, 1, [&](size_t J) {
    uint64_t *Digit = Coeff.data() + J * Degree;
    std::memcpy(Digit, C.C1.data() + J * Degree, Degree * sizeof(uint64_t));
    ChainNtt[J]->inverse(Digit);
  });
  KsStats->InverseNtts.fetch_add(R, std::memory_order_relaxed);
  KsStats->Rotations.fetch_add(1, std::memory_order_relaxed);

  ExtendedBasis Ext = modUp(C.C1.data(), Coeff.data(), L);
  LimbBuffer KB(R * Degree), KA(R * Degree);
  keySwitchJobs(Ext, {{&Key, &Perm, KB.data(), KA.data()}});
  // sigma(c0) is a pure NTT-domain permutation of the stored limbs (the
  // limbs are fully reduced, so no transforms are needed).
  parallelFor(0, R, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    LimbBuffer Sigma(Degree);
    const uint64_t *Src = C.C0.data() + J * Degree;
    const uint64_t *K0 = KB.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Sigma[K] = Q.addMod(Src[Perm[K]], K0[K]);
    std::memcpy(C.C0.data() + J * Degree, Sigma.data(),
                Degree * sizeof(uint64_t));
  });
  std::memcpy(C.C1.data(), KA.data(), R * Degree * sizeof(uint64_t));
}

void RnsCkksBackend::rotLeftAssign(Ct &C, int Steps) {
  size_t Slots = slotCount();
  int64_t S = Steps % static_cast<int64_t>(Slots);
  if (S < 0)
    S += Slots;
  if (S == 0)
    return;

  uint64_t Elt = Encoder.galoisElement(static_cast<int>(S));
  auto It = GaloisKeys.find(Elt);
  if (It != GaloisKeys.end()) {
    requireKeyLevel(It->second, C.Level, Steps);
    rotateByElement(C, It->second, GaloisPerms.at(Elt));
    return;
  }
  // No dedicated key: fall back to the default power-of-two key set,
  // taking the shorter direction (Section 2.4: "use multiple rotations to
  // achieve the desired amount"). Every hop's key is checked before the
  // first one runs, so a failure leaves C untouched.
  int64_t Remaining = S <= static_cast<int64_t>(Slots / 2)
                          ? S
                          : S - static_cast<int64_t>(Slots);
  int Direction = Remaining >= 0 ? 1 : -1;
  uint64_t Mag = static_cast<uint64_t>(Remaining >= 0 ? Remaining
                                                      : -Remaining);
  std::vector<uint64_t> Hops;
  for (int Bit = 0; Mag != 0; ++Bit, Mag >>= 1) {
    if (!(Mag & 1))
      continue;
    int Step = Direction * (1 << Bit);
    uint64_t E = Encoder.galoisElement(Step);
    auto KeyIt = GaloisKeys.find(E);
    if (KeyIt == GaloisKeys.end())
      throw MissingRotationKeyError(formatError(
          "no Galois key for rotation by ", Steps,
          " (power-of-two decomposition needs step ", Step,
          "); available rotation steps: ",
          describeRotationSteps(RotationSteps)));
    requireKeyLevel(KeyIt->second, C.Level, Step);
    Hops.push_back(E);
  }
  for (uint64_t E : Hops)
    rotateByElement(C, GaloisKeys.at(E), GaloisPerms.at(E));
}

std::vector<RnsCkksBackend::Ct>
RnsCkksBackend::rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
  std::vector<Ct> Out(Steps.size());
  const int64_t Slots = static_cast<int64_t>(slotCount());

  // Partition the amounts: zero steps are copies, amounts with a
  // dedicated Galois key serving C's level hoist, the rest run the
  // per-rotation path (whose power-of-two hop chains cannot share one
  // decomposition, and which reports keys generated too short).
  struct HoistAmount {
    size_t Idx;
    const KSwitchKey *Key;
    const std::vector<uint32_t> *Perm;
  };
  std::vector<HoistAmount> Hoist;
  for (size_t I = 0; I < Steps.size(); ++I) {
    int64_t S = Steps[I] % Slots;
    if (S < 0)
      S += Slots;
    if (S == 0) {
      Out[I] = C;
      continue;
    }
    uint64_t Elt = Encoder.galoisElement(static_cast<int>(S));
    auto KeyIt = GaloisKeys.find(Elt);
    if (Hoisting && KeyIt != GaloisKeys.end() &&
        KeyIt->second.Level >= C.Level) {
      Hoist.push_back({I, &KeyIt->second, &GaloisPerms.at(Elt)});
    } else {
      Out[I] = C;
      rotLeftAssign(Out[I], static_cast<int>(S));
    }
  }
  if (Hoist.empty())
    return Out;

  const int L = C.Level;
  const size_t R = size_t(L) + 1;

  // Shared ModUp of c1, once for the whole batch.
  LimbBuffer Coeff(R * Degree);
  parallelFor(0, R, 1, [&](size_t I) {
    uint64_t *Digit = Coeff.data() + I * Degree;
    std::memcpy(Digit, C.C1.data() + I * Degree, Degree * sizeof(uint64_t));
    ChainNtt[I]->inverse(Digit);
  });
  KsStats->InverseNtts.fetch_add(R, std::memory_order_relaxed);
  ExtendedBasis Ext = modUp(C.C1.data(), Coeff.data(), L);

  // Per-amount inner products and ModDowns against the shared basis. KA
  // becomes each output's C1 via move, so it stays a std::vector; the
  // B-side accumulators share one pooled arena.
  const size_t Fan = Hoist.size();
  LimbBuffer KB(Fan * R * Degree);
  std::vector<std::vector<uint64_t>> KA(Fan);
  std::vector<KeySwitchJob> Jobs(Fan);
  for (size_t A = 0; A < Fan; ++A) {
    KA[A].resize(R * Degree);
    Jobs[A] = {Hoist[A].Key, Hoist[A].Perm, KB.data() + A * R * Degree,
               KA[A].data()};
  }
  keySwitchJobs(Ext, Jobs);

  for (size_t A = 0; A < Fan; ++A) {
    Ct &O = Out[Hoist[A].Idx];
    O.Level = L;
    O.Scale = C.Scale;
    O.C1 = std::move(KA[A]);
    O.C0.resize(R * Degree);
    const std::vector<uint32_t> &Perm = *Hoist[A].Perm;
    parallelFor(0, R, 1, [&](size_t J) {
      const Modulus &Q = ChainMods[J];
      const uint64_t *Src = C.C0.data() + J * Degree;
      const uint64_t *K0 = Jobs[A].OutB + J * Degree;
      uint64_t *Dst = O.C0.data() + J * Degree;
      for (size_t K = 0; K < Degree; ++K)
        Dst[K] = Q.addMod(Src[Perm[K]], K0[K]);
    });
  }
  KsStats->Rotations.fetch_add(Fan, std::memory_order_relaxed);
  KsStats->HoistedBatches.fetch_add(1, std::memory_order_relaxed);
  KsStats->HoistedAmounts.fetch_add(Fan, std::memory_order_relaxed);
  return Out;
}

RnsCkksBackend::KeySwitchNttStats RnsCkksBackend::keySwitchNttStats() const {
  KeySwitchNttStats S;
  S.ForwardNtts = KsStats->ForwardNtts.load(std::memory_order_relaxed);
  S.InverseNtts = KsStats->InverseNtts.load(std::memory_order_relaxed);
  S.Rotations = KsStats->Rotations.load(std::memory_order_relaxed);
  S.HoistedBatches =
      KsStats->HoistedBatches.load(std::memory_order_relaxed);
  S.HoistedAmounts =
      KsStats->HoistedAmounts.load(std::memory_order_relaxed);
  return S;
}

void RnsCkksBackend::resetKeySwitchNttStats() {
  KsStats->ForwardNtts.store(0, std::memory_order_relaxed);
  KsStats->InverseNtts.store(0, std::memory_order_relaxed);
  KsStats->Rotations.store(0, std::memory_order_relaxed);
  KsStats->HoistedBatches.store(0, std::memory_order_relaxed);
  KsStats->HoistedAmounts.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Rescaling
//===----------------------------------------------------------------------===//

uint64_t RnsCkksBackend::maxRescale(const Ct &C, uint64_t UpperBound) const {
  // Largest product of the next chain primes that fits under the bound
  // (Section 5.2's RNS semantics). The base prime q_0 is never consumed.
  uint64_t Divisor = 1;
  int Level = C.Level;
  while (Level >= 1) {
    uint64_t Q = Params.ChainPrimes[Level];
    if (Divisor > UpperBound / Q)
      break;
    Divisor *= Q;
    --Level;
  }
  return Divisor;
}

void RnsCkksBackend::dropLastPrime(Ct &C) const {
  int L = C.Level;
  assert(L >= 1 && "cannot rescale past the base prime");
  uint64_t QLast = Params.ChainPrimes[L];
  uint64_t Half = QLast >> 1;
  // Both polynomials' dropped limbs go back to coefficient form up front,
  // then one fused pass per chain prime corrects C0 and C1 together: the
  // modular inverse is computed once per prime (it used to be recomputed
  // per polynomial) and each prime's data makes a single trip through
  // cache.
  LimbBuffer Last0(Degree), Last1(Degree);
  std::memcpy(Last0.data(), C.C0.data() + L * Degree,
              Degree * sizeof(uint64_t));
  std::memcpy(Last1.data(), C.C1.data() + L * Degree,
              Degree * sizeof(uint64_t));
  ChainNtt[L]->inverse(Last0.data());
  ChainNtt[L]->inverse(Last1.data());
  parallelFor(0, size_t(L), 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    LimbBuffer Corr0(Degree), Corr1(Degree);
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t T0 = Last0[K];
      uint64_t T1 = Last1[K];
      Corr0[K] = T0 > Half ? Q.negMod(Q.reduce(QLast - T0)) : Q.reduce(T0);
      Corr1[K] = T1 > Half ? Q.negMod(Q.reduce(QLast - T1)) : Q.reduce(T1);
    }
    ChainNtt[J]->forward(Corr0.data());
    ChainNtt[J]->forward(Corr1.data());
    uint64_t Inv = invMod(Q.reduce(QLast), Q);
    uint64_t InvShoup = shoupPrecompute(Inv, Q.value());
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = shoupMulMod(Q.subMod(Dst0[K], Corr0[K]), Inv, InvShoup,
                            Q.value());
      Dst1[K] = shoupMulMod(Q.subMod(Dst1[K], Corr1[K]), Inv, InvShoup,
                            Q.value());
    }
  });
  C.C0.resize(L * Degree);
  C.C1.resize(L * Degree);
  C.Level = L - 1;
  C.Scale /= static_cast<double>(QLast);
}

void RnsCkksBackend::rescaleAssign(Ct &C, uint64_t Divisor) const {
  while (Divisor > 1) {
    CHET_CHECK(C.Level >= 1, LevelExhausted,
               "rescale exceeds available moduli: divisor ", Divisor,
               " remains but the ciphertext is at the base level");
    uint64_t QLast = Params.ChainPrimes[C.Level];
    CHET_CHECK(Divisor % QLast == 0, InvalidArgument,
               "rescale divisor ", Divisor,
               " was not produced by maxRescale (next chain prime is ",
               QLast, ")");
    dropLastPrime(C);
    Divisor /= QLast;
  }
}
