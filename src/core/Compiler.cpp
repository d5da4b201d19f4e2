//===- Compiler.cpp - The CHET compiler driver -----------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "core/FootprintAnalysis.h"
#include "core/NoiseAnalysis.h"
#include "core/Validate.h"
#include "core/Verifier.h"
#include "runtime/ReferenceOps.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <cmath>

using namespace chet;
using chet::detail::minLogNForData;
using chet::detail::scalePrimeBits;

bool chet::narrowChainRequested(PrimeChainWidth Width) {
  if (Width != PrimeChainWidth::Auto)
    return Width == PrimeChainWidth::Narrow;
  static const bool EnvNarrow = [] {
    const char *Env = std::getenv("CHET_NARROW_PRIMES");
    return Env && (Env[0] == '1' || Env[0] == 't' || Env[0] == 'T' ||
                   ((Env[0] == 'o' || Env[0] == 'O') &&
                    (Env[1] == 'n' || Env[1] == 'N')));
  }();
  return EnvNarrow;
}

namespace {

struct PolicyRun {
  PolicyAnalysis Info;
  int ConsumedPrimes = 0;
  int ExtraPrimes = 0;
  double LogConsumed = 0;
  bool Feasible = true;
  /// RNS: the chain and key-switching layout this policy compiles to.
  RnsCkksParams Rns;
  std::map<int, int> RotationLevels;
  int MulLevel = -1;
};

/// The compiled RNS chain: base prime, then the reserve primes, then the
/// consumed candidates in reverse -- the backend rescales from the
/// chain's tail, so it consumes candidates in exactly the order the
/// analysis did.
std::vector<uint64_t> compiledChain(uint64_t FirstPrime,
                                    const std::vector<uint64_t> &Candidates,
                                    int Consumed, int Extra) {
  std::vector<uint64_t> Chain = {FirstPrime};
  for (int I = 0; I < Extra; ++I)
    Chain.push_back(Candidates[Consumed + I]);
  for (int I = Consumed - 1; I >= 0; --I)
    Chain.push_back(Candidates[I]);
  return Chain;
}

/// Runs the modulus analysis (phase 1) and the cost analysis (phase 2)
/// for one layout policy, iterating the ring dimension to a fixpoint
/// between data fit, modulus budget, and the security table (the
/// interdependence discussed in Section 3.1).
PolicyRun analyzePolicy(const TensorCircuit &Circ,
                        const CompilerOptions &Options, LayoutPolicy Policy,
                        uint64_t FirstPrime,
                        const std::vector<uint64_t> &ScaleCandidates) {
  PolicyRun Run;
  Run.Info.Policy = Policy;
  const OpNode &In = Circ.ops().front();
  Tensor3 Dummy(In.C, In.H, In.W);

  int LogN = minLogNForData(Circ);
  double LogQ = 0, LogQP = 0;
  int ChainPrimes = 0;
  for (;;) {
    AnalysisConfig C1;
    C1.Scheme = Options.Scheme;
    C1.LogN = LogN;
    C1.ScalePrimeCandidates = ScaleCandidates;
    AnalysisBackend B1(C1);
    double OutScaleLog = 0;
    try {
      TensorLayout L = circuitInputLayout(Circ, Policy, B1.slotCount());
      auto Enc = encryptTensor(B1, Dummy, L, Options.Scales);
      auto Out = evaluateCircuit(B1, Circ, Enc, Options.Scales, Policy);
      OutScaleLog = std::log2(Out.scale(B1));
    } catch (const ChetError &) {
      // A kernel rejected the circuit under this policy (scale or
      // layout misuse the analysis can detect without data). Mark the
      // policy infeasible; validateCircuit re-derives the details when
      // every policy fails.
      Run.Feasible = false;
      Run.Info.LogN = LogN;
      Run.Info.EstimatedCost = std::numeric_limits<double>::infinity();
      return Run;
    }
    double Need = OutScaleLog + Options.OutputPrecisionBits;

    if (Options.Scheme == SchemeKind::RnsCkks) {
      Run.ConsumedPrimes = B1.maxConsumedPrimes();
      double ConsumedBits = 0;
      for (int I = 0; I < Run.ConsumedPrimes; ++I)
        ConsumedBits += std::log2(static_cast<double>(ScaleCandidates[I]));
      // Reserve enough unconsumed modulus (q_0 plus extra primes) to hold
      // the output at its scale plus the precision headroom.
      double Reserve = Options.FirstPrimeBits;
      Run.ExtraPrimes = 0;
      while (Reserve < Need) {
        size_t Index = Run.ConsumedPrimes + Run.ExtraPrimes;
        if (Index >= ScaleCandidates.size()) {
          // The global candidate modulus list cannot cover this policy's
          // rescale chain plus output headroom; validateCircuit reports
          // the details if every policy ends up infeasible.
          Run.Feasible = false;
          Run.Info.LogN = LogN;
          Run.Info.EstimatedCost = std::numeric_limits<double>::infinity();
          return Run;
        }
        Reserve += std::log2(static_cast<double>(ScaleCandidates[Index]));
        ++Run.ExtraPrimes;
      }
      LogQ = ConsumedBits + Reserve;
      ChainPrimes = 1 + Run.ConsumedPrimes + Run.ExtraPrimes;
      LogQP = LogQ + Options.FirstPrimeBits;
    } else {
      Run.LogConsumed = B1.maxLogConsumed();
      LogQ = std::ceil(Run.LogConsumed + Need);
      LogQP = 2 * LogQ; // LogSpecial = LogQ, HEAAN style
    }

    int SecLogN = minLogNForLogQ(static_cast<int>(std::ceil(LogQP)),
                                 Options.Security);
    if (SecLogN == -1 || std::max(LogN, SecLogN) > Options.MaxLogN) {
      // This policy consumes more modulus than any permissible ring
      // dimension provides at the requested security level. Mark it
      // infeasible; the driver fails only if every policy is.
      Run.Feasible = false;
      Run.Info.LogN = LogN;
      Run.Info.LogQ = LogQ;
      Run.Info.LogQP = LogQP;
      Run.Info.EstimatedCost = std::numeric_limits<double>::infinity();
      return Run;
    }
    int NewLogN = std::max(LogN, SecLogN);
    if (NewLogN == LogN)
      break;
    LogN = NewLogN; // slot-dependent choices change; re-analyze
  }

  // Key-switching layout: N and the chain are fixed; spend the rest of
  // the security budget on the special modulus, taking the fewest digits
  // whose just-large-enough P still fits.
  KeySwitchLayout Layout;
  if (Options.Scheme == SchemeKind::RnsCkks) {
    Run.Rns.ChainPrimes = compiledChain(FirstPrime, ScaleCandidates,
                                        Run.ConsumedPrimes, Run.ExtraPrimes);
    if (!Run.Rns.selectKeySwitchLayout(
            maxLogQForSecurity(LogN, Options.Security),
            Options.FirstPrimeBits))
      Run.Rns.SpecialPrimes = {
          RnsCkksParams::candidateSpecial(Options.FirstPrimeBits)};
    Layout = Run.Rns.keySwitchLayout();
    LogQP = Run.Rns.logQP();
    Run.Info.KsDigits = static_cast<int>(Run.Rns.digitCount());
    Run.Info.KsSpecialPrimes = static_cast<int>(Layout.SpecialPrimes);
  }

  // Phase 2: cost + rotation-set analysis at the chosen dimension.
  CostModel Model = CostModel::create(
      Options.Scheme, LogN,
      Options.Scheme == SchemeKind::BigCkks ? LogQ : 0, std::move(Layout),
      Run.Rns.ChainPrimes);
  AnalysisConfig C2;
  C2.Scheme = Options.Scheme;
  C2.LogN = LogN;
  C2.ScalePrimeCandidates = ScaleCandidates;
  C2.Cost = &Model;
  C2.TotalChainPrimes = ChainPrimes;
  C2.TotalLogQ = LogQ;
  C2.SelectedRotationKeys = Options.SelectRotationKeys;
  C2.HoistedRotationPricing = Options.HoistedRotationCost;
  AnalysisBackend B2(C2);
  TensorLayout L = circuitInputLayout(Circ, Policy, B2.slotCount());
  auto Enc = encryptTensor(B2, Dummy, L, Options.Scales);
  (void)evaluateCircuit(B2, Circ, Enc, Options.Scales, Policy);

  Run.Info.LogN = LogN;
  Run.Info.LogQ = LogQ;
  Run.Info.LogQP = LogQP;
  Run.Info.ChainPrimes = ChainPrimes;
  Run.Info.EstimatedCost = B2.totalCost();
  Run.Info.RotationSteps = B2.rotationSteps();
  Run.RotationLevels = B2.rotationLevels();
  Run.MulLevel = B2.mulLevel();
  return Run;
}

} // namespace

CompiledCircuit chet::compileCircuit(const TensorCircuit &Circ,
                                     const CompilerOptions &Options) {
  // The global pre-generated candidate modulus list (Section 5.2). The
  // narrow-chain policy caps scale primes at the packed-NTT word bound;
  // the scalePrimeBits floor of 29 keeps the cap inside the [29, 30]
  // range where the q = 1 mod 2^17 class still holds enough primes.
  int ScaleBits = scalePrimeBits(Options.Scales);
  if (Options.Scheme == SchemeKind::RnsCkks &&
      narrowChainRequested(Options.ChainWidth))
    ScaleBits = std::min(ScaleBits, kNarrowPrimeBits);
  std::vector<uint64_t> Chain =
      RnsCkksParams::candidateChain(65, Options.FirstPrimeBits, ScaleBits);
  uint64_t FirstPrime = Chain.front();
  std::vector<uint64_t> ScaleCandidates(Chain.begin() + 1, Chain.end());

  std::vector<LayoutPolicy> Policies;
  if (Options.SearchLayouts)
    Policies.assign(std::begin(kAllLayoutPolicies),
                    std::end(kAllLayoutPolicies));
  else
    Policies.push_back(Options.FixedPolicy);

  CompiledCircuit Result;
  Result.Scheme = Options.Scheme;
  Result.Scales = Options.Scales;
  Result.PadPhys = Circ.padPhysNeeded();

  std::optional<PolicyRun> Best;
  for (LayoutPolicy Policy : Policies) {
    PolicyRun Run =
        analyzePolicy(Circ, Options, Policy, FirstPrime, ScaleCandidates);
    Result.PerPolicy.push_back(Run.Info);
    if (!Run.Feasible)
      continue;
    if (!Best || Run.Info.EstimatedCost < Best->Info.EstimatedCost)
      Best = std::move(Run);
  }
  if (!Best) {
    // Re-run the analyses in diagnostic mode so the error lists every
    // violation of every candidate policy, not just "compilation failed".
    ValidationReport Report = validateCircuit(Circ, Options);
    throw InfeasibleCircuitError(formatError(
        "no layout policy fits any tabulated ring dimension at the "
        "requested security level; ",
        Report.str()));
  }

  Result.Policy = Best->Info.Policy;
  Result.LogN = Best->Info.LogN;
  Result.LogQ = Best->Info.LogQ;
  Result.EstimatedCost = Best->Info.EstimatedCost;
  if (Options.SelectRotationKeys)
    Result.RotationKeys.assign(Best->Info.RotationSteps.begin(),
                               Best->Info.RotationSteps.end());

  if (Options.Scheme == SchemeKind::RnsCkks) {
    RnsCkksParams P = Best->Rns;
    P.LogN = Result.LogN;
    P.Security = Options.Security;
    P.StockPow2Keys = !Options.SelectRotationKeys;
    Result.Rns = std::move(P);
    if (Options.SelectRotationKeys)
      Result.RotationKeyLevels = Best->RotationLevels;
    // A circuit without ciphertext multiplies still gets the smallest
    // relinearization key rather than none.
    Result.RelinKeyLevel = std::max(0, Best->MulLevel);
  } else {
    BigCkksParams P;
    P.LogN = Result.LogN;
    P.LogQ = static_cast<int>(Result.LogQ);
    P.LogSpecial = 0; // defaults to LogQ
    P.Security = Options.Security;
    P.StockPow2Keys = !Options.SelectRotationKeys;
    Result.Big = std::move(P);
  }

  if (Options.PostCompileVerify) {
    VerifierOptions VOpts;
    VerificationReport VR = verifyCircuit(Circ, Result, VOpts);
    if (!VR.ok())
      throw InfeasibleCircuitError(
          formatError("post-compile verification failed; ", VR.str()));
    for (VerifierDiagnostic &D : VR.Diagnostics)
      Result.Warnings.push_back(std::move(D));
  }

  if (Options.StaticNoiseAnalysis) {
    NoiseAnalysisOptions NOpts;
    NOpts.InputAbs = Options.NoiseInputAbs;
    NoiseReport NR = analyzeNoise(Circ, Result, NOpts);
    Result.Noise = NR.summary();
    if (Options.MaxOutputError > 0 &&
        NR.ErrorBound > Options.MaxOutputError)
      throw PrecisionBoundError(formatError(
          "the static worst-case output error ", NR.ErrorBound,
          " exceeds the requested precision ", Options.MaxOutputError,
          "; ", NR.str()));
  }

  if (Options.StaticFootprintAnalysis) {
    FootprintAnalysisOptions FOpts;
    FOpts.Threads = Options.FootprintThreads;
    Result.Footprint = analyzeFootprint(Circ, Result, FOpts).summary();
  }
  return Result;
}

RnsCkksBackend chet::makeRnsBackend(const CompiledCircuit &Compiled,
                                    uint64_t Seed) {
  CHET_CHECK(Compiled.Rns.has_value(), InvalidArgument,
             "compiled circuit does not target RNS-CKKS");
  RnsCkksParams P = *Compiled.Rns;
  P.Seed = Seed;
  RnsCkksBackend Backend(P, Compiled.RelinKeyLevel);
  if (!Compiled.RotationKeys.empty()) {
    std::vector<int> Levels;
    if (!Compiled.RotationKeyLevels.empty())
      for (int Step : Compiled.RotationKeys) {
        auto It = Compiled.RotationKeyLevels.find(Step);
        Levels.push_back(It != Compiled.RotationKeyLevels.end()
                             ? It->second
                             : Backend.maxLevel());
      }
    Backend.generateRotationKeys(Compiled.RotationKeys, Levels);
  }
  return Backend;
}

BigCkksBackend chet::makeBigBackend(const CompiledCircuit &Compiled,
                                    uint64_t Seed) {
  CHET_CHECK(Compiled.Big.has_value(), InvalidArgument,
             "compiled circuit does not target big-CKKS");
  BigCkksParams P = *Compiled.Big;
  P.Seed = Seed;
  BigCkksBackend Backend(P);
  if (!Compiled.RotationKeys.empty())
    Backend.generateRotationKeys(Compiled.RotationKeys);
  return Backend;
}

namespace {

/// Encoded-plaintext caches held across the trials of one scale search.
/// Backend instances are rebuilt per trial, but the encodings (and their
/// per-prime NTT forms) only depend on the scale configuration and the
/// compiled parameters, which only change when the scales do -- and
/// evaluateCircuit's noteScales hook drops the caches exactly then.
struct ScaleSearchCaches {
  EncodedPlaintextCache<RnsCkksBackend> Rns;
  EncodedPlaintextCache<BigCkksBackend> Big;
};

/// Largest output error of encrypted inference vs the plain reference
/// over the test inputs, for one candidate scale configuration.
double maxOutputError(const TensorCircuit &Circ,
                      const CompilerOptions &Options,
                      const CompiledCircuit &Compiled,
                      const std::vector<Tensor3> &Inputs,
                      ScaleSearchCaches *Caches = nullptr) {
  double MaxErr = 0;
  auto RunAll = [&](auto &Backend, auto *PtCache) {
    for (const Tensor3 &Image : Inputs) {
      Tensor3 Got = runEncryptedInference(Backend, Circ, Image,
                                          Options.Scales, Compiled.Policy,
                                          FcAlgorithm::Auto, PtCache);
      Tensor3 Want = Circ.evaluatePlain(Image);
      MaxErr = std::max(MaxErr, maxAbsDiff(Got, Want));
    }
  };
  if (Options.Scheme == SchemeKind::RnsCkks) {
    RnsCkksBackend Backend = makeRnsBackend(Compiled);
    RunAll(Backend, Caches ? &Caches->Rns : nullptr);
  } else {
    BigCkksBackend Backend = makeBigBackend(Compiled);
    RunAll(Backend, Caches ? &Caches->Big : nullptr);
  }
  return MaxErr;
}

} // namespace

ScaleSearchResult chet::selectScales(const TensorCircuit &Circ,
                                     const CompilerOptions &Options,
                                     const std::vector<Tensor3> &TestInputs,
                                     const ScaleSearchOptions &Search) {
  CHET_CHECK(!TestInputs.empty(), InvalidArgument,
             "scale search needs at least one test input");
  CompilerOptions Current = Options;
  ScaleSearchResult Result;
  ScaleSearchCaches Caches; // shared across trials, see above

  auto Acceptable = [&](const CompilerOptions &Cand) {
    ++Result.Trials;
    // Precision enforcement belongs to the caller's final compile; the
    // search probes candidates report-only so its accept/reject
    // decisions are identical with or without the static bound.
    CompilerOptions Probe = Cand;
    Probe.MaxOutputError = 0;
    CompiledCircuit Compiled = compileCircuit(Circ, Probe);
    if (Search.UseStaticBound && Compiled.Noise.Analyzed &&
        Compiled.Noise.ErrorBound <= Search.Tolerance) {
      // The static bound already proves every input's encrypted output
      // lands within tolerance; the trial run could only have agreed.
      ++Result.StaticAccepts;
      return true;
    }
    ++Result.EncryptedRuns;
    return maxOutputError(Circ, Probe, Compiled, TestInputs, &Caches) <=
           Search.Tolerance;
  };

  // The starting point must itself be acceptable; otherwise report the
  // originals untouched (the user must raise the starting scales).
  if (!Acceptable(Current)) {
    Result.Scales = Options.Scales;
    return Result;
  }

  // Round-robin descent over (Pc, Pw, Pu, Pm), Section 5.5: decrease one
  // exponent at a time while every test input stays within tolerance.
  int Exponents[4] = {
      static_cast<int>(std::lround(std::log2(Current.Scales.Image))),
      static_cast<int>(std::lround(std::log2(Current.Scales.Weight))),
      static_cast<int>(std::lround(std::log2(Current.Scales.Scalar))),
      static_cast<int>(std::lround(std::log2(Current.Scales.Mask)))};
  bool Stuck[4] = {false, false, false, false};
  int Role = 0;
  int StuckCount = 0;
  while (StuckCount < 4) {
    if (Stuck[Role]) {
      Role = (Role + 1) % 4;
      continue;
    }
    int Candidate = Exponents[Role] - Search.StepBits;
    if (Candidate < Search.MinExponent) {
      Stuck[Role] = true;
      ++StuckCount;
      Role = (Role + 1) % 4;
      continue;
    }
    CompilerOptions Trial = Current;
    int E[4] = {Exponents[0], Exponents[1], Exponents[2], Exponents[3]};
    E[Role] = Candidate;
    Trial.Scales = ScaleConfig::fromExponents(E[0], E[1], E[2], E[3]);
    if (Acceptable(Trial)) {
      Exponents[Role] = Candidate;
      Current = Trial;
      ++Result.AcceptedSteps;
    } else {
      Stuck[Role] = true;
      ++StuckCount;
    }
    Role = (Role + 1) % 4;
  }
  Result.Scales = Current.Scales;
  return Result;
}
