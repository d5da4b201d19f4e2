//===- VerifierBackend.h - Abstract-interpretation lint backend -*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verifier's interpretation of the HISA: a backend whose ciphertext
/// is an abstract state (scale, remaining modulus, multiplicative depth,
/// provenance) and whose instructions *record* violations instead of
/// throwing. Where the real schemes and the AnalysisBackend stop at the
/// first ChetError, this backend pushes a diagnostic and keeps
/// interpreting with a repaired state, so one pass over a compiled
/// circuit reports every scale mismatch, chain exhaustion, and unservable
/// rotation at once -- the all-at-once property of ValidationReport,
/// extended to post-compile artifacts.
///
/// Provenance: the backend is a HisaProvenanceSink, so the evaluator
/// tells it which tensor-circuit node (and network layer label) the
/// subsequent instructions belong to. Every Ct remembers the node whose
/// kernel last produced its value, which lets a scale-mismatch diagnostic
/// name *both* operands' originating layers, not just the op that
/// tripped.
///
/// The scale/modulus arithmetic deliberately replicates AnalysisBackend
/// (Analysis.cpp) bit for bit -- same tolerance, same candidate-list
/// consumption order -- so a circuit the compiler accepted never
/// false-positives here. Unlike the analysis backend it keeps no per-op
/// string histogram: verification runs once per compile and must stay a
/// small fraction of compile time.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_VERIFIERBACKEND_H
#define CHET_HISA_VERIFIERBACKEND_H

#include "hisa/Hisa.h"
#include "support/Error.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace chet {

/// Abstract machine the verifier interprets against, extracted from a
/// CompiledCircuit (see Verifier.cpp) or hand-built by tests.
struct VerifierBackendConfig {
  /// RNS-CKKS (true) or big-modulus CKKS (false) rescale semantics.
  bool Rns = true;
  int LogN = 13;
  /// RNS: scaling moduli in consumption order (the compiled chain's tail
  /// reversed -- the order the analysis consumed them in).
  std::vector<uint64_t> ScalePrimeCandidates;
  /// CKKS: total log2 rescale budget; 0 disables the check.
  double LogQBudget = 0;
  /// Normalized left-rotation steps with dedicated Galois keys.
  std::set<int> AvailableRotationSteps;
  /// True when the backend holds the stock power-of-two key set (every
  /// rotation is servable by decomposition).
  bool StockPow2Keys = false;
  /// RNS: the highest ciphertext level each selected Galois key is
  /// generated to (steps missing from the map have full-level keys).
  std::map<int, int> RotationKeyLevels;
  /// RNS: the level the relinearization key is generated to (-1: full).
  int RelinKeyLevel = -1;
  /// Relative tolerance of the addition scale check (AnalysisBackend's
  /// analysisScalesMatch uses 1e-6).
  double ScaleTolerance = 1e-6;
  /// Smallest scale a rescale may land on; 0 disables the waterline
  /// warning.
  double MinScaleFloor = 0;
};

/// One deduplicated finding. Count accumulates repeats of the same
/// (code, node, instruction) triple; Message keeps the first occurrence.
struct VerifierEvent {
  Severity Sev = Severity::Error;
  ErrorCode Code = ErrorCode::InvalidArgument;
  const char *HisaOp = "";
  int NodeId = -1; ///< Tensor-circuit node; -1 = input packing.
  std::string Message;
  uint64_t Count = 1;
};

/// Per-node activity, in evaluation order. Row 0 is the synthetic
/// "input packing" node covering instructions issued before the first
/// beginNode (encryptTensor runs outside the evaluator loop).
struct VerifierNodeStats {
  int NodeId = -1;
  std::string Label;
  uint64_t CtMuls = 0;
  uint64_t PtMuls = 0;
  uint64_t ScalarMuls = 0;
  uint64_t Rotations = 0;
  int LevelsConsumed = 0;   ///< RNS: primes shed by rescales in this node,
                            ///< summed over every ciphertext it touches.
  double LogConsumed = 0;   ///< CKKS: modulus bits shed in this node.
  int MaxDepth = 0;         ///< Largest ct-ct multiply depth reached.
  int DeepestLevels = 0;    ///< RNS: most primes any single ciphertext
                            ///< shed inside this node (its depth cost).
  double DeepestLog = 0;    ///< CKKS: same, in modulus bits.
};

/// HISA implementation over verification metadata; see the file comment.
class VerifierBackend {
public:
  struct Ct {
    double Scale = 1.0;
    int ConsumedPrimes = 0;   ///< RNS: index into the candidate list.
    double LogConsumed = 0.0; ///< CKKS: log2 of the divisor product.
    int MulDepth = 0;         ///< Ciphertext-ciphertext multiply depth.
    int OriginNode = -1;      ///< Node whose kernel produced this value.
    int RotEvent = -1;        ///< Rotation whose output this still is.
    int EntryNode = -2;       ///< Node whose depth window this value is in.
    int EntryPrimes = 0;      ///< ConsumedPrimes on entering EntryNode.
    double EntryLog = 0.0;    ///< LogConsumed on entering EntryNode.
  };
  struct Pt {
    double Scale = 1.0;
  };

  explicit VerifierBackend(const VerifierBackendConfig &ConfigIn)
      : Config(ConfigIn), Slots(size_t(1) << (ConfigIn.LogN - 1)) {
    // Row 0: instructions before the first beginNode (input packing).
    Stats.push_back({-1, "input packing"});
    EffectiveKeys = Config.AvailableRotationSteps;
    if (Config.StockPow2Keys)
      for (size_t Bit = 1; Bit < Slots; Bit <<= 1) {
        EffectiveKeys.insert(static_cast<int>(Bit));
        EffectiveKeys.insert(static_cast<int>(Slots - Bit));
      }
  }

  //===--------------------------------------------------------------===//
  // Provenance sink.
  //===--------------------------------------------------------------===//

  void beginNode(int NodeId, const std::string &Label) {
    CurrentNode = NodeId;
    Stats.push_back({NodeId, Label});
  }

  //===--------------------------------------------------------------===//
  // HISA instructions.
  //===--------------------------------------------------------------===//

  size_t slotCount() const { return Slots; }

  Pt encode(const std::vector<double> &Values, double Scale) {
    (void)Values;
    return Pt{Scale};
  }
  std::vector<double> decode(const Pt &P) const {
    (void)P;
    return {};
  }
  Ct encrypt(const Pt &P) {
    Ct C;
    C.Scale = P.Scale;
    C.OriginNode = CurrentNode;
    return C;
  }
  Pt decrypt(const Ct &C) const {
    useValue(C);
    return Pt{C.Scale};
  }
  /// Copies are provenance-transparent: the copy still *is* the source
  /// rotation's output, and copying alone is not a use of it.
  Ct copy(const Ct &C) const { return C; }
  void freeCt(Ct &C) const { (void)C; }

  void rotLeftAssign(Ct &C, int Steps) {
    int64_t S = Steps % static_cast<int64_t>(Slots);
    if (S < 0)
      S += static_cast<int64_t>(Slots);
    if (S == 0)
      return; // complete no-op, exactly as the real backends treat it
    if (!rotationServable(static_cast<int>(S)))
      record(Severity::Error, ErrorCode::MissingRotationKey, "rotLeftAssign",
             formatError("rotation by ", S,
                         " slots has no Galois key in the selected set ",
                         describeRotationSteps(Config.AvailableRotationSteps),
                         " and no power-of-two decomposition covers it"));
    else
      checkKeyLevel("rotLeftAssign", C, static_cast<int>(S));
    int Source = C.RotEvent;
    useValue(C);
    RotEvents.push_back({static_cast<int>(S), Source, 0, CurrentNode});
    C.RotEvent = static_cast<int>(RotEvents.size()) - 1;
    C.OriginNode = CurrentNode;
    ++Stats.back().Rotations;
  }
  void rotRightAssign(Ct &C, int Steps) { rotLeftAssign(C, -Steps); }

  /// Rotation fan-out: every amount is checked for key coverage and
  /// counted as its own rotation event, so one hoisted batch over F
  /// amounts looks to the audits exactly like F rotations of the shared
  /// source -- each amount reads the source once (F uses total), which
  /// also keeps the redundant-rotation scan from proposing to fuse
  /// through a multiply-consumed intermediate.
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
    std::vector<Ct> Out;
    Out.reserve(Steps.size());
    for (int Raw : Steps) {
      int64_t S = Raw % static_cast<int64_t>(Slots);
      if (S < 0)
        S += static_cast<int64_t>(Slots);
      Ct O = C;
      if (S == 0) { // complete no-op amount, as in the real backends
        Out.push_back(std::move(O));
        continue;
      }
      if (!rotationServable(static_cast<int>(S)))
        record(Severity::Error, ErrorCode::MissingRotationKey, "rotLeftMany",
               formatError("hoisted rotation by ", S,
                           " slots has no Galois key in the selected set ",
                           describeRotationSteps(Config.AvailableRotationSteps),
                           " and no power-of-two decomposition covers it"));
      else
        checkKeyLevel("rotLeftMany", C, static_cast<int>(S));
      int Source = C.RotEvent;
      useValue(C);
      RotEvents.push_back({static_cast<int>(S), Source, 0, CurrentNode});
      O.RotEvent = static_cast<int>(RotEvents.size()) - 1;
      O.OriginNode = CurrentNode;
      ++Stats.back().Rotations;
      Out.push_back(std::move(O));
    }
    return Out;
  }

  void addAssign(Ct &C, const Ct &Other) {
    checkAdditionScales("addAssign", C, Other.Scale, Other.OriginNode);
    consumeBinary(C, Other);
  }
  void subAssign(Ct &C, const Ct &Other) {
    checkAdditionScales("subAssign", C, Other.Scale, Other.OriginNode);
    consumeBinary(C, Other);
  }
  void addPlainAssign(Ct &C, const Pt &P) {
    checkAdditionScales("addPlainAssign", C, P.Scale, -2);
    consumeUnary(C);
  }
  void subPlainAssign(Ct &C, const Pt &P) {
    checkAdditionScales("subPlainAssign", C, P.Scale, -2);
    consumeUnary(C);
  }
  void addScalarAssign(Ct &C, double X) {
    (void)X; // scalar additions are scale-free, as in AnalysisBackend
    consumeUnary(C);
  }
  void subScalarAssign(Ct &C, double X) { addScalarAssign(C, X); }

  void mulAssign(Ct &C, const Ct &Other) {
    int Depth = (C.MulDepth > Other.MulDepth ? C.MulDepth : Other.MulDepth) + 1;
    int Level = std::min(levelOf(C), levelOf(Other));
    if (Config.Rns && Config.RelinKeyLevel >= 0 &&
        Level > Config.RelinKeyLevel)
      record(Severity::Error, ErrorCode::MissingRotationKey, "mulAssign",
             formatError("ciphertext multiply at level ", Level,
                         " exceeds the relinearization key's generated "
                         "level ",
                         Config.RelinKeyLevel));
    consumeBinary(C, Other);
    C.MulDepth = Depth;
    C.Scale *= Other.Scale;
    ++Stats.back().CtMuls;
    if (Depth > Stats.back().MaxDepth)
      Stats.back().MaxDepth = Depth;
  }
  void mulPlainAssign(Ct &C, const Pt &P) {
    consumeUnary(C);
    C.Scale *= P.Scale;
    ++Stats.back().PtMuls;
  }
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) {
    (void)X;
    consumeUnary(C);
    C.Scale *= static_cast<double>(Scale);
    ++Stats.back().ScalarMuls;
  }

  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) const {
    if (!Config.Rns) {
      if (UpperBound < 2)
        return 1;
      int Bits = 63 - __builtin_clzll(UpperBound);
      return uint64_t(1) << Bits;
    }
    // A bound >= 2 is a genuine rescale request (rescaleToFloor returns
    // early below that); answering it with an exhausted candidate list
    // means the compiled chain has no level left for this multiply.
    if (UpperBound >= 2 &&
        C.ConsumedPrimes >=
            static_cast<int>(Config.ScalePrimeCandidates.size()))
      record(Severity::Error, ErrorCode::LevelExhausted, "maxRescale",
             formatError("rescale requested at scale ", C.Scale,
                         " but the modulus chain is exhausted (all ",
                         Config.ScalePrimeCandidates.size(),
                         " scaling primes consumed)"));
    uint64_t Divisor = 1;
    size_t Index = static_cast<size_t>(C.ConsumedPrimes);
    while (Index < Config.ScalePrimeCandidates.size()) {
      uint64_t Q = Config.ScalePrimeCandidates[Index];
      if (Divisor > UpperBound / Q)
        break;
      Divisor *= Q;
      ++Index;
    }
    return Divisor;
  }

  void rescaleAssign(Ct &C, uint64_t Divisor) {
    if (Divisor <= 1)
      return;
    consumeUnary(C);
    // Open this value's per-node depth window on its first rescale in the
    // current node: the window's growth is the node's depth cost for this
    // one ciphertext, as opposed to LevelsConsumed/LogConsumed which sum
    // over every ciphertext the node touches.
    if (C.EntryNode != CurrentNode) {
      C.EntryNode = CurrentNode;
      C.EntryPrimes = C.ConsumedPrimes;
      C.EntryLog = C.LogConsumed;
    }
    if (!Config.Rns) {
      double Bits = std::log2(static_cast<double>(Divisor));
      C.LogConsumed += Bits;
      C.Scale /= static_cast<double>(Divisor);
      Stats.back().LogConsumed += Bits;
      if (C.LogConsumed - C.EntryLog > Stats.back().DeepestLog)
        Stats.back().DeepestLog = C.LogConsumed - C.EntryLog;
      if (Config.LogQBudget > 0 && C.LogConsumed > Config.LogQBudget)
        record(Severity::Error, ErrorCode::LevelExhausted, "rescaleAssign",
               formatError("rescale chain consumed ", C.LogConsumed,
                           " bits of modulus, exceeding the compiled logQ "
                           "budget of ",
                           Config.LogQBudget, " bits"));
    } else {
      while (Divisor > 1) {
        if (C.ConsumedPrimes >=
            static_cast<int>(Config.ScalePrimeCandidates.size())) {
          // Exhaustion already recorded by maxRescale; stop consuming.
          break;
        }
        uint64_t Q = Config.ScalePrimeCandidates[C.ConsumedPrimes];
        if (Divisor % Q != 0)
          break; // divisor not from maxRescale; nothing sane to shed
        Divisor /= Q;
        C.Scale /= static_cast<double>(Q);
        ++C.ConsumedPrimes;
        ++Stats.back().LevelsConsumed;
        if (C.ConsumedPrimes - C.EntryPrimes > Stats.back().DeepestLevels)
          Stats.back().DeepestLevels = C.ConsumedPrimes - C.EntryPrimes;
      }
    }
    if (Config.MinScaleFloor > 0 &&
        C.Scale < Config.MinScaleFloor * (1.0 - Config.ScaleTolerance))
      record(Severity::Warning, ErrorCode::ScaleMismatch, "rescaleAssign",
             formatError("rescale left the scale at ", C.Scale,
                         ", below the minimum scale floor ",
                         Config.MinScaleFloor,
                         "; downstream additions lose precision"));
  }

  double scaleOf(const Ct &C) const { return C.Scale; }

  //===--------------------------------------------------------------===//
  // Verification results.
  //===--------------------------------------------------------------===//

  /// Runs the post-pass audits (currently the redundant-rotation scan)
  /// and appends their findings to events(). Call once, after the
  /// evaluation finished.
  void finishAudits() {
    for (const RotationEvent &E : RotEvents) {
      if (E.Source < 0)
        continue;
      const RotationEvent &Src = RotEvents[static_cast<size_t>(E.Source)];
      if (Src.Uses != 1)
        continue; // the intermediate has other consumers; not fusible
      int64_t Fused = (static_cast<int64_t>(Src.Steps) + E.Steps) %
                      static_cast<int64_t>(Slots);
      recordAt(Severity::Warning, ErrorCode::RedundantRotation,
               "rotLeftAssign", E.NodeId,
               formatError("rotation by ", Src.Steps,
                           " feeds only another rotation by ", E.Steps,
                           "; fusing them into a single rotation by ", Fused,
                           " saves one key switch"));
    }
  }

  const std::vector<VerifierEvent> &events() const { return Events; }
  const std::vector<VerifierNodeStats> &nodeStats() const { return Stats; }

private:
  /// One executed rotation, for the redundant-rotation audit: Uses counts
  /// how many instructions read the rotated value before anything
  /// overwrote it.
  struct RotationEvent {
    int Steps = 0;
    int Source = -1; ///< Rotation whose un-consumed output we rotated.
    int Uses = 0;
    int NodeId = -1;
  };

  void useValue(const Ct &C) const {
    if (C.RotEvent >= 0)
      ++RotEvents[static_cast<size_t>(C.RotEvent)].Uses;
  }

  /// Common tail of every value-mutating instruction: the old value is
  /// consumed, the result is no rotation output, and it originates here.
  void consumeUnary(Ct &C) {
    useValue(C);
    C.RotEvent = -1;
    C.OriginNode = CurrentNode;
  }
  void consumeBinary(Ct &C, const Ct &Other) {
    useValue(Other);
    consumeUnary(C);
    // Level alignment: the deeper history dominates (AnalysisBackend).
    if (Other.ConsumedPrimes > C.ConsumedPrimes)
      C.ConsumedPrimes = Other.ConsumedPrimes;
    if (Other.LogConsumed > C.LogConsumed)
      C.LogConsumed = Other.LogConsumed;
    if (Other.MulDepth > C.MulDepth)
      C.MulDepth = Other.MulDepth;
  }

  bool scalesMatch(double A, double B) const {
    double Ratio = A / B;
    return Ratio > 1.0 - Config.ScaleTolerance &&
           Ratio < 1.0 + Config.ScaleTolerance;
  }

  /// \p OtherOrigin: a node id, or -2 for a plaintext operand.
  void checkAdditionScales(const char *Op, const Ct &C, double OtherScale,
                           int OtherOrigin) {
    if (scalesMatch(C.Scale, OtherScale))
      return;
    std::string OtherDesc =
        OtherOrigin == -2 ? std::string("encoded plaintext")
                          : "value from " + originName(OtherOrigin);
    record(Severity::Error, ErrorCode::ScaleMismatch, Op,
           formatError("operands carry mismatched scales: ", C.Scale,
                       " (value from ", originName(C.OriginNode), ") vs ",
                       OtherScale, " (", OtherDesc, ")"));
  }

  std::string originName(int Node) const {
    if (Node < 0)
      return "input packing";
    for (const VerifierNodeStats &S : Stats)
      if (S.NodeId == Node)
        return "layer '" + S.Label + "'";
    return "node #" + std::to_string(Node);
  }

  /// RNS: the level of \p C in the compiled chain.
  int levelOf(const Ct &C) const {
    return static_cast<int>(Config.ScalePrimeCandidates.size()) -
           C.ConsumedPrimes;
  }

  /// Generated level of the key serving one (normalized) rotation step
  /// or power-of-two hop; INT_MAX for full-level keys.
  int keyLevel(int Step) const {
    auto It = Config.RotationKeyLevels.find(Step);
    return It == Config.RotationKeyLevels.end() ? INT_MAX : It->second;
  }

  /// RNS: reports a servable rotation whose key (or one of whose
  /// power-of-two hop keys) was generated below \p C's level.
  void checkKeyLevel(const char *Op, const Ct &C, int Step) {
    if (!Config.Rns || Config.RotationKeyLevels.empty())
      return;
    int Level = levelOf(C);
    int Served = INT_MAX, Short = Step;
    if (EffectiveKeys.count(Step)) {
      Served = keyLevel(Step);
    } else {
      forEachHop(Step, [&](int Hop) {
        if (keyLevel(Hop) < Served) {
          Served = keyLevel(Hop);
          Short = Hop;
        }
      });
    }
    if (Served < Level)
      record(Severity::Error, ErrorCode::MissingRotationKey, Op,
             formatError("rotation by ", Step, " slots at level ", Level,
                         " exceeds the level ", Served,
                         " the Galois key for step ", Short,
                         " was generated to"));
  }

  /// Calls \p F with each normalized power-of-two hop of \p Step over
  /// the shorter direction, exactly as the backends decompose
  /// (missingRotationSteps in Validate.cpp).
  template <typename Fn> void forEachHop(int Step, Fn F) const {
    int64_t Remaining = Step <= static_cast<int64_t>(Slots / 2)
                            ? Step
                            : Step - static_cast<int64_t>(Slots);
    int Direction = Remaining >= 0 ? 1 : -1;
    uint64_t Mag =
        static_cast<uint64_t>(Remaining >= 0 ? Remaining : -Remaining);
    for (int Bit = 0; Mag != 0; ++Bit, Mag >>= 1) {
      if (!(Mag & 1))
        continue;
      int64_t Hop = static_cast<int64_t>(Direction) * (int64_t(1) << Bit);
      F(static_cast<int>((Hop % static_cast<int64_t>(Slots) +
                          static_cast<int64_t>(Slots)) %
                         static_cast<int64_t>(Slots)));
    }
  }

  bool rotationServable(int Step) const {
    if (EffectiveKeys.count(Step))
      return true;
    // Power-of-two fallback over the shorter direction.
    bool Servable = true;
    forEachHop(Step,
               [&](int Hop) { Servable &= EffectiveKeys.count(Hop) != 0; });
    return Servable;
  }

  void record(Severity Sev, ErrorCode Code, const char *Op,
              std::string Message) const {
    recordAt(Sev, Code, Op, CurrentNode, std::move(Message));
  }

  /// Record-time dedup: repeats of (code, node, instruction) bump a
  /// counter instead of flooding the report -- one conv layer can trip
  /// the same check hundreds of times.
  void recordAt(Severity Sev, ErrorCode Code, const char *Op, int Node,
                std::string Message) const {
    auto Key = std::make_tuple(static_cast<int>(Code), Node, Op);
    auto It = EventIndex.find(Key);
    if (It != EventIndex.end()) {
      ++Events[It->second].Count;
      return;
    }
    EventIndex.emplace(Key, Events.size());
    Events.push_back({Sev, Code, Op, Node, std::move(Message), 1});
  }

  VerifierBackendConfig Config;
  size_t Slots;
  std::set<int> EffectiveKeys;
  int CurrentNode = -1;
  std::vector<VerifierNodeStats> Stats;

  // Diagnostics are recorded from const instructions too (maxRescale,
  // decrypt), hence mutable.
  mutable std::vector<VerifierEvent> Events;
  mutable std::map<std::tuple<int, int, const char *>, size_t> EventIndex;
  mutable std::vector<RotationEvent> RotEvents;
};

/// The verifier's abstract domain ignores slot contents; skipping the
/// weight/mask vector builds keeps re-verification cheap next to compile.
template <>
inline constexpr bool BackendEncodeIsValueAgnostic<VerifierBackend> = true;

static_assert(HisaBackend<VerifierBackend>,
              "VerifierBackend must satisfy the HISA concept");
static_assert(HisaProvenanceSink<VerifierBackend>,
              "VerifierBackend must receive node provenance");

} // namespace chet

#endif // CHET_HISA_VERIFIERBACKEND_H
